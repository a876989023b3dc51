"""README's claim that the package holds not a single floating-point number,
checked on the source: no float literal, no float(...) call and no `math`
function that works in floats."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "whideal"

# The `math` functions that take and return integers only.
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}


def _float_uses(tree):
    math_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "math"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float(...)"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_names
            and node.attr not in INTEGER_MATH
        ):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            yield from ((node.lineno, f"math.{a.name}") for a in node.names if a.name not in INTEGER_MATH)


def test_source_has_no_floating_point():
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(SRC.glob("*.py"))
        for line, what in _float_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_scan_sees_each_kind_of_float():
    source = "import math as m\nfrom math import log, gcd\nx = 0.5 + float(2) + m.log10(3) + m.comb(4, 2)\n"
    assert sorted(what for _, what in _float_uses(ast.parse(source))) == [
        "float(...)", "literal 0.5", "math.log", "math.log10",
    ]
