"""Command-line surface: frozen text output, JSON payloads, exit codes."""

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import whideal
from whideal import cli
from whideal.cli import main
from whideal.errors import ValidationError

WORKED = "x^2 + y^2 + z^2 + u^2*w^2 + u^4 + w^5"


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- analyze -------------------------------------------------------------------


def test_analyze_text_report_frozen(capsys):
    code, out, _ = run_main(capsys, ["analyze", WORKED, "--witness", "w^5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[:13] == [
        "singularity report",
        "  variables: x, y, z, u, w",
        "  minimal exponent: 2",
        "  p level: 1",
        "  minimizing facets r: 2",
        "  diagonal face dim s: 3",
        "  simplicial: yes",
        "  weight nilpotency bound: 3",
        "  hodge ideal trivial: p=0:yes p=1:yes p=2:no p=3:no",
        "  w1 ideal trivial: p=0:yes p=1:no p=2:no p=3:no",
        "  type range: (1,1), (1,2)",
        "  exact type: undetermined",
        "  compact facets:",
    ]
    assert lines[13] == (
        "    B = (1/2, 1/2, 1/2, 1/4, 1/4)  incident: "
        "(0,0,0,2,2) (0,0,0,4,0) (0,0,2,0,0) (0,2,0,0,0) (2,0,0,0,0)"
    )
    assert lines[14] == (
        "    B = (1/2, 1/2, 1/2, 3/10, 1/5)  incident: "
        "(0,0,0,0,5) (0,0,0,2,2) (0,0,2,0,0) (0,2,0,0,0) (2,0,0,0,0)"
    )
    assert lines[15] == "  notes:"
    assert lines[-2] == (
        "    - I_1^(W_1) equals the maximal ideal of the singular point "
        "(minimal exponent 2)"
    )
    assert lines[-1] == (
        "    - witness w^5 outside J(f): (t*dt)^2 dt^1 delta outside V^(>1) "
        "pattern, so the graded weight degree is >= 3; supports type (1,1)"
    )


def test_analyze_json_matches_text_values(capsys):
    code, out, _ = run_main(capsys, ["analyze", WORKED, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "whideal-report/1"
    assert data["minimal_exponent"] == "2/1"
    assert data["p_level"] == 1
    assert data["r"] == 2 and data["s"] == 3
    assert data["simplicial"] is True
    assert data["nilpotency_upper"] == 3
    assert data["type_range"] == [[1, 1], [1, 2]]
    assert data["exact_type"] is None
    assert data["hodge_triviality"] == [[0, True], [1, True], [2, False], [3, False]]
    covs = [facet["covector"] for facet in data["facets"]]
    assert covs[0] == ["1/2", "1/2", "1/2", "1/4", "1/4"]
    assert covs[1] == ["1/2", "1/2", "1/2", "3/10", "1/5"]


def test_analyze_witness_without_integer_level_uses_p_zero(capsys):
    code, out, _ = run_main(capsys, ["analyze", "x^2 + y^3", "--witness", "y"])
    assert code == 0
    assert "witness y outside J(f): (t*dt)^1 dt^0 delta" in out
    assert "supports type" not in out


def test_analyze_witness_must_be_monic_monomial(capsys):
    code, _, err = run_main(capsys, ["analyze", WORKED, "--witness", "x + y"])
    assert code == 2 and "monic monomial" in err
    code, _, err = run_main(capsys, ["analyze", WORKED, "--witness", "2*x"])
    assert code == 2 and "monic monomial" in err


def test_analyze_vars_and_file(capsys, tmp_path):
    source = tmp_path / "poly.txt"
    source.write_text("y^2 + x^3\n", encoding="utf-8")
    code, out, _ = run_main(capsys, ["analyze", "--file", str(source), "--vars", "x,y"])
    assert code == 0
    assert "  variables: x, y" in out.splitlines()
    assert "  minimal exponent: 5/6" in out.splitlines()


def test_analyze_unreadable_file(capsys, tmp_path):
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"x^2 + y^3 \xff\n")
    for path in (tmp_path / "absent.txt", tmp_path, not_utf8):
        code, out, err = run_main(capsys, ["analyze", "--file", str(path)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read polynomial file {str(path)!r}: ")
        assert err.count("\n") == 1


def test_analyze_missing_input(capsys):
    for argv in (["analyze"], ["analyze", "--json", "--vars", "x,y"]):
        assert run_main(capsys, argv) == (2, "", "error: provide polynomial text or --file\n")


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integer literals of any length",
)
def test_analyze_overlong_literal_is_a_parse_error(capsys):
    code, out, err = run_main(capsys, ["analyze", "x^" + "9" * 5000 + " + y^2"])
    assert (code, out) == (1, "")
    assert err == "parse error: integer literal of 5000 digits is too long (at position 2)\n"


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integers of any length",
)
@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_integers_past_the_digit_limit_exit_two(capsys, tmp_path, extra):
    limit = sys.get_int_max_str_digits()
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"n": 5, "middle": [[0, 3, 1]]}), encoding="utf-8")
    for argv, name in [
        (["bounds", "--n", "5000", "--d", "20000", "--p", "0"], "bound_w2_points"),
        (["dims", "--table", str(table), "--l", "2", "--p", "0", "--pushforward", "9" * 2200, "2"],
         "pushforward_dim"),
    ]:
        message = f"error: {name} exceeds {limit} digits, the interpreter's limit\n"
        assert run_main(capsys, argv + extra) == (2, "", message)
    # an integer past the limit inside the table is a table that cannot be read
    table.write_text('{"n": 5, "middle": [[0, 3, ' + "9" * 5000 + "]]}", encoding="utf-8")
    code, out, err = run_main(capsys, ["dims", "--table", str(table), "--l", "2", "--p", "0", *extra])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read table {str(table)!r}: ") and err.count("\n") == 1


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integers of any length",
)
def test_bounds_past_the_digit_limit_are_refused_before_the_binomial(capsys, monkeypatch, tmp_path):
    def comb(*args):
        raise AssertionError("math.comb ran on a bound past the digit limit")

    monkeypatch.setattr(whideal.dims.math, "comb", comb)
    limit = sys.get_int_max_str_digits()
    message = f"error: bound_w2_points exceeds {limit} digits, the interpreter's limit\n"
    for n, d in (("400000", "40000000"), ("1" + "0" * 400, "1" + "0" * 401)):
        assert run_main(capsys, ["bounds", "--n", n, "--d", d, "--p", "0"]) == (2, "", message)
    # d(1) = 1 and d(r) = 0 otherwise: the one term is C(3999999, 1999999)
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"n": 2000002, "middle": [[1, 1999998, 1]]}))
    argv = ["dims", "--table", str(table), "--l", "3", "--p", "1", "--pushforward", "2000000", "2000000"]
    message = f"error: pushforward_dim exceeds {limit} digits, the interpreter's limit\n"
    assert run_main(capsys, argv) == (2, "", message)


def test_digit_pre_check_refuses_only_binomials_past_the_limit(monkeypatch):
    monkeypatch.setattr(cli.sys, "get_int_max_str_digits", lambda: 30, raising=False)
    refused = 0
    for m in range(1, 300):
        for k in range(m + 1):
            try:
                cli._refuse_binomial_past_digits("value", m, k)
            except ValidationError:
                refused += 1
                assert len(str(math.comb(m, k))) > 30, (m, k)
    # 7,778 of the 29,740 binomials here are past 30 digits by the bound alone
    assert refused > 7000


def test_analyze_parse_error_exit(capsys):
    code, _, err = run_main(capsys, ["analyze", "x^-1"])
    assert code == 1
    assert "parse error" in err and "position" in err


def test_analyze_unexpected_character_exit(capsys):
    code, out, err = run_main(capsys, ["analyze", "x $ y"])
    assert (code, out) == (1, "")
    assert err == "parse error: unexpected character '$' (at position 2)\n"


def test_analyze_validation_exit(capsys):
    code, _, err = run_main(capsys, ["analyze", "x*y"])
    assert code == 2
    assert "not convenient" in err


def test_analyze_nonconvenient_flag_proceeds(capsys):
    code, out, _ = run_main(capsys, ["analyze", "x^2*y + y^2", "--allow-nonconvenient"])
    assert code == 0
    assert "  minimal exponent: 3/4" in out.splitlines()
    assert "not convenient" in out


def test_analyze_size_guard_exit_and_lift(capsys):
    f = " + ".join(f"x{i}^2" for i in range(1, 10))
    code, _, err = run_main(capsys, ["analyze", f, "--witness", "x1"])
    assert code == 3
    assert "size guard" in err
    code, out, _ = run_main(
        capsys, ["analyze", f, "--witness", "x1", "--groebner-limit", "9"]
    )
    assert code == 0
    assert "witness x1 lies in J(f): no obstruction" in out


def test_groebner_limit_never_lowers_the_guard(capsys):
    # 8 generator terms: within the default term limit, above N = 5
    f = "x^4 + y^4 + z^4 + u^4 + x*y*z*u"
    code, out, _ = run_main(capsys, ["analyze", f, "--witness", "x*y"])
    assert code == 0
    lifted = run_main(capsys, ["analyze", f, "--witness", "x*y", "--groebner-limit", "5"])
    assert lifted == (0, out, "")


def test_unknown_subcommand_exits_two(capsys):
    assert run_main(capsys, ["nope"])[0] == 2


# -- snc -----------------------------------------------------------------------


def test_snc_text_outputs(capsys):
    assert run_main(capsys, ["snc", "--n", "2", "--r", "2", "--p", "1"])[1] == "(x1, x2)\n"
    code, out, _ = run_main(capsys, ["snc", "--n", "2", "--r", "2", "--p", "1", "--l", "1"])
    assert code == 0 and out == "(x1^2, x2^2)\n"
    out = run_main(capsys, ["snc", "--n", "3", "--r", "3", "--p", "1"])[1]
    assert out == "(x1x2, x1x3, x2x3)\n"


def test_snc_verify_lines(capsys):
    code, out, _ = run_main(
        capsys, ["snc", "--n", "3", "--r", "2", "--p", "2", "--verify"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all checks passed"
    assert any(line.startswith("PASS chain") for line in lines)
    assert any(line.startswith("PASS w0-principal") for line in lines)


def test_snc_json_payload(capsys):
    code, out, _ = run_main(
        capsys, ["snc", "--n", "2", "--r", "2", "--p", "1", "--l", "1", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "whideal-snc/1"
    assert data["n"] == 2 and data["r"] == 2 and data["p"] == 1 and data["l"] == 1
    assert data["generators"] == [[2, 0], [0, 2]]
    assert data["rendered"] == "(x1^2, x2^2)"


def test_snc_verify_json_payload(capsys):
    code, out, _ = run_main(capsys, ["snc", "--n", "3", "--r", "2", "--p", "2", "--verify", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == [[2, 0, 0], [1, 1, 0], [0, 2, 0]]
    expected = whideal.verify_snc_theorems(whideal.SncModel(3, 2), 2).to_json_dict()
    assert payload["verification"] == expected


def test_snc_validation_exit(capsys):
    code, _, err = run_main(capsys, ["snc", "--n", "2", "--r", "3", "--p", "0"])
    assert code == 2 and "error:" in err


def test_snc_generator_guard_exits_three(capsys):
    for argv, count in [
        (["snc", "--n", "16", "--r", "16", "--p", "4", "--l", "8"], 4247100),
        (["snc", "--n", "16", "--r", "16", "--p", "2", "--verify"], 3080210),
        (["verify", "--n", "20", "--r", "20", "--p-max", "3"], 331350039),
    ]:
        for extra in ([], ["--json"]):
            message = f"size guard: {count} generators exceed the limit of 1000000\n"
            assert run_main(capsys, argv + extra) == (3, "", message)
    code, out, _ = run_main(capsys, ["verify", "--n", "10", "--r", "10", "--p-max", "3"])
    assert code == 0 and out.splitlines()[-1] == "all checks passed"


def test_verify_check_guard_exits_three_before_any_check(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("checks were built")

    monkeypatch.setattr(cli, "verify_snc_theorems", refuse)
    # every r of 1..3000, 101 values of p: 101 * (3000 * 6003 - 4501500) + 3000 * 100
    message = (
        "size guard: 1364557500 checks on 3000 coordinates (4093672500000 entries) "
        "exceed the limit of 10000000\n"
    )
    for extra in ([], ["--json"]):
        assert run_main(capsys, ["verify", "--n", "3000", "--p-max", "100", *extra]) == (3, "", message)
    code, _, err = run_main(capsys, ["verify", "--n", "3000", "--p-max", "-1"])
    assert code == 2 and err == "error: need p_max >= 0, got -1\n"
    # The generators of every r are summed before any is built; at n = 19
    # and p_max = 0 each r alone is under the limit: sum of r + 2^r, r <= 19.
    huge = "size guard: more than 1000000000000000000 generators exceed the limit of 1000000\n"
    sum_of_r = "size guard: 1048764 generators exceed the limit of 1000000\n"
    for argv, message in ((["--n", "100"], huge), (["--n", "19", "--p-max", "0"], sum_of_r)):
        for extra in ([], ["--json"]):
            assert run_main(capsys, ["verify", *argv, *extra]) == (3, "", message)


# -- bounds ----------------------------------------------------------------------


def test_bounds_text(capsys):
    code, out, _ = run_main(capsys, ["bounds", "--n", "2", "--d", "3", "--p", "0"])
    assert code == 0
    assert out.splitlines() == [
        "points with nontrivial W_2 piece <= 1",
        "singular points <= 3",
    ]
    out = run_main(capsys, ["bounds", "--n", "2", "--d", "3", "--p", "0", "--l", "2"])[1]
    assert out.splitlines()[-1] == "surjectivity threshold (l=2): k >= 0"


def test_bounds_json(capsys):
    code, out, _ = run_main(
        capsys, ["bounds", "--n", "3", "--d", "4", "--p", "1", "--l", "1", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data == {
        "schema": "whideal-bounds/1",
        "n": 3,
        "d": 4,
        "p": 1,
        "bound_w2_points": 35,
        "bound_singular_points": 56,
        "l": 1,
        "surjectivity_threshold": 5,
    }


# -- dims ------------------------------------------------------------------------


def write_table(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(
        json.dumps({"n": 5, "middle": [[1, 1, 1], [0, 2, 2]], "top": []}),
        encoding="utf-8",
    )
    return str(path)


def test_dims_text(capsys, tmp_path):
    path = write_table(tmp_path)
    code, out, _ = run_main(
        capsys, ["dims", "--table", path, "--l", "3", "--p", "1", "--pushforward", "5", "1"]
    )
    assert code == 0
    assert out.splitlines() == [
        "dim Gr_F^(n-p) at l=3, p=1: 1",
        "dim F_p pushforward (n=5, p=1): 13",
    ]


def test_dims_json(capsys, tmp_path):
    path = write_table(tmp_path)
    code, out, _ = run_main(
        capsys,
        ["dims", "--table", path, "--l", "3", "--p", "1", "--pushforward", "5", "1", "--json"],
    )
    assert code == 0
    assert json.loads(out) == {
        "schema": "whideal-dims/1",
        "n": 5,
        "l": 3,
        "p": 1,
        "graded_piece_dim": 1,
        "pushforward_dim": 13,
    }


def test_dims_unreadable_table(capsys, tmp_path):
    missing = str(tmp_path / "absent.json")
    code, _, err = run_main(capsys, ["dims", "--table", missing, "--l", "3", "--p", "1"])
    assert code == 2 and "cannot read table" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, _ = run_main(capsys, ["dims", "--table", str(bad), "--l", "3", "--p", "1"])
    assert code == 2
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"n": 2, "name": "\xff"}')
    code, out, err = run_main(capsys, ["dims", "--table", str(not_utf8), "--l", "3", "--p", "1"])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read table {str(not_utf8)!r}: ")
    assert err.count("\n") == 1


def test_dims_pushforward_range_names_pushforward(capsys, tmp_path):
    # the n = 5 table has pieces for p <= 3; --p 1 is valid, P is not
    path = write_table(tmp_path)
    for pair, message in [
        (("3", "4"), "need --pushforward P <= n-2, got P=4, n=5"),
        (("3", "-1"), "need --pushforward P >= 0, got -1"),
        (("0", "1"), "need --pushforward N >= 1, got 0"),
    ]:
        for extra in ([], ["--json"]):
            code, out, err = run_main(
                capsys, ["dims", "--table", path, "--l", "3", "--p", "1", "--pushforward", *pair, *extra]
            )
            assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, _ = run_main(
        capsys, ["dims", "--table", path, "--l", "3", "--p", "1", "--pushforward", "3", "3"]
    )
    assert code == 0 and out.splitlines()[1] == "dim F_p pushforward (n=3, p=3): 50"


def test_dims_pushforward_computes_no_binomial_of_a_zero_piece(capsys, tmp_path, monkeypatch):
    # n = 20002 and P = 20000: 20,001 pieces, of which at most r = 1 is nonzero
    calls = []
    binomial = whideal.dims.binomial
    monkeypatch.setattr(whideal.dims, "binomial", lambda n, k: calls.append((n, k)) or binomial(n, k))
    argv = ["--l", "3", "--p", "1", "--pushforward", "20000", "20000"]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"n": 20002, "middle": [[1, 20000, 1]]}), encoding="utf-8")
    code, out, _ = run_main(capsys, ["dims", "--table", str(path), *argv])
    assert (code, out.splitlines()[1], calls) == (0, "dim F_p pushforward (n=20000, p=20000): 0", [])
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": 20002, "middle": [[1, 19998, 1]]}), encoding="utf-8")
    code, out, err = run_main(capsys, ["dims", "--table", str(path), *argv])
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        # C(39999, 19999) >= 2^19999, past the limit before it is computed
        assert (code, out, calls) == (2, "", [])
        assert err == f"error: pushforward_dim exceeds {limit} digits, the interpreter's limit\n"
    else:
        assert (code, calls) == (0, [(39999, 19999)])


def test_dims_malformed_row_key_exits_two(capsys, tmp_path):
    # the key [1] is a list: checked as a key type, never hashed
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"n": 4, "middle": [[[1], 0, 1]]}), encoding="utf-8")
    code, out, err = run_main(capsys, ["dims", "--table", str(path), "--l", "3", "--p", "1"])
    assert (code, out) == (2, "")
    assert err == "error: middle entry key ([1], 0) must be a pair of ints\n"


# -- verify ------------------------------------------------------------------------


def test_verify_sweep(capsys):
    code, out, _ = run_main(capsys, ["verify", "--n", "3", "--p-max", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all checks passed"
    assert any("n=3 r=1" in line for line in lines)
    assert any("n=3 r=3" in line for line in lines)


def test_verify_needs_a_model(capsys):
    for argv in (["--n", "0"], ["--n", "-2", "--json"], ["--n", "0", "--p-max", "-1"]):
        code, out, err = run_main(capsys, ["verify", *argv])
        assert code == 2 and out == ""
        assert err == f"error: need n >= 1, got {argv[1]}\n"


def test_verify_json_single_r(capsys):
    code, out, _ = run_main(capsys, ["verify", "--n", "4", "--r", "2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "whideal-verify/1"
    assert data["all_passed"] is True
    assert len(data["runs"]) == 1
    assert data["runs"][0]["r"] == 2


# -- styling ------------------------------------------------------------------------


def test_color_gating(monkeypatch):
    class FakeTty:
        def isatty(self):
            return True

    monkeypatch.setattr(cli.sys, "stdout", FakeTty())
    monkeypatch.delenv("WHIDEAL_NO_COLOR", raising=False)
    assert cli._style("ok", "32") == "\x1b[32mok\x1b[0m"
    monkeypatch.setenv("WHIDEAL_NO_COLOR", "1")
    assert cli._style("ok", "32") == "ok"


class TtyBuffer(io.StringIO):
    def isatty(self):
        return True


PASS = "\x1b[32mPASS\x1b[0m"

# The exact bytes a terminal receives.  The checks of a model for p <= 1
# come in verify_snc_theorems' order; `verify` names the model on each line.
STYLED_OUTPUT = {
    ("analyze", "x^2 + y^3"): (
        "\x1b[1msingularity report\x1b[0m\n"
        "  variables: x, y\n"
        "  minimal exponent: 5/6\n"
        "  p level: -\n"
        "  minimizing facets r: 1\n"
        "  diagonal face dim s: -\n"
        "  simplicial: yes\n"
        "  weight nilpotency bound: -\n"
        "  hodge ideal trivial: p=0:no p=1:no p=2:no p=3:no\n"
        "  w1 ideal trivial: p=0:no p=1:no p=2:no p=3:no\n"
        "  type range: -\n"
        "  exact type: undetermined\n"
        "  compact facets:\n"
        "    B = (1/2, 1/3)  incident: (0,3) (2,0)\n"
        "  notes:\n"
        "    - assumed: isolated singularity at the origin and nondegenerate "
        "Newton boundary (asserted, not verified)\n"
    ),
    ("snc", "--n", "2", "--r", "2", "--p", "1", "--verify"): (
        "(x1, x2)\n"
        f"{PASS} chain p=0 l=0\n"
        f"{PASS} chain p=0 l=1\n"
        f"{PASS} chain p=0 l=2\n"
        f"{PASS} stabilization p=0 l=2\n"
        f"{PASS} w0-principal p=0 l=0\n"
        f"{PASS} chain p=1 l=0\n"
        f"{PASS} chain p=1 l=1\n"
        f"{PASS} chain p=1 l=2\n"
        f"{PASS} stabilization p=1 l=2\n"
        f"{PASS} w0-principal p=1 l=0\n"
        f"{PASS} adjoint-containment p=1\n"
        "all checks passed\n"
    ),
    ("verify", "--n", "2", "--p-max", "1"): (
        f"{PASS} chain n=2 r=1 p=0 l=0\n"
        f"{PASS} chain n=2 r=1 p=0 l=1\n"
        f"{PASS} chain n=2 r=1 p=0 l=2\n"
        f"{PASS} stabilization n=2 r=1 p=0 l=1\n"
        f"{PASS} stabilization n=2 r=1 p=0 l=2\n"
        f"{PASS} w0-principal n=2 r=1 p=0 l=0\n"
        f"{PASS} chain n=2 r=1 p=1 l=0\n"
        f"{PASS} chain n=2 r=1 p=1 l=1\n"
        f"{PASS} chain n=2 r=1 p=1 l=2\n"
        f"{PASS} stabilization n=2 r=1 p=1 l=1\n"
        f"{PASS} stabilization n=2 r=1 p=1 l=2\n"
        f"{PASS} w0-principal n=2 r=1 p=1 l=0\n"
        f"{PASS} adjoint-containment n=2 r=1 p=1\n"
        f"{PASS} chain n=2 r=2 p=0 l=0\n"
        f"{PASS} chain n=2 r=2 p=0 l=1\n"
        f"{PASS} chain n=2 r=2 p=0 l=2\n"
        f"{PASS} stabilization n=2 r=2 p=0 l=2\n"
        f"{PASS} w0-principal n=2 r=2 p=0 l=0\n"
        f"{PASS} chain n=2 r=2 p=1 l=0\n"
        f"{PASS} chain n=2 r=2 p=1 l=1\n"
        f"{PASS} chain n=2 r=2 p=1 l=2\n"
        f"{PASS} stabilization n=2 r=2 p=1 l=2\n"
        f"{PASS} w0-principal n=2 r=2 p=1 l=0\n"
        f"{PASS} adjoint-containment n=2 r=2 p=1\n"
        "all checks passed\n"
    ),
}


@pytest.mark.parametrize("argv", list(STYLED_OUTPUT), ids=lambda argv: argv[0])
def test_styled_output_on_a_terminal(monkeypatch, argv):
    styled = STYLED_OUTPUT[argv]
    for no_color, expected in ((None, styled), ("1", re.sub(r"\x1b\[\d+m", "", styled))):
        if no_color is None:
            monkeypatch.delenv("WHIDEAL_NO_COLOR", raising=False)
        else:
            monkeypatch.setenv("WHIDEAL_NO_COLOR", no_color)
        tty = TtyBuffer()
        with contextlib.redirect_stdout(tty):
            code = main(list(argv))
        assert (code, tty.getvalue()) == (0, expected)


def test_piped_output_is_plain(capsys):
    out = run_main(capsys, ["snc", "--n", "2", "--r", "1", "--p", "0", "--verify"])[1]
    assert "\x1b[" not in out


# -- process-level checks -------------------------------------------------------------


def child_env():
    """The environment with PYTHONPATH at the whideal these tests imported."""
    return dict(os.environ, PYTHONPATH=str(Path(whideal.__file__).resolve().parent.parent))


def run_process(argv):
    return subprocess.run(
        [sys.executable, "-m", "whideal", *argv],
        capture_output=True,
        timeout=60,
        env=child_env(),
    )


def test_cli_imports_no_dataclasses():
    # -S keeps site-packages .pth files, which may import anything, out of it
    probe = "import whideal.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, timeout=60, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "[]"


def test_module_entry_point_deterministic():
    first = run_process(["analyze", WORKED, "--witness", "w^5", "--json"])
    second = run_process(["analyze", WORKED, "--witness", "w^5", "--json"])
    assert first.returncode == 0
    assert first.stdout == second.stdout
    data = json.loads(first.stdout)
    assert data["minimal_exponent"] == "2/1"


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def write_console_script(directory, spec):
    """Write the launcher an installer generates for the entry point `spec`."""
    module, _, func = spec.partition(":")
    script = directory / "whideal"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({func}())\n"
    )
    script.chmod(0o755)
    return script


def test_console_script_installed(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["whideal"]
    script = write_console_script(tmp_path, spec)

    def run_script(argv):
        return subprocess.run(
            [str(script), *argv], capture_output=True, timeout=60, cwd=tmp_path, env=child_env()
        )

    proc = run_script(["bounds", "--n", "2", "--d", "3", "--p", "0"])
    assert proc.returncode == 0
    assert proc.stdout.decode().splitlines()[0] == "points with nontrivial W_2 piece <= 1"
    assert run_script(["analyze", "x^-1"]).returncode == 1
    assert run_script(["analyze", "x*y"]).returncode == 2


SCRIPTS_WHIDEAL = Path(sysconfig.get_path("scripts")) / "whideal"
INSTALLED_WHIDEAL = SCRIPTS_WHIDEAL if SCRIPTS_WHIDEAL.exists() else shutil.which("whideal")


@pytest.mark.skipif(
    INSTALLED_WHIDEAL is None,
    reason=f"no installed whideal script: {SCRIPTS_WHIDEAL} does not exist and PATH has none",
)
def test_installed_console_script_runs():
    proc = subprocess.run(
        [str(INSTALLED_WHIDEAL), "bounds", "--n", "2", "--d", "3", "--p", "0"],
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.decode().splitlines()[0] == "points with nontrivial W_2 piece <= 1"


def test_process_exit_codes():
    assert run_process(["analyze", "x^-1"]).returncode == 1
    assert run_process(["analyze", "x*y"]).returncode == 2
    nine = " + ".join(f"x{i}^2" for i in range(1, 10))
    assert run_process(["analyze", nine, "--witness", "x1"]).returncode == 3


@pytest.mark.parametrize(
    "argv",
    [["verify", "--n", "2", "--p-max", "1"], ["bounds", "--n", "2", "--d", "3", "--p", "0", "--json"]],
    ids=["text", "json"],
)
def test_closed_pipe_keeps_the_exit_code(argv):
    # The read end is closed before the child starts, so its first write
    # meets a pipe with no reader.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "whideal", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=60,
            env=child_env(),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
