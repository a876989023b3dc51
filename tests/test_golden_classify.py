"""Byte-identity gate for the Newton engine: classify reports on seeded supports.

`golden_classify.json` holds, for each seeded support, the sha256 of
`json.dumps(classify(f, allow_nonconvenient=True).to_json_dict(),
sort_keys=True)` (or of the error text when classify refuses the input) and
of the sorted polyhedron vertices.  A change to the engine that keeps every
report must keep every digest.  Regenerate only for a change that means to
alter reports, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_classify.py
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from whideal import Polynomial, ValidationError, classify, compute_polyhedron, is_convenient

GOLDEN = Path(__file__).with_name("golden_classify.json")
SEED = 2026
COUNT = 320


def _box_point(rng, n):
    while True:
        e = tuple(rng.randint(0, 6) for _ in range(n))
        if sum(e) >= 2:
            return e


def _convenient(rng, n):
    """Pure powers plus a few points of the box [0, 6]^n."""
    support = set()
    for i in range(n):
        e = [0] * n
        e[i] = rng.randint(2, 6)
        support.add(tuple(e))
    for _ in range(rng.randint(0, 8 - n)):
        support.add(_box_point(rng, n))
    return support


def _non_convenient(rng, n):
    """A convenient support with one pure power traded for x_i^a * x_j."""
    while True:
        support = _convenient(rng, n)
        i, j = rng.sample(range(n), 2)
        support = {e for e in support if e[i] == 0 or sum(e) != e[i]}
        e = [0] * n
        e[i], e[j] = rng.randint(1, 4), 1
        support.add(tuple(e))
        if not is_convenient(_polynomial(n, support)):
            return support


def _with_dominated(rng, support, n):
    """Add up to three points that a support point divides: k*p or p + d."""
    points = sorted(support)
    for _ in range(rng.randint(0, 3)):
        p = rng.choice(points)
        if rng.random() < 0.5:
            support.add(tuple(rng.randint(2, 3) * x for x in p))
        else:
            d = tuple(rng.randint(0, 2) for _ in range(n))
            if any(d):
                support.add(tuple(x + y for x, y in zip(p, d)))
    return support


def _polynomial(n, support):
    return Polynomial([f"x{i}" for i in range(n)], {e: 1 for e in support})


def generate_supports():
    """COUNT seeded supports, n = 2..5, odd-numbered ones non-convenient."""
    rng = random.Random(SEED)
    out = []
    for k in range(COUNT):
        n = 2 + k // 2 % 4
        make = _non_convenient if k % 2 else _convenient
        out.append(sorted(_with_dominated(rng, make(rng, n), n)))
    return out


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def digests(support):
    """(report digest, vertex digest) of one support."""
    f = _polynomial(len(support[0]), support)
    try:
        report = classify(f, allow_nonconvenient=True)
    except ValidationError as exc:
        report_json, polyhedron = {"error": str(exc)}, compute_polyhedron(f)
    else:
        report_json, polyhedron = report.to_json_dict(), report.polyhedron
    return _sha(report_json), _sha([list(v) for v in sorted(polyhedron.vertices)])


def test_reports_and_vertices_match_the_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    cases = golden["cases"]
    assert len(cases) == COUNT
    for case in cases:
        support = [tuple(p) for p in case["support"]]
        assert digests(support) == (case["classify"], case["vertices"]), support


def test_golden_supports_come_from_the_generator():
    golden = json.loads(GOLDEN.read_text())
    assert [case["support"] for case in golden["cases"]] == [
        [list(p) for p in s] for s in generate_supports()
    ]


def main() -> None:
    cases = []
    for support in generate_supports():
        report, vertices = digests(support)
        cases.append({"support": [list(p) for p in support], "classify": report, "vertices": vertices})
    GOLDEN.write_text(
        json.dumps({"seed": SEED, "cases": cases}, separators=(",", ":")).replace('},{"', '},\n{"') + "\n"
    )
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
