"""Generator self-test.  From the repository root:

    python3 perfbench/selftest.py

Checks that every workload's inputs are a function of the seed alone (the
same seed twice gives byte-identical inputs, another seed gives different
ones), that each random-support family holds its fixed share of the
operations, that each family's vertex share (polyhedron vertices per
support point, as whideal's compute_polyhedron reports them) lies in its
stated range, and that the facet check of random-support (`compact_facets`)
gives the same facets as tests/oracle_newton.py on those inputs.  Exits 1
if any check fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import FAMILIES, WORKLOADS, RandomSupport, compact_facets

# Family -> (low, high) for the mean vertex share over the sampled inputs.
# boundary is exact: its only vertices are the n pure powers.
VERTEX_SHARE = {"interior": (0.0, 0.6), "boundary": (0.0, 0.5), "curved": (0.8, 1.0)}
SAMPLED_CYCLES = 2


def main() -> int:
    sys.path[:0] = [str(Path.cwd() / "src"), str(Path.cwd() / "tests")]
    from oracle_newton import facet_oracle
    from whideal import Polynomial, compute_polyhedron

    failures = []

    def expect(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for name, workload in sorted(WORKLOADS.items()):
        a, b, c = (json.dumps(workload.generate(s)).encode() for s in (7, 7, 8))
        expect(a == b, f"{name}: seed 7 twice gives byte-identical inputs")
        expect(a != c, f"{name}: seeds 7 and 8 give different inputs")

    rs = RandomSupport()
    inputs = rs.generate(7)
    for fam in FAMILIES:
        share = sum(1 for inp in inputs if inp[0] == fam) / len(inputs)
        expect(abs(share - 1 / len(FAMILIES)) < 1e-12, f"random-support: {fam} is 1/{len(FAMILIES)} of inputs")

    shares = {fam: [] for fam in FAMILIES}
    for family, _, terms in inputs[: SAMPLED_CYCLES * len(rs.schedule)]:
        support = [e for e, _ in terms]
        n = len(support[0])
        poly = compute_polyhedron(Polynomial([f"x{i}" for i in range(n)], {e: 1 for e in support}))
        shares[family].append(len(poly.vertices) / len(support))
        expect(compact_facets(support) == [(b, tuple(pts)) for b, pts in facet_oracle(support)],
               f"random-support: {family} input with n={n}: compact_facets agrees with facet_oracle")
        if family == "boundary":
            pure = {e for e in support if sum(1 for x in e if x) == 1}
            expect(poly.vertices == pure and len(poly.facets) == 1,
                   f"random-support: boundary input with n={n}, {len(support)} terms has one facet "
                   "and only its pure powers as vertices")
    for fam, values in shares.items():
        low, high = VERTEX_SHARE[fam]
        mean = sum(values) / len(values)
        expect(low <= mean <= high, f"random-support: {fam} mean vertex share {mean:.3f} in [{low}, {high}]")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
