"""Acceptance gate.

Each test covers one numbered criterion end to end and prints a single
ACCEPTANCE line (run with -s to see them on success).  All comparisons are
exact; the only tolerances are the stated wall-clock budgets.
"""

import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from pathlib import Path

from oracle_membership import truncated_membership
from oracle_newton import facet_oracle, rho_one_oracle

import whideal
from whideal import (
    HodgeNumberTable,
    MonomialIdeal,
    Polynomial,
    ValidationError,
    binomial,
    compute_polyhedron,
    graded_piece_dim,
    hockey_stick,
    hodge_ideal_snc,
    ideal_membership,
    minimal_exponent,
    projective_bounds,
    pushforward_filtration_dim,
    surjectivity_threshold,
    weighted_hodge_ideal_snc,
)
from whideal.snc import SncModel

WORKED = "x^2 + y^2 + z^2 + u^2*w^2 + u^4 + w^5"


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


def diagonal(exps):
    n = len(exps)
    names = tuple(f"x{i + 1}" for i in range(n))
    terms = {}
    for i, a in enumerate(exps):
        e = [0] * n
        e[i] = a
        terms[tuple(e)] = Fraction(1)
    return Polynomial(names, terms)


def test_criterion_1_worked_example():
    with criterion(1, "worked-example reproduction"):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "whideal", "analyze", WORKED, "--witness", "w^5", "--json"],
            capture_output=True,
            timeout=10,
            env=dict(os.environ, PYTHONPATH=str(Path(whideal.__file__).resolve().parent.parent)),
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["minimal_exponent"] == "2/1"
        assert data["r"] == 2
        assert data["nilpotency_upper"] == 3
        assert [1, True] in data["hodge_triviality"]
        assert [1, False] in data["w1_triviality"]
        assert any("witness w^5 outside J(f)" in note for note in data["notes"])
        assert [1, 1] in data["type_range"]
        assert elapsed < 1.0, f"analyze took {elapsed:.2f}s"


def test_criterion_2_snc_theorem_suite():
    with criterion(2, "normal-crossings theorem suite"):
        start = time.perf_counter()
        for n in range(1, 6):
            for r in range(1, n + 1):
                model = SncModel(n, r)
                for p in range(4):
                    full = hodge_ideal_snc(model, p)
                    weighted = [
                        weighted_hodge_ideal_snc(model, p, l) for l in range(n + 2)
                    ]
                    for l in range(n + 1):
                        assert weighted[l].is_subideal(weighted[l + 1]), (n, r, p, l)
                    for l in range(r, n + 1):
                        assert weighted[l] == full, (n, r, p, l)
                    principal = [p + 1 if i < r else 0 for i in range(n)]
                    assert weighted[0] == MonomialIdeal(n, [tuple(principal)]), (n, r, p)
                    if p >= 1:
                        adjoint = weighted_hodge_ideal_snc(model, 0, 1)
                        assert full.is_subideal(adjoint), (n, r, p)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"suite took {elapsed:.2f}s"


def test_criterion_3_newton_oracle_equivalence():
    with criterion(3, "Newton facet oracle equivalence"):
        rng = random.Random(58211)
        for _ in range(200):
            n = rng.randint(1, 4)
            points = set()
            for i in range(n):
                e = [0] * n
                e[i] = rng.randint(1, 6)
                points.add(tuple(e))
            for _ in range(rng.randint(0, 8 - n)):
                e = tuple(rng.randint(0, 6) for _ in range(n))
                if any(e):
                    points.add(e)
            f = Polynomial(
                tuple(f"x{i + 1}" for i in range(n)),
                {e: Fraction(1) for e in points},
            )
            polyhedron = compute_polyhedron(f)
            produced = [
                (facet.covector, tuple(facet.incident_points))
                for facet in polyhedron.facets
            ]
            expected = facet_oracle(points)
            assert produced == expected, points
            rho = rho_one_oracle(points)
            if rho is None:
                assert not polyhedron.facets, points
            else:
                assert polyhedron.shifted_weight_one() == rho, points


def test_criterion_4_diagonal_law():
    with criterion(4, "diagonal minimal-exponent law"):
        for n in range(1, 6):
            for exps in product(range(2, 10), repeat=n):
                assert minimal_exponent(diagonal(exps)) == sum(
                    Fraction(1, a) for a in exps
                ), exps


def test_criterion_5_dimension_identity():
    with criterion(5, "filtration dimension identity"):
        rng = random.Random(77013)
        for p in range(6):
            for n in range(1, 9):
                for _ in range(3):
                    d = {r: rng.randint(0, 9) for r in range(p + 1)}
                    double = sum(
                        binomial(n - 1 + q, q) * d[r]
                        for r in range(p + 1)
                        for q in range(p - r + 1)
                    )
                    assert pushforward_filtration_dim(d, p, n) == double, (p, n, d)
        assert all(hockey_stick(n, m) for n in range(1, 21) for m in range(21))


def test_criterion_6_bounds_arithmetic():
    with criterion(6, "projective bounds arithmetic"):
        assert projective_bounds(2, 3, 0) == (1, 3)
        cases = 0
        for n in range(1, 6):
            for d in range(1, 6):
                for p in range(2):
                    assert surjectivity_threshold(n, d, p, 1) == (p + 1) * d - n
                    assert surjectivity_threshold(n, d, p, 2) == (p + 1) * d - n - 1
                    assert surjectivity_threshold(n, d, p, 5) == (p + 1) * d - n - 1
                    cases += 1
        assert cases == 50


def test_criterion_7_membership_oracle():
    with criterion(7, "membership oracle agreement"):
        rng = random.Random(90125)
        names = ("x", "y", "z")

        def random_poly(max_terms, max_deg):
            terms = {}
            for _ in range(rng.randint(1, max_terms)):
                while True:
                    e = tuple(rng.randint(0, max_deg) for _ in range(3))
                    if sum(e) <= max_deg:
                        break
                terms[e] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
            return Polynomial(names, {e: c for e, c in terms.items() if c})

        checked = 0
        attempts = 0
        while checked < 100:
            attempts += 1
            assert attempts < 1000
            generators = [random_poly(3, 4) for _ in range(rng.randint(1, 2))]
            generators = [g for g in generators if not g.is_zero]
            if not generators:
                continue
            if attempts % 3 == 0:
                g = generators[0] * random_poly(2, 2)
            else:
                g = random_poly(3, 4)
            if g.is_zero or g.total_degree() > 4:
                continue
            assert ideal_membership(g, generators) == truncated_membership(
                g, generators
            ), (g, generators)
            checked += 1


def test_criterion_8_table_dimension_invariants():
    with criterion(8, "table dimension invariants"):
        # sheaf-level statements are covered by the suites above; what is
        # checkable here is the dimension constraint on the exceptional
        # divisor: entries outside 0 <= a, b <= n-2 must vanish, which
        # forces the weight-2 correction term to zero at p = 0
        for n in range(3, 9):
            try:
                HodgeNumberTable(n, top={(n - 1, 1): 1})
                raise AssertionError(f"out-of-range top entry accepted at n={n}")
            except ValidationError:
                pass
            t = HodgeNumberTable(n, middle={(0, n - 2): 4}, top={})
            assert graded_piece_dim(t, 2, 0) == 4
            empty = HodgeNumberTable(n)
            assert graded_piece_dim(empty, 2, 0) == 0
