import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import whideal.newton
from oracle_newton import _cramer_unit, facet_oracle, rho_one_oracle, simplicial_oracle, vertex_oracle
from whideal import (
    Polynomial,
    ValidationError,
    compute_polyhedron,
    facets_json,
    is_convenient,
    minimal_exponent,
    parse_polynomial,
)
from whideal.newton import CompactFacet, NewtonPolyhedron, _affine_rank, _covector_for


def test_cusp_single_facet():
    np_ = compute_polyhedron(parse_polynomial("x^2 + y^3"))
    assert len(np_.facets) == 1
    facet = np_.facets[0]
    assert facet.covector == (Fraction(1, 2), Fraction(1, 3))
    assert facet.incident_points == ((0, 3), (2, 0))
    assert np_.shifted_weight_one() == Fraction(5, 6)


def test_fermat_cubic():
    np_ = compute_polyhedron(parse_polynomial("x^3 + y^3 + z^3"))
    assert len(np_.facets) == 1
    assert np_.facets[0].covector == (Fraction(1, 3),) * 3
    assert np_.shifted_weight_one() == 1


def test_worked_example_two_facets():
    f = parse_polynomial("x^2+y^2+z^2+u^2w^2+u^4+w^5")
    np_ = compute_polyhedron(f)
    covs = [facet.covector for facet in np_.facets]
    half = Fraction(1, 2)
    assert covs == [
        (half, half, half, Fraction(1, 4), Fraction(1, 4)),
        (half, half, half, Fraction(3, 10), Fraction(1, 5)),
    ]
    assert np_.shifted_weight_one() == 2
    assert np_.vertices == frozenset(f.support())
    assert np_.is_simplicial()


def test_diagonal_supports():
    for exps in [(2, 2), (2, 3, 5), (3, 4, 4, 9)]:
        n = len(exps)
        terms = {}
        for i, a in enumerate(exps):
            e = [0] * n
            e[i] = a
            terms[tuple(e)] = 1
        np_ = compute_polyhedron(Polynomial([f"x{i}" for i in range(n)], terms))
        assert len(np_.facets) == 1
        assert np_.facets[0].covector == tuple(Fraction(1, a) for a in exps)
        assert np_.shifted_weight_one() == sum(Fraction(1, a) for a in exps)


def test_non_vertex_support_point():
    np_ = compute_polyhedron(parse_polynomial("x^4 + y^4 + z^4 + x^2y^2z^2"))
    assert len(np_.facets) == 1
    assert (2, 2, 2) not in np_.vertices
    assert np_.vertices == {(4, 0, 0), (0, 4, 0), (0, 0, 4)}
    assert np_.is_simplicial()
    # the interior point is not incident to the facet
    assert np_.facets[0].incident_points == ((0, 0, 4), (0, 4, 0), (4, 0, 0))


def test_supporting_property():
    f = parse_polynomial("x^2 + x*y^3 + y^5 + x^4y^4")
    np_ = compute_polyhedron(f)
    assert np_.facets
    for facet in np_.facets:
        for a in np_.support:
            w = sum(x * b for x, b in zip(a, facet.covector))
            assert w >= 1
            assert (w == 1) == (a in facet.incident_points)


def test_interior_monomial_does_not_change_facets():
    f = parse_polynomial("x^2 + y^3")
    np_ = compute_polyhedron(f)
    bulky = parse_polynomial("x^2 + y^3 + x^3y^4", f.variables)
    assert compute_polyhedron(bulky).facets == np_.facets
    # k * p lies above p: seeded multiples of support points change nothing.
    rng = random.Random(5150)
    for _ in range(30):
        n = rng.randint(2, 4)
        support = _random_convenient_support(rng, n)
        np_ = compute_polyhedron(_polynomial(support))
        points = sorted(support)
        bulky = support | {tuple(rng.randint(2, 4) * x for x in rng.choice(points)) for _ in range(3)}
        bulky_np = compute_polyhedron(_polynomial(bulky))
        assert bulky_np.facets == np_.facets, sorted(bulky)
        assert bulky_np.vertices == np_.vertices, sorted(bulky)


def test_coefficient_independence():
    a = parse_polynomial("x^2 + y^3")
    b = parse_polynomial("7x^2 - 3/2y^3")
    assert compute_polyhedron(a) == compute_polyhedron(b)


def test_value_semantics():
    poly = compute_polyhedron(parse_polynomial("x^3 + x*y + y^3"))
    facet = poly.facets[0]
    same = CompactFacet(covector=facet.covector, incident_points=facet.incident_points)
    assert same == facet and hash(same) == hash(facet)
    assert CompactFacet(facet.covector, facet.incident_points[:1]) != facet
    assert len({facet, same, *poly.facets}) == len(poly.facets) == 2
    rebuilt = NewtonPolyhedron(n=poly.n, support=poly.support, facets=poly.facets)
    assert rebuilt == poly and hash(rebuilt) == hash(poly)
    assert NewtonPolyhedron(poly.n, poly.support, poly.facets[:1]) != poly
    assert poly != facet and facet != facet.covector
    # the cached vertices are not part of the value
    assert poly.vertices == {(3, 0), (1, 1), (0, 3)}
    assert rebuilt == poly and hash(rebuilt) == hash(poly)


def test_permutation_equivariance():
    f = parse_polynomial("x^2 + x*y^3 + y^5")
    g = parse_polynomial("y^2 + y*x^3 + x^5", ("x", "y"))  # swap the two variables
    covs_f = {facet.covector for facet in compute_polyhedron(f).facets}
    covs_g = {facet.covector for facet in compute_polyhedron(g).facets}
    assert {(b2, b1) for b1, b2 in covs_f} == covs_g


def test_errors():
    with pytest.raises(ValidationError):
        compute_polyhedron(Polynomial(("x",), {}))
    with pytest.raises(ValidationError, match="constant"):
        compute_polyhedron(parse_polynomial("1 + x^2", ("x",)))
    np_ = compute_polyhedron(parse_polynomial("x*y"))
    assert np_.facets == ()
    with pytest.raises(ValidationError, match="no compact facets"):
        np_.shifted_weight_one()


def test_is_convenient():
    assert is_convenient(parse_polynomial("x^2 + y^3"))
    assert not is_convenient(parse_polynomial("x*y"))
    assert not is_convenient(parse_polynomial("x^2 + x*y"))


def test_facets_json_shape():
    np_ = compute_polyhedron(parse_polynomial("x^2 + y^3"))
    assert facets_json(np_) == [
        {"covector": ["1/2", "1/3"], "incident_points": [[0, 3], [2, 0]]}
    ]


def _random_convenient_support(rng, n):
    support = set()
    for i in range(n):
        e = [0] * n
        e[i] = rng.randint(2, 6)
        support.add(tuple(e))
    for _ in range(rng.randint(0, 8 - n)):
        e = tuple(rng.randint(0, 6) for _ in range(n))
        if any(e):
            support.add(e)
    return support


def _interior_support(rng, n):
    """Pure powers plus up to 12 - n points of the box [0, 6]^n: mostly dominated."""
    support = {tuple(rng.randint(2, 6) if j == i else 0 for j in range(n)) for i in range(n)}
    for _ in range(rng.randint(1, 12 - n)):
        e = tuple(rng.randint(0, 6) for _ in range(n))
        if any(e):
            support.add(e)
    return support


def _interior_supports(seed, count):
    rng = random.Random(seed)
    return [_interior_support(rng, 2 + k % 4) for k in range(count)]


def _polynomial(support):
    n = len(next(iter(support)))
    return Polynomial([f"x{i}" for i in range(n)], {e: 1 for e in support})


def test_matches_brute_force_oracle():
    rng = random.Random(4401)
    supports = [_random_convenient_support(rng, rng.randint(2, 4)) for _ in range(40)]
    for support in supports + _interior_supports(4402, 24):
        f = _polynomial(support)
        np_ = compute_polyhedron(f)
        got = [(facet.covector, facet.incident_points) for facet in np_.facets]
        assert got == facet_oracle(support)
        assert np_.shifted_weight_one() == rho_one_oracle(support)


def test_facets_solve_only_undominated_subsets(monkeypatch):
    calls = []

    def counting(points):
        calls.append(points)
        return _covector_for(points)

    monkeypatch.setattr(whideal.newton, "_covector_for", counting)
    base = "x^6 + y^6 + z^6 + x*y*z"  # four undominated points
    dominated = ["x^6*y", "x*y*z^2", "x^2*y^3*z", "y^7*z"]
    facets = compute_polyhedron(parse_polynomial(base)).facets
    for k in range(len(dominated) + 1):
        calls.clear()
        np_ = compute_polyhedron(parse_polynomial(" + ".join([base] + dominated[:k])))
        assert len(np_.support) == 4 + k
        assert len(calls) == comb(4, 3)
        assert np_.facets == facets
    # A diagonal has exactly n points: one subset.
    calls.clear()
    assert minimal_exponent(parse_polynomial("x^2 + y^3 + z^5 + u^7")) == Fraction(247, 210)
    assert len(calls) == 1


# -- vertices -----------------------------------------------------------------


def test_vertex_on_a_lifted_projection_facet():
    # Compact facets alone miss (2, 1): only the facet y = 1 of the projection
    # onto y, lifted to (0, 1), pins it down.
    np_ = compute_polyhedron(parse_polynomial("x^2*y + y^2"))
    assert (2, 1) in np_.vertices
    assert np_.vertices == {(0, 2), (2, 1)}
    assert np_.is_simplicial()


def test_vertices_of_a_non_simplicial_polyhedron():
    f = parse_polynomial("x^6 + y^5 + z^6 + x*y^2*z^2 + x^3*y^2 + x^4*y^3*z + x^3*y^3*z^4")
    np_ = compute_polyhedron(f)
    assert np_.vertices == {(0, 0, 6), (0, 5, 0), (1, 2, 2), (3, 2, 0), (6, 0, 0)}
    assert not np_.is_simplicial()


def test_non_vertex_of_a_non_convenient_support():
    np_ = compute_polyhedron(parse_polynomial("x^3*y + x*y^3 + x^2*y^2*z + z^5"))
    assert (2, 2, 1) in np_.support
    assert (2, 2, 1) not in np_.vertices


def _random_non_convenient_support(rng, n):
    while True:
        support = {
            tuple(0 if rng.random() < 0.5 else rng.randint(1, 5) for _ in range(n))
            for _ in range(rng.randint(1, 8 - n))
        }
        support.discard((0,) * n)
        if support and not is_convenient(Polynomial([f"x{i}" for i in range(n)], {e: 1 for e in support})):
            return support


def test_vertices_match_lp_oracle():
    rng = random.Random(6006)
    supports = []
    for k in range(1000):
        n = rng.randint(2, 4)
        make = _random_non_convenient_support if k % 2 else _random_convenient_support
        supports.append(make(rng, n))
    for support in supports + _interior_supports(6007, 24):
        np_ = compute_polyhedron(_polynomial(support))
        assert np_.vertices == vertex_oracle(support), sorted(support)
        assert np_.is_simplicial() == simplicial_oracle(support), sorted(support)


def test_minimal_exponent_never_reads_vertices(monkeypatch):
    f = parse_polynomial("x^2+y^2+z^2+u^2w^2+u^4+w^5")
    np_ = compute_polyhedron(f)
    assert "vertices" not in np_.__dict__
    assert len(np_.vertices) == 6
    assert "vertices" in np_.__dict__

    def refuse(self):
        raise AssertionError("vertices read")

    monkeypatch.setattr(NewtonPolyhedron, "vertices", property(refuse))
    assert minimal_exponent(f) == 2
    assert minimal_exponent(parse_polynomial("x^2 + y^3 + z^7")) == Fraction(41, 42)


# -- the pivot kernel ---------------------------------------------------------


def _point_sets(count):
    """Small integer point sets in dimension 1..4; count(n) points each."""
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(0, 3)] * n), min_size=count(n), max_size=count(n)
        )
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_point_sets(lambda n: n))
def test_covector_matches_cramer_oracle(points):
    # Entries 0..3 make many subsets singular, so the None branch is exercised.
    assert _covector_for(points) == _cramer_unit(points)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda k: _point_sets(lambda n: k)))
def test_affine_rank_matches_sympy(points):
    sympy = pytest.importorskip("sympy")
    base = points[0]
    diffs = [[x - y for x, y in zip(p, base)] for p in points[1:]]
    expected = sympy.Matrix(diffs).rank() if diffs else 0
    assert _affine_rank(points) == expected
