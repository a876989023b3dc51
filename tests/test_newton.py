import random
from fractions import Fraction
from itertools import product
from math import comb, lcm

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
    # Large coprime exponents make the lcm of the covector's denominators
    # far exceed each denominator.
    for exps in [(2, 2), (2, 3, 5), (3, 4, 4, 9), (97, 89, 83, 79, 73), (64, 81, 125, 49, 121)]:
        n = len(exps)
        terms = {}
        for i, a in enumerate(exps):
            e = [0] * n
            e[i] = a
            terms[tuple(e)] = 1
        f = Polynomial([f"x{i}" for i in range(n)], terms)
        np_ = compute_polyhedron(f)
        assert len(np_.facets) == 1
        assert np_.facets[0].covector == tuple(Fraction(1, a) for a in exps)
        assert np_.shifted_weight_one() == sum(Fraction(1, a) for a in exps)
        assert minimal_exponent(f) == sum(Fraction(1, a) for a in exps)


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


def _wide_exponent_support(rng, n, convenient):
    """Up to n + 4 points with entries up to 40, so covectors have large,
    mostly coprime denominators; about two in five entries are zero."""
    support = set()
    if convenient:
        support.update(tuple(rng.randint(2, 40) * (j == i) for j in range(n)) for i in range(n))
    size = len(support) + rng.randint(1, 4)
    while len(support) < size:
        e = tuple(0 if rng.random() < 0.4 else rng.randint(1, 40) for _ in range(n))
        if any(e):
            support.add(e)
    return support


def test_wide_exponents_match_brute_force_oracle():
    # Facet levels are compared in integers after clearing the covector's
    # denominators; entries up to 40 give many-digit lcms, and non-convenient
    # supports send `vertices` through the facets of projections as well.
    rng = random.Random(2540)
    supports = [
        _wide_exponent_support(rng, n, convenient=k % 2 == 0)
        for n in (2, 3, 4, 5)
        for k in range(20)
    ]
    nonconvenient = sum(not is_convenient(_polynomial(s)) for s in supports)
    assert nonconvenient >= 20
    for support in supports:
        np_ = compute_polyhedron(_polynomial(support))
        got = [(facet.covector, facet.incident_points) for facet in np_.facets]
        assert got == facet_oracle(support), sorted(support)
        assert np_.vertices == vertex_oracle(support), sorted(support)


@pytest.fixture
def covector_calls(monkeypatch):
    """The point tuples `_covector_for` is called with, in call order."""
    calls = []

    def counting(points):
        calls.append(points)
        return _covector_for(points)

    monkeypatch.setattr(whideal.newton, "_covector_for", counting)
    return calls


def test_facets_solve_only_undominated_subsets(covector_calls):
    base = "x^6 + y^6 + z^6 + x*y*z"  # four undominated points
    dominated = ["x^6*y", "x*y*z^2", "x^2*y^3*z", "y^7*z"]
    facets = compute_polyhedron(parse_polynomial(base)).facets
    for k in range(len(dominated) + 1):
        covector_calls.clear()
        np_ = compute_polyhedron(parse_polynomial(" + ".join([base] + dominated[:k])))
        assert len(np_.support) == 4 + k
        assert len(covector_calls) == comb(4, 3)
        assert np_.facets == facets
    # A diagonal has exactly n points: one subset.
    covector_calls.clear()
    assert minimal_exponent(parse_polynomial("x^2 + y^3 + z^5 + u^7")) == Fraction(247, 210)
    assert len(covector_calls) == 1



# -- the facet skip: subsets inside a facet with more than n points -----------


def _on_and_beyond(a, box):
    """The points of the box prod [0, box_i] on the hyperplane sum e_i / a_i = 1,
    as a list, and those on or beyond it, as a set; in integers, with
    weights L / a_i and level L = lcm(a)."""
    big = lcm(*a)
    weights = [big // x for x in a]
    levels = {e: sum(w * x for w, x in zip(weights, e)) for e in product(*(range(x + 1) for x in box))}
    return [e for e, v in levels.items() if v == big], {e for e, v in levels.items() if v >= big}


def _pure_powers(a):
    n = len(a)
    return {tuple(x if j == i else 0 for j in range(n)) for i, x in enumerate(a)}


def _weighted_homogeneous_support(rng, n):
    """Pure powers x_i^{a_i} and mixed points of sum e_i / a_i = 1: one wide facet."""
    while True:
        a = [rng.choice((2, 3, 4, 6)) for _ in range(n)]
        mixed = [e for e in _on_and_beyond(a, a)[0] if sum(1 for x in e if x) > 1]
        if mixed:
            return _pure_powers(a) | set(rng.sample(mixed, min(len(mixed), rng.randint(1, 8 - n))))


def _two_wide_facets_support(rng, n):
    """Points on two crossing hyperplanes sum e_i / a_i = 1 and sum e_i / b_i = 1,
    each on or beyond the other, kept once two compact facets carry more
    than n of them.  b is a with one entry raised and another lowered."""
    values = (4, 6, 8, 12) if n == 2 else (2, 3, 4, 6)
    while True:
        a = [rng.choice(values) for _ in range(n)]
        i, j = rng.sample(range(n), 2)
        up, down = [v for v in values if v > a[i]], [v for v in values if v < a[j]]
        if not (up and down):
            continue
        b = list(a)
        b[i], b[j] = rng.choice(up), rng.choice(down)
        box = [max(x, y) for x, y in zip(a, b)]
        on_a, beyond_a = _on_and_beyond(a, box)
        on_b, beyond_b = _on_and_beyond(b, box)
        sides = [[e for e in on_a if e in beyond_b], [e for e in on_b if e in beyond_a]]
        support = {e for side in sides for e in rng.sample(side, min(len(side), rng.randint(n, n + 1)))}
        support |= _pure_powers(box)
        if sum(1 for _, incident in facet_oracle(support) if len(incident) > n) >= 2:
            return support


def _skip_variants(rng, support):
    """The support, the same with dominated points added, and a non-convenient
    variant: one pure power dropped, or every point times x_j."""
    n = len(next(iter(support)))
    dominated = set(support)
    for b in rng.sample(sorted(support), min(3, len(support))):
        d = tuple(rng.randint(0, 2) for _ in range(n))
        dominated.add(tuple(x + y for x, y in zip(b, d if any(d) else (1,) * n)))
    j = rng.randrange(n)
    if rng.random() < 0.5:
        nonconvenient = {e for e in support if not (e[j] and sum(1 for x in e if x) == 1)}
    else:
        nonconvenient = {tuple(x + (i == j) for i, x in enumerate(e)) for e in support}
    return [support, dominated, nonconvenient]


def test_facet_skip_matches_brute_force_oracle(covector_calls):
    rng = random.Random(1414)
    supports = []
    for n in (2, 3, 4):
        for make in (_weighted_homogeneous_support, _two_wide_facets_support):
            for _ in range(3):
                supports += _skip_variants(rng, make(rng, n))
    solved = subsets = 0
    for support in supports:
        before = len(covector_calls)
        np_ = compute_polyhedron(_polynomial(support))
        solved += len(covector_calls) - before
        subsets += comb(len(whideal.newton._undominated(np_.support, np_.n)), np_.n)
        got = [(facet.covector, facet.incident_points) for facet in np_.facets]
        assert got == facet_oracle(support), sorted(support)
        assert np_.vertices == vertex_oracle(support), sorted(support)
    # The compact facets, before any vertex projection, solved fewer subsets
    # than there are undominated ones: the skip fired.
    assert solved < subsets


def test_weighted_homogeneous_support_solves_until_its_facet(covector_calls):
    # Eight undominated points, all of degree 4: C(8, 3) = 56 subsets.  The
    # first, on the line x = 0, is singular; the second solves to the one
    # facet, which carries all eight points, so the other 54 are skipped.
    f = parse_polynomial("x^4 + y^4 + z^4 + x^2*y^2 + y^2*z^2 + x^2*z^2 + x^2*y*z + x*y*z^2")
    np_ = compute_polyhedron(f)
    assert len(covector_calls) == 2
    assert covector_calls[0] == ((0, 0, 4), (0, 2, 2), (0, 4, 0))
    assert [(facet.covector, len(facet.incident_points)) for facet in np_.facets] == [
        ((Fraction(1, 4),) * 3, 8)
    ]
    assert np_.vertices == {(4, 0, 0), (0, 4, 0), (0, 0, 4)}
    assert len(covector_calls) == 2  # a convenient support lifts no projection facets


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


def _five_variable_support(rng, convenient):
    """Pure powers up to 8 when convenient, plus 2 to 6 points of [0, 4]^5
    with about half the entries zero, so many projections miss the origin."""
    support = set()
    if convenient:
        support.update(tuple(rng.randint(2, 8) * (j == i) for j in range(5)) for i in range(5))
    size = len(support) + rng.randint(2, 6)
    while len(support) < size:
        e = tuple(0 if rng.random() < 0.5 else rng.randint(1, 4) for _ in range(5))
        if any(e):
            support.add(e)
    return support


def test_vertices_match_lp_oracle():
    rng = random.Random(6006)
    supports = []
    for k in range(1000):
        n = rng.randint(2, 4)
        make = _random_non_convenient_support if k % 2 else _random_convenient_support
        supports.append(make(rng, n))
    # n = 5 has 30 proper projections, so the most lifted faces.
    supports += [_five_variable_support(rng, convenient=k % 2 == 0) for k in range(40)]
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
