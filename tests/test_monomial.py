import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_monomial import pairwise_minimal
from whideal import MonomialIdeal, ValidationError
from whideal.poly import divides, grevlex_key


def contains(ideal, m):
    """x^m lies in the ideal: some stored generator divides it."""
    return any(divides(g, m) for g in ideal.generators)


def test_minimalization():
    ideal = MonomialIdeal(2, [(2, 0), (2, 1), (0, 3), (4, 4)])
    assert ideal.generators == ((0, 3), (2, 0))


def test_canonical_generator_order_is_descending_grevlex():
    ideal = MonomialIdeal(3, [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    assert ideal.generators == ((1, 1, 0), (1, 0, 1), (0, 1, 1))
    assert ideal.render() == "(x1x2, x1x3, x2x3)"


def test_zero_and_unit():
    zero = MonomialIdeal(2, [])
    unit = MonomialIdeal(2, [(0, 0), (3, 1)])
    assert zero.is_zero and zero != MonomialIdeal(2, [(0, 0)])
    assert unit == MonomialIdeal(2, [(0, 0)]) and not unit.is_zero
    assert unit.generators == ((0, 0),)
    assert zero.render() == "(0)"
    assert unit.render() == "(1)"
    assert zero.is_subideal(unit)
    assert not unit.is_subideal(zero)
    assert contains(unit, (0, 0))
    assert not contains(zero, (5, 5))


def test_contains_monomial():
    ideal = MonomialIdeal(2, [(2, 0), (0, 2), (3, 1)])
    assert ideal.generators == ((2, 0), (0, 2))
    assert contains(ideal, (2, 0))
    assert contains(ideal, (3, 1))
    assert not contains(ideal, (1, 1))


def test_render_and_json():
    ideal = MonomialIdeal(2, [(2, 0), (0, 2)])
    assert ideal.render() == "(x1^2, x2^2)"
    assert ideal.to_json() == [[2, 0], [0, 2]]


def test_validation():
    with pytest.raises(ValidationError, match=r"^exponent \(1, 2, 3\) has length 3, expected 2$"):
        MonomialIdeal(2, [(1, 2, 3)])
    with pytest.raises(ValidationError, match=r"^negative exponent in \(-1, 0\)$"):
        MonomialIdeal(2, [(-1, 0)])
    with pytest.raises(ValidationError):
        MonomialIdeal(0, [])
    a = MonomialIdeal(2, [(1, 0)])
    with pytest.raises(ValidationError):
        a.is_subideal(MonomialIdeal(3, [(1, 0, 0)]))


def test_non_integer_exponents_are_rejected_not_truncated():
    with pytest.raises(ValidationError, match=r"exponent \(1\.5, 0\) has non-integer entry 1\.5"):
        MonomialIdeal(2, [(1.5, 0), (0, 2)])
    with pytest.raises(ValidationError, match=r"non-integer entry '2'"):
        MonomialIdeal(2, [("2", 0)])
    with pytest.raises(ValidationError, match=r"exponent \(0\.9, 3\) has non-integer entry 0\.9"):
        MonomialIdeal(2, [(1, 0), (0.9, 3)])
    with pytest.raises(ValidationError, match=r"non-integer entry 0\.5"):
        MonomialIdeal(2, [(0.5, 1)])
    # Integers of any integral type are still exponents.
    assert MonomialIdeal(2, [(True, 0)]) == MonomialIdeal(2, [(1, 0)])


def test_non_int_variable_count_is_rejected():
    for bad in ("2", 2.5, 2.0, True):
        with pytest.raises(ValidationError, match=r"^n must be an int, got "):
            MonomialIdeal(bad, [(1, 0)])


monomials = st.tuples(*[st.integers(0, 4)] * 3)
gen_sets = st.lists(monomials, min_size=0, max_size=6)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(gen_sets)
def test_construction_idempotent_and_antichain(gens):
    ideal = MonomialIdeal(3, gens)
    again = MonomialIdeal(3, ideal.generators)
    assert ideal == again
    for g in ideal.generators:
        for h in ideal.generators:
            if g != h:
                assert not all(x <= y for x, y in zip(g, h))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(gen_sets, monomials)
def test_contains_matches_raw_generator_scan(gens, m):
    ideal = MonomialIdeal(3, gens)
    raw = any(all(x <= y for x, y in zip(g, m)) for g in gens)
    assert contains(ideal, m) == raw


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gen_sets, gen_sets)
def test_partial_order_via_generators(a_gens, b_gens):
    a = MonomialIdeal(3, a_gens)
    b = MonomialIdeal(3, b_gens)
    union = MonomialIdeal(3, list(a_gens) + list(b_gens))
    assert a.is_subideal(union)
    assert b.is_subideal(union)
    if a.is_subideal(b) and b.is_subideal(a):
        assert a == b


@st.composite
def mixed_degree_lists(draw):
    """(n, generators): n <= 6 and up to 40 entries of mixed degree, drawn
    from a few monomials and their multiples, so that divisibility chains
    span several degrees and entries repeat; sometimes with the unit."""
    n = draw(st.integers(1, 6))
    exponents = st.tuples(*[st.integers(0, 2)] * n)
    pool = draw(st.lists(exponents, min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 16))):
        base, step = draw(st.sampled_from(pool)), draw(exponents)
        pool.append(tuple(a + b for a, b in zip(base, step)))
    repeats = draw(st.lists(st.sampled_from(pool), max_size=40 - len(pool)))
    gens = draw(st.permutations(pool + repeats))
    if draw(st.integers(0, 3)) == 0:
        gens.insert(draw(st.integers(0, len(gens))), (0,) * n)
    return n, gens


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mixed_degree_lists())
def test_generators_match_pairwise_antichain(case):
    n, gens = case
    expected = sorted(pairwise_minimal(gens), key=grevlex_key, reverse=True)
    assert MonomialIdeal(n, gens).generators == tuple(expected)
