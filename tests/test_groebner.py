import inspect
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_membership import truncated_membership
from whideal import (
    Polynomial,
    SizeGuardError,
    ValidationError,
    grevlex_key,
    groebner_basis,
    ideal_membership,
    jacobian_ideal,
    jacobian_witness,
    parse_polynomial,
)
from whideal.groebner import _lcm


def P(text, variables):
    return parse_polynomial(text, variables)


def test_membership_single_generator():
    vs = ("x",)
    assert ideal_membership(P("x", vs), [P("x", vs)])
    assert not ideal_membership(P("x", vs), [P("x^2", vs)])


def test_membership_linear_combination():
    vs = ("x", "y")
    assert ideal_membership(P("y", vs), [P("x+y", vs), P("x-y", vs)])


def test_membership_zero_and_unit():
    vs = ("x", "y")
    gens = [P("x^2+y", vs), P("y^3", vs)]
    assert ideal_membership(Polynomial(vs, {}), gens)
    assert ideal_membership(P("x^5 - 7y + 2", vs), [Polynomial(vs, {(0, 0): 1})])
    assert not ideal_membership(P("x", vs), [])


def test_witness_monomial_outside_jacobian():
    f = parse_polynomial("x^2+y^2+z^2+u^2w^2+u^4+w^5")
    w5 = Polynomial(f.variables, {(0, 0, 0, 0, 5): Fraction(1)})
    u4 = Polynomial(f.variables, {(0, 0, 0, 4, 0): Fraction(1)})
    assert not ideal_membership(w5, jacobian_ideal(f))
    # x, y, z and anything they divide are inside
    assert ideal_membership(P("x*w^9", f.variables), jacobian_ideal(f))
    assert ideal_membership(u4 * 0 + u4, jacobian_ideal(f)) is False


def test_reduced_basis_is_canonical():
    vs = ("x", "y")
    basis = groebner_basis([P("x+y", vs), P("x-y", vs)])
    assert [str(g) for g in basis] == ["x", "y"]
    again = groebner_basis([P("2x - 2y", vs), P("3x + 3y", vs), P("x", vs)])
    assert basis == again


def test_basis_without_variables_is_the_unit():
    # No variables: every polynomial is a constant, and the one lead is ().
    basis = groebner_basis([Polynomial((), {(): 3}), Polynomial((), {(): Fraction(-1, 2)})])
    assert basis == [Polynomial((), {(): 1})]


def test_size_guard_variables():
    vs = tuple(f"x{i}" for i in range(9))
    gens = [Polynomial(vs, {tuple(2 if j == i else 0 for j in range(9)): 1}) for i in range(9)]
    g = Polynomial(vs, {(0,) * 9: 1})
    with pytest.raises(SizeGuardError):
        ideal_membership(g, gens)
    assert ideal_membership(g, gens, limit=9) is False


def test_limit_never_lowers_the_guard():
    vs = ("x", "y")
    assert ideal_membership(P("x*y", vs), [P("x", vs)], limit=0)
    assert ideal_membership(P("x*y", vs), [P("x", vs)], limit=-5)
    params = inspect.signature(ideal_membership).parameters
    assert "limit" in params and not {"var_limit", "term_limit"} & params.keys()


def test_limit_must_be_an_int_or_none():
    vs = ("x", "y")
    f = P("x^2 + y^3", vs)
    for bad in ("5", 2.5, True, Fraction(9)):
        message = rf"^limit must be an int or None, got {re.escape(repr(bad))}$"
        with pytest.raises(ValidationError, match=message):
            ideal_membership(P("x*y", vs), [P("x", vs)], limit=bad)
        # checked before the early answers: a zero g would otherwise return True
        with pytest.raises(ValidationError, match=message):
            ideal_membership(Polynomial(vs, {}), [], limit=bad)
        with pytest.raises(ValidationError, match=message):
            jacobian_witness(f, (0, 1), 0, limit=bad)
    # ideal_membership's ints are in test_limit_never_lowers_the_guard.
    for limit in (None, -5, 10**6):
        # J(f) = (2x, 3y^2): y lies outside it, y^2 inside
        assert jacobian_witness(f, (0, 1), 0, limit=limit) is True
        assert jacobian_witness(f, (0, 2), 0, limit=limit) is False


def test_inputs_must_share_one_variable_list():
    xy, yx = P("x", ("x", "y")), P("x", ("y", "x"))
    with pytest.raises(ValidationError, match=r"^generators must share one variable list$"):
        groebner_basis([xy, yx])
    with pytest.raises(ValidationError, match=r"^membership inputs must share one variable list$"):
        ideal_membership(xy, [yx])


def test_size_guard_terms():
    vs = ("x",)
    gens = [P(" + ".join(f"x^{k}" for k in range(1, 42)), vs)]
    with pytest.raises(SizeGuardError):
        ideal_membership(P("x", vs), gens)
    # lifted guard actually runs: x*g is a member, x alone is not
    assert ideal_membership(P("x", vs) * gens[0], gens, limit=50)
    assert ideal_membership(P("x", vs), gens, limit=50) is False


def _random_poly(rng, vs, max_terms, max_degree):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            e = tuple(rng.randint(0, max_degree) for _ in vs)
            if sum(e) <= max_degree:
                break
        terms[e] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
    return Polynomial(vs, terms)


def test_agrees_with_truncated_linear_algebra_oracle():
    rng = random.Random(90125)
    checked = 0
    for _ in range(40):
        nvars = rng.randint(1, 3)
        vs = ("x", "y", "z")[:nvars]
        gens = [_random_poly(rng, vs, 3, 3) for _ in range(rng.randint(1, 2))]
        g = _random_poly(rng, vs, 3, 4)
        if rng.random() < 0.5:
            g = sum(
                (_random_poly(rng, vs, 2, 1) * h for h in gens),
                Polynomial(vs, {}),
            )
            if g.is_zero or max(map(sum, g.terms)) > 4:
                continue
        assert ideal_membership(g, gens) == truncated_membership(g, gens)
        checked += 1
    assert checked >= 25


# -- reduced bases against sympy ----------------------------------------------

# The Jacobian ideals of the benchmark's witness cases, largest last.
JACOBIAN_CASES = (
    "x^3 + y^4 + z^5 + x*y*z",
    "x^2 + y^2 + z^2 + u^2*w^2 + u^4 + w^5",
    "x^5 + y^5 + z^5 + x^2*y^2*z^2",
    "x^4 + y^4 + z^4 + u^4 + x*y*z*u",
)


def _sympy_groebner(gens):
    """sympy's own Buchberger (grevlex over QQ): a converter into its ring, and the basis."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.groebnertools import groebner
    from sympy.polys.orderings import grevlex
    from sympy.polys.rings import ring

    r, *_ = ring(",".join(gens[0].variables), sympy.QQ, grevlex)

    def to_ring(g):
        return r.from_dict({e: sympy.QQ(c.numerator, c.denominator) for e, c in g.terms.items()})

    return to_ring, groebner([to_ring(g) for g in gens], r)


def _sympy_reduced_basis(gens):
    """The monic reduced basis from sympy's Buchberger."""
    _, basis = _sympy_groebner(gens)
    return _canon(
        {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in g.monic().items()}
        for g in basis
    )


def _canon(bases):
    return sorted(tuple(sorted(terms.items())) for terms in bases)


def test_reduced_basis_matches_sympy():
    # Reduced bases are unique, so the comparison is exact.
    rng = random.Random(20221)
    longest = 0
    for _ in range(80):
        vs = ("x", "y", "z")[: rng.randint(1, 3)]
        gens = [_random_poly(rng, vs, 3, 3) for _ in range(rng.randint(1, 3))]
        basis = groebner_basis(gens)
        assert _canon(g.terms for g in basis) == _sympy_reduced_basis(gens), gens
        leads = [max(g.terms, key=grevlex_key) for g in basis]
        assert leads == sorted(leads, key=grevlex_key, reverse=True)
        assert all(g.terms[lead] == 1 for g, lead in zip(basis, leads))
        longest = max(longest, len(basis))
    assert longest >= 4


@pytest.mark.parametrize("text", JACOBIAN_CASES)
def test_jacobian_basis_matches_sympy(text):
    gens = jacobian_ideal(parse_polynomial(text))
    assert _canon(g.terms for g in groebner_basis(gens)) == _sympy_reduced_basis(gens)


def test_membership_matches_sympy():
    # g lies in the ideal iff its remainder on sympy's Groebner basis is zero.
    rng = random.Random(27182)
    answers = []
    for _ in range(50):
        vs = ("x", "y", "z")[: rng.randint(1, 3)]
        gens = [_random_poly(rng, vs, 3, 3) for _ in range(rng.randint(1, 3))]
        to_ring, basis = _sympy_groebner(gens)
        for _ in range(3):
            g = _random_poly(rng, vs, 3, 4)
            if rng.random() < 0.5:
                # a member, before the optional stray term
                g = sum((_random_poly(rng, vs, 2, 1) * h for h in gens), g * 0)
                g = g + _random_poly(rng, vs, 1, 2) * rng.randint(0, 1)
            answers.append(ideal_membership(g, gens))
            assert answers[-1] == (not to_ring(g).rem(basis)), (g, gens)
    assert 0.2 < sum(answers) / len(answers) < 0.8


def test_witness_matches_sympy():
    rng = random.Random(16180)
    outside = []
    for text in JACOBIAN_CASES:
        f = parse_polynomial(text)
        to_ring, basis = _sympy_groebner(jacobian_ideal(f))
        for _ in range(8):
            m = tuple(rng.randint(0, 3) for _ in f.variables)
            outside.append(jacobian_witness(f, m, 0))
            monomial = Polynomial(f.variables, {m: 1})
            assert outside[-1] == bool(to_ring(monomial).rem(basis)), (text, m)
    assert True in outside and False in outside


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(*[st.tuples(*[st.integers(0, 9)] * n)] * 2)))
def test_lcm_is_the_elementwise_max(pair):
    a, b = pair
    assert _lcm(a, b) == tuple(max(a[i], b[i]) for i in range(len(a)))
