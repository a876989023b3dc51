import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whideal import (
    ParseError,
    Polynomial,
    ValidationError,
    WhidealError,
    jacobian_ideal,
    parse_polynomial,
)


def test_parse_basic_two_terms():
    f = parse_polynomial("x^2 + y^3")
    assert f.variables == ("x", "y")
    assert f.terms == {(2, 0): 1, (0, 3): 1}


def test_parse_worked_example_support():
    f = parse_polynomial("x^2+y^2+z^2+u^2*w^2+u^4+w^5")
    assert f.variables == ("x", "y", "z", "u", "w")
    assert len(f.terms) == 6
    assert set(f.terms.values()) == {Fraction(1)}
    assert (0, 0, 0, 2, 2) in f.terms


def test_parse_star_optional_between_factors():
    assert parse_polynomial("u^2w^2", ("u", "w")) == parse_polynomial("u^2*w^2", ("u", "w"))


def test_parse_maximal_munch_identifier():
    f = parse_polynomial("xy")
    assert f.variables == ("xy",)
    assert f.terms == {(1,): 1}


def test_parse_rational_coefficient():
    f = parse_polynomial("3/4x - 2*y")
    assert f.terms[(1, 0)] == Fraction(3, 4)
    assert f.terms[(0, 1)] == -2


def test_parse_combines_like_terms_and_drops_zero():
    f = parse_polynomial("x + x - 2x + y")
    assert f.terms == {(0, 1): 1}
    assert parse_polynomial("x - x").is_zero


def test_parse_leading_sign():
    f = parse_polynomial("-x + y")
    assert f.terms[(1, 0)] == -1


def test_parse_repeated_factor_multiplies():
    f = parse_polynomial("x*x*y")
    assert f.terms == {(2, 1): 1}


def test_parse_negative_exponent_rejected():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^-1")
    assert err.value.position == 2


def test_parse_syntax_errors():
    for bad in ["", "  ", "x/2", "x^1/2", "2*3", "x*", "x++y", "1/0*x", "x^", "*x"]:
        with pytest.raises(ParseError):
            parse_polynomial(bad)


@pytest.mark.parametrize(
    "text, variables, message, position",
    [
        ("x $ y", None, "unexpected character '$'", 2),
        ("", None, "empty input", 0),
        ("  \n", None, "empty input", 0),
        ("x + *y", None, "expected term, got '*'", 4),
        ("x +", None, "expected term, got end of input", None),
        ("-", None, "expected term, got end of input", None),
        ("x 2", None, "expected '+' or '-', got '2'", 2),
        ("x^1/2", None, "expected '+' or '-', got '/'", 3),
        ("2*3", None, "expected variable after '*', got '3'", 2),
        ("x*", None, "expected variable after '*', got end of input", None),
        ("1/x", None, "expected denominator, got 'x'", 2),
        ("1/", None, "expected denominator, got end of input", None),
        ("x^-1", None, "expected unsigned exponent, got '-'", 2),
        ("x^", None, "expected unsigned exponent, got end of input", None),
        ("y + 1/0*x", None, "zero denominator", 6),
        ("x + t", ("x", "y"), "unknown variable 't'", 4),
    ],
)
def test_parse_error_message_and_position(text, variables, message, position):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, variables)
    where = "" if position is None else f" (at position {position})"
    assert str(err.value) == message + where
    assert err.value.position == position


LONG = "9" * 5000


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integer literals of any length",
)
@pytest.mark.parametrize(
    "text, position",
    [(LONG + "*x", 0), ("1/" + LONG + " x", 2), ("x + y^" + LONG, 6)],
    ids=["coefficient", "denominator", "exponent"],
)
def test_overlong_literal_is_a_parse_error(text, position):
    # int() refuses a literal past the interpreter's digit limit
    with pytest.raises(ParseError) as err:
        parse_polynomial(text)
    assert str(err.value) == f"integer literal of 5000 digits is too long (at position {position})"
    assert err.value.position == position


PIECES = ["x", "y", "xy", "_a", "2", "0", "10", "/", "*", "^", "+", "-", " ", "\n", "$", "é", LONG]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(PIECES), max_size=10), st.sampled_from([None, ("x", "y"), ()]))
def test_parse_raises_only_library_errors(pieces, variables):
    try:
        parse_polynomial("".join(pieces), variables)
    except WhidealError:
        pass


def test_parse_unexpected_character_reports_position():
    with pytest.raises(ParseError, match=r"^unexpected character '\$' \(at position 2\)$") as info:
        parse_polynomial("x $ y")
    assert info.value.position == 2


def test_duplicate_variable_names_are_rejected():
    # checked once, by the Polynomial constructor that the parser ends in
    with pytest.raises(ValidationError, match=r"^duplicate variable in \('x', 'x'\)$"):
        parse_polynomial("x", ("x", "x"))
    with pytest.raises(ValidationError, match=r"^duplicate variable in \('x', 'x'\)$"):
        Polynomial(("x", "x"), {})


def test_parse_unknown_variable_with_explicit_list():
    with pytest.raises(ParseError, match="unknown variable"):
        parse_polynomial("x + t", ("x", "y"))


def test_parse_explicit_order_respected():
    f = parse_polynomial("y", ("x", "y", "z"))
    assert f.terms == {(0, 1, 0): 1}


def test_support_and_degree():
    f = parse_polynomial("x^2 + y^3")
    assert f.support() == {(2, 0), (0, 3)}
    assert max(map(sum, f.terms)) == 3
    assert parse_polynomial("0").is_zero
    assert parse_polynomial("0").terms == {}


def test_jacobian_examples():
    f = parse_polynomial("x^2", ("x",))
    assert jacobian_ideal(f) == [parse_polynomial("2x", ("x",))]
    g = parse_polynomial("x^2 + y^3")
    assert jacobian_ideal(g) == [
        parse_polynomial("2x", ("x", "y")),
        parse_polynomial("3y^2", ("x", "y")),
    ]


def test_jacobian_worked_example():
    f = parse_polynomial("x^2+y^2+z^2+u^2w^2+u^4+w^5")
    partials = jacobian_ideal(f)
    vs = f.variables
    assert partials[0] == parse_polynomial("2x", vs)
    assert partials[3] == parse_polynomial("2u*w^2 + 4u^3", vs)
    assert partials[4] == parse_polynomial("2u^2*w + 5w^4", vs)


def test_str_edge_cases():
    assert str(parse_polynomial("0")) == "0"
    assert str(parse_polynomial("-x")) == "-x"
    assert str(parse_polynomial("1/2*x*y^2")) == "1/2*x*y^2"
    assert str(parse_polynomial("x - y")) == "x - y"
    assert str(Polynomial(("x",), {(0,): Fraction(-3, 7)})) == "-3/7"


def test_non_integer_exponent_is_rejected_not_truncated():
    with pytest.raises(ValidationError, match=r"exponent \(1\.7, 2\) has non-integer entry 1\.7"):
        Polynomial(("x", "y"), {(1.7, 2): 1})
    with pytest.raises(ValidationError, match=r"non-integer entry '2'"):
        Polynomial(("x",), {("2",): 1})


def test_exponent_length_and_sign_are_checked():
    with pytest.raises(ValidationError, match=r"^exponent \(1, 2, 3\) has length 3, expected 2$"):
        Polynomial(("x", "y"), {(1, 2, 3): 1})
    with pytest.raises(ValidationError, match=r"^negative exponent in \(0, -1\)$"):
        Polynomial(("x", "y"), {(2, 0): 1, (0, -1): 1})
    # No variables: the one exponent is ().
    assert Polynomial((), {(): 3}).terms == {(): 3}


def test_inexact_coefficients_are_rejected_not_rounded():
    with pytest.raises(ValidationError, match=r"coefficient 0\.1 of \(2, 0\)"):
        Polynomial(("x", "y"), {(2, 0): 0.1, (0, 3): 1})
    with pytest.raises(ValidationError, match=r"coefficient nan"):
        Polynomial(("x",), {(2,): float("nan")})
    with pytest.raises(ValidationError, match=r"coefficient '1/2'"):
        Polynomial(("x",), {(2,): "1/2"})
    with pytest.raises(ValidationError, match=r"coefficient 0\.5"):
        Polynomial(("x",), {(0,): 0.5})
    exact = Polynomial(("x", "y"), {(2, 0): Fraction(1, 10), (0, 3): 1, (1, 1): True})
    assert exact.terms == {(2, 0): Fraction(1, 10), (0, 3): 1, (1, 1): 1}
    assert all(type(c) is Fraction for c in exact.terms.values())


def test_arithmetic_requires_same_variables():
    with pytest.raises(ValidationError):
        parse_polynomial("x") + parse_polynomial("y")


coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
).filter(lambda c: c != 0)
exponents3 = st.tuples(*[st.integers(0, 4)] * 3)


@st.composite
def polys(draw, max_terms=5):
    terms = draw(
        st.dictionaries(exponents3, coeffs, min_size=0, max_size=max_terms)
    )
    return Polynomial(("x", "y", "z"), terms)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(polys())
def test_text_round_trip_is_fixpoint(f):
    text = str(f)
    g = parse_polynomial(text, f.variables)
    assert g == f
    assert str(g) == text


@settings(max_examples=60, deadline=None, derandomize=True)
@given(polys(), polys())
def test_differentiation_is_linear(f, g):
    for i in range(3):
        assert (f + g).partial(i) == f.partial(i) + g.partial(i)
        assert (f * 3).partial(i) == f.partial(i) * 3


@settings(max_examples=40, deadline=None, derandomize=True)
@given(polys(), polys())
def test_leibniz_rule(f, g):
    for i in range(3):
        assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)
