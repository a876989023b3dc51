"""Exact multivariate polynomials over the rationals.

Exponent vectors are plain tuples of nonnegative ints, coefficients are
`fractions.Fraction`.  Text input follows the grammar

    poly   := ('+'|'-')? term (('+'|'-') term)*
    term   := coeff factor* | factor+
    factor := var ('^' uint)?
    coeff  := uint ('/' uint)?

with insignificant whitespace.  '*' may optionally separate the coefficient
and any two factors.  Variable names are maximal runs matching
[A-Za-z_][A-Za-z0-9_]*, so `xy` is one variable named "xy" while `x*y` and
`x^1y` are products.  Exponents must be unsigned integers: `x^-1` is a
syntax error, not an inverse.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from numbers import Rational

from .errors import ParseError, ValidationError

Exponent = tuple[int, ...]


def grevlex_key(exponent: Exponent):
    """Sort key realizing graded reverse lexicographic order.

    Larger key = larger monomial: first compare total degree, then reversed
    negated exponents, so the last nonzero entry of the difference decides
    with a negative entry winning.
    """
    return (sum(exponent), tuple(-e for e in reversed(exponent)))


def fraction_text(x: Fraction) -> str:
    """x as "numerator/denominator", integers included ("2/1")."""
    return f"{x.numerator}/{x.denominator}"


def divides(a: Exponent, b: Exponent) -> bool:
    """x^a divides x^b; both exponents have the same length."""
    return all(map(operator.le, a, b))


def as_exponent(entries, n: int) -> Exponent:
    """`entries` as an exponent in n variables: a tuple of n ints >= 0.

    An entry that is not an integer (a float, a string, a Fraction) is a
    ValidationError naming it, never truncated; so are a length other than
    n and a negative entry.
    """
    e = tuple(entries)
    try:
        e = tuple(map(operator.index, e))
    except TypeError:
        bad = next(x for x in e if not hasattr(x, "__index__"))
        raise ValidationError(f"exponent {e!r} has non-integer entry {bad!r}") from None
    if len(e) != n:
        raise ValidationError(f"exponent {e} has length {len(e)}, expected {n}")
    if e and min(e) < 0:
        raise ValidationError(f"negative exponent in {e}")
    return e


class Polynomial:
    """Immutable-by-convention polynomial with a fixed variable order.

    `terms` maps exponent tuples to nonzero Fractions; zero coefficients are
    dropped on construction.  Coefficients must be exact rationals (int,
    bool or Fraction): a float, a string or a NaN is a ValidationError, never
    rounded or parsed.  All arithmetic requires both operands to share
    the same variable tuple.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        vs = tuple(str(v) for v in variables)
        if len(set(vs)) != len(vs):
            raise ValidationError(f"duplicate variable in {vs!r}")
        items = terms.items() if isinstance(terms, dict) else terms
        acc: dict[Exponent, Fraction] = {}
        n = len(vs)
        for exponent, coeff in items:
            e = as_exponent(exponent, n)
            if not isinstance(coeff, Rational):
                raise ValidationError(
                    f"coefficient {coeff!r} of {e} is not exact rational (int or Fraction)"
                )
            acc[e] = acc.get(e, Fraction(0)) + Fraction(coeff)
        self.variables = vs
        self.terms = {e: c for e, c in acc.items() if c != 0}

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> frozenset[Exponent]:
        return frozenset(self.terms)

    def partial(self, i: int) -> "Polynomial":
        """Partial derivative with respect to the i-th variable."""
        if not 0 <= i < self.n:
            raise ValidationError(f"variable index {i} out of range")
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                d = list(e)
                d[i] -= 1
                out[tuple(d)] = c * e[i]
        return Polynomial(self.variables, out)

    def _check_compatible(self, other: "Polynomial"):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if self.variables != other.variables:
            raise ValidationError(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Polynomial(self.variables, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial(
                self.variables, {e: c * other for e, c in self.terms.items()}
            )
        self._check_compatible(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Polynomial(self.variables, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    __hash__ = None

    def __str__(self):
        if self.is_zero:
            return "0"
        pieces = []
        for e in sorted(self.terms, key=grevlex_key, reverse=True):
            pieces.append(_term_text(self.terms[e], e, self.variables))
        text = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                text += " - " + piece[1:]
            else:
                text += " + " + piece
        return text

    def __repr__(self):
        return f"Polynomial({self.variables!r}, {self!s})"


def _term_text(coeff: Fraction, exponent: Exponent, names) -> str:
    factors = []
    for name, k in zip(names, exponent):
        if k == 1:
            factors.append(name)
        elif k > 1:
            factors.append(f"{name}^{k}")
    mon = "*".join(factors)
    if not mon:
        return str(coeff)
    if coeff == 1:
        return mon
    if coeff == -1:
        return "-" + mon
    return f"{coeff}*{mon}"


_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[\^*/+\-])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, known_variables):
        self.tokens = tokens
        self.i = 0
        self.known = known_variables  # None means infer
        self.order: list[str] = []  # inferred first-appearance order

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, -1)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def fail(self, message):
        kind, value, pos = self.peek()
        if kind is None:
            raise ParseError(message + ", got end of input")
        raise ParseError(f"{message}, got {value!r}", pos)

    def accept(self, symbol):
        """Take the next token if it is the operator `symbol`."""
        kind, value, _ = self.peek()
        if kind == "op" and value == symbol:
            self.i += 1
            return True
        return False

    def accept_star(self):
        """An optional '*', which must be followed by a variable."""
        if self.accept("*") and self.peek()[0] != "name":
            self.fail("expected variable after '*'")

    def parse_uint(self, what):
        kind, value, pos = self.peek()
        if kind != "int":
            self.fail(f"expected {what}")
        self.take()
        return int(value)

    def parse_term(self):
        coeff = Fraction(1)
        exponents: dict[str, int] = {}
        start = self.i
        kind, value, _ = self.peek()
        if kind == "int":
            self.take()
            den = 1
            if self.accept("/"):
                den = self.parse_uint("denominator")
                if den == 0:
                    raise ParseError("zero denominator", self.tokens[self.i - 1][2])
            coeff = Fraction(int(value), den)
            self.accept_star()
        while self.peek()[0] == "name":
            kind, name, pos = self.take()
            if self.known is not None:
                if name not in self.known:
                    raise ParseError(f"unknown variable {name!r}", pos)
            elif name not in self.order:
                self.order.append(name)
            power = self.parse_uint("unsigned exponent") if self.accept("^") else 1
            exponents[name] = exponents.get(name, 0) + power
            self.accept_star()
        if self.i == start:
            self.fail("expected term")
        return coeff, exponents

    def parse_poly(self):
        raw_terms = []
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            sign = -1 if value == "-" else 1
        while True:
            coeff, exponents = self.parse_term()
            raw_terms.append((sign * coeff, exponents))
            kind, value, _ = self.peek()
            if kind is None:
                break
            if kind == "op" and value in "+-":
                self.take()
                sign = -1 if value == "-" else 1
            else:
                self.fail("expected '+' or '-'")
        return raw_terms


def parse_polynomial(text: str, variables=None) -> Polynomial:
    """Parse polynomial text; see the module docstring for the grammar.

    With `variables` given, names outside the list are rejected and the
    result uses exactly that variable order.  Otherwise variables are
    inferred in order of first appearance.
    """
    if variables is not None:
        variables = tuple(str(v) for v in variables)
        if len(set(variables)) != len(variables):
            raise ValidationError(f"duplicate variable in {variables!r}")
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    parser = _Parser(tokens, set(variables) if variables is not None else None)
    raw_terms = parser.parse_poly()
    order = variables if variables is not None else tuple(parser.order)
    index = {name: i for i, name in enumerate(order)}
    terms = []
    for coeff, exponents in raw_terms:
        e = [0] * len(order)
        for name, power in exponents.items():
            e[index[name]] = power
        terms.append((tuple(e), coeff))
    return Polynomial(order, terms)


def jacobian_ideal(f: Polynomial) -> list[Polynomial]:
    """All first partial derivatives of f, in variable order."""
    if f.n == 0:
        raise ValidationError("need at least one variable")
    return [f.partial(i) for i in range(f.n)]
