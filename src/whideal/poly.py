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
syntax error, not an inverse.  An integer literal that the interpreter will
not convert (longer than `sys.get_int_max_str_digits()` digits) is a
ParseError at its position.  `monomial_text` renders a monomial for both
`Polynomial.__str__` and `MonomialIdeal.render`.
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
    return (sum(exponent), tuple(map(operator.neg, reversed(exponent))))


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


def monomial_text(exponent: Exponent, names, sep: str) -> str:
    """x^exponent as `name` and `name^k` factors joined by `sep`; "" for x^0."""
    return sep.join(name if k == 1 else f"{name}^{k}" for name, k in zip(names, exponent) if k)


def _term_text(coeff: Fraction, exponent: Exponent, names) -> str:
    mon = monomial_text(exponent, names, "*")
    if not mon:
        return str(coeff)
    if coeff == 1:
        return mon
    if coeff == -1:
        return "-" + mon
    return f"{coeff}*{mon}"


_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[\^*/+\-])|(?P<bad>.)"
)


def parse_polynomial(text: str, variables=None) -> Polynomial:
    """Parse polynomial text; see the module docstring for the grammar.

    With `variables` given, names outside the list are rejected and the
    result uses exactly that variable order.  Otherwise variables are
    inferred in order of first appearance.
    """
    names = [] if variables is None else [str(v) for v in variables]
    tokens = []  # (kind, value, position); an operator is its own kind
    for m in _TOKEN.finditer(text):
        kind, value, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
        if kind == "int":
            try:
                value = int(value)
            except ValueError:  # longer than the interpreter converts
                raise ParseError(f"integer literal of {len(value)} digits is too long", pos) from None
        if kind != "ws":
            tokens.append((value if kind == "op" else kind, value, pos))
    if not tokens:
        raise ParseError("empty input", 0)
    tokens.append(("end", None, None))
    terms = []  # (signed coefficient, {name: power})
    sign = -1 if tokens[0][0] == "-" else 1
    coeff, powers = Fraction(1), {}
    i = start = int(tokens[0][0] in ("+", "-"))  # start: first token of this term
    while True:
        kind, value, pos = tokens[i]
        if kind == "int" and i == start:
            coeff = Fraction(value)
            if tokens[i + 1][0] == "/":
                i += 2
                kind, den, pos = tokens[i]
                if kind != "int":
                    expected = "expected denominator"
                    break
                if den == 0:
                    raise ParseError("zero denominator", pos)
                coeff /= den
            i += 1
        elif kind == "name":
            if value not in names:
                if variables is not None:
                    raise ParseError(f"unknown variable {value!r}", pos)
                names.append(value)
            power = 1
            if tokens[i + 1][0] == "^":
                i += 2
                if tokens[i][0] != "int":
                    expected = "expected unsigned exponent"
                    break
                power = tokens[i][1]
            powers[value] = powers.get(value, 0) + power
            i += 1
        elif kind == "*" and i > start:
            i += 1
            if tokens[i][0] != "name":
                expected = "expected variable after '*'"
                break
        elif i == start:
            expected = "expected term"
            break
        elif kind in ("+", "-", "end"):
            terms.append((sign * coeff, powers))
            if kind == "end":
                return Polynomial(names, [(tuple(p.get(v, 0) for v in names), c) for c, p in terms])
            sign, coeff, powers = (-1 if kind == "-" else 1), Fraction(1), {}
            i = start = i + 1
        else:
            expected = "expected '+' or '-'"
            break
    pos = tokens[i][2]
    # an int token holds its value, so the message re-reads the token's text
    got = "end of input" if pos is None else repr(_TOKEN.match(text, pos).group())
    raise ParseError(f"{expected}, got {got}", pos)


def jacobian_ideal(f: Polynomial) -> list[Polynomial]:
    """All first partial derivatives of f, in variable order."""
    if f.n == 0:
        raise ValidationError("need at least one variable")
    return [f.partial(i) for i in range(f.n)]
