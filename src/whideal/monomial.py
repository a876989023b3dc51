"""Monomial ideals stored as minimal generating antichains."""

from __future__ import annotations

from .errors import ValidationError
from .poly import Exponent, divides, grevlex_key


class MonomialIdeal:
    """A monomial ideal in n variables.

    The constructor minimalizes: stored generators form an antichain under
    divisibility, sorted by decreasing graded-reverse-lex so rendering and
    JSON output are canonical.  The zero ideal has no generators; the unit
    ideal is generated by the constant monomial.
    """

    __slots__ = ("n", "generators")

    def __init__(self, n: int, generators):
        if n < 1:
            raise ValidationError("need n >= 1 variables")
        clean = set()
        for g in generators:
            e = tuple(int(x) for x in g)
            if len(e) != n:
                raise ValidationError(f"generator {e} has length {len(e)}, expected {n}")
            if any(x < 0 for x in e):
                raise ValidationError(f"negative exponent in {e}")
            clean.add(e)
        minimal = [
            g for g in clean
            if not any(other != g and divides(other, g) for other in clean)
        ]
        self.n = n
        self.generators = tuple(sorted(minimal, key=grevlex_key, reverse=True))

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls(n, [])

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        return cls(n, [(0,) * n])

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return self.generators == ((0,) * self.n,)

    def contains_monomial(self, m: Exponent) -> bool:
        m = tuple(int(x) for x in m)
        if len(m) != self.n:
            raise ValidationError(f"monomial {m} has length {len(m)}, expected {self.n}")
        return any(divides(g, m) for g in self.generators)

    def is_subideal(self, other: "MonomialIdeal") -> bool:
        if self.n != other.n:
            raise ValidationError("ideals live in different variable counts")
        return all(other.contains_monomial(g) for g in self.generators)

    def multiply(self, m: Exponent) -> "MonomialIdeal":
        """The ideal x^m * self."""
        m = tuple(int(x) for x in m)
        if len(m) != self.n or any(x < 0 for x in m):
            raise ValidationError(f"shift {m} is not an exponent in {self.n} variables")
        return MonomialIdeal(
            self.n, [tuple(a + b for a, b in zip(g, m)) for g in self.generators]
        )

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.n == other.n
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.n, self.generators))

    def render(self, names=None) -> str:
        """Display form "(x1^2, x2^2)"; "(0)" and "(1)" for the extremes."""
        if names is None:
            names = [f"x{i + 1}" for i in range(self.n)]
        elif len(names) != self.n:
            raise ValidationError("wrong number of variable names")
        if self.is_zero:
            return "(0)"
        parts = []
        for g in self.generators:
            factors = [
                name if k == 1 else f"{name}^{k}"
                for name, k in zip(names, g)
                if k
            ]
            parts.append("".join(factors) if factors else "1")
        return "(" + ", ".join(parts) + ")"

    def to_json(self) -> list[list[int]]:
        return [list(g) for g in self.generators]

    def __repr__(self):
        return f"MonomialIdeal(n={self.n}, {self.render()})"
