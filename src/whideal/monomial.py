"""Monomial ideals stored as minimal generating antichains."""

from __future__ import annotations

from itertools import groupby, takewhile

from .errors import ValidationError, require_int
from .poly import Exponent, as_exponent, divides, grevlex_key, monomial_text


class MonomialIdeal:
    """A monomial ideal in n variables.

    The constructor minimalizes: stored generators form an antichain under
    divisibility, sorted by decreasing graded-reverse-lex so rendering and
    JSON output are canonical.  The zero ideal has no generators; the unit
    ideal is generated by the constant monomial.

    Minimalization walks the distinct exponents degree by degree, lowest
    first, and keeps a monomial unless a kept one of lower degree divides
    it.  Two distinct monomials of the same degree never divide each other,
    and if any listed monomial properly divides a candidate, so does a
    minimal generator of lower degree, kept by then; so the kept ones are
    exactly the minimal generators.  Generators given in one degree, as the
    closed forms of `snc` are, therefore need no divisibility test at all.
    """

    __slots__ = ("n", "generators")

    def __init__(self, n: int, generators):
        require_int("n", n, 1)
        clean = {as_exponent(g, n) for g in generators}
        # Ascending grevlex orders by degree first: each degree is one run,
        # and the kept list reversed is the canonical descending order.
        minimal: list[Exponent] = []
        for _, same_degree in groupby(sorted(clean, key=grevlex_key), key=sum):
            minimal += [g for g in same_degree if not any(divides(h, g) for h in minimal)]
        self.n = n
        self.generators = tuple(reversed(minimal))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def is_subideal(self, other: "MonomialIdeal") -> bool:
        if self.n != other.n:
            raise ValidationError("ideals live in different variable counts")
        # x^h | x^g needs deg h <= deg g: g itself and the g - e_i are set lookups,
        # and the generators reversed (lowest degree first) are scanned below deg g - 1.
        gens, ascending = set(other.generators), other.generators[::-1]
        return all(
            g in gens
            or any(g[i] and g[:i] + (g[i] - 1,) + g[i + 1:] in gens for i in range(self.n))
            or any(divides(h, g) for h in takewhile(lambda h: sum(h) < sum(g) - 1, ascending))
            for g in self.generators
        )

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.n == other.n
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.n, self.generators))

    def render(self) -> str:
        """Display form "(x1^2, x2^2)"; "(0)" and "(1)" for the extremes."""
        if self.is_zero:
            return "(0)"
        names = [f"x{i + 1}" for i in range(self.n)]
        return "(" + ", ".join(monomial_text(g, names, "") or "1" for g in self.generators) + ")"

    def to_json(self) -> list[list[int]]:
        return [list(g) for g in self.generators]

    def __repr__(self):
        return f"MonomialIdeal(n={self.n}, {self.render()})"
