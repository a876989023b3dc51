"""Brute-force minimal generators of a monomial ideal.

The pairwise rule: a listed monomial is a minimal generator exactly when no
other listed monomial divides it.  Quadratic in the number of generators,
and independent of the degree-by-degree walk in `MonomialIdeal`.
"""


def pairwise_minimal(generators) -> set[tuple[int, ...]]:
    """The distinct monomials of `generators` that no other one divides."""
    distinct = {tuple(g) for g in generators}
    return {
        g for g in distinct
        if not any(h != g and all(x <= y for x, y in zip(h, g)) for h in distinct)
    }
