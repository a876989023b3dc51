"""Groebner bases and ideal membership over Q, graded reverse lex order.

`_normal_form` is the one reduction: Buchberger reduces S-polynomials with
it, membership is a zero normal form, and the reduced basis is x^m - NF(x^m)
over the minimal leads x^m (Cox, Little and O'Shea, "Ideals, Varieties, and
Algorithms", ch. 2 section 7).  The size guard of `ideal_membership` bounds
the input only, by variables and generator terms, not Buchberger's work;
`groebner_basis` has no guard at all.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import SizeGuardError, ValidationError
from .monomial import MonomialIdeal
from .poly import Polynomial, divides, grevlex_key

DEFAULT_VAR_LIMIT = 8
DEFAULT_TERM_LIMIT = 40


def _lead(terms: dict) -> tuple:
    return max(terms, key=grevlex_key)


def _lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def _subtract_multiple(work: dict, g: dict, shift: tuple, scale: Fraction) -> None:
    """work -= scale * x^shift * g, in place; terms that cancel are dropped.

    The one reduction step: it builds S-polynomials and divides in
    `_normal_form`.
    """
    for e, c in g.items():
        key = tuple(map(operator.add, e, shift))
        v = work.get(key, 0) - scale * c
        if v:
            work[key] = v
        else:
            work.pop(key, None)


def _normal_form(f: dict, basis: list[tuple]) -> dict:
    """Full remainder of f on division by basis (list of (lead, terms))."""
    remainder: dict = {}
    work = dict(f)
    while work:
        m = _lead(work)
        for lead, terms in basis:
            if divides(lead, m):
                # the lead term m cancels exactly, so the step drops it
                shift = tuple(map(operator.sub, m, lead))
                _subtract_multiple(work, terms, shift, work[m] / terms[lead])
                break
        else:
            remainder[m] = work.pop(m)
    return remainder


def _buchberger(gens: list[dict]) -> list[tuple]:
    """A Groebner basis of (gens), as the (lead, terms) pairs `_normal_form` takes."""
    basis = [(_lead(g), g) for g in gens if g]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}

    def chain_criterion(i, j, lcm_ij):
        # Skip (i,j) if some k has lead dividing lcm and both companion
        # pairs were already handled.
        for k, (lead, _) in enumerate(basis):
            if k in (i, j):
                continue
            if divides(lead, lcm_ij):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pairs and b not in pairs:
                    return True
        return False

    while pairs:
        i, j = min(pairs, key=lambda p: (grevlex_key(_lcm(basis[p[0]][0], basis[p[1]][0])), p))
        pairs.discard((i, j))
        (li, fi), (lj, fj) = basis[i], basis[j]
        lcm_ij = _lcm(li, lj)
        if lcm_ij == tuple(map(operator.add, li, lj)):
            continue  # coprime leads: S-polynomial reduces to zero
        if chain_criterion(i, j, lcm_ij):
            continue
        # S = x^(lcm - li) fi / lc(fi) - x^(lcm - lj) fj / lc(fj)
        s: dict = {}
        _subtract_multiple(s, fi, tuple(map(operator.sub, lcm_ij, li)), -1 / fi[li])
        _subtract_multiple(s, fj, tuple(map(operator.sub, lcm_ij, lj)), 1 / fj[lj])
        s = _normal_form(s, basis)
        if s:
            basis.append((_lead(s), s))
            new = len(basis) - 1
            pairs.update((k, new) for k in range(new))
    return basis


def groebner_basis(generators: list[Polynomial]) -> list[Polynomial]:
    """Reduced monic Groebner basis, sorted by decreasing lead monomial."""
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        return []
    variables = gens[0].variables
    for g in gens:
        if g.variables != variables:
            raise ValidationError("generators must share one variable list")
    basis = _buchberger([g.terms for g in gens])
    leads = {lead for lead, _ in basis}
    if variables:  # without variables the one lead is (), the unit ideal
        leads = MonomialIdeal(len(variables), leads).generators
    reduced = []
    for m in leads:
        tail = _normal_form({m: 1}, basis)
        reduced.append(Polynomial(variables, {m: 1, **{e: -c for e, c in tail.items()}}))
    return reduced


def ideal_membership(
    g: Polynomial,
    generators: list[Polynomial],
    *,
    limit: int | None = None,
) -> bool:
    """Decide g in (generators) over Q[variables].

    Raises SizeGuardError when the instance exceeds the limits; `limit`
    lifts both to max(default, limit).
    """
    # Any int is a limit: one at or below a default leaves it as it is.
    if limit is not None and (not isinstance(limit, int) or isinstance(limit, bool)):
        raise ValidationError(f"limit must be an int or None, got {limit!r}")
    gens = [h for h in generators if not h.is_zero]
    for h in gens:
        if h.variables != g.variables:
            raise ValidationError("membership inputs must share one variable list")
    if g.is_zero:
        return True
    if not gens:
        return False
    var_limit = max(DEFAULT_VAR_LIMIT, limit or 0)
    term_limit = max(DEFAULT_TERM_LIMIT, limit or 0)
    if g.n > var_limit:
        raise SizeGuardError(
            f"{g.n} variables exceeds the limit of {var_limit}"
        )
    total_terms = sum(len(h.terms) for h in gens)
    if total_terms > term_limit:
        raise SizeGuardError(
            f"{total_terms} generator terms exceed the limit of {term_limit}"
        )
    return not _normal_form(g.terms, _buchberger([h.terms for h in gens]))
