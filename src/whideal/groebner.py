"""Buchberger-based ideal membership over Q, graded reverse lex order.

Deliberately desk scale: a size guard refuses instances that exact dense
elimination is not meant for, and the guard is only lifted explicitly, by
the `limit` keyword, which never lowers it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SizeGuardError, ValidationError
from .monomial import MonomialIdeal
from .poly import Polynomial, divides, grevlex_key

DEFAULT_VAR_LIMIT = 8
DEFAULT_TERM_LIMIT = 40


def _lead(terms: dict) -> tuple:
    return max(terms, key=grevlex_key)


def _lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def _subtract_multiple(work: dict, g: dict, shift: tuple, scale: Fraction) -> None:
    """work -= scale * x^shift * g, in place; terms that cancel are dropped.

    The one reduction step: it builds S-polynomials and divides in
    `_normal_form`.
    """
    for e, c in g.items():
        key = tuple(a + b for a, b in zip(e, shift))
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
                shift = tuple(a - b for a, b in zip(m, lead))
                _subtract_multiple(work, terms, shift, work[m] / terms[lead])
                break
        else:
            remainder[m] = work.pop(m)
    return remainder


def _buchberger(gens: list[dict]) -> list[dict]:
    basis = [dict(g) for g in gens if g]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    leads = [_lead(g) for g in basis]

    def chain_criterion(i, j, lcm_ij):
        # Skip (i,j) if some k has lead dividing lcm and both companion
        # pairs were already handled.
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if divides(leads[k], lcm_ij):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pairs and b not in pairs:
                    return True
        return False

    while pairs:
        i, j = min(pairs, key=lambda p: (grevlex_key(_lcm(leads[p[0]], leads[p[1]])), p))
        pairs.discard((i, j))
        li, lj = leads[i], leads[j]
        lcm_ij = _lcm(li, lj)
        if lcm_ij == tuple(a + b for a, b in zip(li, lj)):
            continue  # coprime leads: S-polynomial reduces to zero
        if chain_criterion(i, j, lcm_ij):
            continue
        fi, fj = basis[i], basis[j]
        # S = x^(lcm - li) fi / lc(fi) - x^(lcm - lj) fj / lc(fj)
        s: dict = {}
        _subtract_multiple(s, fi, tuple(a - b for a, b in zip(lcm_ij, li)), -1 / fi[li])
        _subtract_multiple(s, fj, tuple(a - b for a, b in zip(lcm_ij, lj)), 1 / fj[lj])
        s = _normal_form(s, list(zip(leads, basis)))
        if s:
            basis.append(s)
            leads.append(_lead(s))
            new = len(basis) - 1
            pairs.update((k, new) for k in range(new))
    return basis


def _reduce_basis(basis: list[dict]) -> list[dict]:
    # Minimalize: one element per distinct lead (the reduced basis is
    # unique, so which one does not matter), and of the leads only the
    # minimal generators of the lead ideal, in descending order.
    by_lead: dict[tuple, dict] = {}
    for g in basis:
        by_lead.setdefault(_lead(g), g)
    n = len(next(iter(by_lead)))
    leads = MonomialIdeal(n, by_lead).generators if n else tuple(by_lead)
    kept = [(lead, by_lead[lead]) for lead in leads]
    # Fully reduce tails and normalize to monic; no lead changes, so the
    # descending order stays.
    reduced = []
    for i, (lead, g) in enumerate(kept):
        nf = _normal_form(g, kept[:i] + kept[i + 1 :])
        reduced.append({e: c / nf[lead] for e, c in nf.items()})
    return reduced


def groebner_basis(generators: list[Polynomial]) -> list[Polynomial]:
    """Reduced monic Groebner basis, sorted by decreasing lead monomial."""
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        return []
    variables = gens[0].variables
    for g in gens:
        if g.variables != variables:
            raise ValidationError("generators must share one variable list")
    basis = _reduce_basis(_buchberger([g.terms for g in gens]))
    return [Polynomial(variables, terms) for terms in basis]


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
    basis = _buchberger([h.terms for h in gens])
    pairs = [(_lead(b), b) for b in basis]
    return not _normal_form(g.terms, pairs)
