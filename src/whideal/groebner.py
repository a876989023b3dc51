"""Buchberger-based ideal membership over Q, graded reverse lex order.

Deliberately desk scale: a size guard refuses instances that exact dense
elimination is not meant for, and the guard is only lifted explicitly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SizeGuardError, ValidationError
from .poly import Polynomial, divides, grevlex_key

DEFAULT_VAR_LIMIT = 8
DEFAULT_TERM_LIMIT = 40


def _lead(terms: dict) -> tuple:
    return max(terms, key=grevlex_key)


def _lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def _monomial_times(terms: dict, shift: tuple, scale: Fraction) -> dict:
    return {
        tuple(e + s for e, s in zip(exp, shift)): c * scale
        for exp, c in terms.items()
    }


def _sub(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        v = out.get(e, Fraction(0)) - c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _normal_form(f: dict, basis: list[tuple]) -> dict:
    """Full remainder of f on division by basis (list of (lead, terms))."""
    remainder: dict = {}
    work = dict(f)
    while work:
        m = _lead(work)
        c = work.pop(m)
        for lead, terms in basis:
            if divides(lead, m):
                shift = tuple(a - b for a, b in zip(m, lead))
                scale = c / terms[lead]
                for e, ce in terms.items():
                    if e == lead:
                        continue
                    key = tuple(a + b for a, b in zip(e, shift))
                    v = work.get(key, Fraction(0)) - scale * ce
                    if v:
                        work[key] = v
                    else:
                        work.pop(key, None)
                break
        else:
            remainder[m] = c
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
        s = _sub(
            _monomial_times(fi, tuple(a - b for a, b in zip(lcm_ij, li)), 1 / fi[li]),
            _monomial_times(fj, tuple(a - b for a, b in zip(lcm_ij, lj)), 1 / fj[lj]),
        )
        s = _normal_form(s, list(zip(leads, basis)))
        if s:
            basis.append(s)
            leads.append(_lead(s))
            new = len(basis) - 1
            pairs.update((k, new) for k in range(new))
    return basis


def _reduce_basis(basis: list[dict]) -> list[dict]:
    # Minimalize: drop elements whose lead is divisible by another lead.
    order = sorted(range(len(basis)), key=lambda i: grevlex_key(_lead(basis[i])))
    kept: list[dict] = []
    kept_leads: list[tuple] = []
    for i in order:
        lead = _lead(basis[i])
        if not any(divides(other, lead) for other in kept_leads):
            kept.append(basis[i])
            kept_leads.append(lead)
    # Fully reduce tails and normalize to monic.
    reduced = []
    for i, g in enumerate(kept):
        others = [(kept_leads[k], kept[k]) for k in range(len(kept)) if k != i]
        nf = _normal_form(g, others)
        lc = nf[_lead(nf)]
        reduced.append({e: c / lc for e, c in nf.items()})
    reduced.sort(key=lambda g: grevlex_key(_lead(g)), reverse=True)
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
    var_limit: int = DEFAULT_VAR_LIMIT,
    term_limit: int = DEFAULT_TERM_LIMIT,
) -> bool:
    """Decide g in (generators) over Q[variables].

    Raises SizeGuardError when the instance exceeds the limits; pass larger
    limits to override.
    """
    gens = [h for h in generators if not h.is_zero]
    for h in gens:
        if h.variables != g.variables:
            raise ValidationError("membership inputs must share one variable list")
    if g.is_zero:
        return True
    if not gens:
        return False
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
