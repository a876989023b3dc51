"""Closed-form Hodge and weighted Hodge ideals for normal-crossings models.

The local model is D = (x_1 ... x_r = 0) inside affine n-space with smooth
transverse components.  Both ideal families are monomial in the branch
coordinates, so everything here is exact combinatorics:

  I_p(D)        = ( x^a : 0 <= a_i <= p, a_1 + ... + a_r = p(r-1) )
  I_p^{W_l}(D)  = ( x_J^a * x_{I\\J}^{p+1} : J subset of I, |J| = l,
                    0 <= a_i <= p, sum a = p(l-1) )      for 1 <= l <= r
  I_p^{W_0}(D)  = ( (x_1 ... x_r)^{p+1} )
  I_p^{W_l}(D)  = I_p(D)                                  for l >= r

For 1 <= l <= r the entries a_i <= p add up to p(l-1), so the deficits
p - a_i add up to p; conversely, deficits >= 0 that add up to p give
entries in [0, p].  Each generator is therefore

  x_I^{p+1} / (x_J * mu),   mu a monomial of degree p in x_J,

one for each J and each multiset of p indices of J.

The weight filtration is increasing in l and stabilizes at l = r.  At
l = r the only subset is J = I and the second formula is the first, so
I_p(D) is computed as the piece I_p^{W_r}(D), by the one generator loop.

Of the checks of `verify_snc_theorems`, stabilization (the loop reads l as
min(l, r)) and w0-principal (the l = 0 branch) hold by construction.  Its
ladder builds each piece once: the pieces for l >= r are one object, I_p(D).
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import combinations, combinations_with_replacement

from .errors import SizeGuardError, ValidationError, require_int
from .monomial import MonomialIdeal

SNC_GENERATOR_LIMIT = 1_000_000
SNC_CHECK_LIMIT = 10_000_000  # checks times n, the entries of each exponent
_COUNT_CAP = 10**18  # a larger generator count is named only as past this


def _comb_capped(m: int, k: int) -> int:
    """min(C(m, k), _COUNT_CAP + 1), without computing a huge C(m, k).

    C(m, k) >= 2^k' with k' = min(k, m - k), so from k' = 60 on it is past
    the cap.
    """
    k = min(k, m - k)
    return _COUNT_CAP + 1 if k >= 60 else min(math.comb(m, k), _COUNT_CAP + 1)


def _refuse_past_limit(count: int) -> None:
    """SizeGuardError when `count` generators, not yet built, pass the limit."""
    if count > SNC_GENERATOR_LIMIT:
        named = count if count <= _COUNT_CAP else f"more than {_COUNT_CAP}"
        raise SizeGuardError(f"{named} generators exceed the limit of {SNC_GENERATOR_LIMIT}")


def refuse_checks_past_limit(n: int, p_max: int, r: int | None = None) -> None:
    """SizeGuardError when the checks of `verify_snc_theorems` for r, or for
    every 1 <= r <= n when r is None, times n pass `SNC_CHECK_LIMIT`.

    Each p makes n + 1 chain checks, n + 1 - r stabilization checks, one
    w0-principal check and, for p >= 1, one adjoint containment, each on
    exponents of n entries.  The count is closed-form, so a huge n costs
    nothing before it is refused.
    """
    require_int("p_max", p_max, 0)
    models, r_sum = (n, n * (n + 1) // 2) if r is None else (1, r)
    checks = (p_max + 1) * ((2 * n + 3) * models - r_sum) + p_max * models
    if checks * n > SNC_CHECK_LIMIT:
        raise SizeGuardError(
            f"{checks} checks on {n} coordinates ({checks * n} entries) "
            f"exceed the limit of {SNC_CHECK_LIMIT}"
        )


def refuse_generators_past_limit(p_max: int, r_values) -> None:
    """SizeGuardError when `verify_snc_theorems`, run once for each r in
    `r_values`, would build more than `SNC_GENERATOR_LIMIT` generators.

    For each r the adjoint piece has r generators and each l = 0 piece one,
    and summing C(l + p - 1, p) over p <= p_max gives C(l + p_max, p_max).
    Every r is counted before any piece is built.
    """
    count = 0
    for r in r_values:
        count += r + p_max + 1
        count += sum(_comb_capped(r, l) * _comb_capped(l + p_max, p_max) for l in range(1, r + 1))
        if count > _COUNT_CAP:
            break
    _refuse_past_limit(count)


class SncModel:
    """n ambient coordinates, the first r of which cut out the divisor."""

    def __init__(self, n: int, r: int):
        require_int("n", n, 1)
        require_int("r", r, 1)
        if r > n:
            raise ValidationError(f"need 1 <= r <= n, got r={r}, n={n}")
        self.n = n
        self.r = r


def hodge_ideal_snc(model: SncModel, p: int) -> MonomialIdeal:
    """I_p(D) for the normal-crossings model: the top weight piece."""
    return weighted_hodge_ideal_snc(model, p, model.r)


def weighted_hodge_ideal_snc(model: SncModel, p: int, l: int) -> MonomialIdeal:
    """I_p^{W_l}(D) for the normal-crossings model."""
    require_int("p", p, 0)
    require_int("l", l, 0)
    n, r = model.n, model.r
    base = [p + 1] * r + [0] * (n - r)  # (x_1 ... x_r)^{p+1}
    if l == 0:
        return MonomialIdeal(n, [base])
    l = min(l, r)
    _refuse_past_limit(_comb_capped(r, l) * _comb_capped(l + p - 1, p))
    gens = []
    for subset in combinations(range(r), l):
        # x_I^{p+1} / (x_J * mu), mu a degree-p monomial in x_J
        for mu in combinations_with_replacement(subset, p):
            e = base.copy()
            for i in subset:
                e[i] = p
            for i in mu:
                e[i] -= 1
            gens.append(tuple(e))
    return MonomialIdeal(n, gens)


SncCheck = namedtuple("SncCheck", "name p l passed")


class SncVerification(namedtuple("SncVerification", "model p_max checks")):
    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "n": self.model.n,
            "r": self.model.r,
            "p_max": self.p_max,
            "checks": [c._asdict() for c in self.checks],
            "all_passed": self.all_passed,
        }


def verify_snc_theorems(model: SncModel, p_max: int) -> SncVerification:
    """Exercise the structural facts the closed forms must satisfy.

    For every p <= p_max: the weight chain is increasing in l, it stabilizes
    to I_p(D) from l = r on, I_p^{W_0} is the expected principal ideal, and
    for p >= 1 the full Hodge ideal sits inside the adjoint-type ideal
    I_0^{W_1}.

    The stabilization and w0-principal checks hold by construction (l is
    read as min(l, r), and l = 0 is its own branch); they stay so that the
    number and order of the checks are fixed.  I_p(D) is ladder[r], built
    once: every piece from l = r on is that same object.  The checks and
    the generators are both counted, and refused past their limits, before
    any piece is built.
    """
    n, r = model.n, model.r
    refuse_checks_past_limit(n, p_max, r)
    refuse_generators_past_limit(p_max, [r])
    checks = []
    adjoint = weighted_hodge_ideal_snc(model, 0, 1)
    for p in range(p_max + 1):
        ladder = [weighted_hodge_ideal_snc(model, p, l) for l in range(r + 1)]
        hodge = ladder[r]
        ladder += [hodge] * (n + 1 - r)
        for l in range(n + 1):
            checks.append(
                SncCheck("chain", p, l, ladder[l].is_subideal(ladder[l + 1]))
            )
        for l in range(r, n + 1):
            checks.append(SncCheck("stabilization", p, l, ladder[l] == hodge))
        principal = MonomialIdeal(n, [(p + 1,) * r + (0,) * (n - r)])
        checks.append(SncCheck("w0-principal", p, 0, ladder[0] == principal))
        if p >= 1:
            checks.append(SncCheck("adjoint-containment", p, None, hodge.is_subideal(adjoint)))
    return SncVerification(model, p_max, tuple(checks))
