"""Closed-form Hodge and weighted Hodge ideals for normal-crossings models.

The local model is D = (x_1 ... x_r = 0) inside affine n-space with smooth
transverse components.  Both ideal families are monomial in the branch
coordinates, so everything here is exact combinatorics:

  I_p(D)        = ( x^a : 0 <= a_i <= p, a_1 + ... + a_r = p(r-1) )
  I_p^{W_l}(D)  = ( x_J^a * x_{I\\J}^{p+1} : J subset of I, |J| = l,
                    0 <= a_i <= p, sum a = p(l-1) )      for 1 <= l <= r
  I_p^{W_0}(D)  = ( (x_1 ... x_r)^{p+1} )
  I_p^{W_l}(D)  = I_p(D)                                  for l >= r

The weight filtration is increasing in l and stabilizes at l = r.  At
l = r the only subset is J = I and the second formula is the first, so
I_p(D) is computed as the piece I_p^{W_r}(D), by the one generator loop.
"""

from __future__ import annotations

from itertools import combinations

from .errors import ValidationError, require_int
from .monomial import MonomialIdeal


class SncModel:
    """n ambient coordinates, the first r of which cut out the divisor."""

    def __init__(self, n: int, r: int):
        require_int("n", n)
        require_int("r", r)
        if not 1 <= r <= n:
            raise ValidationError(f"need 1 <= r <= n, got r={r}, n={n}")
        self.n = n
        self.r = r


def _bounded_compositions(total: int, parts: int, bound: int):
    """All tuples of `parts` ints in [0, bound] summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    lo = max(0, total - (parts - 1) * bound)
    hi = min(bound, total)
    for first in range(lo, hi + 1):
        for rest in _bounded_compositions(total - first, parts - 1, bound):
            yield (first,) + rest


def hodge_ideal_snc(model: SncModel, p: int) -> MonomialIdeal:
    """I_p(D) for the normal-crossings model: the top weight piece."""
    return weighted_hodge_ideal_snc(model, p, model.r)


def weighted_hodge_ideal_snc(model: SncModel, p: int, l: int) -> MonomialIdeal:
    """I_p^{W_l}(D) for the normal-crossings model."""
    require_int("p", p)
    require_int("l", l)
    if p < 0:
        raise ValidationError(f"need p >= 0, got {p}")
    if l < 0:
        raise ValidationError(f"need l >= 0, got {l}")
    n, r = model.n, model.r
    base = [p + 1] * r + [0] * (n - r)  # (x_1 ... x_r)^{p+1}
    if l == 0:
        return MonomialIdeal(n, [base])
    l = min(l, r)
    gens = []
    for subset in combinations(range(r), l):
        for a in _bounded_compositions(p * (l - 1), l, p):
            e = base.copy()
            for i, ai in zip(subset, a):
                e[i] = ai
            gens.append(tuple(e))
    return MonomialIdeal(n, gens)


class SncCheck:
    def __init__(self, name: str, p: int, l: int | None, passed: bool):
        self.name = name
        self.p = p
        self.l = l
        self.passed = passed


class SncVerification:
    def __init__(self, model: SncModel, p_max: int, checks: tuple[SncCheck, ...]):
        self.model = model
        self.p_max = p_max
        self.checks = checks

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "n": self.model.n,
            "r": self.model.r,
            "p_max": self.p_max,
            "checks": [
                {"name": c.name, "p": c.p, "l": c.l, "passed": c.passed}
                for c in self.checks
            ],
            "all_passed": self.all_passed,
        }


def verify_snc_theorems(model: SncModel, p_max: int) -> SncVerification:
    """Exercise the structural facts the closed forms must satisfy.

    For every p <= p_max: the weight chain is increasing in l, it stabilizes
    to I_p(D) from l = r on, I_p^{W_0} is the expected principal ideal, and
    for p >= 1 the full Hodge ideal sits inside the adjoint-type ideal
    I_0^{W_1}.
    """
    require_int("p_max", p_max)
    if p_max < 0:
        raise ValidationError(f"need p_max >= 0, got {p_max}")
    n, r = model.n, model.r
    checks = []
    adjoint = weighted_hodge_ideal_snc(model, 0, 1)
    for p in range(p_max + 1):
        ladder = [weighted_hodge_ideal_snc(model, p, l) for l in range(n + 2)]
        hodge = hodge_ideal_snc(model, p)
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
