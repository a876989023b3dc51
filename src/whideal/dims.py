"""Dimension formulas and point-count bounds for isolated singular points.

The input data is a table of Hodge numbers of an exceptional divisor G of a
resolution (G has dimension n-2): `middle` holds h^{a,b} of its middle
cohomology and `top` holds h^{a,b} of its top cohomology.  From those the
graded Hodge piece at a singular point, the pushforward filtration
dimension, and the projective counting bounds are elementary binomial
arithmetic, kept exact.
"""

from __future__ import annotations

import math

from .errors import ValidationError, require_int


def binomial(n: int, k: int) -> int:
    """C(n, k); zero outside 0 <= k <= n, error for negative n."""
    if n < 0:
        raise ValidationError(f"need n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def pushforward_filtration_dim(d, p: int, n: int) -> int:
    """dim F_p of the pushforward in cohomological degree l.

    `d` maps r to dim Gr_F^{n-r} of the vanishing-cohomology piece; entries
    for every 0 <= r <= p are required.  The collapsed form of the double
    sum over Taylor directions is sum_r C(n+p-r, p-r) d(r).  A term with
    d(r) = 0 adds nothing, so its binomial is not computed.
    """
    require_int("p", p, 0)
    require_int("n", n, 1)
    total = 0
    for r in range(p + 1):
        if r not in d:
            raise ValidationError(f"missing graded dimension for r={r}")
        require_int(f"d({r})", d[r], 0)
        if d[r]:
            total += binomial(n + p - r, p - r) * d[r]
    return total


def _validate_entries(items, n: int, label: str) -> dict:
    """The one check of table rows, as ((a, b), h) pairs: key types first, so
    a malformed key is never hashed, then duplicates, value and range."""
    out = {}
    for key, h in items:
        # bool is an int subclass, so True would silently index as 1
        pair = isinstance(key, tuple) and len(key) == 2
        if not (pair and all(isinstance(x, int) and not isinstance(x, bool) for x in key)):
            raise ValidationError(f"{label} entry key {key!r} must be a pair of ints")
        a, b = key
        if key in out:
            raise ValidationError(f"duplicate '{label}' entry ({a},{b})")
        if not isinstance(h, int) or isinstance(h, bool) or h < 0:
            raise ValidationError(f"{label} entry ({a},{b}) has invalid value {h!r}")
        if h and not (0 <= a <= n - 2 and 0 <= b <= n - 2):
            raise ValidationError(
                f"{label} entry ({a},{b}) is nonzero but G has dimension {n - 2}"
            )
        out[key] = h
    return {key: h for key, h in out.items() if h}


class HodgeNumberTable:
    """Hodge numbers of the middle and top cohomology of G (dim G = n-2)."""

    def __init__(self, n: int, middle: dict | None = None, top: dict | None = None):
        require_int("n", n, 2)
        self.n = n
        for label, entries in (("middle", middle), ("top", top)):
            entries = {} if entries is None else entries
            if not isinstance(entries, dict):
                raise ValidationError(f"{label} must be a dict of (a, b) -> h, got {entries!r}")
            setattr(self, label, _validate_entries(entries.items(), n, label))

    def __eq__(self, other):
        if not isinstance(other, HodgeNumberTable):
            return NotImplemented
        return (self.n, self.middle, self.top) == (other.n, other.middle, other.top)

    @classmethod
    def from_json_dict(cls, data: dict) -> "HodgeNumberTable":
        if not isinstance(data, dict) or "n" not in data:
            raise ValidationError("table JSON must be an object with an 'n' field")
        table = cls(data["n"])
        for label in ("middle", "top"):
            rows = data.get(label, [])
            if not isinstance(rows, list):
                raise ValidationError(f"'{label}' must be a list of [a, b, h] triples")
            for row in rows:
                if not (isinstance(row, list) and len(row) == 3):
                    raise ValidationError(f"'{label}' row {row!r} is not an [a, b, h] triple")
            items = (((a, b), h) for a, b, h in rows)
            setattr(table, label, _validate_entries(items, table.n, label))
        return table

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "middle": [[a, b, h] for (a, b), h in sorted(self.middle.items())],
            "top": [[a, b, h] for (a, b), h in sorted(self.top.items())],
        }


def graded_piece_dim(table: HodgeNumberTable, l: int, p: int) -> int:
    """dim Gr_F^{n-p} of the weight-l graded piece, from the table of G.

    For l >= 3 this is h^{p, n-l-p} of the middle cohomology.  For l = 2 a
    correction from the top cohomology is subtracted; at p = 0 that term is
    forced to zero because its first index n-1 exceeds dim G = n-2.
    """
    n = table.n
    require_int("l", l, 2)
    require_int("p", p, 0)
    if p > n - 2:
        raise ValidationError(f"need 0 <= p <= n-2, got p={p}, n={n}")
    if l >= 3:
        return table.middle.get((p, n - l - p), 0)
    value = table.middle.get((p, n - p - 2), 0) - table.top.get((n - p - 1, p + 1), 0)
    if value < 0:
        raise ValidationError(
            f"inconsistent table: negative graded dimension {value} at l=2, p={p}"
        )
    return value


def projective_bounds(n: int, d: int, p: int) -> tuple[int, int]:
    """Upper bounds (#points with nontrivial W_2 piece, #all singular points)
    for a degree-d hypersurface in projective n-space with isolated
    singularities: (C((p+1)d - 1, n), C((p+1)d, n))."""
    require_int("n", n, 1)
    require_int("d", d, 1)
    require_int("p", p, 0)
    return binomial((p + 1) * d - 1, n), binomial((p + 1) * d, n)


def surjectivity_threshold(n: int, d: int, p: int, l: int) -> int:
    """Smallest k with the restriction map surjective in twist k:
    (p+1)d - n - 1 for l >= 2 and (p+1)d - n for l = 1."""
    require_int("n", n, 1)
    require_int("d", d, 1)
    require_int("p", p, 0)
    require_int("l", l, 1)
    if l >= 2:
        return (p + 1) * d - n - 1
    return (p + 1) * d - n
