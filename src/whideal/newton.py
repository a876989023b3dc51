"""Exact Newton polyhedra of polynomial supports.

The Newton polyhedron of f is the convex hull of supp(f) + the nonnegative
orthant.  Only its compact facets matter here; each one is the solution set
of <A, B> = 1 for a unique covector B with all entries strictly positive.
Everything below is exact: facets come from solving n-point linear systems
over Q, and vertices are derived from the facets on first read, by the rank
of the facet normals through each support point, so no floating-point hull
code is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .errors import ValidationError
from .poly import Exponent, Polynomial, fraction_text


def _dot(a, b) -> Fraction:
    return sum(x * y for x, y in zip(a, b))


def _pivot(rows, r, c) -> None:
    """Scale row r to a 1 in column c, then clear column c from the other rows.

    The one row operation of this module, shared by both eliminations.
    """
    pivot_row = rows[r] = [v / rows[r][c] for v in rows[r]]
    for i, row in enumerate(rows):
        factor = row[c]
        if i != r and factor:
            rows[i] = [x - factor * y for x, y in zip(row, pivot_row)]


def _covector_for(points) -> tuple[Fraction, ...] | None:
    """Solve <A, B> = 1 for all A in points; None if not uniquely solvable."""
    n = len(points[0])
    rows = [[Fraction(x) for x in p] + [Fraction(1)] for p in points]
    pivots = []
    for col in range(n):
        r = next((r for r in range(n) if r not in pivots and rows[r][col]), None)
        if r is None:
            return None
        _pivot(rows, r, col)
        pivots.append(r)
    return tuple(rows[r][n] for r in pivots)


def _affine_rank(points) -> int:
    pts = list(points)
    if len(pts) <= 1:
        return 0
    base = pts[0]
    rows = [[Fraction(x - y) for x, y in zip(p, base)] for p in pts[1:]]
    pivots = []
    for col in range(len(base)):
        r = next((r for r in range(len(rows)) if r not in pivots and rows[r][col]), None)
        if r is not None:
            _pivot(rows, r, col)
            pivots.append(r)
    return len(pivots)


@dataclass(frozen=True)
class CompactFacet:
    """A compact facet: covector B > 0 with <A, B> = 1 on incident points."""

    covector: tuple[Fraction, ...]
    incident_points: tuple[Exponent, ...]

    def shifted_weight(self, exponent) -> Fraction:
        """<exponent + (1,...,1), B>: the pole-order weight of a monomial."""
        return _dot(tuple(e + 1 for e in exponent), self.covector)


@dataclass(frozen=True)
class NewtonPolyhedron:
    n: int
    support: tuple[Exponent, ...]
    facets: tuple[CompactFacet, ...]

    @cached_property
    def vertices(self) -> frozenset[Exponent]:
        """The support points that are vertices, computed on first read.

        A point of a polyhedron is a vertex iff the normals of the facets
        through it have rank n (Ziegler, Lectures on Polytopes, ch. 2).  Each
        facet of the Newton polyhedron is compact, a coordinate hyperplane,
        or a compact facet of the projection of the support onto a proper
        set of coordinates that misses the origin, lifted with zeros.  Other
        hyperplanes supporting the polyhedron at a point leave the rank
        unchanged, so the normal e_i is taken for every zero entry a_i.  A
        pure power of a dropped variable projects onto the origin, so
        convenient supports lift no facets.
        """
        n = self.n
        normals = [facet.covector for facet in self.facets]
        for k in range(1, n):
            for kept in combinations(range(n), k):
                projected = {tuple(a[i] for i in kept) for a in self.support}
                if (0,) * k not in projected:
                    for cov in _compact_facets(sorted(projected), k):
                        lifted = dict(zip(kept, cov))
                        normals.append(tuple(lifted.get(i, 0) for i in range(n)))

        def is_vertex(a) -> bool:
            # The e_i with a_i = 0 span those coordinates; the other normals
            # through a must span the rest.
            free = [i for i, x in enumerate(a) if x]
            through = [tuple(b[i] for i in free) for b in normals if _dot(a, b) == 1]
            return _affine_rank([(0,) * len(free), *through]) == len(free)

        return frozenset(filter(is_vertex, self.support))

    def shifted_weight_monomial(self, exponent) -> Fraction:
        if len(exponent) != self.n:
            raise ValidationError(f"exponent length {len(exponent)}, expected {self.n}")
        if not self.facets:
            raise ValidationError("the polyhedron has no compact facets")
        return min(f.shifted_weight(exponent) for f in self.facets)

    def shifted_weight_one(self) -> Fraction:
        """Shifted weight of the constant monomial; the minimal-exponent value."""
        return self.shifted_weight_monomial((0,) * self.n)

    def is_simplicial(self) -> bool:
        """True iff every compact facet carries exactly n polyhedron vertices."""
        return all(
            sum(1 for p in f.incident_points if p in self.vertices) == self.n
            for f in self.facets
        )


def is_convenient(f: Polynomial) -> bool:
    """True iff a pure power of every variable appears in supp(f)."""
    if f.n == 0:
        return False
    pure = [False] * f.n
    for e in f.support():
        nz = [i for i, x in enumerate(e) if x]
        if len(nz) == 1:
            pure[nz[0]] = True
    return all(pure)


def checked_support(f: Polynomial) -> tuple[Exponent, ...]:
    """The sorted support of f, once f is known to have a Newton polyhedron."""
    if f.n == 0:
        raise ValidationError("need at least one variable")
    if f.is_zero:
        raise ValidationError("the zero polynomial has no Newton polyhedron")
    support = tuple(sorted(f.support()))
    if (0,) * f.n in support:
        raise ValidationError("constant term present: f(0) != 0")
    return support


def _compact_facets(support, n) -> dict[tuple[Fraction, ...], tuple[Exponent, ...]]:
    """Covector -> incident points of each compact facet of support + orthant.

    Every compact facet is spanned by n affinely independent support points,
    and affinely independent points on a hyperplane missing the origin are
    linearly independent, so solving <A, B> = 1 on each n-subset and keeping
    the strictly positive covectors that support the whole support set finds
    them all.  Coplanar subsets collapse by covector.
    """
    found: dict[tuple[Fraction, ...], tuple[Exponent, ...]] = {}
    for subset in combinations(support, n):
        cov = _covector_for(subset)
        if cov is None or any(b <= 0 for b in cov) or cov in found:
            continue
        incident = []
        for a in support:
            level = _dot(a, cov)
            if level < 1:
                break
            if level == 1:
                incident.append(a)
        else:
            found[cov] = tuple(incident)
    return found


def compute_polyhedron(f: Polynomial) -> NewtonPolyhedron:
    """The Newton polyhedron of f with its compact facets sorted by covector.

    Vertices are derived from the facets when first read.
    """
    support = checked_support(f)
    found = _compact_facets(support, f.n)
    facets = tuple(CompactFacet(cov, found[cov]) for cov in sorted(found))
    return NewtonPolyhedron(f.n, support, facets)


def facets_json(polyhedron: NewtonPolyhedron) -> list[dict]:
    return [
        {
            "covector": [fraction_text(b) for b in facet.covector],
            "incident_points": [list(p) for p in facet.incident_points],
        }
        for facet in polyhedron.facets
    ]
