"""Exact Newton polyhedra of polynomial supports.

The Newton polyhedron of f is the convex hull of supp(f) + the nonnegative
orthant.  Only its compact facets matter here; each one is the solution set
of <A, B> = 1 for a unique covector B with all entries strictly positive.
Everything below is exact: facets come from solving n-point linear systems
over Q, and vertices are derived from the facets on first read, by the rank
of the facet normals through each support point, so no floating-point hull
code is involved anywhere.  One Gauss-Jordan routine, `_eliminate`, does both
the solving and the rank counting.

A support point a that another support point b divides (a >= b, a != b)
lies strictly above every compact facet, since B > 0 gives
<a, B> > <b, B> >= 1, and it is never a vertex.  So once the support has
more than n points, facets are enumerated over the undominated points only:
C(undominated, n) eliminations instead of C(m, n).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .errors import ValidationError
from .monomial import MonomialIdeal
from .poly import Exponent, Polynomial, fraction_text


def _dot(a, b) -> Fraction:
    return sum(x * y for x, y in zip(a, b))


def _eliminate(rows, width):
    """Gauss-Jordan elimination of rows over Q, one column at a time.

    The one elimination of this module.  For each of the first `width`
    columns it yields whether the column had a pivot; a pivot row is scaled
    to a 1 there, cleared from every other row and moved up to the next
    pivot position, so after k pivots rows[:k] are the reduced rows in
    pivot order.  Callers stop it early by no longer asking.
    """
    rank = 0
    for c in range(width):
        r = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if r is None:
            yield False
            continue
        # Move, not swap: the other rows keep their input order, so each
        # column pivots on the first usable input row; swapping reorders
        # them and measured about 8% slower on random supports.
        row = rows.pop(r)
        pivot_row = [v / row[c] for v in row]
        rows.insert(rank, pivot_row)
        for i, row in enumerate(rows):
            factor = row[c]
            if i != rank and factor:
                rows[i] = [x - factor * y for x, y in zip(row, pivot_row)]
        rank += 1
        yield True


def _covector_for(points) -> tuple[Fraction, ...] | None:
    """Solve <A, B> = 1 for all A in points; None if not uniquely solvable."""
    n = len(points[0])
    rows = [[Fraction(x) for x in p] + [Fraction(1)] for p in points]
    if not all(_eliminate(rows, n)):
        return None
    return tuple(row[n] for row in rows)


def _affine_rank(points) -> int:
    pts = list(points)
    if len(pts) <= 1:
        return 0
    base = pts[0]
    rows = [[Fraction(x - y) for x, y in zip(p, base)] for p in pts[1:]]
    return sum(_eliminate(rows, len(base)))


class CompactFacet:
    """A compact facet: covector B > 0 with <A, B> = 1 on incident points."""

    def __init__(self, covector: tuple[Fraction, ...], incident_points: tuple[Exponent, ...]):
        self.covector = covector
        self.incident_points = incident_points

    def __eq__(self, other):
        if not isinstance(other, CompactFacet):
            return NotImplemented
        return (self.covector, self.incident_points) == (other.covector, other.incident_points)

    def __hash__(self):
        return hash((self.covector, self.incident_points))


class NewtonPolyhedron:
    def __init__(self, n: int, support: tuple[Exponent, ...], facets: tuple[CompactFacet, ...]):
        self.n = n
        self.support = support
        self.facets = facets

    def __eq__(self, other):
        if not isinstance(other, NewtonPolyhedron):
            return NotImplemented
        return (self.n, self.support, self.facets) == (other.n, other.support, other.facets)

    def __hash__(self):
        return hash((self.n, self.support, self.facets))

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

        # A dominated point b + d is the midpoint of b + d/2 and b + 3d/2,
        # both in the polyhedron, so it is never a vertex.
        return frozenset(filter(is_vertex, _undominated(self.support, n)))

    def shifted_weight_one(self) -> Fraction:
        """min over compact facets of <(1,...,1), B>: the minimal-exponent value."""
        if not self.facets:
            raise ValidationError("the polyhedron has no compact facets")
        return min(sum(f.covector) for f in self.facets)

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


def _undominated(support, n):
    """The points of a sorted support that no other point divides, in order.

    These are the minimal generators of the monomial ideal of the support.
    """
    return sorted(MonomialIdeal(n, support).generators)


def _compact_facets(support, n) -> dict[tuple[Fraction, ...], tuple[Exponent, ...]]:
    """Covector -> incident points of each compact facet of support + orthant.

    Every compact facet is spanned by n affinely independent support points,
    and affinely independent points on a hyperplane missing the origin are
    linearly independent, so solving <A, B> = 1 on each n-subset and keeping
    the strictly positive covectors that support the whole support set finds
    them all.  Coplanar subsets collapse by covector.

    A dominated point a = b + d (d >= 0, d != 0) has <a, B> > <b, B> >= 1
    for every B > 0: it spans no facet, is incident to none and never decides
    whether B supports the set.  So when there are more than n points, the
    subsets and the level test run over the undominated points only, kept in
    ascending order so incident points come out as before.  With at most n
    points there is at most one subset and nothing to gain from minimalizing.
    """
    points = _undominated(support, n) if len(support) > n else support
    found: dict[tuple[Fraction, ...], tuple[Exponent, ...]] = {}
    for subset in combinations(points, n):
        cov = _covector_for(subset)
        if cov is None or any(b <= 0 for b in cov) or cov in found:
            continue
        incident = []
        for a in points:
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
