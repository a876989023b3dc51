"""Exact Newton polyhedra of polynomial supports.

The Newton polyhedron of f is the convex hull of supp(f) + the nonnegative
orthant.  Only its compact facets matter here; each one is the solution set
of <A, B> = 1 for a unique covector B with all entries strictly positive.
Everything below is exact: facets come from solving n-point linear systems
over Q, and vertexhood is decided by an exact simplex feasibility test, so
no floating-point hull code is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ValidationError
from .poly import Exponent, Polynomial, fraction_text


def _dot(a, b) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(a, b)), Fraction(0))


def _pivot(rows, r, c) -> None:
    """Scale row r to a 1 in column c, then clear column c from the other rows.

    The one row operation of this module: both eliminations and the simplex.
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


def _lp_feasible(points, target) -> bool:
    """Exact test for: exists lam >= 0 with sum lam = 1 and T lam <= target.

    Phase-1 simplex over Q with Bland's rule.  Row 0 is the convex-combination
    equality (one artificial variable); the n coordinate rows get slacks and
    start basic since target >= 0 componentwise.  The last column of the
    tableau is the right-hand side.
    """
    m = len(points)
    if m == 0:
        return False
    n = len(target)
    art = m + n
    rows = [[Fraction(1)] * m + [Fraction(0)] * n + [Fraction(1), Fraction(1)]]
    for i in range(n):
        row = [Fraction(points[j][i]) for j in range(m)] + [Fraction(0)] * (n + 1)
        row[m + i] = Fraction(1)
        rows.append(row + [Fraction(target[i])])
    basis = [art] + [m + i for i in range(n)]
    while True:
        in_basis = set(basis)
        entering = -1
        for j in range(art):  # the artificial never re-enters
            if j in in_basis:
                continue
            # reduced cost of j for objective "minimize artificial"
            rc = -sum(rows[i][j] for i in range(len(rows)) if basis[i] == art)
            if rc < 0:
                entering = j
                break
        if entering < 0:
            value = sum(rows[i][-1] for i in range(len(rows)) if basis[i] == art)
            return value == 0
        leave = -1
        best = None
        for i in range(len(rows)):
            a = rows[i][entering]
            if a > 0:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise AssertionError("phase-1 objective cannot be unbounded")
        _pivot(rows, leave, entering)
        basis[leave] = entering


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

    def weight(self, point) -> Fraction:
        return _dot(point, self.covector)

    def shifted_weight(self, exponent) -> Fraction:
        """<exponent + (1,...,1), B>: the pole-order weight of a monomial."""
        return _dot(tuple(e + 1 for e in exponent), self.covector)


@dataclass(frozen=True)
class NewtonPolyhedron:
    n: int
    support: tuple[Exponent, ...]
    facets: tuple[CompactFacet, ...]
    vertices: frozenset[Exponent]

    def shifted_weight_monomial(self, exponent) -> Fraction:
        if len(exponent) != self.n:
            raise ValidationError(f"exponent length {len(exponent)}, expected {self.n}")
        if not self.facets:
            raise ValidationError("the polyhedron has no compact facets")
        return min(f.shifted_weight(exponent) for f in self.facets)

    def shifted_weight(self, g: Polynomial) -> Fraction:
        """Minimum shifted weight over the support of g."""
        if g.is_zero:
            raise ValidationError("the zero polynomial has no weight")
        if g.n != self.n:
            raise ValidationError(f"polynomial in {g.n} variables, expected {self.n}")
        return min(self.shifted_weight_monomial(e) for e in g.support())

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


def compute_polyhedron(f: Polynomial) -> NewtonPolyhedron:
    """Compact facets and vertices of the Newton polyhedron of f.

    Facets: every compact facet is spanned by n affinely independent support
    points, and affinely independent points on a hyperplane missing the
    origin are linearly independent, so solving <A, B> = 1 on each n-subset
    and keeping the strictly positive covectors that support the whole
    support set finds them all.  Coplanar subsets collapse by covector.
    """
    support = checked_support(f)
    n = f.n
    found: dict[tuple[Fraction, ...], tuple[Exponent, ...]] = {}
    for subset in combinations(support, n):
        cov = _covector_for(subset)
        if cov is None or any(b <= 0 for b in cov) or cov in found:
            continue
        if all(_dot(a, cov) >= 1 for a in support):
            found[cov] = tuple(a for a in support if _dot(a, cov) == 1)
    facets = tuple(CompactFacet(cov, found[cov]) for cov in sorted(found))
    others = {a: [b for b in support if b != a] for a in support}
    vertices = frozenset(a for a in support if not _lp_feasible(others[a], a))
    return NewtonPolyhedron(n, support, facets, vertices)


def facets_json(polyhedron: NewtonPolyhedron) -> list[dict]:
    return [
        {
            "covector": [fraction_text(b) for b in facet.covector],
            "incident_points": [list(p) for p in facet.incident_points],
        }
        for facet in polyhedron.facets
    ]
