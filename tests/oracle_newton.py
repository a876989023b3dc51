"""Brute-force compact-facet and vertex oracles, independent of the production path.

Every n-subset of support points is solved by Cramer's rule (recursive
Laplace determinants over the integers, one Fraction per entry), strictly
positive covectors that support the whole set are kept, and duplicates
collapse by covector.

A support point a is a vertex unless some convex combination of the other
support points lies below it coordinatewise; an exact phase-1 simplex over
Fraction with Bland's rule decides that for each point.
"""

from fractions import Fraction
from itertools import combinations


def _det(m):
    size = len(m)
    if size == 1:
        return m[0][0]
    if size == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(size):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        sign = -1 if j % 2 else 1
        total += sign * m[0][j] * _det(minor)
    return total


def _cramer_unit(points):
    n = len(points[0])
    m = [[p[j] for j in range(n)] for p in points]
    d = _det(m)
    if d == 0:
        return None
    sol = []
    for col in range(n):
        replaced = [
            [1 if j == col else m[i][j] for j in range(n)]
            for i in range(n)
        ]
        sol.append(Fraction(_det(replaced), d))
    return tuple(sol)


def _dot(a, b):
    return sum((Fraction(x) * y for x, y in zip(a, b)), Fraction(0))


def facet_oracle(support):
    """Sorted list of (covector, incident_points) for the compact facets."""
    support = sorted(set(tuple(p) for p in support))
    if not support:
        return []
    n = len(support[0])
    facets = {}
    for subset in combinations(support, n):
        cov = _cramer_unit(subset)
        if cov is None or not all(b > 0 for b in cov):
            continue
        if all(_dot(a, cov) >= 1 for a in support):
            facets[cov] = tuple(a for a in support if _dot(a, cov) == 1)
    return [(cov, facets[cov]) for cov in sorted(facets)]


def rho_one_oracle(support):
    """Minimal shifted weight of the constant monomial, via the oracle facets."""
    facets = facet_oracle(support)
    if not facets:
        return None
    ones = (1,) * len(facets[0][0])
    return min(_dot(ones, cov) for cov, _ in facets)


def _pivot(rows, r, c):
    pivot_row = rows[r] = [v / rows[r][c] for v in rows[r]]
    for i, row in enumerate(rows):
        factor = row[c]
        if i != r and factor:
            rows[i] = [x - factor * y for x, y in zip(row, pivot_row)]


def _dominated(points, target):
    """Exact test for: exists lam >= 0 with sum lam = 1 and T lam <= target.

    Row 0 is the convex-combination equality (one artificial variable); the
    n coordinate rows get slacks and start basic since target >= 0
    componentwise.  The last column of the tableau is the right-hand side.
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


def vertex_oracle(support):
    """The support points that are vertices of the Newton polyhedron."""
    support = sorted(set(tuple(p) for p in support))
    return frozenset(
        a for a in support if not _dominated([b for b in support if b != a], a)
    )


def simplicial_oracle(support):
    """True iff every compact facet carries exactly n vertices."""
    support = sorted(set(tuple(p) for p in support))
    vertices = vertex_oracle(support)
    return all(
        sum(1 for p in incident if p in vertices) == len(support[0])
        for _, incident in facet_oracle(support)
    )
