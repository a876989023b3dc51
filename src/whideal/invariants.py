"""Singularity invariants read off the Newton polyhedron.

For f convenient with an isolated singularity at the origin and a
nondegenerate Newton boundary, the minimal exponent equals the shifted
weight of the constant monomial.  Nondegeneracy is never verified here, so
every report carries an assumption banner.  Triviality of the Hodge ideal
I_p and of its first weighted piece I_p^{W_1} are exact threshold
comparisons against that value, and when it is an integer p+1 the facet
count through the diagonal point bounds the weight degree where the graded
pieces can live.  The minimal exponent also decides the V-filtration:
dt^j delta lies in V^alpha exactly when it is at least j + alpha.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError
from .groebner import DEFAULT_TERM_LIMIT, DEFAULT_VAR_LIMIT, ideal_membership
from .newton import NewtonPolyhedron, _affine_rank, checked_support, compute_polyhedron, facets_json, is_convenient
from .poly import Exponent, Polynomial, fraction_text, jacobian_ideal

ASSUMPTION_BANNER = (
    "assumed: isolated singularity at the origin and nondegenerate Newton "
    "boundary (asserted, not verified)"
)
NONCONVENIENT_BANNER = (
    "input is not convenient: the reported value is the raw Newton-polyhedron "
    "weight, without the minimal-exponent interpretation"
)


def _polyhedron_for(f: Polynomial, allow_nonconvenient: bool) -> tuple[NewtonPolyhedron, bool]:
    # Reject before the facet enumeration, but after the input
    # errors that compute_polyhedron reports first.
    checked_support(f)
    if any(sum(e) <= 1 for e in f.support()):
        raise ValidationError("f is smooth at the origin (constant or linear term present)")
    convenient = is_convenient(f)
    if not convenient and not allow_nonconvenient:
        raise ValidationError(
            "f is not convenient (a pure power of every variable is required); "
            "pass allow_nonconvenient to report the raw weight anyway"
        )
    return compute_polyhedron(f), convenient


def minimal_exponent(f: Polynomial, *, allow_nonconvenient: bool = False) -> Fraction:
    """Minimal exponent of f under the Newton-nondegeneracy assumptions."""
    polyhedron, _ = _polyhedron_for(f, allow_nonconvenient)
    return polyhedron.shifted_weight_one()


def jacobian_witness(
    f: Polynomial,
    m: Exponent,
    p: int,
    *,
    var_limit: int = DEFAULT_VAR_LIMIT,
    term_limit: int = DEFAULT_TERM_LIMIT,
) -> bool:
    """True iff the monomial x^m lies outside the Jacobian ideal of f.

    This is the low-level obstruction primitive: a witness outside J(f)
    follows the worked pattern (t dt)^(p+1) dt^p delta not in V^{>1}.  No
    claim is made about which monomials are valid witnesses in general.
    """
    if p < 0:
        raise ValidationError(f"need p >= 0, got {p}")
    monomial = Polynomial(f.variables, {tuple(m): Fraction(1)})
    return not ideal_membership(
        monomial, jacobian_ideal(f), var_limit=var_limit, term_limit=term_limit
    )


def witness_annotation(
    f: Polynomial, m: Exponent, p: int, outside: bool, nilpotency_upper: int | None = None
) -> str:
    mon = Polynomial(f.variables, {tuple(m): Fraction(1)})
    if not outside:
        return f"witness {mon} lies in J(f): no obstruction"
    note = (
        f"witness {mon} outside J(f): (t*dt)^{p + 1} dt^{p} delta outside "
        f"V^(>1) pattern, so the graded weight degree is >= {p + 2}"
    )
    if nilpotency_upper == p + 2:
        # the upper bound meets the obstruction, pinning the type
        note += f"; supports type ({p},{f.n - 2 * p - 2})"
    return note


class SingularityReport:
    def __init__(
        self,
        variables: tuple[str, ...],
        minimal_exponent: Fraction,
        p_level: int | None,
        r: int,
        s: int | None,
        simplicial: bool,
        hodge_triviality: dict[int, bool],
        w1_triviality: dict[int, bool],
        nilpotency_upper: int | None,
        type_range: tuple[tuple[int, int], ...] | None,
        exact_type: tuple[int, int] | None,
        notes: tuple[str, ...],
        polyhedron: NewtonPolyhedron,
    ):
        self.variables = variables
        self.minimal_exponent = minimal_exponent
        self.p_level = p_level
        self.r = r
        self.s = s
        self.simplicial = simplicial
        self.hodge_triviality = hodge_triviality
        self.w1_triviality = w1_triviality
        self.nilpotency_upper = nilpotency_upper
        self.type_range = type_range
        self.exact_type = exact_type
        self.notes = notes
        self.polyhedron = polyhedron

    def to_json_dict(self) -> dict:
        return {
            "schema": "whideal-report/1",
            "variables": list(self.variables),
            "minimal_exponent": fraction_text(self.minimal_exponent),
            "p_level": self.p_level,
            "r": self.r,
            "s": self.s,
            "simplicial": self.simplicial,
            "hodge_triviality": [[p, v] for p, v in sorted(self.hodge_triviality.items())],
            "w1_triviality": [[p, v] for p, v in sorted(self.w1_triviality.items())],
            "nilpotency_upper": self.nilpotency_upper,
            "type_range": None
            if self.type_range is None
            else [list(t) for t in self.type_range],
            "exact_type": None if self.exact_type is None else list(self.exact_type),
            "notes": list(self.notes),
            "facets": facets_json(self.polyhedron),
        }

    def with_notes(self, extra) -> "SingularityReport":
        return SingularityReport(**dict(vars(self), notes=self.notes + tuple(extra)))


def classify(f: Polynomial, *, allow_nonconvenient: bool = False) -> SingularityReport:
    """Full singularity report for f at the origin.

    Computes the minimal exponent, triviality thresholds, and, when the
    exponent is an integer p+1, the diagonal-face dimension s, the weight
    nilpotency bound r+1, the admissible range of types (p, s'), and the
    exact type in the weighted-homogeneous and p = 0 cases.
    """
    polyhedron, convenient = _polyhedron_for(f, allow_nonconvenient)
    notes = [ASSUMPTION_BANNER]
    if not convenient:
        notes.append(NONCONVENIENT_BANNER)
    n = f.n
    alpha = polyhedron.shifted_weight_one()
    active = [facet for facet in polyhedron.facets if sum(facet.covector) == alpha]
    r = len(active)
    table_max = max(3, int(alpha) + 1)
    hodge = {p: alpha >= p + 1 for p in range(table_max + 1)}
    w1 = {p: alpha > p + 1 for p in range(table_max + 1)}
    simplicial = polyhedron.is_simplicial()
    p_level = int(alpha) - 1 if alpha.denominator == 1 and alpha >= 1 else None
    s = None
    nilpotency = None
    type_range = None
    exact_type = None
    if p_level is not None:
        p = p_level
        nilpotency = r + 1  # (t dt)^(r+1) dt^p delta lies in V^(>1)
        notes.append(
            f"I_{p}^(W_1) equals the maximal ideal of the singular point "
            f"(minimal exponent {p + 1})"
        )
        # the smallest compact face through the diagonal point (1,..,1)/(p+1)
        face = set.intersection(*(set(facet.incident_points) for facet in active))
        s = _affine_rank(face)
        candidates = list(range(p, n - 2 - p + 1))
        if simplicial and s > 0:
            # weight degree l <= n-s+1, i.e. s' = n-l-p >= s-p-1
            candidates = [sp for sp in candidates if sp >= s - p - 1]
        type_range = tuple((p, sp) for sp in candidates)
        if len(polyhedron.facets) == 1 and face == set(polyhedron.support):
            # one compact facet whose hyperplane carries the whole support
            exact_type = (p, n - 2 - p)
            notes.append(
                "weighted homogeneous: the weight filtration on the graded "
                "piece stabilizes at degree 2"
            )
        elif p == 0:
            exact_type = (0, s - 1) if s > 0 else (0, 0)
        if exact_type is not None and exact_type not in type_range:
            raise AssertionError(
                f"exact type {exact_type} escaped its admissible range {type_range}"
            )
    return SingularityReport(
        variables=f.variables,
        minimal_exponent=alpha,
        p_level=p_level,
        r=r,
        s=s,
        simplicial=simplicial,
        hodge_triviality=hodge,
        w1_triviality=w1,
        nilpotency_upper=nilpotency,
        type_range=type_range,
        exact_type=exact_type,
        notes=tuple(notes),
        polyhedron=polyhedron,
    )
