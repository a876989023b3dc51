"""whideal: exact weighted Hodge ideals and minimal exponents.

Two computable regimes are covered: simple-normal-crossings local models,
where the ideals have monomial closed forms, and isolated Newton-
nondegenerate singularities, where the Newton polyhedron carries the
minimal exponent and the weight-degree bounds.  All arithmetic is exact
rational.
"""

from .dims import (
    HodgeNumberTable,
    binomial,
    graded_piece_dim,
    hockey_stick,
    projective_bounds,
    pushforward_filtration_dim,
    surjectivity_threshold,
)
from .errors import ParseError, SizeGuardError, ValidationError, WhidealError
from .groebner import groebner_basis, ideal_membership
from .invariants import (
    ASSUMPTION_BANNER,
    NONCONVENIENT_BANNER,
    SingularityReport,
    VDegreeQuery,
    classify,
    jacobian_witness,
    minimal_exponent,
    v_filtration_membership,
    witness_annotation,
)
from .monomial import MonomialIdeal
from .newton import (
    CompactFacet,
    NewtonPolyhedron,
    compute_polyhedron,
    facets_json,
    is_convenient,
)
from .poly import Polynomial, grevlex_key, jacobian_ideal, parse_polynomial
from .snc import SncModel, hodge_ideal_snc, verify_snc_theorems, weighted_hodge_ideal_snc

__version__ = "0.1.0"

__all__ = [
    "ASSUMPTION_BANNER",
    "CompactFacet",
    "HodgeNumberTable",
    "MonomialIdeal",
    "NONCONVENIENT_BANNER",
    "NewtonPolyhedron",
    "ParseError",
    "Polynomial",
    "SingularityReport",
    "SizeGuardError",
    "SncModel",
    "VDegreeQuery",
    "ValidationError",
    "WhidealError",
    "binomial",
    "classify",
    "compute_polyhedron",
    "facets_json",
    "graded_piece_dim",
    "grevlex_key",
    "groebner_basis",
    "hockey_stick",
    "hodge_ideal_snc",
    "ideal_membership",
    "is_convenient",
    "jacobian_ideal",
    "jacobian_witness",
    "minimal_exponent",
    "parse_polynomial",
    "projective_bounds",
    "pushforward_filtration_dim",
    "surjectivity_threshold",
    "v_filtration_membership",
    "verify_snc_theorems",
    "weighted_hodge_ideal_snc",
    "witness_annotation",
]
