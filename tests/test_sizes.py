"""Every public size argument goes through `errors.require_int`.

A float (integral or not), a str, a bool and an int below the minimum each
raise a ValidationError whose message starts with the argument's name
("p must be an int, got ...") or states its bound ("need p >= 0, got -1").
Among them are `graded_piece_dim(t, 2.5, 1)`, which used to answer for
l = 2, `surjectivity_threshold(2, 1.5, 0, 1)`, which returned -0.5, and
`projective_bounds(2.0, 3, 0)`, which raised a bare TypeError.
"""

import re

import pytest

from whideal import (
    HodgeNumberTable,
    MonomialIdeal,
    SncModel,
    ValidationError,
    graded_piece_dim,
    hodge_ideal_snc,
    jacobian_witness,
    parse_polynomial,
    projective_bounds,
    pushforward_filtration_dim,
    surjectivity_threshold,
    verify_snc_theorems,
    weighted_hodge_ideal_snc,
)

MODEL = SncModel(3, 2)
TABLE = HodgeNumberTable(4, middle={(1, 1): 2})
CUBIC = parse_polynomial("x^3 + y^3")

# (entry point, argument name, minimum, call with the argument set to v);
# every other argument of the call is valid.
SIZES = [
    ("SncModel", "n", 1, lambda v: SncModel(v, 1)),
    ("SncModel", "r", 1, lambda v: SncModel(3, v)),
    ("hodge_ideal_snc", "p", 0, lambda v: hodge_ideal_snc(MODEL, v)),
    ("weighted_hodge_ideal_snc", "p", 0, lambda v: weighted_hodge_ideal_snc(MODEL, v, 1)),
    ("weighted_hodge_ideal_snc", "l", 0, lambda v: weighted_hodge_ideal_snc(MODEL, 1, v)),
    ("verify_snc_theorems", "p_max", 0, lambda v: verify_snc_theorems(MODEL, v)),
    ("MonomialIdeal", "n", 1, lambda v: MonomialIdeal(v, [])),
    ("HodgeNumberTable", "n", 2, lambda v: HodgeNumberTable(v)),
    ("jacobian_witness", "p", 0, lambda v: jacobian_witness(CUBIC, (1, 1), v)),
    ("graded_piece_dim", "l", 2, lambda v: graded_piece_dim(TABLE, v, 1)),
    ("graded_piece_dim", "p", 0, lambda v: graded_piece_dim(TABLE, 3, v)),
    ("pushforward_filtration_dim", "p", 0, lambda v: pushforward_filtration_dim({0: 1, 1: 1}, v, 3)),
    ("pushforward_filtration_dim", "n", 1, lambda v: pushforward_filtration_dim({0: 1, 1: 1}, 1, v)),
    ("pushforward_filtration_dim", "d(1)", 0, lambda v: pushforward_filtration_dim({0: 1, 1: v}, 1, 3)),
    ("projective_bounds", "n", 1, lambda v: projective_bounds(v, 3, 0)),
    ("projective_bounds", "d", 1, lambda v: projective_bounds(2, v, 0)),
    ("projective_bounds", "p", 0, lambda v: projective_bounds(2, 3, v)),
    ("surjectivity_threshold", "n", 1, lambda v: surjectivity_threshold(v, 3, 0, 1)),
    ("surjectivity_threshold", "d", 1, lambda v: surjectivity_threshold(2, v, 0, 1)),
    ("surjectivity_threshold", "p", 0, lambda v: surjectivity_threshold(2, 3, v, 1)),
    ("surjectivity_threshold", "l", 1, lambda v: surjectivity_threshold(2, 3, 0, v)),
]


@pytest.mark.parametrize(
    "entry, name, minimum, call", SIZES, ids=[f"{e}-{n}" for e, n, _, _ in SIZES]
)
def test_size_argument_is_checked(entry, name, minimum, call):
    call(minimum + 1)  # the valid neighbour runs
    typed = "^" + re.escape(name) + " must be an int, got "
    for bad in (minimum + 0.5, float(minimum + 1), str(minimum + 1), True):
        with pytest.raises(ValidationError, match=typed):
            call(bad)
    below = f"^need {re.escape(name)} >= {minimum}, got {minimum - 1}$"
    with pytest.raises(ValidationError, match=below):
        call(minimum - 1)
