"""Binomial bookkeeping: filtration dimensions, tables, counting bounds."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whideal import (
    HodgeNumberTable,
    ValidationError,
    binomial,
    graded_piece_dim,
    projective_bounds,
    pushforward_filtration_dim,
    surjectivity_threshold,
)


def test_binomial_conventions():
    assert binomial(5, 2) == 10
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    assert binomial(0, 0) == 1
    with pytest.raises(ValidationError):
        binomial(-1, 0)


def test_hockey_stick_grid():
    # sum_{k<=m} C(n-1+k, k) = C(n+m, m), the identity that collapses the
    # double sum of `pushforward_filtration_dim`
    assert all(
        sum(math.comb(n - 1 + k, k) for k in range(m + 1)) == math.comb(n + m, m)
        for n in range(1, 21)
        for m in range(21)
    )


# -- pushforward filtration dimension -----------------------------------------


def test_pushforward_single_piece():
    assert pushforward_filtration_dim({0: 1, 1: 0}, 1, 5) == 6


def test_pushforward_three_pieces():
    # C(5,2) + C(4,1) + C(3,0) = 10 + 4 + 1
    assert pushforward_filtration_dim({0: 1, 1: 1, 2: 1}, 2, 3) == 15


def test_pushforward_requires_all_entries():
    with pytest.raises(ValidationError):
        pushforward_filtration_dim({0: 1}, 1, 5)
    with pytest.raises(ValidationError):
        pushforward_filtration_dim({0: 1, 1: True}, 1, 5)
    with pytest.raises(ValidationError):
        pushforward_filtration_dim({0: -1}, 0, 5)
    with pytest.raises(ValidationError):
        pushforward_filtration_dim({0: 1}, -1, 5)
    with pytest.raises(ValidationError):
        pushforward_filtration_dim({0: 1}, 0, 0)


@settings(derandomize=True, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=0, max_value=9), min_size=6, max_size=6),
)
def test_pushforward_matches_double_sum(p, n, values):
    d = dict(enumerate(values))
    double = sum(
        binomial(n - 1 + q, q) * d[r] for r in range(p + 1) for q in range(p - r + 1)
    )
    assert pushforward_filtration_dim(d, p, n) == double


# -- Hodge number tables -------------------------------------------------------


def test_table_drops_zero_entries():
    t = HodgeNumberTable(4, middle={(1, 1): 3, (5, 5): 0}, top={})
    assert t.middle == {(1, 1): 3}


def test_table_rejects_out_of_range_nonzero():
    with pytest.raises(ValidationError):
        HodgeNumberTable(4, middle={(3, 1): 1})
    with pytest.raises(ValidationError):
        HodgeNumberTable(4, top={(1, -1): 2})


def test_table_rejects_bad_values():
    with pytest.raises(ValidationError):
        HodgeNumberTable(4, middle={(1, 1): True})
    with pytest.raises(ValidationError):
        HodgeNumberTable(4, middle={(1, 1): -2})
    with pytest.raises(ValidationError):
        HodgeNumberTable(4, middle={(1,): 2})
    with pytest.raises(ValidationError):
        HodgeNumberTable(1)


def test_table_rejects_non_int_n_and_non_dict_entries():
    for n in (4.0, "4", Fraction(4), True):
        with pytest.raises(ValidationError, match=r"^n must be an int"):
            HodgeNumberTable(n)
    with pytest.raises(ValidationError, match=r"^middle must be a dict"):
        HodgeNumberTable(4, middle=[(1, 1, 3)])
    with pytest.raises(ValidationError, match=r"^top must be a dict"):
        HodgeNumberTable(4, top=((2, 2),))


def test_table_rejects_boolean_indices():
    with pytest.raises(ValidationError, match=r"middle entry key \(True, 0\)"):
        HodgeNumberTable.from_json_dict({"n": 4, "middle": [[True, 0, 1]]})
    with pytest.raises(ValidationError, match=r"top entry key \(0, False\)"):
        HodgeNumberTable(4, top={(0, False): 2})


def test_table_json_round_trip():
    t = HodgeNumberTable(5, middle={(1, 1): 1, (0, 3): 2}, top={(2, 2): 4})
    data = t.to_json_dict()
    assert data["middle"] == [[0, 3, 2], [1, 1, 1]]
    assert HodgeNumberTable.from_json_dict(data) == t


def test_table_value_semantics():
    middle, top = {(1, 1): 3}, {(2, 2): 1}
    t = HodgeNumberTable(4, middle, top)
    assert t == HodgeNumberTable(n=4, middle=middle, top=top)
    assert t != HodgeNumberTable(4, middle)
    assert t != HodgeNumberTable(5, middle, top)
    empty = HodgeNumberTable(4)
    assert empty.middle == {} and empty.top == {}
    assert empty == HodgeNumberTable(4, {}, {})
    # dict fields: equal tables, but no hash
    with pytest.raises(TypeError):
        hash(t)


def test_table_json_validation():
    with pytest.raises(ValidationError):
        HodgeNumberTable.from_json_dict({"middle": []})
    for n in ("4", True, 4.0):
        with pytest.raises(ValidationError, match=r"^n must be an int, got "):
            HodgeNumberTable.from_json_dict({"n": n})
    with pytest.raises(ValidationError):
        HodgeNumberTable.from_json_dict({"n": 4, "middle": {"a": 1}})
    with pytest.raises(ValidationError):
        HodgeNumberTable.from_json_dict({"n": 4, "middle": [[1, 1]]})
    with pytest.raises(ValidationError):
        HodgeNumberTable.from_json_dict({"n": 4, "middle": [[1, 1, 2], [1, 1, 3]]})


# -- graded piece dimensions ----------------------------------------------------


def test_graded_piece_high_weight_reads_middle():
    t = HodgeNumberTable(5, middle={(1, 1): 1})
    assert graded_piece_dim(t, 3, 1) == 1
    assert graded_piece_dim(t, 3, 0) == 0


def test_graded_piece_weight_two_correction():
    t = HodgeNumberTable(4, middle={(1, 1): 5}, top={(2, 2): 2})
    assert graded_piece_dim(t, 2, 1) == 3


def test_graded_piece_weight_two_level_zero_has_no_correction():
    # the would-be correction index (n-1, 1) lies outside the table range,
    # so any nonzero entry there is rejected and the lookup is always 0
    with pytest.raises(ValidationError):
        HodgeNumberTable(4, top={(3, 1): 1})
    t = HodgeNumberTable(4, middle={(0, 2): 7})
    assert graded_piece_dim(t, 2, 0) == 7


def test_graded_piece_negative_is_inconsistent():
    t = HodgeNumberTable(4, middle={(1, 1): 1}, top={(2, 2): 2})
    with pytest.raises(ValidationError):
        graded_piece_dim(t, 2, 1)


def test_graded_piece_domain_errors():
    t = HodgeNumberTable(4)
    with pytest.raises(ValidationError):
        graded_piece_dim(t, 1, 0)
    with pytest.raises(ValidationError):
        graded_piece_dim(t, 3, 3)
    with pytest.raises(ValidationError):
        graded_piece_dim(t, 3, -1)


# -- projective counting bounds -------------------------------------------------


def test_projective_bounds_examples():
    assert projective_bounds(2, 3, 0) == (1, 3)
    assert projective_bounds(5, 2, 0) == (0, 0)
    assert projective_bounds(3, 4, 1) == (35, 56)


def test_projective_bounds_validation():
    with pytest.raises(ValidationError):
        projective_bounds(0, 3, 0)
    with pytest.raises(ValidationError):
        projective_bounds(2, 0, 0)
    with pytest.raises(ValidationError):
        projective_bounds(2, 3, -1)


def test_surjectivity_threshold_examples():
    assert surjectivity_threshold(3, 4, 0, 2) == 0
    assert surjectivity_threshold(3, 4, 0, 1) == 1
    assert surjectivity_threshold(5, 5, 1, 3) == 4


def test_surjectivity_threshold_validation():
    with pytest.raises(ValidationError):
        surjectivity_threshold(3, 4, 0, 0)
    with pytest.raises(ValidationError):
        surjectivity_threshold(0, 4, 0, 1)


@settings(derandomize=True, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=5),
)
def test_bounds_ordered_and_thresholds_offset(n, d, p):
    low, high = projective_bounds(n, d, p)
    assert 0 <= low <= high
    assert surjectivity_threshold(n, d, p, 1) == surjectivity_threshold(n, d, p, 2) + 1
