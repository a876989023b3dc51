"""Invariant layer: minimal exponent, thresholds, witnesses, classification.

Expected values were derived by hand from the Newton polyhedra (facet
covectors solved directly) before being frozen here.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_newton import facet_oracle
from whideal import (
    ASSUMPTION_BANNER,
    NONCONVENIENT_BANNER,
    Polynomial,
    SingularityReport,
    ValidationError,
    classify,
    jacobian_witness,
    minimal_exponent,
    parse_polynomial,
    witness_annotation,
)

WORKED = "x^2 + y^2 + z^2 + u^2*w^2 + u^4 + w^5"


def diagonal(exponents):
    """sum of x_i^{a_i} over the given exponent list."""
    n = len(exponents)
    names = tuple(f"x{i + 1}" for i in range(n))
    terms = {}
    for i, a in enumerate(exponents):
        e = [0] * n
        e[i] = a
        terms[tuple(e)] = Fraction(1)
    return Polynomial(names, terms)


# -- minimal exponent ---------------------------------------------------------


def test_minimal_exponent_node():
    assert minimal_exponent(parse_polynomial("x^2 + y^2")) == 1


def test_minimal_exponent_cusp():
    assert minimal_exponent(parse_polynomial("x^2 + y^3")) == Fraction(5, 6)


def test_minimal_exponent_e8():
    assert minimal_exponent(parse_polynomial("x^3 + y^5")) == Fraction(8, 15)


def test_minimal_exponent_worked_example():
    assert minimal_exponent(parse_polynomial(WORKED)) == 2


def test_minimal_exponent_diagonal_law():
    for exps in [(2, 2), (2, 3, 5), (3, 3, 3), (4, 4, 4, 4), (2, 9)]:
        expected = sum(Fraction(1, a) for a in exps)
        assert minimal_exponent(diagonal(exps)) == expected


def test_minimal_exponent_rejects_smooth():
    with pytest.raises(ValidationError):
        minimal_exponent(parse_polynomial("x + y^2"))


def test_minimal_exponent_nonconvenient_gate():
    f = parse_polynomial("x^2*y + y^2")
    with pytest.raises(ValidationError):
        minimal_exponent(f)
    assert minimal_exponent(f, allow_nonconvenient=True) == Fraction(3, 4)


# -- triviality thresholds ----------------------------------------------------


def test_hodge_threshold_is_weak_inequality():
    # alpha~ = 1 exactly: I_0 trivial but its W_1 piece is not
    rep = classify(parse_polynomial("x^2 + y^2"))
    assert rep.hodge_triviality[0]
    assert not rep.w1_triviality[0]


def test_thresholds_three_variable_quadric():
    rep = classify(parse_polynomial("x^2 + y^2 + z^2"))  # alpha~ = 3/2
    assert rep.hodge_triviality[0] and rep.w1_triviality[0]
    assert not rep.hodge_triviality[1] and not rep.w1_triviality[1]


def test_thresholds_four_variable_quadric():
    rep = classify(parse_polynomial("x^2 + y^2 + z^2 + w^2"))  # alpha~ = 2
    assert rep.hodge_triviality[1]
    assert not rep.w1_triviality[1]
    assert not rep.hodge_triviality[2]


# -- weight nilpotency bound --------------------------------------------------


def test_nilpotency_bound_examples():
    assert classify(parse_polynomial("x^2 + y^2")).nilpotency_upper == 2
    assert classify(parse_polynomial("x^2 + y^2 + z^2 + w^2")).nilpotency_upper == 2
    assert classify(parse_polynomial(WORKED)).nilpotency_upper == 3


def test_nilpotency_bound_needs_integer_exponent():
    # The bound r+1 is only meaningful when the minimal exponent is p+1 for
    # an integer p >= 0; otherwise classify reports no bound at all.
    for text, exponent in [
        ("x^2 + y^3", Fraction(5, 6)),
        ("x^3 + y^3", Fraction(2, 3)),
        ("x^2 + y^5", Fraction(7, 10)),
    ]:
        rep = classify(parse_polynomial(text))
        assert rep.minimal_exponent == exponent
        assert rep.p_level is None
        assert rep.nilpotency_upper is None


# -- Jacobian witnesses -------------------------------------------------------


def test_witness_two_cubes():
    f = parse_polynomial("x^3 + y^3")
    assert jacobian_witness(f, (1, 1), 0)  # xy outside (3x^2, 3y^2)
    assert not jacobian_witness(f, (2, 0), 0)


def test_witness_single_variable_square():
    f = parse_polynomial("x^2")
    assert not jacobian_witness(f, (1,), 0)


def test_witness_worked_example():
    f = parse_polynomial(WORKED)
    assert jacobian_witness(f, (0, 0, 0, 0, 5), 1)


def test_witness_rejects_negative_level():
    with pytest.raises(ValidationError):
        jacobian_witness(parse_polynomial("x^3 + y^3"), (1, 1), -1)


def test_witness_annotation_texts():
    f = parse_polynomial(WORKED)
    m = (0, 0, 0, 0, 5)
    inside = witness_annotation(f, m, 1, False)
    assert inside == "witness w^5 lies in J(f): no obstruction"
    plain = witness_annotation(f, m, 1, True)
    assert "V^(>1)" in plain and ">= 3" in plain
    assert "supports type" not in plain
    pinned = witness_annotation(f, m, 1, True, nilpotency_upper=3)
    assert pinned.endswith("; supports type (1,1)")
    loose = witness_annotation(f, m, 1, True, nilpotency_upper=4)
    assert "supports type" not in loose


# -- classification -----------------------------------------------------------


def test_classify_fermat_cubic():
    rep = classify(parse_polynomial("x^3 + y^3 + z^3"))
    assert rep.minimal_exponent == 1
    assert rep.p_level == 0
    assert rep.r == 1
    assert rep.s == 2
    assert rep.simplicial
    assert rep.nilpotency_upper == 2
    assert rep.type_range == ((0, 1),)
    assert rep.exact_type == (0, 1)
    assert any("weighted homogeneous" in note for note in rep.notes)


def test_classify_node():
    rep = classify(parse_polynomial("x^2 + y^2"))
    assert rep.p_level == 0
    assert rep.s == 1
    assert rep.exact_type == (0, 0)
    assert rep.type_range == ((0, 0),)


def test_classify_four_variable_quadric():
    rep = classify(parse_polynomial("x^2 + y^2 + z^2 + w^2"))
    assert rep.p_level == 1
    assert rep.r == 1 and rep.s == 3
    assert rep.nilpotency_upper == 2
    assert rep.type_range == ((1, 1),)
    assert rep.exact_type == (1, 1)


def test_classify_cusp_has_no_integer_level():
    rep = classify(parse_polynomial("x^2 + y^3"))
    assert rep.p_level is None
    assert rep.s is None
    assert rep.nilpotency_upper is None
    assert rep.type_range is None
    assert rep.exact_type is None
    assert sorted(rep.hodge_triviality) == [0, 1, 2, 3]


def test_classify_worked_example():
    rep = classify(parse_polynomial(WORKED))
    assert rep.minimal_exponent == 2
    assert rep.p_level == 1
    assert rep.r == 2
    assert rep.s == 3
    assert rep.simplicial
    assert rep.nilpotency_upper == 3
    assert rep.type_range == ((1, 1), (1, 2))
    assert rep.exact_type is None
    assert rep.hodge_triviality == {0: True, 1: True, 2: False, 3: False}
    assert rep.w1_triviality == {0: True, 1: False, 2: False, 3: False}
    assert rep.notes[0] == ASSUMPTION_BANNER
    assert any("maximal ideal" in note for note in rep.notes)


def test_classify_nonconvenient_banner():
    f = parse_polynomial("x^2*y + y^2")
    with pytest.raises(ValidationError):
        classify(f)
    rep = classify(f, allow_nonconvenient=True)
    assert NONCONVENIENT_BANNER in rep.notes


def test_cheap_rejections_skip_the_enumeration(monkeypatch):
    def no_enumeration(f):
        raise AssertionError("compute_polyhedron ran for a rejected input")

    monkeypatch.setattr("whideal.invariants.compute_polyhedron", no_enumeration)
    cases = [
        (
            "x^2*y + y^2",
            "f is not convenient (a pure power of every variable is required); "
            "pass allow_nonconvenient to report the raw weight anyway",
        ),
        ("x + y^2", "f is smooth at the origin (constant or linear term present)"),
        # compute_polyhedron's own input errors still come first
        ("1 + x^2 + y^2", "constant term present: f(0) != 0"),
    ]
    for text, message in cases:
        for call in (classify, minimal_exponent):
            with pytest.raises(ValidationError) as err:
                call(parse_polynomial(text))
            assert str(err.value) == message
    with pytest.raises(ValidationError) as err:
        classify(Polynomial(("x",), {}))
    assert str(err.value) == "the zero polynomial has no Newton polyhedron"


def test_classify_permutation_invariant():
    rep_f = classify(parse_polynomial(WORKED))
    # cycle the variables: same model up to coordinate relabeling
    rep_g = classify(
        parse_polynomial("w^2 + x^2 + y^2 + z^2*u^2 + z^4 + u^5", ("x", "y", "z", "u", "w"))
    )
    for name in (
        "minimal_exponent",
        "p_level",
        "r",
        "s",
        "simplicial",
        "nilpotency_upper",
        "type_range",
        "exact_type",
        "hodge_triviality",
        "w1_triviality",
    ):
        assert getattr(rep_f, name) == getattr(rep_g, name), name


def _convenient_support(rng, n):
    """Pure powers 2..7 of every variable plus up to 9 - n points with entries 0..5."""
    support = set()
    for i in range(n):
        e = [0] * n
        e[i] = rng.randint(2, 7)
        support.add(tuple(e))
    for _ in range(rng.randint(0, 9 - n)):
        e = tuple(rng.randint(0, 5) for _ in range(n))
        if sum(e) > 1:  # a constant or linear term makes f smooth
            support.add(e)
    return support


def test_classify_r_and_s_match_oracle():
    # r counts the oracle facets of least covector sum; at an integer level,
    # s is the affine rank of the support points lying on all of them.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5205)
    integer_levels = several_minimizing = 0
    for _ in range(200):
        n = rng.randint(2, 5)
        support = _convenient_support(rng, n)
        rep = classify(Polynomial([f"x{i}" for i in range(n)], {e: 1 for e in support}))
        facets = facet_oracle(support)
        least = min(sum(cov) for cov, _ in facets)
        active = [set(points) for cov, points in facets if sum(cov) == least]
        assert rep.r == len(active)
        if least.denominator != 1:
            assert rep.s is None
            continue
        integer_levels += 1
        several_minimizing += len(active) > 1
        face = sorted(set.intersection(*active))
        diffs = [[x - y for x, y in zip(p, face[0])] for p in face[1:]]
        assert rep.s == (sympy.Matrix(diffs).rank() if diffs else 0)
    assert integer_levels >= 10 and several_minimizing >= 3


def test_report_json_shape():
    rep = classify(parse_polynomial(WORKED))
    data = rep.to_json_dict()
    assert data["schema"] == "whideal-report/1"
    assert data["minimal_exponent"] == "2/1"
    assert data["p_level"] == 1
    assert data["hodge_triviality"] == [[0, True], [1, True], [2, False], [3, False]]
    assert data["type_range"] == [[1, 1], [1, 2]]
    assert data["exact_type"] is None
    assert len(data["facets"]) == 2
    assert all(isinstance(note, str) for note in data["notes"])


def test_with_notes_appends():
    rep = classify(parse_polynomial("x^2 + y^2"))
    extended = rep.with_notes(["extra line"])
    assert extended.notes == rep.notes + ("extra line",)
    assert extended.minimal_exponent == rep.minimal_exponent


def test_report_value_semantics():
    rep = classify(parse_polynomial(WORKED))
    before = rep._asdict()
    extended = rep.with_notes(["extra line"])
    assert rep._asdict() == before
    assert extended is not rep
    assert extended.polyhedron is rep.polyhedron
    assert extended._asdict() == dict(before, notes=rep.notes + ("extra line",))
    assert SingularityReport(**before)._asdict() == before
    positional = SingularityReport(*before.values())
    assert positional.to_json_dict() == rep.to_json_dict()


# -- properties ---------------------------------------------------------------

exponent_lists = st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=5)


@settings(derandomize=True, deadline=None)
@given(exponent_lists)
def test_diagonal_exponent_formula(exps):
    assert minimal_exponent(diagonal(exps)) == sum(Fraction(1, a) for a in exps)


@settings(derandomize=True, deadline=None)
@given(exponent_lists)
def test_w1_triviality_implies_hodge_triviality(exps):
    rep = classify(diagonal(exps))
    assert rep.w1_triviality.keys() == rep.hodge_triviality.keys()
    for p, trivial in rep.w1_triviality.items():
        if trivial:
            assert rep.hodge_triviality[p]


@settings(derandomize=True, deadline=None)
@given(exponent_lists)
def test_triviality_tables_monotone(exps):
    rep = classify(diagonal(exps))
    for table in (rep.hodge_triviality, rep.w1_triviality):
        levels = sorted(table)
        for a, b in zip(levels, levels[1:]):
            if table[b]:
                assert table[a]
    if rep.exact_type is not None:
        assert rep.exact_type in rep.type_range
