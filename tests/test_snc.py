from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import whideal.monomial
import whideal.snc
from oracle_monomial import pairwise_minimal
from whideal import (
    MonomialIdeal,
    SizeGuardError,
    SncModel,
    ValidationError,
    binomial,
    hodge_ideal_snc,
    verify_snc_theorems,
    weighted_hodge_ideal_snc,
)
from whideal.snc import SncCheck, SncVerification


def test_model_validation():
    with pytest.raises(ValidationError):
        SncModel(2, 3)
    with pytest.raises(ValidationError):
        SncModel(2, 0)
    with pytest.raises(ValidationError):
        hodge_ideal_snc(SncModel(2, 2), -1)
    with pytest.raises(ValidationError):
        weighted_hodge_ideal_snc(SncModel(2, 2), 1, -1)


def test_entry_points_reject_non_int_sizes():
    model = SncModel(2, 2)
    for bad in (1.5, 1.0, "1", Fraction(1), True):
        with pytest.raises(ValidationError, match=r"^p must be an int, got "):
            hodge_ideal_snc(model, bad)
        with pytest.raises(ValidationError, match=r"^p must be an int, got "):
            weighted_hodge_ideal_snc(model, bad, 1)
        with pytest.raises(ValidationError, match=r"^l must be an int, got "):
            weighted_hodge_ideal_snc(model, 1, bad)
        with pytest.raises(ValidationError, match=r"^p_max must be an int, got "):
            verify_snc_theorems(model, bad)


def test_model_rejects_non_int_sizes():
    for bad in (3.5, "3", Fraction(3), True):
        with pytest.raises(ValidationError, match=r"^n must be an int"):
            SncModel(bad, 2)
    for bad in (2.0, "2", Fraction(2), True):
        with pytest.raises(ValidationError, match=r"^r must be an int"):
            SncModel(3, bad)


def test_value_semantics():
    model = SncModel(3, 2)
    assert vars(model) == vars(SncModel(n=3, r=2)) == {"n": 3, "r": 2}
    result = verify_snc_theorems(model, 1)
    assert result.model is model and result.p_max == 1
    first = result.checks[0]
    assert first._asdict() == SncCheck(name="chain", p=0, l=0, passed=True)._asdict()
    again = SncVerification(model=model, p_max=1, checks=result.checks)
    assert again._asdict() == result._asdict()
    assert again.to_json_dict() == result.to_json_dict()


def test_hodge_ideal_smooth_and_p0_are_trivial():
    unit = MonomialIdeal(3, [(0, 0, 0)])
    assert hodge_ideal_snc(SncModel(3, 1), 2) == unit
    assert hodge_ideal_snc(SncModel(3, 3), 0) == unit


def test_hodge_ideal_two_branches():
    # r=2, p=1: exponents a with a_i <= 1 summing to 1
    ideal = hodge_ideal_snc(SncModel(2, 2), 1)
    assert ideal == MonomialIdeal(2, [(1, 0), (0, 1)])


def test_weighted_examples_low_l():
    assert weighted_hodge_ideal_snc(SncModel(2, 2), 0, 1) == MonomialIdeal(2, [(0, 1), (1, 0)])
    ideal = weighted_hodge_ideal_snc(SncModel(2, 2), 1, 1)
    assert ideal == MonomialIdeal(2, [(2, 0), (0, 2)])
    assert ideal.render() == "(x1^2, x2^2)"


def test_weighted_l0_is_principal():
    ideal = weighted_hodge_ideal_snc(SncModel(3, 2), 1, 0)
    assert ideal == MonomialIdeal(3, [(2, 2, 0)])
    assert ideal.render() == "(x1^2x2^2)"


def test_weighted_l_at_least_r_stabilizes():
    model = SncModel(2, 2)
    assert weighted_hodge_ideal_snc(model, 1, 2) == hodge_ideal_snc(model, 1)
    assert weighted_hodge_ideal_snc(model, 1, 2) == MonomialIdeal(2, [(1, 0), (0, 1)])


def test_p0_weighted_ideals_are_squarefree_products():
    model = SncModel(4, 3)
    for l in range(1, 3):
        ideal = weighted_hodge_ideal_snc(model, 0, l)
        for g in ideal.generators:
            assert set(g[:3]) <= {0, 1}
            assert sum(g[:3]) == 3 - l
            assert g[3] == 0


def test_triple_point_squarefree_render():
    ideal = weighted_hodge_ideal_snc(SncModel(3, 3), 0, 1)
    assert ideal.render() == "(x1x2, x1x3, x2x3)"


def _compositions(total, parts, bound):
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(0, bound + 1):
        for rest in _compositions(total - first, parts - 1, bound):
            out.append((first,) + rest)
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(1, 4))
def test_generator_count_matches_direct_enumeration(r, p, l):
    n = 4
    if l >= r:
        expected = len(_compositions(p * (r - 1), r, p))
        ideal = hodge_ideal_snc(SncModel(n, r), p)
    else:
        expected = binomial(r, l) * len(_compositions(p * (l - 1), l, p))
        ideal = weighted_hodge_ideal_snc(SncModel(n, r), p, l)
    assert len(ideal.generators) == expected


def test_branch_permutation_symmetry():
    # ideals are symmetric in the r branch coordinates
    model = SncModel(3, 3)
    ideal = weighted_hodge_ideal_snc(model, 2, 2)
    gens = set(ideal.generators)
    for perm in permutations(range(3)):
        assert {tuple(g[perm[i]] for i in range(3)) for g in gens} == gens


def test_verify_suite_passes_and_reports():
    result = verify_snc_theorems(SncModel(3, 2), 2)
    assert result.all_passed
    names = {c.name for c in result.checks}
    assert names == {"chain", "stabilization", "w0-principal", "adjoint-containment"}
    payload = result.to_json_dict()
    assert payload["all_passed"] is True
    assert payload["n"] == 3 and payload["r"] == 2


def test_chain_is_increasing_and_strict_where_expected():
    model = SncModel(3, 3)
    p = 2
    ladder = [weighted_hodge_ideal_snc(model, p, l) for l in range(5)]
    for lo, hi in zip(ladder, ladder[1:]):
        assert lo.is_subideal(hi)
    assert ladder[1] != ladder[2]  # strict step below stabilization
    assert ladder[3] == ladder[4] == hodge_ideal_snc(model, p)


def _branch_ideal_from_definition(r, p, l):
    """x^{(p+1)1_r} F_p W_l O_X(*D) on the r branch coordinates, l <= r,
    minimalized by the pairwise rule.

    F_p O_X(*D_J) is generated by the derivatives d^i(1/x_J), a constant
    times x_J^{-1_J-i}, for i supported on J with |i| <= p (Mustata-Popa,
    Hodge ideals, Mem. AMS 2019); F_p W_l is their sum over |J| = l.
    """
    gens = []
    for J in combinations(range(r), l):
        for i in product(range(p + 1), repeat=l):
            if sum(i) <= p:
                e = [p + 1] * r
                for j, i_j in zip(J, i):
                    e[j] -= 1 + i_j
                gens.append(tuple(e))
    return pairwise_minimal(gens)


def test_closed_forms_match_the_definition():
    cases = 0
    for r in range(1, 7):
        for p in range(4):
            # W_l is all of O_X(*D) from l = r on.
            branch = [_branch_ideal_from_definition(r, p, l) for l in range(r + 1)]
            for n in range(r, 7):
                model = SncModel(n, r)
                pad = (0,) * (n - r)
                expected = [{g + pad for g in ideal} for ideal in branch]
                assert set(hodge_ideal_snc(model, p).generators) == expected[r], (n, r, p)
                for l in range(n + 2):
                    ideal = weighted_hodge_ideal_snc(model, p, l)
                    assert set(ideal.generators) == expected[min(l, r)], (n, r, p, l)
                cases += n + 3
    assert cases == 616


def test_closed_forms_need_no_divisibility_test(monkeypatch):
    calls = 0
    divides = whideal.monomial.divides

    def counting(a, b):
        nonlocal calls
        calls += 1
        return divides(a, b)

    monkeypatch.setattr(whideal.monomial, "divides", counting)
    model = SncModel(6, 6)
    ladder = [weighted_hodge_ideal_snc(model, 3, l) for l in range(8)]
    hodge_ideal_snc(model, 3)
    assert calls == 0
    assert [len(ideal.generators) for ideal in ladder] == [1, 6, 60, 200, 300, 210, 56, 56]



# -- generator guard -------------------------------------------------------------


def test_generator_guard_refuses_before_building(monkeypatch):
    def build(*args):
        raise AssertionError("generators were built")

    # The test's own name for weighted_hodge_ideal_snc is the unpatched one.
    monkeypatch.setattr(whideal.snc, "combinations", build)
    monkeypatch.setattr(whideal.snc, "weighted_hodge_ideal_snc", build)
    # C(16, 8) * C(11, 4) = 12870 * 330
    with pytest.raises(SizeGuardError, match=r"^4247100 generators exceed the limit of 1000000$"):
        weighted_hodge_ideal_snc(SncModel(16, 16), 4, 8)
    with pytest.raises(SizeGuardError, match=r"^331350039 generators exceed the limit of 1000000$"):
        verify_snc_theorems(SncModel(20, 20), 3)
    huge = r"^more than 1000000000000000000 generators exceed the limit of 1000000$"
    with pytest.raises(SizeGuardError, match=huge):
        weighted_hodge_ideal_snc(SncModel(200, 200), 4, 100)
    with pytest.raises(SizeGuardError, match=huge):
        verify_snc_theorems(SncModel(200, 200), 4)


def test_generator_guard_counts_what_is_built(monkeypatch):
    built = []

    class Counting(MonomialIdeal):
        def __init__(self, n, generators):
            generators = list(generators)
            built.append(len(generators))
            super().__init__(n, generators)

    monkeypatch.setattr(whideal.snc, "MonomialIdeal", Counting)
    default = whideal.snc.SNC_GENERATOR_LIMIT
    for n, r, p_max in [(3, 2, 2), (5, 5, 2), (6, 4, 3)]:
        model = SncModel(n, r)
        monkeypatch.setattr(whideal.snc, "SNC_GENERATOR_LIMIT", default)
        built.clear()
        verify_snc_theorems(model, p_max)
        # one principal ideal per p is built for its check, not in the ladder
        count = sum(built) - (p_max + 1)
        monkeypatch.setattr(whideal.snc, "SNC_GENERATOR_LIMIT", count)
        verify_snc_theorems(model, p_max)
        monkeypatch.setattr(whideal.snc, "SNC_GENERATOR_LIMIT", count - 1)
        with pytest.raises(SizeGuardError, match=f"^{count} generators exceed the limit of {count - 1}$"):
            verify_snc_theorems(model, p_max)
    # one piece, C(5, 3) * C(4, 2) = 60 generators, exactly at the limit
    monkeypatch.setattr(whideal.snc, "SNC_GENERATOR_LIMIT", 60)
    built.clear()
    weighted_hodge_ideal_snc(SncModel(5, 5), 2, 3)
    assert built == [60]
    monkeypatch.setattr(whideal.snc, "SNC_GENERATOR_LIMIT", 59)
    with pytest.raises(SizeGuardError, match="^60 generators exceed the limit of 59$"):
        weighted_hodge_ideal_snc(SncModel(5, 5), 2, 3)


def test_generator_guard_sums_every_r(monkeypatch):
    built = []

    class Counting(MonomialIdeal):
        def __init__(self, n, generators):
            generators = list(generators)
            built.append(len(generators))
            super().__init__(n, generators)

    monkeypatch.setattr(whideal.snc, "MonomialIdeal", Counting)
    default = whideal.snc.SNC_GENERATOR_LIMIT
    for n, p_max in [(1, 0), (3, 2), (5, 1), (6, 3)]:
        monkeypatch.setattr(whideal.snc, "SNC_GENERATOR_LIMIT", default)
        built.clear()
        for r in range(1, n + 1):
            verify_snc_theorems(SncModel(n, r), p_max)
        # one principal ideal per p and r is built for its check, not in the ladder
        count = sum(built) - n * (p_max + 1)
        monkeypatch.setattr(whideal.snc, "SNC_GENERATOR_LIMIT", count)
        whideal.snc.refuse_generators_past_limit(p_max, range(1, n + 1))
        monkeypatch.setattr(whideal.snc, "SNC_GENERATOR_LIMIT", count - 1)
        with pytest.raises(SizeGuardError, match=f"^{count} generators exceed the limit of {count - 1}$"):
            whideal.snc.refuse_generators_past_limit(p_max, range(1, n + 1))


def test_check_guard_counts_the_checks_times_n(monkeypatch):
    default = whideal.snc.SNC_CHECK_LIMIT
    sizes = [(n, p_max) for n in range(1, 6) for p_max in range(4)]
    checks = {
        (n, p_max): [len(verify_snc_theorems(SncModel(n, r), p_max).checks) for r in range(1, n + 1)]
        for n, p_max in sizes
    }
    for (n, p_max), counts in checks.items():
        for r, entries in [*((r, n * c) for r, c in enumerate(counts, 1)), (None, n * sum(counts))]:
            monkeypatch.setattr(whideal.snc, "SNC_CHECK_LIMIT", entries)
            whideal.snc.refuse_checks_past_limit(n, p_max, r)
            monkeypatch.setattr(whideal.snc, "SNC_CHECK_LIMIT", entries - 1)
            message = f"^{entries // n} checks on {n} coordinates \\({entries} entries\\) exceed the limit of {entries - 1}$"
            with pytest.raises(SizeGuardError, match=message):
                whideal.snc.refuse_checks_past_limit(n, p_max, r)
    monkeypatch.setattr(whideal.snc, "SNC_CHECK_LIMIT", default)
    with pytest.raises(SizeGuardError, match=r"^6002 checks on 3000 coordinates \(18006000 entries\)"):
        verify_snc_theorems(SncModel(3000, 1), 0)
