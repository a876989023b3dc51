"""The public surface: every exported name resolves, once, under import *."""

import pytest

import whideal
import whideal.dims

# Helpers that only recomputed what `classify` reports, and `hockey_stick`,
# an identity of `math.comb` that only tests called; they must stay gone.
REMOVED = ("VDegreeQuery", "v_filtration_membership", "hockey_stick")

# Methods that no library caller used, by class.
REMOVED_METHODS = {
    "Polynomial": ("coefficient", "constant", "total_degree"),
    "MonomialIdeal": ("zero", "unit", "is_unit", "contains_monomial", "multiply"),
    "NewtonPolyhedron": ("shifted_weight_monomial",),
    "CompactFacet": ("shifted_weight",),
}


def test_all_names_resolve_once():
    assert len(set(whideal.__all__)) == len(whideal.__all__)
    for name in whideal.__all__:
        assert getattr(whideal, name) is not None, name


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from whideal import *", namespace)
    assert set(whideal.__all__) <= namespace.keys()
    for name in whideal.__all__:
        assert namespace[name] is getattr(whideal, name)


def test_removed_helpers_stay_gone():
    for name in REMOVED:
        assert name not in whideal.__all__
        assert not hasattr(whideal, name)
    assert not hasattr(whideal.dims, "hockey_stick")
    for cls, names in REMOVED_METHODS.items():
        for name in names:
            assert not hasattr(getattr(whideal, cls), name), (cls, name)


# The result records, with their fields in constructor order.
RECORD_FIELDS = {
    "CompactFacet": ("covector", "incident_points"),
    "NewtonPolyhedron": ("n", "support", "facets"),
    "SingularityReport": (
        "variables", "minimal_exponent", "p_level", "r", "s", "simplicial",
        "hodge_triviality", "w1_triviality", "nilpotency_upper", "type_range",
        "exact_type", "notes", "polyhedron",
    ),
    "SncCheck": ("name", "p", "l", "passed"),
    "SncVerification": ("model", "p_max", "checks"),
}


def test_result_records_are_read_only_values():
    report = whideal.classify(whideal.parse_polynomial("x^2 + y^2 + z^2 + u^2*w^2 + u^4 + w^5"))
    verification = whideal.verify_snc_theorems(whideal.SncModel(3, 2), 1)
    records = (
        report.polyhedron.facets[0],
        report.polyhedron,
        report,
        verification.checks[0],
        verification,
    )
    for record in records:
        cls = type(record)
        assert cls._fields == RECORD_FIELDS[cls.__name__]
        assert cls(*record) == record == cls(**record._asdict())
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
    facet = records[0]
    assert facet == (facet.covector, facet.incident_points)
    with pytest.raises(TypeError):
        hash(report)  # it holds the triviality dicts
    before = report._asdict()
    extended = report.with_notes(["extra"])
    assert report._asdict() == before
    assert extended == report._replace(notes=report.notes + ("extra",)) != report
