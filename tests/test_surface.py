"""The public surface: every exported name resolves, once, under import *."""

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
