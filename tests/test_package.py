"""The public surface of the package: what ``__all__`` names, and what
is gone from it."""

import pytest

import cableslopes
from cableslopes import cli, exact, intervals, jn, seifert
from cableslopes.cable import CableParams

REMOVED = {
    cableslopes: ("WindowClosed", "endpoint_search", "derived_quantities",
                  "UnsupportedArity"),
    jn: ("UnsupportedArity", "_least_caps", "_cap_outside"),
    intervals: ("WindowClosed", "endpoint_search"),
    seifert: ("derived_quantities",),
    exact.ExtRational: (
        "floor", "frac", "_coerce", "_finite_pair", "__add__", "__radd__",
        "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
        "__rtruediv__", "__neg__"),
    exact.IntMobius: ("inverse", "compose"),
    exact.SlopeSet: ("without_infinity",),
    cli: ("_params",),
}


def test_all_names_resolve_once():
    names = cableslopes.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(cableslopes, name) is not None, name


def test_removed_names_are_unbound():
    for owner, names in REMOVED.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)


def test_set_operations_have_one_name():
    # union, intersect and difference have no operator aliases; read on
    # an instance, as the class sees type.__or__ through its metaclass
    s = exact.SlopeSet.full()
    for name in ("__or__", "__and__", "__sub__"):
        assert not hasattr(s, name), name
    with pytest.raises(TypeError):
        s | s


def test_cable_params_take_p_and_q_alone():
    # r and s are derived, never given
    with pytest.raises(TypeError):
        CableParams(5, 3, 2, -1)
