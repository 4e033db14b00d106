"""The public surface of the package: what ``__all__`` names, what is
gone from it, and which classes say how attributes change."""

import importlib
import pkgutil

import pytest

import cableslopes
from cableslopes import cli, exact, intervals, jn, oracle, seifert
from cableslopes.cable import CableParams

REMOVED = {
    cableslopes: ("WindowClosed", "endpoint_search", "derived_quantities",
                  "UnsupportedArity", "Arc", "InsufficientData"),
    jn: ("UnsupportedArity", "_least_caps", "_cap_outside"),
    intervals: ("WindowClosed", "endpoint_search", "InsufficientData"),
    seifert: ("derived_quantities",),
    exact: ("Arc", "_low_cut", "_high_cut"),
    exact.ExtRational: (
        "floor", "frac", "_coerce", "_finite_pair", "__add__", "__radd__",
        "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
        "__rtruediv__", "__neg__"),
    exact.IntMobius: ("inverse", "compose"),
    exact.SlopeSet: ("without_infinity",),
    cli: ("_params",),
    oracle: ("_least_accepted",),
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


def _package_classes():
    """Every class defined in a module of the package."""
    modules = [cableslopes] + [
        importlib.import_module("cableslopes." + info.name)
        for info in pkgutil.iter_modules(cableslopes.__path__)]
    for module in modules:
        for value in vars(module).values():
            if (isinstance(value, type)
                    and value.__module__ == module.__name__):
                yield value


def test_values_refuse_change_through_record_alone():
    # every slotted class is a _Record, and no class but _Record and the
    # one mutable record ScanReport says how attributes change
    classes = list(_package_classes())
    assert exact.ExtRational in classes and oracle.ScanReport in classes
    for cls in classes:
        if "__slots__" in vars(cls):
            assert issubclass(cls, exact._Record), cls
        if cls not in (exact._Record, oracle.ScanReport):
            assert not {"__setattr__", "__delattr__"} & vars(cls).keys(), cls
