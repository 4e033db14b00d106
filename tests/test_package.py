"""The public surface of the package: what ``__all__`` names, and what
is gone from it."""

import cableslopes
from cableslopes import exact, intervals, seifert

REMOVED = {
    cableslopes: ("WindowClosed", "endpoint_search", "derived_quantities"),
    intervals: ("WindowClosed", "endpoint_search"),
    seifert: ("derived_quantities",),
    exact.ExtRational: (
        "floor", "frac", "_coerce", "_finite_pair", "__add__", "__radd__",
        "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
        "__rtruediv__", "__neg__"),
    exact.IntMobius: ("inverse", "compose"),
    exact.SlopeSet: ("without_infinity",),
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
