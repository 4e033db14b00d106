import pytest

from cableslopes.exact import ExtRational
from cableslopes.seifert import (SeifertTuple, derived_quantities, normalize,
                                 reduce_integral)

R = ExtRational.parse


class TestValidation:
    def test_gamma_range(self):
        with pytest.raises(ValueError):
            SeifertTuple(frozenset(), 0, (ExtRational(1),), ())
        with pytest.raises(ValueError):
            SeifertTuple(frozenset(), 0, (ExtRational(0),), ())

    def test_j_indices(self):
        with pytest.raises(ValueError):
            SeifertTuple(frozenset({3}), 0, (R("1/2"),), (R("1/2"),))


class TestNormalize:
    def test_shifts_into_unit(self):
        tup = SeifertTuple(frozenset(), 0, (R("2/3"),), (R("1/2"), R("-3/2")))
        norm = normalize(tup)
        assert norm.b == 2
        assert norm.taus == (R("1/2"), R("1/2"))

    def test_idempotent(self):
        tup = SeifertTuple(frozenset(), 3, (R("2/3"),), (R("1/4"), R("0")))
        assert normalize(normalize(tup)) == normalize(tup)


class TestReduce:
    def test_zero_outside_j_is_counted(self):
        tup = normalize(SeifertTuple(frozenset(), 0, (R("2/3"),),
                                     (R("1/2"), R("-1"))))
        red = reduce_integral(tup)
        assert red.zeros == 1
        assert red.slots == ((R("2/3"), True), (R("1/2"), False))
        assert red.kept_indices == (1,)

    def test_zero_inside_j_is_dropped(self):
        tup = normalize(SeifertTuple(frozenset({2}), 0, (R("2/3"),),
                                     (R("1/2"), R("-1"))))
        red = reduce_integral(tup)
        assert red.zeros == 0
        assert red.slots == ((R("2/3"), True), (R("1/2"), False))

    def test_strictness_follows_j(self):
        tup = normalize(SeifertTuple(frozenset({1}), 0, (R("2/3"),),
                                     (R("1/2"), R("1/4"))))
        red = reduce_integral(tup)
        assert red.slots == ((R("2/3"), True), (R("1/2"), True),
                             (R("1/4"), False))

    def test_normalizes_on_the_fly(self):
        for J in (frozenset(), frozenset({2}), frozenset({1, 3})):
            tup = SeifertTuple(J, 1, (R("2/3"),),
                               (R("7/2"), R("-2"), R("-5/4")))
            red = reduce_integral(tup)
            assert red == reduce_integral(normalize(tup))
            assert red.b == 1 - (3 - 2 - 2)


class TestDerivedQuantities:
    def test_cable_relative_data(self):
        dq = derived_quantities((R("2/3"),), (R("1/2"),), frozenset())
        assert (dq.n, dq.r1, dq.s0) == (1, 1, 0)
        assert dq.b0 == 0
        assert dq.m0 == dq.m1 == -1

    def test_integral_slot(self):
        dq = derived_quantities((R("2/3"),), (ExtRational(2),), frozenset())
        assert (dq.n, dq.r1, dq.s0) == (1, 0, 1)
        assert dq.b0 == -2
        assert dq.m0 == -3
        assert dq.m1 == -2

    def test_negative_tau_floor(self):
        dq = derived_quantities((R("2/3"),), (R("-3/2"), R("1/4")),
                                frozenset({2}))
        assert dq.b0 == 2
        assert (dq.n, dq.r1, dq.s0) == (1, 2, 0)
        assert dq.m0 == 0
        assert dq.m1 == 1
