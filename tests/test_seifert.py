import pytest

from cableslopes.exact import INF, ExtRational
from cableslopes.seifert import normalize, reduce_integral

R = ExtRational.parse


class TestValidation:
    def test_gamma_range(self):
        with pytest.raises(ValueError):
            reduce_integral((ExtRational(1),), (), frozenset())
        with pytest.raises(ValueError):
            reduce_integral((ExtRational(0),), (), frozenset())

    def test_j_indices(self):
        with pytest.raises(ValueError):
            reduce_integral((R("1/2"),), (R("1/2"),), frozenset({3}))


class TestNormalize:
    def test_shifts_into_unit(self):
        # -3/2 = -2 + 1/2: the fractional part stays in its slot and the
        # floor moves into b0 = -(0 + (-2))
        assert normalize(R("1/2")) == (0, 1)
        assert normalize(R("-3/2")) == (-2, 1)
        dq, fixed = reduce_integral((R("2/3"),), (R("1/2"), R("-3/2")),
                                    frozenset())
        assert dq.b0 == 2
        assert fixed == [(2, 3, True), (1, 2, False), (1, 2, False)]

    def test_idempotent(self):
        # a weight in [0, 1) is its own fractional part: floor 0
        for tau in (R("1/4"), R("0"), R("-7/4"), ExtRational(5)):
            fl, num = normalize(tau)
            assert normalize(ExtRational(num, tau.den)) == (0, num)
            assert fl * tau.den + num == tau.num

    def test_rejects_infinity(self):
        with pytest.raises(ValueError, match="^fractional part of infinity$"):
            normalize(INF)


class TestReduce:
    def test_zero_outside_j_is_counted(self):
        dq, fixed = reduce_integral((R("2/3"),), (R("1/2"), R("-1")),
                                    frozenset())
        assert dq.s0 == 1
        assert fixed == [(2, 3, True), (1, 2, False)]

    def test_zero_inside_j_is_dropped(self):
        dq, fixed = reduce_integral((R("2/3"),), (R("1/2"), R("-1")),
                                    frozenset({2}))
        assert dq.s0 == 0
        assert fixed == [(2, 3, True), (1, 2, False)]

    def test_strictness_follows_j(self):
        _, fixed = reduce_integral((R("2/3"),), (R("1/2"), R("1/4")),
                                   frozenset({1}))
        assert fixed == [(2, 3, True), (1, 2, True), (1, 4, False)]

    def test_normalizes_on_the_fly(self):
        # reducing the raw taus equals reducing their fractional parts
        # with every floor moved into b0
        taus = (R("7/2"), R("-2"), R("-5/4"))
        fracs = tuple(ExtRational(normalize(t)[1], t.den) for t in taus)
        for J in (frozenset(), frozenset({2}), frozenset({1, 3})):
            dq, fixed = reduce_integral((R("2/3"),), taus, J)
            dq0, fixed0 = reduce_integral((R("2/3"),), fracs, J)
            assert fixed == fixed0
            assert dq0.b0 == 0
            assert dq.b0 == -(3 - 2 - 2)


class TestDerivedQuantities:
    def test_cable_relative_data(self):
        dq, _ = reduce_integral((R("2/3"),), (R("1/2"),), frozenset())
        assert (dq.n, dq.r1, dq.s0) == (1, 1, 0)
        assert dq.b0 == 0
        assert dq.m0 == dq.m1 == -1

    def test_integral_slot(self):
        dq, _ = reduce_integral((R("2/3"),), (ExtRational(2),), frozenset())
        assert (dq.n, dq.r1, dq.s0) == (1, 0, 1)
        assert dq.b0 == -2
        assert dq.m0 == -3
        assert dq.m1 == -2

    def test_negative_tau_floor(self):
        dq, _ = reduce_integral((R("2/3"),), (R("-3/2"), R("1/4")),
                                frozenset({2}))
        assert dq.b0 == 2
        assert (dq.n, dq.r1, dq.s0) == (1, 2, 0)
        assert dq.m0 == 0
        assert dq.m1 == 1
