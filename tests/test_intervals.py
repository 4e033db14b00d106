import types

import pytest
from hypothesis import given, settings, strategies as st

from cableslopes import intervals
from cableslopes.cable import bezout, ray_union
from cableslopes.exact import ExtRational, SlopeSet
from cableslopes.intervals import (cable_interval, extremal_slot_value,
                                   relative_interval, special_slope_interval)
from cableslopes.jn import JNResult, decide, witness_search
from cableslopes.oracle import _decide_point
from cableslopes.seifert import reduce_integral

R = ExtRational.parse
C23 = bezout(2, 3)  # gamma = 2/3
C52 = bezout(5, 2)  # gamma = 1/2


class TestExtremalSlotValue:
    def test_known_maximum(self):
        # gamma = 2/3 strict with a non-strict 1/4 slot: best is 1/4 at N=4
        assert extremal_slot_value([(R("2/3"), True),
                                    (R("1/4"), False)]) == R("1/4")

    def test_empty_search(self):
        assert extremal_slot_value([(R("2/3"), True),
                                    (R("2/3"), True)]) is None

    def test_needs_two_slots(self):
        with pytest.raises(ValueError):
            extremal_slot_value([(R("1/2"), True)])


_unit_weights = st.integers(2, 9).flatmap(
    lambda d: st.builds(ExtRational, st.integers(1, d - 1), st.just(d)))
_tau_weights = st.one_of(
    st.builds(ExtRational, st.integers(-2, 2)),
    st.integers(1, 9).flatmap(
        lambda d: st.builds(ExtRational, st.integers(-2 * d, 2 * d),
                            st.just(d))))


def _assert_matches_decide_scan(gammas, taus, J):
    """t and t_strict of (gammas; taus; J) agree with the oracle's
    point decisions for tau' on the grid of denominators <= 8 around
    [m0 - 2, m1 + 2], and at the ends of t."""
    res = relative_interval(gammas, taus, J)
    dq = res.quantities
    points = {res.t.low, res.t.high} - {None}
    for den in range(1, 9):
        for num in range((dq.m0 - 2) * den, (dq.m1 + 2) * den + 1):
            points.add(ExtRational(num, den))
    strict = J | {len(taus) + 1}
    for x in points:
        assert (_decide_point(J, 0, gammas, taus + (x,))
                == res.t.contains(x))
        assert (_decide_point(strict, 0, gammas, taus + (x,))
                == res.t_strict.contains(x))


class TestRelativeInterval:
    def test_integral_slot_gives_unit_core(self):
        res = relative_interval((R("2/3"),), (ExtRational(0),), frozenset())
        assert res.t == SlopeSet.interval(-1, 0)
        assert res.t_strict == SlopeSet.interval(
            ExtRational(-1), ExtRational(0), False, False)

    def test_j_names_no_tau(self):
        with pytest.raises(ValueError, match="1-based tau indices"):
            relative_interval((R("1/2"),), (R("1/3"),), frozenset({3}))

    @pytest.mark.parametrize("taus, J, b0", [
        ((), (), 0),
        ((ExtRational(2),), (1,), -2),
        ((ExtRational(-1), ExtRational(3)), (1, 2), -2),
    ], ids=["no tau", "one strict integral tau", "two strict integral taus"])
    def test_no_slot_gives_empty_t(self, taus, J, b0):
        # no slot: t is empty, and t_strict is b0, where the strict
        # integral tau' is dropped and the empty slot sum is b
        res = relative_interval((), taus, frozenset(J))
        assert res.t == SlopeSet.empty()
        assert res.t.low is res.t.high is None
        assert res.t_strict == SlopeSet.point(b0)
        _assert_matches_decide_scan((), taus, frozenset(J))

    def test_one_slot_gives_a_point(self):
        # the two values in (0, 1) must add up to b = 1: tau' = b0 - v,
        # in t and in t_strict
        for gammas, taus, J, v in (((R("1/2"),), (), (), R("-1/2")),
                                   ((), (R("7/3"),), (1,), R("-7/3")),
                                   ((R("2/3"),), (ExtRational(1),), (1,),
                                    R("-5/3"))):
            res = relative_interval(gammas, taus, frozenset(J))
            assert res.t == res.t_strict == SlopeSet.point(v)

    def test_sandwich(self):
        for tau in (R("1/2"), R("1/4"), R("5/6"), R("-7/3")):
            for J in (frozenset(), frozenset({1})):
                res = relative_interval((R("2/3"),), (tau,), J)
                m0, m1 = res.quantities.m0, res.quantities.m1
                core = SlopeSet.interval(ExtRational(m0), ExtRational(m1),
                                         False, False)
                outer = SlopeSet.interval(ExtRational(m0 - 1),
                                          ExtRational(m1 + 1), False, False)
                assert core.issubset(res.t_strict)
                assert res.t_strict.issubset(res.t)
                assert res.t.issubset(outer)

    @pytest.mark.parametrize("taus, J", [
        ((R("3/4"), R("-3/4")), frozenset()),
        ((R("3/4"), R("-3/4")), frozenset({1})),
        ((R("9/7"), R("5/7")), frozenset({1, 2})),
        ((R("1/3"), R("5/3")), frozenset({2})),
        ((R("1/3"), R("1/2")), frozenset()),
    ])
    def test_no_gamma_matches_decide_scan(self, taus, J):
        _assert_matches_decide_scan((), taus, J)

    @pytest.mark.parametrize("gammas, taus, J", [
        # n + r1 = 2 with slot sum 1, so minus the weight sum is m0;
        # bullet: two non-strict tau slots, with or without an integral
        # tau in J
        ((), (R("1/3"), R("2/3")), ()),
        ((), (R("7/4"), R("-3/4")), ()),
        ((), (R("2/9"), R("-2/9"), ExtRational(2)), (3,)),
        # degenerate: a gamma, or a tau slot in J
        ((R("1/2"),), (R("1/2"),), ()),
        ((R("2/5"),), (R("-7/5"),), (1,)),
        ((R("4/7"),), (R("3/7"), ExtRational(-1)), (2,)),
        ((), (R("5/8"), R("11/8")), (1,)),
        ((), (R("1/6"), R("-1/6"), ExtRational(1)), (2, 3)),
        ((R("1/3"), R("2/3")), (ExtRational(0),), (1,)),
    ])
    def test_gate_cases_match_decide_scan(self, gammas, taus, J):
        res = relative_interval(gammas, taus, frozenset(J))
        q = res.quantities
        assert (q.n + q.r1, q.s0) == (2, 0)
        _assert_matches_decide_scan(gammas, taus, frozenset(J))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_shape_matches_decide_scan(self, data):
        # n = 0-2 gammas and 1-3 taus with denominators <= 9, which
        # keeps the oracle's witness loops (N up to a slot cap) short;
        # a tuple of one slot is compared with the oracle too
        gammas = data.draw(st.lists(_unit_weights, max_size=2))
        taus = data.draw(st.lists(_tau_weights, min_size=1, max_size=3))
        J = data.draw(st.sets(st.integers(1, len(taus))))
        _assert_matches_decide_scan(tuple(gammas), tuple(taus), frozenset(J))

    def test_one_search_per_side(self, monkeypatch):
        # n + r1 = 3: no arithmetic gate, the search itself gates
        calls = []

        def counted(fixed):
            calls.append(fixed)
            return extremal_slot_value(fixed)

        monkeypatch.setattr(intervals, "extremal_slot_value", counted)
        res = relative_interval((R("1/3"), R("1/4")), (R("1/5"),),
                                frozenset())
        assert res.t == SlopeSet.interval(-2, R("-1/2"))
        assert len(calls) == 2


class TestEndpointSearch:
    """The ends of t beyond the core [m0, m1]: an open window moves t's
    end past m0 (left) or m1 (right), a shut one leaves it there."""

    def test_matches_interval(self):
        res = relative_interval((R("2/3"),), (R("1/2"),), frozenset())
        assert res.t.low == R("-3/2") < res.quantities.m0

    def test_closed_window_raises(self):
        # gamma + taubar < 1: nothing opens on the left
        res = relative_interval((R("2/3"),), (R("1/4"),), frozenset())
        assert res.t.low == res.quantities.m0
        assert res.t.high > res.quantities.m1
        # gamma + taubar > 1: nothing opens on the right
        res = relative_interval((R("2/3"),), (R("1/2"),), frozenset())
        assert res.t.high == res.quantities.m1
        assert res.t.low < res.quantities.m0

    def test_integral_slot_closes_windows(self):
        res = relative_interval((R("2/3"),), (ExtRational(1),), frozenset())
        assert res.quantities.s0 > 0
        assert res.t == SlopeSet.interval(res.quantities.m0,
                                          res.quantities.m1)


def _gamma_error(g):
    return ValueError, "gamma weight must lie strictly between 0 and 1: " + g


_INF_TAU = (ValueError, "fractional part of infinity")
# the oracle's own reduction, kept apart for independence, words it apart
_INF_TAU_TUPLE = (ValueError, "tau weight must be finite")
_J = (ValueError, "J must contain 1-based tau indices")
_SUM = JNResult(False, None, "slot-sum")

# gammas, taus, J, then the (type, text) raised by relative_interval
# (or the t it returns), by reduce_integral (None: it returns), by
# cable_interval with that gamma and tau (None: not a cable tuple) and
# by jn.decide at b = 1 (or the JNResult it returns)
VALIDATION_TABLE = {
    **{"gamma " + g: ((g,), ("1/2",), ()) + (_gamma_error(g),) * 4
       for g in ("0", "1", "3/2", "inf")},
    "tau inf": (("1/2",), ("inf",), ()) + (_INF_TAU,) * 4,
    "J 0": (("1/2",), ("1/3",), (0,)) + (_J,) * 4,
    "J 3": (("1/2",), ("1/3",), (3,)) + (_J,) * 4,
    "J '1'": (("1/2",), ("1/3",), ("1",)) + (_J,) * 4,
    # J is checked before an infinite tau, by every entry point
    "J 3 tau inf": (("1/2",), ("inf",), (3,)) + (_J,) * 4,
    # one slot v: t = {-v}, and the slot sum v is not 1
    "one gamma": (("1/2",), (), (), SlopeSet.point(R("-1/2")), None, None,
                  _SUM),
    "one strict tau": ((), ("1/3",), (1,), SlopeSet.point(R("-1/3")), None,
                       None, _SUM),
    # a zero slot alone: t = {b0}
    "one zero slot": ((), ("0",), (), SlopeSet.point(0), None, None,
                      JNResult(False, None, "integral-slot-window")),
    # no slot: t = {}; the tau 1 in J is dropped and moves b = 1 to 0,
    # the empty slot sum
    "no slot": ((), ("1",), (1,), SlopeSet.empty(), None, None,
                JNResult(True, None, "slot-sum")),
}


def _raises(want, call, *args):
    kind, text = want
    with pytest.raises(kind) as info:
        call(*args)
    assert type(info.value) is kind
    assert str(info.value) == text


class TestValidationTable:
    """Exact exception type and text of each entry point on bad input."""

    @pytest.mark.parametrize("name", sorted(VALIDATION_TABLE))
    def test_entry_points(self, name):
        gammas, taus, J, rel, dq, cab, dec = VALIDATION_TABLE[name]
        gammas = tuple(map(R, gammas))
        taus = tuple(map(R, taus))
        J = frozenset(J)
        if isinstance(rel, SlopeSet):
            assert relative_interval(gammas, taus, J).t == rel
        else:
            _raises(rel, relative_interval, gammas, taus, J)
        if dq is None:
            reduce_integral(gammas, taus, J)
        else:
            _raises(dq, reduce_integral, gammas, taus, J)
        if cab is not None:
            # cable_interval reads only the gamma of its params
            params = types.SimpleNamespace(gamma=gammas[0])
            _raises(cab, cable_interval, params, J, taus[0])
        if isinstance(dec, JNResult):
            assert decide(J, 1, gammas, taus) == dec
        else:
            _raises(dec, decide, J, 1, gammas, taus)

    @pytest.mark.parametrize("decide_tuple, want",
                             [(decide, _INF_TAU),
                              (_decide_point, _INF_TAU_TUPLE)],
                             ids=["decide", "_decide_point"])
    def test_tuple_deciders_infinite_tau(self, decide_tuple, want):
        _raises(want, decide_tuple, frozenset(), 1, (R("1/2"),),
                (R("1/3"), R("inf")))


def _reduced_weights(max_den):
    return st.integers(1, max_den).flatmap(
        lambda d: st.builds(ExtRational, st.integers(-3 * d, 3 * d),
                            st.just(d)))


def _assert_checked(value):
    # a trusted ExtRational is the one the checked constructor builds;
    # == compares num and den
    assert ExtRational(value.num, value.den) == value


class TestTrustedConstructors:
    """The interval path builds its values with the trusted constructors
    of ``exact``; each equals its rebuild through the checked ones, so
    the reduction and the end arithmetic keep every value reduced."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_results_equal_checked_rebuild(self, data):
        gammas = tuple(g for g in data.draw(st.lists(_reduced_weights(10**6),
                                                     max_size=3))
                       if 0 < g.num < g.den)
        taus = tuple(data.draw(st.lists(_reduced_weights(10**6),
                                        max_size=3)))
        J = frozenset(data.draw(st.sets(st.integers(1, len(taus))))
                      if taus else ())
        dq, fixed = reduce_integral(gammas, taus, J)
        res = relative_interval(gammas, taus, J)
        low, high = res.t.low, res.t.high
        if low is None:  # no slot: t = {}, t_strict = {b0}
            assert res.t == SlopeSet.empty()
            assert res.t_strict == SlopeSet.point(dq.b0)
            return
        _assert_checked(low)
        _assert_checked(high)
        assert res.t == SlopeSet.interval(low, high)
        # the t_strict that SlopeSet's checked constructors build
        if (dq.n + dq.r1 + dq.s0 == 1 and not dq.s0
                or not dq.s0 and intervals._gates(fixed)[2]):
            want = SlopeSet.point(low)
        elif low == high:
            want = SlopeSet.empty()
        else:
            want = SlopeSet.interval(low, high, False, False)
        assert res.t_strict == want
        for side in (fixed, [(d - n, d, s) for n, d, s in fixed]):
            if len(side) >= 2 and (width := extremal_slot_value(side)):
                _assert_checked(width)
            if len(side) >= 3 and (w := witness_search(side)):
                for value in w.assignment:
                    _assert_checked(value)


class TestCableInterval:
    def test_branch_integral(self):
        res = cable_interval(C23, frozenset(), ExtRational(0))
        assert res.t == SlopeSet.interval(-1, 0)

    def test_branch_below_one(self):
        # gamma + taubar < 1: [-floor-1, xi]
        res = cable_interval(C23, frozenset(), R("1/4"))
        assert res.t == SlopeSet.interval(-1, R("-3/4"))
        assert res.t_strict == SlopeSet.interval(
            ExtRational(-1), R("-3/4"), False, False)

    def test_branch_equal_one(self):
        # gamma + taubar = 1: the singleton {-floor(tau)-1}
        res = cable_interval(C23, frozenset(), R("1/3"))
        assert res.t == res.t_strict == SlopeSet.point(-1)

    def test_branch_above_one(self):
        res = cable_interval(C23, frozenset(), R("1/2"))
        assert res.t == SlopeSet.interval(R("-3/2"), -1)

    def test_strict_family_integral_singleton(self):
        res = cable_interval(C23, frozenset({1}), ExtRational(2))
        # -tau - gamma
        assert res.t == res.t_strict == SlopeSet.point(R("-8/3"))

    def test_rejects_bad_j(self):
        with pytest.raises(ValueError):
            cable_interval(C23, frozenset({2}), R("1/2"))


class TestSpecialSlopeInterval:
    def test_low_branch_matches_search(self):
        for params in (C23, C52, bezout(3, 5), bezout(7, 4)):
            p, q, r, s = params.p, params.q, params.r, params.s
            for b in range(0, p // q + 1):
                tau = ExtRational(b * s + r, p - q * b)
                got = special_slope_interval(params, b, strict=False)
                res = cable_interval(params, frozenset(), tau)
                assert got == res.t
                got = special_slope_interval(params, b, strict=True)
                res = cable_interval(params, frozenset({1}), tau)
                assert got == res.t

    def test_high_branch_matches_search(self):
        cases = []
        for params in (C23, C52, bezout(3, 5), bezout(7, 4)):
            lo = -(-params.p // params.q)
            cases += [(params, b) for b in range(lo, lo + 4)]
        # b = 8 with p = q + 2: tau has denominator D = 201 and D = 411
        cases += [(bezout(31, 29), 8), (bezout(61, 59), 8)]
        for params, b in cases:
            p, q, r, s = params.p, params.q, params.r, params.s
            tau = ExtRational(b * s + r, p - q * b)
            got = special_slope_interval(params, b, strict=False)
            res = cable_interval(params, frozenset(), tau)
            assert got == res.t

    @pytest.mark.parametrize("q", [3, 5, 29, 119, 1001, 4999, 9999, 14285])
    def test_large_denominators_match_search(self, q):
        # b = 8: p = q + 2 gives the high branch with D = 7q - 2 and
        # p = 15q + 2 the low branch with D = 7q + 2, up to D = 10^5
        b = 8
        for p, J_values in ((q + 2, ((frozenset(), False),)),
                            (15 * q + 2, ((frozenset(), False),
                                          (frozenset({1}), True)))):
            params = bezout(p, q)
            tau = ExtRational(b * params.s + params.r, p - q * b)
            for J, strict in J_values:
                got = special_slope_interval(params, b, strict=strict)
                res = cable_interval(params, J, tau)
                assert got == res.t

    def test_strict_rejected_on_high_branch(self):
        with pytest.raises(ValueError):
            special_slope_interval(C52, 3, strict=True)


class TestRayUnion:
    def _check(self, params, direction, tau0, den=8, span=6):
        # compare against an explicit union of intervals over a tau grid
        got = ray_union(params, direction, tau0)
        acc = SlopeSet.empty()
        for d in range(1, den + 1):
            for n in range(-span * d, span * d + 1):
                tau = ExtRational(n, d)
                if direction == "geq" and tau < tau0:
                    continue
                if direction == "leq" and tau > tau0:
                    continue
                res = cable_interval(params, frozenset(), tau)
                acc = acc.union(res.t)
        # the sampled union must sit inside the ray and reach its endpoint
        assert acc.issubset(got)
        pieces = got.affine_pieces()
        assert len(pieces) == 1
        lo, lc, hi, hc = pieces[0]
        endpoint = hi if direction == "geq" else lo
        assert acc.contains(endpoint)

    def test_geq_branches(self):
        for tau0 in (ExtRational(0), R("1/4"), R("1/3"), R("1/2"),
                     R("-5/4")):
            self._check(C23, "geq", tau0)

    def test_leq_branches(self):
        for tau0 in (ExtRational(0), R("1/4"), R("1/2"), R("7/6")):
            self._check(C23, "leq", tau0)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            ray_union(C23, "up", ExtRational(0))
