"""End-to-end acceptance checks: golden values, closed-form vs
brute-force oracle sweeps, monotonicity laws, and property tests.
All comparisons are exact rational equality; there are no tolerances.
"""

import math
import random
import time
from fractions import Fraction

from cableslopes.cable import (DetectionMode, bezout, cable_detected_set,
                               torus_knot_detected)
from cableslopes.exact import (INF, Arc, ExtRational, IntMobius, SlopeSet,
                               mobius_set_image, parse_slope_set)
from cableslopes.intervals import cable_interval, special_slope_interval
from cableslopes.jn import decide
from cableslopes.oracle import _decide_point, grid_scan_interval

R = ExtRational.parse


def _frac(x):
    return Fraction(x.num, x.den)


def _ext(f):
    return ExtRational(f.numerator, f.denominator)


# intervals produced by the sweeps below, re-checked by criterion 8
COLLECTED = []


def _coprime_pairs(qmax, pmax, pmin=1):
    for q in range(2, qmax + 1):
        for p in range(pmin, pmax + 1):
            if math.gcd(p, q) == 1:
                yield p, q


def _collect(params, J, tau):
    res = cable_interval(params, J, tau)
    COLLECTED.append(res)
    return res


def test_criterion_01_torus_golden_values():
    start = time.perf_counter()
    expected = {(2, 3): 1, (3, 5): 7, (2, 5): 3}
    for (p, q), end in expected.items():
        regular, strong = torus_knot_detected(p, q)
        assert regular == SlopeSet.ray_below(ExtRational(end)).with_infinity()
        assert strong == SlopeSet.ray_below(ExtRational(end), False)
        assert str(regular) == "[-inf,%d]" % end
        assert str(strong) == "(-inf,%d)" % end
    assert time.perf_counter() - start < 1.0


def test_criterion_02_low_slope_sweep_vs_oracle():
    for p, q in _coprime_pairs(7, 7):
        params = bezout(p, q)
        s, r = params.s, params.r
        for b in range(0, p // q + 1):
            tau = ExtRational(b * s + r, p - q * b)
            # plain family: [-1 - 1/(p-qb), -1]
            closed = special_slope_interval(params, b, strict=False)
            assert closed == Arc(ExtRational(-(p - q * b) - 1, p - q * b),
                                 ExtRational(-1))
            res = _collect(params, frozenset(), tau)
            assert (res.t.low, res.t.high) == (closed.low, closed.high)
            report = grid_scan_interval(params, frozenset(), tau, 24,
                                        expected=res.t)
            assert report.mismatches == []
            assert report.hull_low == closed.low
            assert report.hull_high == closed.high
            # strict-at-gamma family
            res = _collect(params, frozenset({1}), tau)
            if p >= 2:
                strict = special_slope_interval(params, b, strict=True)
                assert (res.t.low, res.t.high) == (strict.low, strict.high)
            else:
                point = ExtRational(-(2 * q + s), q)
                assert res.t == Arc(point, point)
            report = grid_scan_interval(params, frozenset({1}), tau, 24,
                                        expected=res.t)
            assert report.mismatches == []
            assert report.hull_low == res.t.low
            assert report.hull_high == res.t.high


def test_criterion_03_high_slope_sweep_vs_oracle():
    for p, q in _coprime_pairs(7, 7):
        params = bezout(p, q)
        s, r = params.s, params.r
        for b in range(-(-p // q), 13):
            tau = ExtRational(b * s + r, p - q * b)
            closed = special_slope_interval(params, b, strict=False)
            den = b * q - p
            assert closed == Arc(ExtRational(-1),
                                 ExtRational(-den + 1, den))
            res = _collect(params, frozenset(), tau)
            assert (res.t.low, res.t.high) == (closed.low, closed.high)
            report = grid_scan_interval(params, frozenset(), tau, 24,
                                        expected=res.t)
            assert report.mismatches == []
            assert report.hull_low == ExtRational(-1)
            if den <= 24:
                assert report.hull_high == closed.high
            # endpoint probes at exact rationals beyond the grid
            gamma = params.gamma
            assert _decide_point(frozenset(), 0, (gamma,),
                                 (tau, closed.high))
            above = _ext(_frac(closed.high) + Fraction(1, 2 * den))
            below = _ext(Fraction(-1) - Fraction(1, 2 * den))
            assert not _decide_point(frozenset(), 0, (gamma,), (tau, above))
            assert not _decide_point(frozenset(), 0, (gamma,), (tau, below))


GRID = [ExtRational(k, 12) for k in range(-24, 25)]
C23 = bezout(2, 3)


def test_criterion_04_case_dispatch_vs_oracle():
    one_minus_gamma = 1 - _frac(C23.gamma)  # 1/3
    for tau in GRID:
        res = _collect(C23, frozenset(), tau)
        n, r = divmod(tau.num, tau.den)
        tb = Fraction(r, tau.den)
        if tb == 0:
            assert res.t == Arc(ExtRational(-n - 1), ExtRational(-n))
        elif tb < one_minus_gamma:
            assert res.t.low == ExtRational(-n - 1)
            assert ExtRational(-n - 1) < res.t.high < ExtRational(-n)
        elif tb == one_minus_gamma:
            assert res.t == Arc(ExtRational(-n - 1), ExtRational(-n - 1))
        else:
            assert res.t.high == ExtRational(-n - 1)
            assert ExtRational(-n - 2) < res.t.low < ExtRational(-n - 1)
        report = grid_scan_interval(C23, frozenset(), tau, 24,
                                    expected=res.t)
        assert report.mismatches == []
        assert report.hull_low == res.t.low
        assert report.hull_high == res.t.high


def test_strict_companion_vs_oracle():
    # t_strict is the set of tau' that stay realisable with the tau'
    # slot strict, i.e. with index 2 in J
    for p, q in _coprime_pairs(7, 7):
        params = bezout(p, q)
        special = [ExtRational(b * params.s + params.r, p - q * b)
                   for b in range(13)]
        for tau in GRID + special:
            for J in (frozenset(), frozenset({1})):
                res = cable_interval(params, J, tau)
                report = grid_scan_interval(params, J | {2}, tau, 12,
                                            expected=res.t_strict)
                assert report.mismatches == []


def test_criterion_05_inchworm_and_nesting():
    intervals = [cable_interval(C23, frozenset(), tau).t for tau in GRID]
    # both endpoint functions are non-increasing, and they never both
    # strictly decrease across one grid step
    for prev, cur in zip(intervals, intervals[1:]):
        assert cur.low <= prev.low
        assert cur.high <= prev.high
        assert not (cur.low < prev.low and cur.high < prev.high)
    # nesting within each unit cell, split at 1 - gamma
    one_minus_gamma = 1 - _frac(C23.gamma)
    by_tau = dict(zip(GRID, intervals))

    def contains(outer, inner):
        return outer.low <= inner.low and inner.high <= outer.high

    for i, t1 in enumerate(GRID):
        for t2 in GRID[i:]:
            n = t1.num // t1.den
            if t2 > ExtRational(n + 1):
                continue
            f1, f2 = _frac(t1) - n, _frac(t2) - n
            if f2 <= one_minus_gamma:
                assert contains(by_tau[t1], by_tau[t2])
                assert by_tau[t2].low <= -n - 1 <= by_tau[t2].high
                assert contains(Arc(ExtRational(-n - 1), ExtRational(-n)),
                                by_tau[t1])
            elif f1 >= one_minus_gamma and f2 < 1:
                assert contains(by_tau[t2], by_tau[t1])
                assert by_tau[t1].low <= -n - 1 <= by_tau[t1].high
                assert contains(Arc(ExtRational(-n - 2), ExtRational(-n - 1)),
                                by_tau[t2])


def test_criterion_06_cabling_pipeline():
    for p, q in _coprime_pairs(12, 12, pmin=2):
        params = bezout(p, q)
        fiber = ExtRational(p, q)
        for g in range(1, 6):
            edge = ExtRational(2 * g - 1)
            input_set = parse_slope_set("[-inf,%d]" % (2 * g - 1))
            out, tag = cable_detected_set(params, input_set,
                                          DetectionMode.REGULAR)
            assert tag == "equals"
            if edge < fiber:
                end = p * q - p - q + 2 * g * q
                assert out == SlopeSet.ray_below(
                    ExtRational(end), True).with_infinity()
                b = 2 * g - 1
                _collect(params, frozenset(),
                         ExtRational(b * params.s + params.r, p - q * b))
            elif edge > fiber:
                assert out.is_full
        out, tag = cable_detected_set(params, SlopeSet.full(),
                                      DetectionMode.REGULAR)
        assert out.is_full
        assert tag == "equals"


def test_criterion_07_complement_symmetry():
    rng = random.Random(20240817)
    count = 0
    while count < 500:
        k = rng.randint(3, 5)
        n = rng.randint(1, k - 1)
        gammas = tuple(_random_unit(rng) for _ in range(n))
        taus = tuple(_random_unit(rng) for _ in range(k - n))
        J = frozenset(j for j in range(1, k - n + 1) if rng.random() < 0.4)
        b = k - 1
        lhs = decide(J, b, gammas, taus).realizable
        rhs = decide(J, 1, tuple(_ext(1 - _frac(g)) for g in gammas),
                     tuple(_ext(1 - _frac(t)) for t in taus)).realizable
        assert lhs == rhs
        count += 1


def _random_unit(rng):
    den = rng.randint(2, 12)
    num = rng.randint(1, den - 1)
    return ExtRational(num, den)


def test_criterion_08_sandwich_and_strict_set_laws():
    assert COLLECTED, "sweeps must run before this check"
    for res in COLLECTED:
        m0, m1 = res.quantities.m0, res.quantities.m1
        core = SlopeSet.interval(m0, m1, False, False)
        outer = SlopeSet.interval(m0 - 1, m1 + 1, False, False)
        closed = SlopeSet.interval(res.t.low, res.t.high, True, True)
        assert core.issubset(res.t_strict)
        assert res.t_strict.issubset(closed)
        assert closed.issubset(outer)
        assert m0 - 1 < res.t.low <= res.t.high < m1 + 1


def test_criterion_09_inequality_suites():
    half = R("1/2")
    for p, q in _coprime_pairs(7, 7):
        params = bezout(p, q)
        s, r = params.s, params.r
        gamma = params.gamma
        for b in range(0, p // q + 1):
            slope = ExtRational(b * s + r, p - q * b)
            lo, hi = min(slope, gamma), max(slope, gamma)
            assert ExtRational(0) < lo <= half < hi <= 1
            prev = ExtRational((b - 1) * s + r, p - q * (b - 1))
            assert ExtRational(-s, q) < prev < slope
        for b in range(-(-p // q), 13):
            slope = ExtRational(b * s + r, p - q * b)
            assert b * (-s) >= r
            assert ExtRational(r, -s) > ExtRational(p, q)
            lo, hi = min(slope, gamma), max(slope, gamma)
            assert ExtRational(0) <= lo < half <= hi < 1
            if slope != ExtRational(0):
                assert ExtRational(-s, q) > slope >= ExtRational(-s, q + 1)
                assert b * (-s) > r


def _inverse(m):
    return IntMobius(m.d, -m.b, -m.c, m.a)


def test_criterion_10_mobius_property_samples():
    rng = random.Random(991)
    count = 0
    while count < 1000:
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        if a * d - b * c == 0:
            continue
        m = IntMobius(a, b, c, d)
        if rng.random() < 0.1:
            x = INF
        else:
            x = ExtRational(rng.randint(-50, 50), rng.randint(1, 12))
        # round trip through the inverse
        assert _inverse(m).apply(m.apply(x)) == x
        # membership commutes with taking images
        lo = ExtRational(rng.randint(-10, 10), rng.randint(1, 6))
        hi = _ext(_frac(lo) + Fraction(rng.randint(0, 8),
                                       rng.randint(1, 6)))
        sets = SlopeSet.interval(lo, hi, rng.random() < 0.5,
                                 rng.random() < 0.5)
        if rng.random() < 0.3:
            sets = sets.with_infinity()
        image = mobius_set_image(m, sets)
        assert image.contains(m.apply(x)) == sets.contains(x)
        count += 1
