import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import loop_reference
from cableslopes import intervals, jn, oracle
from cableslopes.cable import (CableParams, DetectionMode, _ray, _ray_end,
                               bezout, cable_detected_set, cable_genus_bound,
                               inner_basis_map, outer_basis_map, ray_union,
                               torus_knot_detected)
from cableslopes.exact import (INF, ExtRational, IntMobius, SlopeSet,
                               mobius_set_image, parse_slope_set)
from cableslopes.intervals import cable_interval

R = ExtRational.parse


def _frac(x):
    return Fraction(x.num, x.den)


CABLES = st.tuples(st.integers(1, 40), st.integers(2, 30)).filter(
    lambda pq: math.gcd(*pq) == 1).map(lambda pq: bezout(*pq))
TAUS = st.integers(1, 30).flatmap(
    lambda d: st.integers(-4 * d, 4 * d).map(lambda n: ExtRational(n, d)))


def _seifert_lo(weights):
    """Whether the tuple (J = {}; -b; frac(w_i); ()) of a Seifert fibred
    space over the sphere with weights w_i is realisable, b the sum of
    their floors; ``jn.decide`` and the oracle must agree."""
    b = sum(math.floor(w) for w in weights)
    gammas = [ExtRational(w.numerator % w.denominator, w.denominator)
              for w in weights]
    lo = jn.decide(frozenset(), -b, gammas, ()).realizable
    assert oracle._decide_point(frozenset(), -b, gammas, ()) == lo, weights
    return lo


def _arc_text(left, low, high, right):
    """An arc's text; equal ends make a point, so both brackets close
    and no drawn arc is a degenerate open one."""
    if low == high or R(low) == R(high) and not R(low).is_infinite:
        left, right = "[", "]"
    return "%s%s,%s%s" % (left, low, high, right)


def slope_sets(params):
    """Unions of one to four points and arcs, whose ends are often the
    fiber slope p/q or infinity.  Every text parses, so the strategy
    needs no filter and shrinks cheaply."""
    end = st.one_of(st.just(str(params.fiber_slope)), st.just("inf"),
                    st.just("-inf"), st.builds("{}/{}".format,
                                               st.integers(-90, 90),
                                               st.integers(1, 30)))
    arc = st.one_of(
        st.builds("{%s}".__mod__, end),
        st.builds(_arc_text, st.sampled_from("[("), end, end,
                  st.sampled_from("])")))
    return st.lists(arc, min_size=1, max_size=4).map(" U ".join).map(
        parse_slope_set)


CABLE_SETS = CABLES.flatmap(
    lambda params: st.tuples(st.just(params), slope_sets(params)))
CABLE_SET_PAIRS = CABLES.flatmap(
    lambda params: st.tuples(st.just(params), slope_sets(params),
                             slope_sets(params)))


class TestParams:
    def test_bezout_examples(self):
        p = bezout(2, 3)
        assert (p.r, p.s) == (1, -1)
        assert p.gamma == R("2/3")
        p = bezout(5, 2)
        assert (p.r, p.s) == (3, -1)
        p = bezout(1, 2)
        assert (p.r, p.s) == (1, -1)

    def test_bezout_normalization_range(self):
        # the normalization of the derived Bezout pair (r, s)
        for q in range(2, 31):
            for p in range(1, 61):
                if math.gcd(p, q) != 1:
                    continue
                params = CableParams(p, q)
                r, s = params.r, params.s
                assert p * s + q * r == 1
                assert -q < s < 0 < r <= p
                assert r != p or p == 1
                assert params.gamma == ExtRational(q + s, q)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            bezout(2, 4)
        for p, q in ((2, 4), (0, 3), (3, 1)):
            with pytest.raises(ValueError) as err:
                CableParams(p, q)
            assert str(err.value) == "need coprime p >= 1, q >= 2"

    def test_derived_slopes_built_once(self):
        params = bezout(5, 3)
        assert params.gamma is params.gamma
        assert params.fiber_slope is params.fiber_slope
        assert (params.gamma, params.fiber_slope) == (R("2/3"), R("5/3"))
        assert inner_basis_map(params) is inner_basis_map(params)
        assert outer_basis_map(params) is outer_basis_map(params)
        assert inner_basis_map(params) == IntMobius(-1, 2, -3, 5)
        assert outer_basis_map(params) == IntMobius(15, 16, 1, 1)

    def test_derived_slopes_leave_fields_alone(self):
        # ==, hash and repr see p, q, r and s alone, and only p and q
        # are given
        params = bezout(5, 3)
        assert params == bezout(5, 3) and hash(params) == hash(bezout(5, 3))
        assert repr(params) == "CableParams(p=5, q=3, r=2, s=-1)"
        with pytest.raises(TypeError):
            CableParams(5, 3, 2, -1)
        assert params != bezout(7, 3)
        with pytest.raises(AttributeError):
            params.gamma = R("1/3")


class TestBasisMaps:
    def test_inner_map_special_values(self):
        for params in (bezout(2, 3), bezout(5, 2), bezout(7, 4)):
            f = inner_basis_map(params)
            assert f.apply(params.fiber_slope) == INF
            assert f.apply(INF) == ExtRational(-params.s, params.q)
            assert f.apply(ExtRational(0)) == ExtRational(
                params.r, params.p)

    def test_outer_map_special_values(self):
        for params in (bezout(2, 3), bezout(5, 2)):
            g = outer_basis_map(params)
            assert g.apply(ExtRational(-1)) == INF
            assert g.apply(INF) == ExtRational(params.p * params.q)

    @settings(max_examples=200, deadline=None)
    @given(case=CABLE_SETS)
    def test_only_the_fiber_slope_maps_to_infinity(self, case):
        # cable_detected_set reads the fiber slope off the inner image:
        # p/q is the one slope the inner map sends to infinity, whether
        # it is a point of the set, a closed or open arc end, or inside
        # an arc or a wrapped arc
        params, s = case
        image = mobius_set_image(inner_basis_map(params), s)
        assert image.has_infinity == s.contains(params.fiber_slope)


class TestTorusKnots:
    def test_golden_values(self):
        for (p, q), end in (((2, 3), 1), ((3, 5), 7), ((2, 5), 3)):
            regular, strong = torus_knot_detected(p, q)
            assert str(regular) == "[-inf,%d]" % end
            assert str(strong) == "(-inf,%d)" % end

    def test_symmetric_in_p_q(self):
        a = torus_knot_detected(3, 4)
        b = torus_knot_detected(4, 3)
        assert str(a[0]) == str(b[0])

    def test_rejects_unknot(self):
        with pytest.raises(ValueError):
            torus_knot_detected(1, 2)

    def test_search_interval_matches_closed_form(self):
        # torus_knot_detected reads t at the b = 0 special slope r/p off
        # the search path; the closed form must give the same interval
        pairs = [(p, q) for p in range(2, 41) for q in range(2, 41)
                 if math.gcd(p, q) == 1]
        pairs += [(10**15 + 1, 2), (10**15 + 1, 3), (10**15 + 2, 5),
                  (10**15 - 1, 10**15), (3, 10**15 + 1)]
        for p, q in pairs:
            params = bezout(p, q)
            t = cable_interval(params, frozenset({1}),
                               ExtRational(params.r, p)).t
            closed = intervals.special_slope_interval(params, 0, strict=True)
            assert t == closed, (p, q)

    def test_known_answer_net(self):
        # T(p, q) has genus (p-1)(q-1)/2, so 2g - 1 = pq - p - q: the
        # regular set is [-inf, pq-p-q] plus inf, the strong set the
        # open ray below pq-p-q
        rng = random.Random(8)
        pairs = 0
        while pairs < 300:
            p, q = rng.randint(2, 400), rng.randint(2, 400)
            if math.gcd(p, q) != 1:
                continue
            pairs += 1
            end = ExtRational(p * q - p - q)
            regular, strong = torus_knot_detected(p, q)
            assert regular == SlopeSet.ray_below(end).with_infinity()
            assert strong == SlopeSet.ray_below(end, False)

    def test_dehn_filling_net(self):
        """Torus-knot fillings: LO, the tuple deciders and the strong set.

        For |m - pqn| >= 2, the m/n filling of T(p, q) is Seifert fibred
        over the sphere with three exceptional fibres of weights
        w = beta1/p, beta2/q and n/(m - pqn), where beta1 q + beta2 p = 1
        (Moser 1971).  Its group has c_i^alpha_i h^beta_i = 1, for
        w_i = beta_i/alpha_i, c_1 c_2 c_3 = 1 and h central.  A
        horizontal foliation acts on the circle with h a unit shift; its
        direction is free, and with h = sh(-1) each c_i has rotation
        number w_i.  Then f_i = c_i sh(-floor(w_i)) has rotation number
        gamma_i, the fractional part of w_i, and f_1 f_2 f_3 = sh(-b),
        for b the sum of the floors: the tuple (J = {}; -b; gamma; ()).
        Such a foliation exists exactly when the filling is LO (BRW
        2005, BGW 2013), which is membership in the strong set.  Every
        weight has its numerator coprime to its denominator >= 2, so
        every gamma lies in (0, 1).  Anchors: T(2, 3)(+1) has weights
        -1/2, 2/3, -1/5, so b = -2 and e = -1/30: the Poincare sphere,
        of finite fundamental group, is not realisable.  T(2, 3)(-1),
        with -1/7 and e = 1/42, is Sigma(2, 3, 7), which is LO.
        """
        slopes = 0
        for p, q in ((2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (3, 7), (4, 5),
                     (5, 7)):
            strong = torus_knot_detected(p, q)[1]
            beta2 = pow(p, -1, q)
            beta1 = (1 - beta2 * p) // q
            for n in range(1, 7):
                for m in range(-60 * n, 60 * n + 1):
                    if math.gcd(m, n) != 1 or abs(m - p * q * n) < 2:
                        continue
                    slopes += 1
                    lo = _seifert_lo((Fraction(beta1, p), Fraction(beta2, q),
                                      Fraction(n, m - p * q * n)))
                    assert strong.contains(ExtRational(m, n)) == lo, (
                        p, q, m, n)
                    if (p, q, n) == (2, 3, 1) and abs(m) == 1:
                        assert lo == (m == -1)
        assert slopes == 11424


class TestBrieskorn:
    def test_brieskorn_spheres(self):
        """Brieskorn spheres: the tuple deciders and Milnor's criterion.

        For pairwise coprime a1 < a2 < a3, Sigma(a1, a2, a3) is Seifert
        fibred over the sphere with weights beta_i/a_i adding up to
        e = +-1/(a1 a2 a3), one sign per orientation.  Take beta_i =
        +-(a_j a_k)^-1 mod a_i for i = 2, 3: then beta_2 a1 a3 and
        beta_3 a1 a2 are +-1 mod a2 and mod a3, so +-1 - beta_2 a1 a3 -
        beta_3 a1 a2 is a multiple of a2 a3, and beta_1 is that multiple:
        the residue +-(a2 a3)^-1 mod a1, shifted by a multiple of a1 so
        that the weights add up to e.
        Each weight has its numerator coprime to a_i >= 2, and the tuple
        (J = {}; -b; frac(w_i); ()) is built as in the torus-knot
        filling net.  The manifold has a horizontal foliation, and is
        LO, exactly when 1/a1 + 1/a2 + 1/a3 < 1 (Milnor 1975; BRW 2005):
        then it is a quotient of the universal cover of PSL2(R); else it
        is Sigma(2, 3, 5), the Poincare sphere, of finite fundamental
        group.
        """
        cases = 0
        for a1, a2, a3 in itertools.combinations(range(2, 20), 3):
            if math.gcd(a1, a2) * math.gcd(a1, a3) * math.gcd(a2, a3) > 1:
                continue
            for sign in (1, -1):
                beta2 = sign * pow(a1 * a3, -1, a2)
                beta3 = sign * pow(a1 * a2, -1, a3)
                beta1, rest = divmod(sign - beta2 * a1 * a3 - beta3 * a1 * a2,
                                     a2 * a3)
                assert not rest
                weights = (Fraction(beta1, a1), Fraction(beta2, a2),
                           Fraction(beta3, a3))
                assert sum(weights) == Fraction(sign, a1 * a2 * a3)
                lo = _seifert_lo(weights)
                hyperbolic = Fraction(1, a1) + Fraction(1, a2) + Fraction(
                    1, a3) < 1
                assert lo == hyperbolic, (a1, a2, a3, sign)
                if (a1, a2) == (2, 3) and a3 in (5, 7):
                    assert lo == (a3 == 7)
                cases += 1
        assert cases == 554


class TestGenusBound:
    def test_formula(self):
        assert cable_genus_bound(5, 2, 1) == ExtRational(7)
        assert cable_genus_bound(2, 3, 0) == ExtRational(1)
        assert cable_genus_bound(3, 5, 2) == ExtRational(27)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cable_genus_bound(2, 4, 1)
        with pytest.raises(ValueError):
            cable_genus_bound(2, 3, -1)

    def test_hedden_hom_net(self):
        # Hedden-Hom: the cable K_{p,q} of an L-space knot K of genus g
        # is an L-space knot exactly when p/q >= 2g - 1.  From the
        # trefoil's [-inf,1], each L-space step must detect
        # [-inf, 2g(K_{p,q}) - 1] plus inf, and any later step the
        # full circle.
        rng = random.Random(1)
        for _ in range(50):
            current, g, lspace = parse_slope_set("[-inf,1]"), 1, True
            for _ in range(rng.randint(1, 3)):
                q = rng.randint(2, 300)
                p = rng.randint(2, 3 * q)
                while math.gcd(p, q) != 1:
                    p = rng.randint(2, 3 * q)
                current, _ = cable_detected_set(bezout(p, q), current,
                                                DetectionMode.REGULAR)
                bound = cable_genus_bound(p, q, g)
                lspace = lspace and p >= (2 * g - 1) * q
                if lspace:
                    assert current == SlopeSet.ray_below(
                        bound).with_infinity()
                    g = (bound.num + 1) // 2
                else:
                    assert current.is_full


class TestStrictRayTables:
    def _union(self, params, direction, tau0, include, strict):
        side = "right" if direction == "geq" else "left"
        ray = _ray(params, side, tau0, include, strict)
        acc = SlopeSet.empty()
        for d in range(1, 9):
            for n in range(-4 * d, 4 * d + 1):
                tau = ExtRational(n, d)
                if direction == "geq":
                    if tau < tau0 or (not include and tau == tau0):
                        continue
                elif tau > tau0 or (not include and tau == tau0):
                    continue
                if strict:
                    acc = acc.union(cable_interval(params, frozenset({1}),
                                                   tau).t_strict)
                else:
                    acc = acc.union(cable_interval(params, frozenset(),
                                                   tau).t)
        return ray, acc

    def test_sampled_strict_union_inside_ray(self):
        params = bezout(2, 3)
        for tau0 in (ExtRational(0), R("1/4"), R("1/3"), R("1/2"),
                     ExtRational(-1), R("-3/4")):
            for direction in ("geq", "leq"):
                for include, strict in itertools.product((True, False),
                                                         repeat=2):
                    ray, acc = self._union(params, direction, tau0, include,
                                           strict)
                    assert acc.issubset(ray)

    def test_closed_end_attained_at_tau0(self):
        # a ray that includes tau0 and is closed at its end reaches that
        # end at tau0 itself: the end lies in t(tau0) (weak) or in
        # t_strict(tau0) (strict); 19,012 closed rays
        closed_rays = 0
        for p, q in itertools.product(range(1, 12), range(2, 9)):
            if math.gcd(p, q) != 1:
                continue
            params = bezout(p, q)
            for tau0 in {ExtRational(n, d) for d in range(1, 9)
                         for n in range(-4 * d, 4 * d + 1)}:
                at_tau0 = {
                    False: cable_interval(params, frozenset(), tau0).t,
                    True: cable_interval(params, frozenset({1}),
                                         tau0).t_strict,
                }
                for side, strict in itertools.product(("right", "left"),
                                                      (False, True)):
                    (low, low_closed, high, high_closed), = _ray(
                        params, side, tau0, True, strict).affine_pieces()
                    end, closed = ((high, high_closed) if side == "right"
                                   else (low, low_closed))
                    if closed:
                        closed_rays += 1
                        assert at_tau0[strict].contains(end), (
                            p, q, tau0, side, strict)
        assert closed_rays == 19012

    def test_ray_end_reached_at_or_beside_tau0(self):
        # the converse of the subset check: every ray ends where t (weak)
        # or t_strict (strict) ends on its side, at tau0 when tau0 is
        # included and else at tau0 +- 10**-6 on the ray's side, where
        # the end has reached its limit for den(tau0) <= 8; an excluded
        # integral tau0 ends at the core end, a sup that t only
        # approaches, so that end need only come within 10**-6;
        # 69,384 rays on the grid of test_closed_end_attained_at_tau0
        eps = Fraction(1, 10**6)
        rays = 0
        for p, q in itertools.product(range(1, 12), range(2, 9)):
            if math.gcd(p, q) != 1:
                continue
            params = bezout(p, q)

            def t_at(tau, strict):
                tau = ExtRational(tau.numerator, tau.denominator)
                if strict:
                    return cable_interval(params, frozenset({1}),
                                          tau).t_strict
                return cable_interval(params, frozenset(), tau).t

            for tau0 in {Fraction(n, d) for d in range(1, 9)
                         for n in range(-4 * d, 4 * d + 1)}:
                at_tau0 = {strict: t_at(tau0, strict)
                           for strict in (False, True)}
                for side, include, strict in itertools.product(
                        ("right", "left"), (True, False), (False, True)):
                    rays += 1
                    end, _ = _ray_end(params, side, ExtRational(
                        tau0.numerator, tau0.denominator), include, strict)
                    if include:
                        t = at_tau0[strict]
                    else:
                        t = t_at(tau0 + (eps if side == "right" else -eps),
                                 strict)
                    want = t.high if side == "right" else t.low
                    case = (p, q, tau0, side, include, strict)
                    if include or tau0.denominator > 1:
                        assert end == want, case
                    else:
                        assert abs(_frac(end) - _frac(want)) <= eps, case
        assert rays == 69384

    def test_closed_integral_endpoint_attained(self):
        # tau0 integral and included: the single point -tau0-gamma is
        # the extreme of the union and must lie in the ray
        params = bezout(2, 3)
        gamma = params.gamma
        endpoint = ExtRational(-gamma.den - gamma.num, gamma.den)
        for direction in ("geq", "leq"):
            ray, acc = self._union(params, direction, ExtRational(1), True,
                                   True)
            assert acc.contains(endpoint)
            assert ray.contains(endpoint)
            ray, acc = self._union(params, direction, ExtRational(1), False,
                                   True)
            assert not ray.contains(endpoint)


class TestRay:
    @settings(max_examples=300, deadline=None)
    @given(params=CABLES, at=TAUS)
    @example(params=bezout(2, 3), at=R("1/3"))  # tb = 1 - gamma
    @example(params=bezout(2, 3), at=R("1/4"))
    @example(params=bezout(5, 2), at=ExtRational(-2))
    def test_matches_interval_end(self, params, at):
        # every ray ends where t(at) does (weak, inclusive) or where the
        # J = {1} interval t does; at an integral tau it is closed when
        # included, elsewhere when weak or at an included tb = 1 - gamma
        tb = _frac(at) % 1
        for side, include, strict in itertools.product(
                ("right", "left"), (True, False), (True, False)):
            J = frozenset() if include and not strict else frozenset({1})
            t = cable_interval(params, J, at).t
            if tb == 0:
                closed = include
            else:
                closed = not strict or (
                    include and tb == 1 - _frac(params.gamma))
            if side == "right":
                want = SlopeSet.ray_below(t.high, closed)
            else:
                want = SlopeSet.ray_above(t.low, closed)
            assert _ray(params, side, at, include, strict) == want

    def test_weak_exclusive_reads_strict_slot(self):
        # tau > 1/4 on the (2,3) cable reaches only -6/7, short of the
        # end -3/4 of t(1/4) itself
        ray = _ray(bezout(2, 3), "right", R("1/4"), False, False)
        assert str(ray) == "(-inf,-6/7]"
        assert str(cable_interval(bezout(2, 3), frozenset(),
                                  R("1/4")).t) == "[-1,-3/4]"

    def test_ray_union_rejects_infinite_tau(self):
        # the text of seifert.normalize and the interval path; a bad
        # direction is reported first
        params = bezout(2, 3)
        for direction in ("geq", "leq"):
            with pytest.raises(ValueError) as info:
                ray_union(params, direction, INF)
            assert str(info.value) == "fractional part of infinity"
        with pytest.raises(ValueError) as info:
            ray_union(params, "up", INF)
        assert str(info.value) == "direction must be 'geq' or 'leq'"


class TestRaySearches:
    def test_one_search_per_open_window(self, monkeypatch):
        # a ray reads only its own side's window of t(at): one extremal
        # search when that window opens (at non-integral, tb + gamma < 1
        # on the right, > 1 on the left), none otherwise
        calls = []
        search = intervals.extremal_slot_value

        def counted(fixed):
            calls.append(fixed)
            return search(fixed)

        monkeypatch.setattr(intervals, "extremal_slot_value", counted)
        seen = set()
        for p, q in ((2, 3), (5, 2), (3, 4), (7, 5)):
            params = bezout(p, q)
            gamma = params.gamma
            for at in {ExtRational(n, d) for d in range(1, 7)
                       for n in range(-2 * d, 2 * d + 1)}:
                # the sign of tb + gamma - 1, None at an integral tau
                v = _frac(at) % 1 + _frac(gamma)
                gate = None if at.den == 1 else (v > 1) - (v < 1)
                seen.add(gate)
                for side, include, strict in itertools.product(
                        ("right", "left"), (True, False), (True, False)):
                    calls.clear()
                    _ray(params, side, at, include, strict)
                    opens = gate == (-1 if side == "right" else 1)
                    assert len(calls) == opens, (p, q, at, side)
        # integral taus and both gate directions, and tb = 1 - gamma
        assert seen == {None, -1, 0, 1}


class TestLoopReference:
    @settings(max_examples=200, deadline=None)
    @given(case=CABLE_SETS)
    @example(case=(bezout(2, 3),
                   parse_slope_set("{2/3} U [1/3,2/3) U (3/2,inf]")))
    @example(case=(bezout(2, 3), SlopeSet.reals()))
    @example(case=(bezout(2, 3), SlopeSet.empty()))
    @example(case=(bezout(5, 2), SlopeSet.full()))
    # p/q = 2/3 inside the arc: its inner image wraps and holds the fiber
    @example(case=(bezout(2, 3), parse_slope_set("[0,1)")))
    # tau = 0: in strong mode both ray ends are -2/3, closed, a point
    @example(case=(bezout(2, 3), SlopeSet.point(ExtRational(1))))
    def test_matches_reference_pipeline(self, case):
        # the same set, printed the same, and the same tag as the
        # pipeline before its lean rewrite, in every mode
        params, s = case
        for mode in DetectionMode:
            want, want_tag = loop_reference.cable_detected_set(
                params, s, mode)
            got, tag = cable_detected_set(params, s, mode)
            assert (str(got), tag) == (str(want), want_tag)
            assert got == want
        assert (mobius_set_image(inner_basis_map(params), s)
                == loop_reference.mobius_set_image(
                    loop_reference.inner_basis_map(params), s))


class TestPipelineLaws:
    """The output is a union over the points of the inner image, and the
    basis maps are bijections, so the map f = cable_detected_set is a
    union homomorphism in every mode, hence monotone, and reaches f({x})
    for each x in its input; strong mode detects a subset of weak mode,
    and regular mode computes weak mode's set.
    """

    # a fault fails many laws at once: shrink the first one only, and
    # skip the explain phase, which reruns each step at length
    @settings(max_examples=60, deadline=None, report_multiple_bugs=False,
              phases=set(Phase) - {Phase.explain})
    @given(case=CABLE_SET_PAIRS)
    @example(case=(bezout(2, 3), parse_slope_set("[0,1/2]"),
                   parse_slope_set("(1/2,1)")))
    def test_union_monotone_points_and_modes(self, case):
        params, a, b = case

        def f(s, mode):
            return cable_detected_set(params, s, mode)[0]

        both = a.intersect(b)
        for mode in DetectionMode:
            fa, fb = f(a, mode), f(b, mode)
            assert f(a.union(b), mode) == fa.union(fb)
            assert f(both, mode).issubset(fa)
            assert f(both, mode).issubset(fb)
            for low, low_closed, high, high_closed in a.affine_pieces():
                for x, closed in ((low, low_closed), (high, high_closed)):
                    if x is not None and closed:
                        assert f(SlopeSet.point(x), mode).issubset(fa)
        weak = f(a, DetectionMode.WEAK)
        assert f(a, DetectionMode.REGULAR) == weak
        assert f(a, DetectionMode.STRONG).issubset(weak)


def _sample_taus(inner):
    """Each closed finite end of a piece of ``inner``, and each point of
    denominator <= 4 inside a piece, unbounded pieces cut at -6 and 6."""
    taus = set()
    for low, low_closed, high, high_closed in inner.affine_pieces():
        for end, closed in ((low, low_closed), (high, high_closed)):
            if end is not None and closed:
                taus.add(end)
        lo = ExtRational(-6) if low is None else low
        hi = ExtRational(6) if high is None else high
        for den in range(1, 5):
            for num in range(-(-lo.num * den // lo.den),
                             hi.num * den // hi.den + 1):
                x = ExtRational(num, den)
                if inner.contains(x):
                    taus.add(x)
    return sorted(taus)


class TestOraclePointsInOutput:
    """Every oracle point lies in the cabling output.  The grid scan
    tests tau' with the decision procedure alone, never the interval
    path, so for each sampled tau of the inner image the outer image of
    its closed hull at J = {} must lie in the weak output, which regular
    mode computes too, and the outer image of each point realised at
    J = {1, 2}, both slots strict, in the strong output.  The converse
    (each end of the output attained) is not checked here."""

    CABLES = ((5, 2), (3, 2), (7, 3), (2, 3), (11, 4), (4, 5))
    INPUTS = ("[-inf,1]", "[-inf,-1]", "{0}", "[0,1] U {inf}", "(-1,2)",
              "[-inf,3] U {inf}", "{1/2} U [2,5)", "[-inf,inf]")

    def test_scan_hull_inside_output(self):
        checks = 0
        for (p, q), text in itertools.product(self.CABLES, self.INPUTS):
            params, s = bezout(p, q), parse_slope_set(text)
            inner = mobius_set_image(inner_basis_map(params), s)
            outs = [cable_detected_set(params, s, mode)[0]
                    for mode in (DetectionMode.WEAK, DetectionMode.REGULAR)]
            for tau in _sample_taus(inner):
                r = oracle.grid_scan_interval(params, frozenset(), tau, 12)
                hull = (SlopeSet.empty() if r.hull_low is None
                        else SlopeSet.interval(r.hull_low, r.hull_high))
                image = mobius_set_image(outer_basis_map(params), hull)
                for out in outs:
                    assert image.issubset(out), (p, q, text, tau, hull, out)
                    checks += 1
        assert checks > 3000

    def test_strict_points_inside_strong_output(self):
        # against the empty set every realised point is a mismatch, so
        # the report lists them all
        points = 0
        for (p, q), text in itertools.product(self.CABLES, self.INPUTS):
            params, s = bezout(p, q), parse_slope_set(text)
            inner = mobius_set_image(inner_basis_map(params), s)
            out, _ = cable_detected_set(params, s, DetectionMode.STRONG)
            outer = outer_basis_map(params)
            for tau in _sample_taus(inner):
                r = oracle.grid_scan_interval(params, {1, 2}, tau, 12,
                                              SlopeSet.empty())
                for x, got, _ in r.mismatches:
                    assert got and out.contains(outer.apply(x)), (
                        p, q, text, tau, x)
                points += len(r.mismatches)
        assert points > 10000


class TestPipeline:
    def test_mode_must_be_a_detection_mode(self):
        with pytest.raises(ValueError, match="DetectionMode"):
            cable_detected_set(bezout(5, 2), SlopeSet.full(), "regular")

    def test_regular_golden(self):
        out, tag = cable_detected_set(bezout(5, 2),
                                      parse_slope_set("[-inf,1]"),
                                      DetectionMode.REGULAR)
        assert str(out) == "[-inf,7]"
        assert tag == "equals"

    def test_full_input_gives_full_output(self):
        # so regular mode never meets a full input whose output is a
        # proper subset: every coprime (p, q) up to 29, 510 pairs
        for p, q in itertools.product(range(1, 30), range(2, 30)):
            if math.gcd(p, q) == 1:
                out, tag = cable_detected_set(bezout(p, q), SlopeSet.full(),
                                              DetectionMode.REGULAR)
                assert out.is_full
                assert tag == "equals"

    def test_weak_is_exact_tag(self):
        out, tag = cable_detected_set(bezout(2, 3),
                                      parse_slope_set("[-inf,1]"),
                                      DetectionMode.WEAK)
        assert tag == "equals"

    def test_strong_is_contained_in_weak(self):
        for text in ("[-inf,1]", "[0,1]", "{2/3}", "[-inf,inf]"):
            input_set = parse_slope_set(text)
            weak, _ = cable_detected_set(bezout(5, 2), input_set,
                                         DetectionMode.WEAK)
            strong, tag = cable_detected_set(bezout(5, 2), input_set,
                                             DetectionMode.STRONG)
            assert tag == "contains"
            assert strong.issubset(weak)

    def test_point_input_matches_interval(self):
        # a single non-fiber slope maps to one tau; the weak output must
        # be the outer image of that slope's interval
        params = bezout(2, 3)
        for slope in (ExtRational(0), ExtRational(1), R("1/2"), INF):
            input_set = SlopeSet.point(slope)
            out, _ = cable_detected_set(params, input_set,
                                        DetectionMode.WEAK)
            tau = inner_basis_map(params).apply(slope)
            res = cable_interval(params, frozenset(), tau)
            expected = mobius_set_image(outer_basis_map(params), res.t)
            assert out == expected

    def test_fiber_slope_passes_infinity(self):
        params = bezout(2, 3)
        out, _ = cable_detected_set(params,
                                    SlopeSet.point(params.fiber_slope),
                                    DetectionMode.WEAK)
        # f(p/q) = inf contributes only the infinity point downstairs,
        # whose outer image is pq
        assert out == SlopeSet.point(ExtRational(6))

    def test_strong_point_at_integral_tau(self):
        # slope 1 on the (2,3) cable maps to tau = 0 downstairs, where
        # the strict family is the single point -gamma = -2/3; its
        # outer image is the slope 9
        params = bezout(2, 3)
        out, tag = cable_detected_set(params, SlopeSet.point(ExtRational(1)),
                                      DetectionMode.STRONG)
        assert tag == "contains"
        assert out == SlopeSet.point(ExtRational(9))

    def test_weak_matches_sampled_union(self):
        # the pipeline on an interval equals the union over a dense
        # sample of member slopes (soundness of the ray-union algebra)
        params = bezout(2, 3)
        input_set = parse_slope_set("[1/4,2]")
        out, _ = cable_detected_set(params, input_set, DetectionMode.WEAK)
        acc = SlopeSet.empty()
        for d in range(1, 9):
            for n in range(d // 4, 2 * d + 1):
                x = ExtRational(n, d)
                if not input_set.contains(x):
                    continue
                single, _ = cable_detected_set(
                    params, SlopeSet.point(x), DetectionMode.WEAK)
                acc = acc.union(single)
        assert acc.issubset(out)
