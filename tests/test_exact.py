import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cableslopes import exact
from cableslopes.cable import CableParams
from cableslopes.exact import (INF, ExtRational, IntMobius, SlopeSet,
                               mobius_set_image, parse_slope_set)

R = ExtRational.parse


class TestExtRational:
    def test_reduction(self):
        assert ExtRational(2, 4) == ExtRational(1, 2)
        assert ExtRational(-2, -4) == ExtRational(1, 2)
        assert ExtRational(2, -4) == ExtRational(-1, 2)
        assert ExtRational(0, 7) == ExtRational(0)

    def test_infinity_is_unique(self):
        assert ExtRational(5, 0) == INF
        assert ExtRational(-3, 0) == INF
        assert INF.is_infinite

    def test_is_a_value(self):
        # no arithmetic, on either side of an ExtRational or an int;
        # equality, hashing and order with ints hold as before
        half = R("1/2")
        for a, b in ((half, half), (half, 2), (2, half), (half, INF),
                     (INF, 1)):
            for op in (operator.add, operator.sub, operator.mul,
                       operator.truediv):
                with pytest.raises(TypeError):
                    op(a, b)
        for x in (half, ExtRational(2), INF):
            with pytest.raises(TypeError):
                -x
        assert ExtRational(4, 2) == 2 and hash(ExtRational(4, 2)) == hash(2)
        assert 0 < half < 1 and ExtRational(2) >= 2 and half != 0

    def test_comparisons(self):
        assert R("1/3") < R("1/2") < R("2/3") <= R("2/3")
        with pytest.raises(TypeError):
            INF < ExtRational(1)

    def test_compare_with_int_and_foreign_types(self):
        assert ExtRational(2) == 2 and 2 == ExtRational(2)
        assert ExtRational(1) == True  # noqa: E712  (bool goes through int)
        assert ExtRational(1, 2) != 0 and INF != 1
        assert R("1/2") < 1 and not R("3/2") <= 1 and 2 > R("3/2")
        assert ExtRational(-3) >= -3
        assert ExtRational(1).__lt__(1.5) is NotImplemented
        assert ExtRational(1).__eq__("1") is NotImplemented
        with pytest.raises(TypeError):
            INF < 1
        with pytest.raises(TypeError):
            ExtRational(1) >= INF
        with pytest.raises(TypeError):
            ExtRational(1) < 1.5

    def test_hash_agrees_with_eq(self):
        assert hash(ExtRational(2)) == hash(2)
        assert 2 in {ExtRational(2)}
        assert ExtRational(-6, 2) in {-3}
        assert {ExtRational(4, 2): "two"}[2] == "two"
        assert hash(ExtRational(2, 4)) == hash(ExtRational(1, 2))

    def test_parse_and_str(self):
        assert str(R("-3/2")) == "-3/2"
        assert str(ExtRational(5)) == "5"
        assert str(INF) == "inf"
        assert R("inf") == INF
        with pytest.raises(ValueError):
            R("1.5")

    def test_parse_grammar(self):
        # each part is [+-]?[0-9]+ after stripping: signs and spaces as
        # before, no "_" and no non-ASCII digits
        assert R(" +3 / -6 ") == R("-1/2")
        assert R("-0") == ExtRational(0) and R("007") == ExtRational(7)
        assert R(" -inf ") == R("+inf") == INF and R("3/0") == INF
        for text in ("1_0", "1/1_0", "\u0663/4", "3/\u0664", "\uff13",
                     "", "/", "1/", "/2", "1/2/3", "+-1", "1 2", "0x10",
                     "1e3", "inf/2", "2/inf", "--1"):
            with pytest.raises(ValueError,
                               match="^cannot parse rational: "):
                R(text)
        with pytest.raises(ZeroDivisionError):
            R("0/0")


# ends a float compare cannot tell apart: 1 + 10**-20 < 1 + 1/(10**20 - 1)
NEAR_LOW = ExtRational(10**20 + 1, 10**20)
NEAR_HIGH = ExtRational(10**20, 10**20 - 1)
# an end of an affine piece: None where it is unbounded
arc_ends = st.one_of(st.none(), st.builds(ExtRational, st.integers(-40, 40),
                                          st.integers(1, 10)))


class TestArc:
    """The arcs of a SlopeSet, as built, parsed and printed."""

    @pytest.mark.parametrize("low, low_closed, high, high_closed, text", [
        # crossing ends
        (R("2"), True, R("1"), True, "{}"),
        (R("1/3"), True, R("-1/2"), True, "{}"),
        (NEAR_HIGH, True, NEAR_LOW, True, "{}"),
        # equal ends, closed on both sides or neither
        (R("3/2"), True, R("3/2"), True, "{3/2}"),
        (R("3/2"), True, R("3/2"), False, "{}"),
        (R("3/2"), False, R("3/2"), True, "{}"),
        (R("3/2"), False, R("3/2"), False, "{}"),
        (R("-1/2"), False, R("1/3"), True, "(-1/2,1/3]"),
        (NEAR_LOW, False, NEAR_HIGH, False, "(%s,%s)" % (NEAR_LOW,
                                                         NEAR_HIGH)),
        # None ends
        (None, False, R("7"), True, "(-inf,7]"),
        (R("-7"), True, None, False, "[-7,inf)"),
        (None, False, None, False, "(-inf,inf)"),
    ])
    def test_arc_table(self, low, low_closed, high, high_closed, text):
        arc = SlopeSet._arc(low, low_closed, high, high_closed)
        assert str(arc) == text and not arc.has_infinity
        _assert_canonical(arc)
        if arc:  # the inverse of affine_pieces
            assert arc.affine_pieces() == [(low, low_closed, high,
                                            high_closed)]

    @settings(max_examples=300, deadline=None)
    @example(R("3/2"), True, R("3/2"), True)
    @given(arc_ends, st.booleans(), arc_ends, st.booleans())
    def test_membership_matches_fraction_model(self, low, low_closed, high,
                                               high_closed):
        arc = SlopeSet._arc(low, low_closed, high, high_closed)
        lo, hi = (None if x is None else Fraction(x.num, x.den)
                  for x in (low, high))
        grid = {Fraction(n, 6) for n in range(-246, 247)}
        for end in (lo, hi):
            if end is not None:
                grid |= {end - Fraction(1, 100), end, end + Fraction(1, 100)}
        for x in grid:
            inside = ((lo is None or lo < x or lo == x and low_closed)
                      and (hi is None or x < hi or x == hi and high_closed))
            assert arc.contains(ExtRational(x.numerator,
                                            x.denominator)) == inside, x
        assert not arc.has_infinity
        _assert_canonical(arc)

    def test_contains_plain(self):
        arc = parse_slope_set("[1/2,3)")
        assert arc.contains(R("1/2"))
        assert arc.contains(ExtRational(2))
        assert not arc.contains(ExtRational(3))
        assert not arc.contains(INF)

    def test_contains_unbounded(self):
        arc = parse_slope_set("[-inf,7]")
        assert arc.contains(INF)
        assert arc.contains(ExtRational(-1000))
        assert arc.contains(ExtRational(7))
        assert not arc.contains(ExtRational(8))

    def test_wrapping(self):
        arc = parse_slope_set("[2,-1]")
        assert arc.has_infinity
        assert arc.contains(ExtRational(5))
        assert arc.contains(INF)
        assert arc.contains(ExtRational(-3))
        assert not arc.contains(ExtRational(0))

    def test_str_round_trip(self):
        for text in ("[1/2,3)", "(-inf,7]", "[-3/2,-1]", "(0,1)"):
            assert str(parse_slope_set(text)) == text
        assert parse_slope_set("[2,-1]") == SlopeSet.ray_above(2).union(
            SlopeSet.ray_below(-1)).with_infinity()
        # the line holds infinity only when a bracket closes there
        assert not parse_slope_set("(-inf,inf)").has_infinity
        assert parse_slope_set("[-inf,inf)") == SlopeSet.full()
        for text in ("(1,1)", "[1,1)"):
            with pytest.raises(ValueError, match="^degenerate open arc$"):
                parse_slope_set(text)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.sampled_from(("inf", "+inf", "-inf", " 2 / -4 ", "+3", "0/0")),
        st.text("0123456789/+-inf _", min_size=1, max_size=8)))
    def test_point_and_degenerate_arc_agree(self, x):
        # both read x with ExtRational.parse, and the arc keeps the sign
        # text of an infinite end: [inf,inf] and [-inf,-inf] are {inf}
        def parse(text):
            try:
                return parse_slope_set(text)
            except (ValueError, ZeroDivisionError):
                return None

        point, arc = parse("{%s}" % x), parse("[%s,%s]" % (x, x))
        assert (point is None) == (arc is None)
        if point is not None:
            assert arc == point

    def test_infinite_ends_read_by_sign(self):
        # same sign: the degenerate arc at infinity, closed or an error
        for text in ("[inf,inf]", "[+inf,inf]", "[-inf,-inf]",
                     "[ +inf, +inf ]"):
            assert parse_slope_set(text) == SlopeSet.empty().with_infinity()
        for text in ("(inf,inf)", "[inf,inf)", "(-inf,-inf]", "(+inf,inf)"):
            with pytest.raises(ValueError, match="^degenerate open arc$"):
                parse_slope_set(text)
        # different signs: the line, holding infinity at a closed bracket
        for text in ("[-inf,inf]", "[inf,-inf]", "[-inf,+inf]", "(inf,-inf]"):
            assert parse_slope_set(text) == SlopeSet.full()
        for text in ("(-inf,inf)", "(inf,-inf)"):
            assert parse_slope_set(text) == SlopeSet.reals()


def _sample_points(lo=-8, hi=8, den=5):
    pts = [INF]
    for d in range(1, den + 1):
        for n in range(lo * d, hi * d + 1):
            pts.append(ExtRational(n, d))
    return pts


SAMPLE_POINTS = _sample_points()


rationals = st.builds(ExtRational,
                      st.integers(-40, 40), st.integers(1, 10))
ext_rationals = st.one_of(rationals, st.just(INF))


@st.composite
def slope_sets(draw):
    out = SlopeSet.empty()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 3))
        a = draw(rationals)
        if kind == 0:
            out = out.union(SlopeSet.point(a))
        elif kind == 1:
            b = draw(rationals)
            lo, hi = min(a, b), max(a, b)
            out = out.union(SlopeSet.interval(
                lo, hi, draw(st.booleans()), draw(st.booleans())))
        elif kind == 2:
            out = out.union(SlopeSet.ray_below(a, draw(st.booleans())))
        else:
            out = out.union(SlopeSet.ray_above(a, draw(st.booleans())))
    if draw(st.booleans()):
        out = out.with_infinity()
    return out


mobius_maps = st.tuples(
    st.integers(-5, 5), st.integers(-5, 5),
    st.integers(-5, 5), st.integers(-5, 5),
).filter(lambda t: t[0] * t[3] - t[1] * t[2] != 0).map(lambda t: IntMobius(*t))


class TestSlopeSetAlgebra:
    def test_basics(self):
        s = SlopeSet.interval(R("0"), R("1"), True, False)
        assert s.contains(R("0"))
        assert s.contains(R("1/2"))
        assert not s.contains(R("1"))
        assert not s.contains(INF)

    @pytest.mark.parametrize("build", [
        lambda: SlopeSet.ray_below(INF),
        lambda: SlopeSet.ray_above(INF, False),
        lambda: SlopeSet.interval(INF, R("1")),
        lambda: SlopeSet.interval(R("-1"), INF, False, False),
    ], ids=["ray_below", "ray_above", "interval low", "interval high"])
    def test_infinite_end_rejected(self, build):
        # an interval or ray ends at a rational; infinity is a point of
        # its own, SlopeSet.point(INF)
        with pytest.raises(ValueError,
                           match="^interval and ray ends must be finite$"):
            build()

    @pytest.mark.parametrize("text, low, high", [
        ("{}", None, None),
        ("{inf}", None, None),
        ("[-3/2,-1]", R("-3/2"), ExtRational(-1)),
        ("{-2}", ExtRational(-2), ExtRational(-2)),
        ("(0,1) ∪ [2,3] ∪ {inf}", ExtRational(0), ExtRational(3)),
        ("[-inf,7)", None, ExtRational(7)),
        ("[-inf,-1] ∪ (2,3]", None, ExtRational(3)),
        ("[2,-1]", None, None),
        ("[-inf,inf]", None, None),
    ])
    def test_low_and_high(self, text, low, high):
        # the least and greatest affine ends, None where there is none
        s = parse_slope_set(text)
        assert (s.low, s.high) == (low, high)

    def test_full_and_empty(self):
        assert SlopeSet.full().is_full
        assert SlopeSet.empty().is_empty
        assert SlopeSet.full().complement().is_empty
        assert SlopeSet.reals().with_infinity().is_full

    def test_parse_skips_empty_chunks(self):
        assert parse_slope_set("[0,1] U U {2}") == parse_slope_set(
            "[0,1] U {2}")

    def test_parse_round_trip(self):
        for text in ("[-inf,7]", "(-inf,7)", "[-3/2,-1] ∪ {2}",
                     "{inf}", "[-inf,inf]", "(0,1) ∪ [2,3]"):
            s = parse_slope_set(text)
            assert parse_slope_set(str(s)) == s

    @pytest.mark.parametrize("s, parts", [
        (SlopeSet.empty(), []),
        (SlopeSet.point(INF), ["{inf}"]),
        (SlopeSet.point(R("1/2")), ["{1/2}"]),
        (SlopeSet.point(ExtRational(2)).with_infinity(), ["{2}", "{inf}"]),
        (SlopeSet.full(), ["[-inf,inf]"]),
        (SlopeSet.reals(), ["(-inf,inf)"]),
        (SlopeSet.ray_below(ExtRational(1), False), ["(-inf,1)"]),
        (SlopeSet.ray_below(ExtRational(1), False).with_infinity(),
         ["[-inf,1)"]),
        (SlopeSet.ray_above(ExtRational(3)).with_infinity().union(
            SlopeSet.interval(ExtRational(0), ExtRational(1), False, True)),
         ["[3,inf]", "(0,1]"]),
        (SlopeSet.ray_above(ExtRational(5)).union(
            SlopeSet.ray_below(ExtRational(1))).union(
            SlopeSet.point(R("3/2"))).union(SlopeSet.point(INF)).union(
            SlopeSet.interval(ExtRational(2), ExtRational(3), True, False)),
         ["[5,inf]∪[-inf,1]", "{3/2}", "[2,3)"]),
        (SlopeSet.ray_above(ExtRational(5), False).union(
            SlopeSet.ray_below(ExtRational(-1), False)),
         ["(-inf,-1)", "(5,inf)"]),
    ])
    def test_printed_layout(self, s, parts):
        assert s.parts() == parts
        assert str(s) == (" ∪ ".join(parts) or "{}")

    @settings(max_examples=150, deadline=None)
    @given(slope_sets(), slope_sets())
    def test_de_morgan(self, a, b):
        assert a.union(b).complement() == a.complement().intersect(b.complement())
        assert a.intersect(b).complement() == a.complement().union(b.complement())

    @settings(max_examples=150, deadline=None)
    @given(slope_sets())
    def test_double_complement(self, a):
        assert a.complement().complement() == a

    @settings(max_examples=100, deadline=None)
    @given(slope_sets(), slope_sets())
    def test_membership_model(self, a, b):
        for x in SAMPLE_POINTS[::7]:
            assert a.union(b).contains(x) == (a.contains(x) or b.contains(x))
            assert a.intersect(b).contains(x) == (a.contains(x) and b.contains(x))
            assert a.complement().contains(x) == (not a.contains(x))

    @settings(max_examples=100, deadline=None)
    @given(slope_sets(), slope_sets())
    def test_difference_and_subset(self, a, b):
        assert a.difference(b) == a.intersect(b.complement())
        assert a.intersect(b).issubset(a)
        assert a.issubset(a.union(b))

    @settings(max_examples=100, deadline=None)
    @given(slope_sets())
    def test_str_round_trip(self, a):
        assert parse_slope_set(str(a)) == a


def _endpoints(s):
    """The finite endpoints of a set's pieces, and infinity."""
    out = [INF]
    for l, _, h, _ in s.affine_pieces():
        out.extend(v for v in (l, h) if v is not None)
    return out


def _assert_canonical(x):
    ivs = x._ivs
    assert all(lo < hi for lo, hi in ivs)
    # sorted, and each interval ends strictly before the next begins:
    # no overlap and no touching
    assert all(prev[1] < nxt[0] for prev, nxt in zip(ivs, ivs[1:]))
    assert SlopeSet(x._ivs, x._inf) == x
    assert parse_slope_set(str(x)) == x


class TestCanonicalForm:
    @settings(max_examples=150, deadline=None)
    @example(IntMobius(1, 0, 0, 1), SlopeSet.full(), SlopeSet.full(),
             ExtRational(0))
    @example(IntMobius(0, 1, 1, 0), SlopeSet.reals(), SlopeSet.point(INF),
             R("-7/3"))
    @given(mobius_maps, slope_sets(), slope_sets(), rationals)
    def test_every_result_is_canonical(self, m, a, b, v):
        results = {
            # the builders of one interval, which skip the merge
            "point": (SlopeSet.point(v), lambda x: x == v),
            "point inf": (SlopeSet.point(INF), lambda x: x.is_infinite),
            "ray_below": (SlopeSet.ray_below(v),
                          lambda x: not x.is_infinite and x <= v),
            "ray_below open": (SlopeSet.ray_below(v, False),
                               lambda x: not x.is_infinite and x < v),
            "ray_above": (SlopeSet.ray_above(v),
                          lambda x: not x.is_infinite and x >= v),
            "ray_above open": (SlopeSet.ray_above(v, False),
                               lambda x: not x.is_infinite and x > v),
            "union": (a.union(b), lambda x: a.contains(x) or b.contains(x)),
            "union folded": (b.union(a).union(b),
                             lambda x: a.contains(x) or b.contains(x)),
            "intersect": (a.intersect(b),
                          lambda x: a.contains(x) and b.contains(x)),
            "complement": (a.complement(), lambda x: not a.contains(x)),
            "difference": (a.difference(b),
                           lambda x: a.contains(x) and not b.contains(x)),
            "with_infinity": (a.with_infinity(),
                              lambda x: x.is_infinite or a.contains(x)),
        }
        points = SAMPLE_POINTS[::7] + _endpoints(a) + _endpoints(b) + [v]
        for name, (result, member) in results.items():
            _assert_canonical(result)
            for x in points:
                assert result.contains(x) == member(x), (name, x)
        image = mobius_set_image(m, a)
        _assert_canonical(image)
        for x in SAMPLE_POINTS[::13] + _endpoints(a):
            assert image.contains(m.apply(x)) == a.contains(x), x

    def test_identity_image_of_full_circle(self):
        full = mobius_set_image(IntMobius(1, 0, 0, 1), SlopeSet.full())
        assert full.is_full and str(full) == "[-inf,inf]"


def _inverse(m):
    return IntMobius(m.d, -m.b, -m.c, m.a)


class TestMobius:
    def test_degenerate_map_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            IntMobius(1, 2, 2, 4)

    def test_image_drops_empty_pieces(self):
        # a crossing piece and an equal-ended half-open one map to
        # nothing; the piece between them still maps
        pieces = [(R("2"), True, R("1"), True), (R("0"), True, R("1"), True),
                  (R("1"), True, R("1"), False)]
        got = exact._image(IntMobius(1, 1, 0, 1), pieces, False)
        assert got == SlopeSet.interval(1, 2)

    def test_apply_basics(self):
        m = IntMobius(0, 1, 1, 0)  # x -> 1/x
        assert m.apply(ExtRational(2)) == R("1/2")
        assert m.apply(ExtRational(0)) == INF
        assert m.apply(INF) == ExtRational(0)

    @settings(max_examples=150, deadline=None)
    @given(mobius_maps, ext_rationals)
    def test_round_trip_points(self, m, x):
        assert _inverse(m).apply(m.apply(x)) == x

    @settings(max_examples=80, deadline=None)
    @given(mobius_maps, slope_sets())
    def test_set_image_membership(self, m, s):
        image = mobius_set_image(m, s)
        for x in SAMPLE_POINTS[::13]:
            assert image.contains(m.apply(x)) == s.contains(x)

    @settings(max_examples=80, deadline=None)
    @given(mobius_maps, slope_sets())
    def test_set_image_round_trip(self, m, s):
        assert mobius_set_image(_inverse(m), mobius_set_image(m, s)) == s


@st.composite
def unimodular_maps(draw):
    """Maps of det +-1: the inner and outer maps of a cable with p up to
    10^30 and q up to 10^15, products of generators of SL2(Z) (S and
    T^k) or of GL2(Z) (also R: x -> -x), and a fifth with c = 0."""
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return IntMobius(draw(st.sampled_from((1, -1))),
                         draw(st.integers(-10**12, 10**12)), 0,
                         draw(st.sampled_from((1, -1))))
    if kind == 1:
        p, q = draw(st.integers(1, 10**30)), draw(st.integers(2, 10**15))
        assume(math.gcd(p, q) == 1)
        params = CableParams(p, q)
        return draw(st.sampled_from((params._inner, params._outer)))
    a, b, c, d = 1, 0, 0, 1
    for gen in draw(st.lists(st.integers(-10**6, 10**6), min_size=1,
                             max_size=8)):
        if gen == 0:  # S: x -> -1/x
            a, b, c, d = b, -a, d, -c
        elif gen == 1 and kind == 2:  # R, in GL2(Z) only
            a, c = -a, -c
        else:  # T^gen: x -> x + gen
            b, d = a * gen + b, c * gen + d
    return IntMobius(a, b, c, d)


def _assert_checked(value):
    # a trusted end is the one the checked constructor builds; == reads
    # num and den, so a sign or a common factor left over fails
    assert ExtRational(value.num, value.den) == value


def _assert_trusted_ends(s):
    for cut in (cut for iv in s._ivs for cut in iv if len(cut) == 3):
        assert cut[1].den > 0
        _assert_checked(cut[1])


class TestTrustedImageEnds:
    """``mobius_set_image`` and ``IntMobius.apply`` build the ends of a
    det +-1 map with the trusted ``ExtRational._reduced``, and those of
    any other map through the gcd; each end equals its checked
    rebuild."""

    @settings(max_examples=300, deadline=None)
    @example(IntMobius(0, -1, 1, 0), SlopeSet.full())
    @example(IntMobius(-1, 5, 0, 1), SlopeSet.reals())
    @given(st.one_of(unimodular_maps(), mobius_maps), slope_sets())
    def test_image_ends_equal_checked_rebuild(self, m, s):
        image = mobius_set_image(m, s)
        _assert_trusted_ends(image)
        for x in _endpoints(s) + [INF, ExtRational(0)]:
            y = m.apply(x)
            _assert_checked(y)
            assert image.contains(y) == s.contains(x)

    def test_non_unimodular_maps_keep_the_gcd(self):
        double = IntMobius(2, 0, 0, 1)
        image = mobius_set_image(double, parse_slope_set("[1/2,3/2]"))
        assert image == SlopeSet.interval(1, 3) and str(image) == "[1,3]"
        assert double.apply(R("1/2")) == 1
        assert double.apply(R("-3/4")) == R("-3/2")
        scalar = IntMobius(2, 0, 0, 2)
        assert scalar.apply(R("1/2")) == R("1/2")
        assert scalar.apply(INF) == INF
        for text in ("[1/2,3/2]", "(-inf,-1/3] U {2/3} U {inf}", "[3,-5)"):
            s = parse_slope_set(text)
            assert mobius_set_image(scalar, s) == s
            _assert_trusted_ends(mobius_set_image(scalar, s))
