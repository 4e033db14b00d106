import ast
import functools
import itertools
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cableslopes import cable, exact, intervals, oracle
from cableslopes.cable import bezout
from cableslopes.exact import (INF, ExtRational, IntMobius, SlopeSet,
                               mobius_set_image)
from cableslopes.intervals import cable_interval
from cableslopes.jn import decide, witness_search
from cableslopes.oracle import (ScanReport, _decide_point, _descend,
                                _least_above, _least_window_N,
                                _realisable_range, _spans,
                                _witness_exists, exhaustive_witness_check,
                                grid_scan_interval)
from loop_reference import (least_accepted, least_window_N, realisable,
                            witness_exists, witness_thresholds)

R = ExtRational.parse
C23 = bezout(2, 3)
C43_T = cable_interval(bezout(4, 3), frozenset(), R("5/12"))
COPRIME = [(p, q) for q in range(2, 6) for p in range(1, 8)
           if math.gcd(p, q) == 1]


@st.composite
def tuples(draw):
    """(J, b, gammas, taus): 0-2 gammas, 1-3 taus, denominators <= 15."""
    gammas = []
    for _ in range(draw(st.integers(0, 2))):
        d = draw(st.integers(2, 15))
        gammas.append(ExtRational(draw(st.integers(1, d - 1)), d))
    taus = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 15))
        taus.append(ExtRational(draw(st.integers(-3 * d, 3 * d)), d))
    J = draw(st.frozensets(st.integers(1, len(taus))))
    return J, draw(st.integers(-2, 4)), tuple(gammas), tuple(taus)


# ways to make a tuple malformed: a gamma outside (0,1), an infinite
# tau, or a J index that names no tau
BAD_GAMMAS = (ExtRational(0), ExtRational(1), R("3/2"), R("-1/2"),
              ExtRational(1, 0))


def _corrupt(draw, J, gammas, taus):
    kind = draw(st.sampled_from(("gamma", "tau", "J")))
    if kind == "gamma":
        gammas = gammas + (draw(st.sampled_from(BAD_GAMMAS)),)
    elif kind == "tau":
        taus = taus + (ExtRational(1, 0),)
    else:
        J = J | {draw(st.sampled_from((0, len(taus) + 1)))}
    return J, gammas, taus


class TestDecidePoint:
    @settings(max_examples=300, deadline=None)
    @given(tuples(), st.data())
    def test_agrees_with_solver(self, tup, data):
        J, b, gammas, taus = tup
        assert (_decide_point(J, b, gammas, taus)
                == decide(J, b, gammas, taus).realizable)
        J, gammas, taus = _corrupt(data.draw, J, gammas, taus)
        with pytest.raises(ValueError):
            decide(J, b, gammas, taus)
        with pytest.raises(ValueError):
            _decide_point(J, b, gammas, taus)


@st.composite
def slot_keys(draw):
    """(slots, zeros): 0-4 (num, den, strict) slots, denominators <= 15."""
    slots = []
    for _ in range(draw(st.integers(0, 4))):
        d = draw(st.integers(2, 15))
        slots.append((draw(st.integers(1, d - 1)), d, draw(st.booleans())))
    return tuple(slots), draw(st.integers(0, 2))


class TestRealisableRange:
    @settings(max_examples=500, deadline=None)
    @given(slot_keys())
    def test_matches_per_b_rule(self, key):
        # the scan and _decide_point both read this range, so only the
        # per-b rule of loop_reference checks the decision itself
        slots, zeros = key
        bs = range(-3, len(slots) + zeros + 4)
        assert list(_realisable_range(slots, zeros)) == [
            b for b in bs if realisable(b, slots, zeros)]


@st.composite
def scan_keys(draw):
    """(fixed, zeros, strict, max_denominator) of one scan's spans.

    One fixed slot and no zero slot is the arity-2 key of an integral
    tau in J.
    """
    fixed = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(2, 15))
        fixed.append((draw(st.integers(1, d - 1)), d, draw(st.booleans())))
    return (tuple(fixed), draw(st.integers(0, 1)), draw(st.booleans()),
            draw(st.integers(1, 30)))


# every tau' has a b = 1 witness: it pairs with one 1/15 slot
ALL_YES = (((1, 15, False),) * 3, 0, False, 15)
# no tau' has either witness: two strict 1/2 slots leave no room
ALL_NO = (((1, 2, True), (1, 2, True)), 0, False, 30)


def _span_list(fixed, zeros, strict, max_denominator):
    """Each den's span (s, e), den 1's first, then [L, H]'s member cuts
    placed on den 2 to max_denominator as the scan places them."""
    first, low, high, closed = _spans(fixed, zeros, strict)
    cuts = oracle._member_cuts(((low, closed, high, closed),), 0, None, None)
    return [first] + [tuple((n * den + off) // d for n, off, d in cuts)
                      for den in range(2, max_denominator + 1)]


# every reduced tau of denominator <= 4 in [-2, 2]
SMALL_TAUS = [ExtRational(n, d) for d in range(1, 5)
              for n in range(-2 * d, 2 * d + 1) if math.gcd(n, d) == 1]


class TestSpans:
    @settings(max_examples=200, deadline=None)
    @given(scan_keys(), st.integers(-3, 3))
    @example(ALL_YES, 0)
    @example(ALL_NO, 1)
    def test_coprime_members_are_realisable(self, key, b0):
        # the scan reads every grid point off its denominator's span at
        # b0 = 0 moved by b0 den, as grid_scan_interval moves it, so the
        # moved span's coprime members must be exactly the nums whose
        # own key's range holds b = b0 - fl
        fixed, zeros, strict, max_denominator = key
        spans = _span_list(*key)
        assert len(spans) == max_denominator
        spans = [(s + b0 * den, e + b0 * den)
                 for den, (s, e) in enumerate(spans, 1)]
        # every key's b lie in [1 - zeros, len(fixed) + zeros], so
        # these rows hold every realisable num, with room to spare
        rows = range(b0 - len(fixed) - zeros - 3, b0 + zeros + 4)
        for den, (s, e) in enumerate(spans, 1):
            want = set()
            for fn in range(den):
                if math.gcd(fn, den) != 1:
                    continue
                rng = (_realisable_range(fixed + ((fn, den, strict),), zeros)
                       if fn else
                       _realisable_range(fixed, zeros + (not strict)))
                want |= {fl * den + fn for fl in rows if b0 - fl in rng}
            assert {num for num in range(s, e)
                    if math.gcd(num, den) == 1} == want

    def test_expected_cuts_are_the_spans(self):
        # every cable key of p <= 7, 2 <= q <= 7 and a tau of SMALL_TAUS,
        # and every deep key, with t as the expected set, or t_strict
        # when tau' is strict: two fixed slots, strict or not, a zero
        # slot, one fixed slot (an integral tau in J), the point
        # t = {-1} of the (5, 2) cable at tau = 1/2, and ends of t of
        # denominator up to 10**15.  The expected set's cut triples are
        # [L, H]'s, so a correct scan at any D, 2,000 and 10,000
        # included, sweeps den 1 alone
        keys = [(bezout(p, q), tau)
                for p, q in itertools.product(range(1, 8), range(2, 8))
                if math.gcd(p, q) == 1 for tau in SMALL_TAUS]
        for (params, tau), J in itertools.product(keys + DEEP_KEYS, (
                frozenset(), {1}, {2}, {1, 2})):
            res = cable_interval(params, frozenset(J) - {2}, tau)
            b0, fixed, zeros = oracle._reduce(
                frozenset(J) - {2}, 0, (params.gamma,), (tau,))
            _, low, high, closed = _spans(fixed, zeros, 2 in J)
            assert oracle._member_cuts(
                (res.t_strict if 2 in J else res.t).affine_pieces(),
                b0, *oracle._scan_rows(fixed, zeros)) == oracle._member_cuts(
                ((low, closed, high, closed),), 0, None, None), (
                params, tau, J)


@st.composite
def threshold_keys(draw):
    """(fixed, strict, max_denominator): 2-3 slots, denominators <= 2,000.

    A numerator next to 0 or den gives a slot a large cap or a large
    complement cap, so the sup searches run to their bounds.
    """
    fixed = []
    for _ in range(draw(st.integers(2, 3))):
        d = draw(st.one_of(st.integers(2, 15), st.integers(2, 2000)))
        n = draw(st.one_of(st.integers(1, d - 1),
                           st.integers(1, min(3, d - 1)),
                           st.integers(max(d - 3, 1), d - 1)))
        fixed.append((n, d, draw(st.booleans())))
    return tuple(fixed), draw(st.booleans()), draw(st.integers(1, 40))


# every reduced slot with den <= 8, at either strictness
SMALL_SLOTS = [(n, d, st_) for d in range(2, 9) for n in range(1, d)
               if math.gcd(n, d) == 1 for st_ in (False, True)]


def _thresholds(fixed, strict, max_denominator):
    """(a, c) of each den >= 2, read back off the spans of two or more
    fixed slots: s = (1 - k) den + c and e = a + 1 - den.  The span of
    den = 1 is tau' = 0's, which no threshold gives.  A strict side
    with no witness ends open on a multiple of den, no grid point, and
    reads a = -1 or c = den + 1: the reference's 0 and den."""
    k = len(fixed) + 1
    spans = _span_list(fixed, 0, strict, max_denominator)
    return tuple((max(e - 1 + den, 0), min(s + (k - 1) * den, den))
                 for den, (s, e) in enumerate(spans, 1))[1:]


class TestWitnessThresholds:
    def test_matches_reference_on_small_pairs(self):
        # every pair of small slots, with tau' strict or not; at D = 12
        # the pair loop's last N, D itself, decides some key
        for fixed in itertools.combinations_with_replacement(SMALL_SLOTS, 2):
            for strict in (False, True):
                for max_denominator in (6, 12):
                    assert _thresholds(
                        fixed, strict, max_denominator) == witness_thresholds(
                        fixed, strict, max_denominator)[1:], (fixed, strict)

    @settings(max_examples=300, deadline=None)
    @given(threshold_keys())
    def test_matches_reference(self, key):
        assert _thresholds(*key) == witness_thresholds(*key)[1:]

    @settings(max_examples=100, deadline=None)
    @given(scan_keys().filter(lambda key: len(key[0]) >= 2))
    def test_makes_no_witness_loop(self, key):
        # both sides come from one sup each, whatever the denominator
        # bound: no per-denominator witness loop runs, and only the
        # range of tau' = 0 runs one per side (with three fixed slots
        # and tau' strict)
        fixed, _, strict, max_denominator = key
        calls = []
        with mock.patch.object(oracle, "_witness_exists", calls.append):
            spans = _span_list(fixed, 0, strict, max_denominator)
        assert len(spans) == max_denominator
        assert len(calls) == (2 if strict and len(fixed) == 3 else 0)

    def test_cable_scans_make_no_witness_loop(self):
        # a cable scan has two fixed slots, gamma and frac(tau), or one
        # for an integral tau: tau' = 0 falls to the zero-slot range or
        # to the slot sum, and the other residues to the thresholds
        calls = []
        oracle._relative_scan.cache_clear()
        with mock.patch.object(oracle, "_witness_exists", calls.append):
            for p, q in COPRIME:
                for J in (frozenset(), {1}, {2}, {1, 2}):
                    for k in range(-12, 13):
                        grid_scan_interval(bezout(p, q), J,
                                           ExtRational(k, 6), 12)
        assert calls == []

    def test_large_slot_denominators(self):
        # 1/10**15 paired with the free slot takes 1/(10**15 - 1), the
        # least value the other slot's cap lets it take, so the free slot
        # takes (10**15 - 2)/(10**15 - 1) and every fn < den has a
        # witness; the complements (10**15 - 1)/10**15 have cap 1 and none
        for strict in (False, True):
            fixed = ((1, 10**15, True), (1, 10**15, False))
            assert _thresholds(fixed, strict, 24) == tuple(
                (den - 1, den) for den in range(2, 25))

    def test_pinned_entries_are_extreme(self):
        fixed, _, strict, max_denominator = ALL_YES
        assert all(a == den - 1 for den, (a, _) in enumerate(
            _thresholds(fixed, strict, max_denominator), 2))
        fixed, _, strict, max_denominator = ALL_NO
        assert _thresholds(fixed, strict, max_denominator) == tuple(
            (0, den) for den in range(2, max_denominator + 1))

    def test_caches_are_bounded(self):
        for fn in (oracle._coprime_count, oracle._relative_scan):
            assert fn.cache_parameters()["maxsize"] is not None


@st.composite
def windows(draw):
    """Two (num, den, strict) slots: a random window [v_i, 1 - v_j], or
    one whose ends meet (one point, or empty unless both are closed),
    cross or lie a few 1/den apart, or sit on fractions of small N."""
    di = draw(st.integers(2, 600))
    ni = draw(st.integers(1, di - 1))
    kind = draw(st.sampled_from(("random", "meet", "near", "on")))
    if kind == "random":
        dj = draw(st.integers(2, 600))
        nj = draw(st.integers(1, dj - 1))
    elif kind == "meet":
        dj, nj = di, di - ni
    elif kind == "near":
        dj = di
        nj = min(max(di - ni + draw(st.integers(-3, 3)), 1), di - 1)
    else:
        # both ends on fractions of small N, scaled up by m
        N = draw(st.integers(2, 40))
        A = draw(st.integers(1, N - 1))
        B = draw(st.integers(1, N - 1))
        m = draw(st.integers(1, 15))
        ni, di, nj, dj = A * m, N * m, B * m, N * m
    return (ni, di, draw(st.booleans())), (nj, dj, draw(st.booleans()))


class TestLeastWindowN:
    @settings(max_examples=600, deadline=None)
    @given(windows(), st.integers(0, 500))
    @example(((1, 2, False), (1, 2, False)), 2)  # the one point 1/2
    @example(((1, 2, False), (1, 2, True)), 500)  # [1/2, 1/2): empty
    @example(((1, 3, False), (1, 3, False)), 500)  # [1/3, 2/3] at N = 2
    @example(((2, 5, True), (3, 5, False)), 500)  # (2/5, 2/5]: empty
    @example(((1, 2, False), (2, 3, False)), 500)  # crossing: [1/2, 1/3]
    @example(((1, 3, True), (1, 2, True)), 500)  # (1/3, 1/2): N = 5
    @example(((1, 3, True), (1, 2, True)), 4)  # ... beyond the bound
    @example(((1, 3, False), (1, 3, False)), 1)  # no N below 2
    @example(((1, 3, False), (1, 3, False)), 0)
    def test_matches_reference_loop(self, window, bound):
        slot_i, slot_j = window
        assert _least_window_N(slot_i, slot_j, bound) == least_window_N(
            slot_i, slot_j, bound)

    def test_narrow_windows(self):
        # three non-strict slots: the window of the first two is
        # [1/3 + 1/scale, 1/3 + 2/scale] and the third caps N at scale.
        # At scale 10**7 the loop over N took 1,666,666 steps to reach
        # the window's first fraction; at 10**12 it could not finish
        for scale in (10**7, 10**12):
            values = ((ExtRational(scale + 3, 3 * scale), False),
                      (ExtRational(2 * scale - 6, 3 * scale), False),
                      (ExtRational(1, scale), False))
            slots = [(v.num, v.den, strict) for v, strict in values]
            want = witness_search(values).N
            assert _least_window_N(slots[0], slots[1], scale) == want
            assert _least_window_N(slots[0], slots[1], want - 1) is None
            assert _witness_exists(slots)
            assert not exhaustive_witness_check(values, None)


@st.composite
def accept_keys(draw):
    """A (num, den, strict) slot, den <= 600, and a bound 1-500."""
    d = draw(st.integers(2, 600))
    slot = (draw(st.integers(1, d - 1)), d, draw(st.booleans()))
    return slot, draw(st.integers(1, 500))


class TestLeastAccepted:
    """The free-slot sup's query, the least A/N a slot accepts, is
    ``_descend`` on the window [v, v], open at a strict v."""

    @settings(max_examples=600, deadline=None)
    @given(accept_keys())
    @example(((1, 3, True), 10))  # strict: 3/8, the least above 1/3
    @example(((2, 5, False), 7))  # den <= bound: 2/5 itself
    @example(((3, 7, False), 5))  # den > bound: 1/2
    @example(((2, 4, False), 3))  # not reduced: 1/2 itself
    @example(((1, 2, True), 1))  # one step allowed: 1/1
    def test_matches_reference_loop(self, key):
        (n, d, strict), bound = key
        hit, A, N = _descend((n, d, strict), (n, d, False), bound)
        assert (A, N) == least_accepted((n, d, strict), bound)
        # it hits v itself exactly when v is accepted and within reach
        reach = not strict and d // math.gcd(n, d) <= bound
        assert hit == (A * d == n * N) == reach


class TestLeastAbove:
    """The hull's query: the least fraction of denominator 2 to bound at
    or above n/d, or above it when strict."""

    def test_matches_reference_loop(self):
        # v in [-2, 2]: integers, ends just below an integer and bounds
        # under d too; every answer lies below 3 + 1/den
        for d in range(1, 13):
            for n, strict, bound in itertools.product(
                    range(-2 * d, 2 * d + 1), (False, True), range(2, 9)):
                v = Fraction(n, d)
                want = min(Fraction(num, den) for den in range(2, bound + 1)
                           for num in range(-3 * den, 3 * den + 2)
                           if math.gcd(num, den) == 1
                           and (num > v * den if strict else num >= v * den))
                assert _least_above(n, d, strict, bound) == (
                    want.numerator, want.denominator), (n, d, strict, bound)


def _is_cut_literal(node):
    """Whether an AST node is a tuple literal (0, end, side)."""
    return (isinstance(node, ast.Tuple) and len(node.elts) == 3
            and isinstance(node.elts[0], ast.Constant)
            and node.elts[0].value == 0)


class TestIndependence:
    def test_oracle_imports_only_exact(self):
        # the oracle checks jn, seifert and intervals, so it may share
        # nothing with them: of this package it imports exact alone
        tree = ast.parse(Path(oracle.__file__).read_text())
        names = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names.append("." * node.level + (node.module or ""))
        ours = [n for n in names
                if n.startswith(".") or n.split(".")[0] == "cableslopes"]
        assert ours == [".exact"]

    def test_cable_takes_window_rule_from_intervals(self):
        # the gate and window that end a ray live in intervals alone:
        # cable imports exact and intervals and binds no extremal search
        tree = ast.parse(Path(cable.__file__).read_text())
        ours, bound = [], set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                ours += [a.name for a in node.names
                         if a.name.split(".")[0] == "cableslopes"]
                bound.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                if node.level or (node.module or "").startswith("cableslopes"):
                    ours.append("." * node.level + (node.module or ""))
                bound.update(a.asname or a.name for a in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    bound.add(node.id)
        assert sorted(set(ours)) == [".exact", ".intervals"]
        assert "extremal_slot_value" not in bound
        # nor does it build cut lists or map arcs: exact._image does
        assert not bound & {"INF", "_point_cuts", "_directed_cuts",
                            "_low_cut", "_high_cut", "_MIN", "_MAX"}

    def test_no_cut_lists_above_exact(self):
        # every one-arc set is exact's SlopeSet._arc: intervals and cable
        # name no _canonical and write no (0, end, side) cut literal
        for module in (intervals, cable):
            tree = ast.parse(Path(module.__file__).read_text())
            for node in ast.walk(tree):
                assert getattr(node, "attr", None) != "_canonical"
                assert getattr(node, "id", None) != "_canonical"
                assert not _is_cut_literal(node), module.__name__
        # and in exact every cut pair is _cuts', bar the point cuts of
        # contains, the tests' membership model
        tree = ast.parse(Path(exact.__file__).read_text())
        writers = set()
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                if any(map(_is_cut_literal, ast.walk(func))):
                    writers.add(func.name)
        assert writers == {"_cuts", "contains"}


class TestGridScan:
    def test_hull_matches_interval(self):
        for tau in (R("1/2"), R("1/4"), R("1/3"), ExtRational(0),
                    R("-7/6")):
            for J in (frozenset(), frozenset({1})):
                res = cable_interval(C23, J, tau)
                report = grid_scan_interval(C23, J, tau, 12, expected=res.t)
                assert report.mismatches == []
                assert report.hull_low == res.t.low
                assert report.hull_high == res.t.high

    def test_large_tau_denominator(self):
        # the tau slot accepts 1/N up to N ~ 10**7, so the witness loop
        # must stop at a hit or skip an empty window, not run to the cap;
        # slots of denominator ~10**15 bound the free slot's sup by
        # ~10**15, which the scan must reach in few steps
        cases = [(C23, tau) for tau in (
            ExtRational(1, 10**7), ExtRational(10**7 - 1, 10**7),
            ExtRational(-10**7 - 1, 10**7))]
        for p, q in ((10**15 - 1, 10**15), (10**15 + 1, 3), (3, 10**15 + 1)):
            params = bezout(p, q)
            cases += [(params, tau) for tau in (
                ExtRational(-1, 10**15), ExtRational(1, q),
                ExtRational(q - 1, q), ExtRational(params.r, p))]
        for params, tau in cases:
            for J in (frozenset(), frozenset({1})):
                res = cable_interval(params, J, tau)
                report = grid_scan_interval(params, J, tau, 24,
                                            expected=res.t)
                assert report.mismatches == [], (params, tau, J)
                assert report.tested_points > 0

    def test_large_denominator_matches_interval(self):
        # D = 400: a fractional tau, a zero slot and a negative tau
        params = bezout(4, 3)
        phi = [sum(math.gcd(fn, den) == 1 for fn in range(den))
               for den in range(1, 401)]
        for tau in (R("5/12"), ExtRational(1), R("-7/6")):
            res = cable_interval(params, frozenset(), tau)
            report = grid_scan_interval(params, frozenset(), tau, 400,
                                        expected=res.t)
            assert report.mismatches == []
            assert (report.hull_low, report.hull_high) == (res.t.low,
                                                           res.t.high)
            # the open window (m0 - 2, m1 + 2) holds rows * phi(den)
            # grid points, and one fewer integer
            rows = res.quantities.m1 - res.quantities.m0 + 4
            assert report.tested_points == rows * sum(phi) - 1

    def test_mismatch_detection(self):
        wrong = SlopeSet.interval(-2, -1)
        report = grid_scan_interval(C23, frozenset(), R("1/2"), 8,
                                    expected=wrong)
        assert report.mismatches
        assert not report.ok

    def test_widened_sweep_intervals_mismatch(self):
        # the benchmark's oracle-sweep taus k/12 in [-2, 2] on its three
        # cable classes: t widened to [t.low, t.high + 1] must disagree
        # with the scan at every tau
        for q, residue in ((3, 1), (4, 3), (5, 2)):
            params = bezout(residue, q)
            for k in range(-24, 25):
                tau = ExtRational(k, 12)
                t = cable_interval(params, frozenset(), tau).t
                high = ExtRational(t.high.num + t.high.den, t.high.den)
                report = grid_scan_interval(params, frozenset(), tau, 24,
                                            expected=SlopeSet.interval(
                                                t.low, high))
                assert report.mismatches, (params, tau)

    def test_report_counts_points(self):
        report = grid_scan_interval(C23, frozenset(), R("1/2"), 6)
        assert isinstance(report, ScanReport)
        assert report.tested_points > 0
        assert report.ok


def _deep_keys():
    """(params, tau) keys of the deep scan: the interval-ladder's special
    slopes tau = (bs + r)/(p - qb) on both branches, cables with p near
    10**15, and integral and fractional tau, three with t's ends of
    denominator 995 to 3,001, beyond the reference loops.  The last,
    the (5, 2) cable at tau = 1/2, has gamma = 1 - frac(tau), so
    t = t_strict = {-1}: the one strict key whose realised tau' form a
    closed interval."""
    keys = []
    for q, d, high in ((2, 1, False), (2, 145, False), (3, 86, False),
                       (3, 14, True)):
        b = (d + q) // q + 1 if high else 1
        params = bezout(q * b - d if high else d + q, q)
        keys.append((params, ExtRational(b * params.s + params.r,
                                         params.p - q * b)))
    big = bezout(10**15 - 1, 10**15)
    keys += [(bezout(10**15 + 1, 3), R("1/3")),
             (big, ExtRational(big.r, big.p)), (big, R("-7/2")),
             (bezout(4, 3), R("5/12")), (bezout(4, 3), ExtRational(1)),
             (bezout(3, 2), ExtRational(-2)), (bezout(4, 3), R("1/997")),
             (bezout(11, 7), R("-1/2999")), (bezout(3, 2), R("1500/2999")),
             (bezout(5, 2), R("1/2"))]
    return keys


DEEP_KEYS = _deep_keys()


def _grid_points_above(h, w, max_denominator):
    """The grid points x of (h, h + w], in (den, num) order, each den's
    numerators counted one by one."""
    top = Fraction(h.num, h.den) + w
    return [Fraction(num, den) for den in range(1, max_denominator + 1)
            for num in range(h.num * den // h.den + 1,
                             top.numerator * den // top.denominator + 1)
            if math.gcd(num, den) == 1]


class TestDeepScan:
    """The interval path against the grid at D = 2,000 and 10,000, where
    the reference loops stop at D <= 40."""

    @pytest.mark.parametrize("params, tau", DEEP_KEYS, ids=[
        "%d,%d,%s" % (params.p % 10**4, params.q % 10**4, tau)
        for params, tau in DEEP_KEYS])
    def test_intervals_match_deep_grid(self, params, tau):
        for J in (frozenset(), frozenset({1})):
            res = cable_interval(params, J, tau)
            for D in (2000, 10000):
                for J2, want in ((J, res.t), (J | {2}, res.t_strict)):
                    report = grid_scan_interval(params, J2, tau, D, want)
                    assert report.mismatches == [], (J2, D)
                    # closed ends of denominator <= D are the hull's
                    if want is res.t and max(want.low.den,
                                             want.high.den) <= D:
                        assert (report.hull_low, report.hull_high) == (
                            want.low, want.high)
        # t widened by 2/D above its high end, which holds a grid point:
        # each one in the widening is a mismatch, and nothing else is
        t = cable_interval(params, frozenset(), tau).t
        D, w = 10000, Fraction(2, 10000)
        top = Fraction(t.high.num, t.high.den) + w
        widened = t.union(SlopeSet.interval(
            t.high, ExtRational(top.numerator, top.denominator), False))
        report = grid_scan_interval(params, frozenset(), tau, D, widened)
        points = _grid_points_above(t.high, w, D)
        assert points
        assert len(report.mismatches) == len(points)
        assert report.mismatches == [
            (ExtRational(x.numerator, x.denominator), False, True)
            for x in points]


def _rationals(lo=-5, hi=5, max_den=12):
    return st.integers(1, max_den).flatmap(
        lambda d: st.integers(lo * d, hi * d).map(
            lambda n: ExtRational(n, d)))


@st.composite
def arcs(draw):
    """Closed, open and half-open arcs, points, rays and wrapped arcs.

    A ray, wrapped arc or line holds infinity when a bracket closes
    there: the flag at its infinite end, either flag on the line.
    """
    a, b = sorted(draw(st.lists(_rationals(), min_size=2, max_size=2,
                                unique=True)))
    lc, hc = draw(st.booleans()), draw(st.booleans())
    kind = draw(st.sampled_from(("arc", "point", "below", "above", "wrapped",
                                 "line")))
    if kind == "arc":
        return SlopeSet.interval(a, b, lc, hc)
    if kind == "point":
        return SlopeSet.point(a)
    if kind == "below":
        s, inf = SlopeSet.ray_below(b, hc), lc
    elif kind == "above":
        s, inf = SlopeSet.ray_above(a, lc), hc
    elif kind == "wrapped":
        s = SlopeSet.ray_above(b, lc).union(SlopeSet.ray_below(a, hc))
        inf = True
    else:
        s, inf = SlopeSet.reals(), lc or hc
    return s.with_infinity() if inf else s


@st.composite
def expectations(draw):
    """A closed interval, as an interval result t is, or another
    SlopeSet: one arc, a union of arcs, its complement, empty or full.
    """
    kind = draw(st.sampled_from(("interval", "arc", "set", "complement",
                                 "empty", "full")))
    if kind == "interval":
        return SlopeSet.interval(*sorted(draw(st.lists(
            _rationals(), min_size=2, max_size=2))))
    if kind == "arc":
        return draw(arcs())
    if kind == "empty":
        return SlopeSet.empty()
    if kind == "full":
        return SlopeSet.full()
    s = functools.reduce(SlopeSet.union,
                         draw(st.lists(arcs(), min_size=2, max_size=4)))
    return s.complement() if kind == "complement" else s


def _reference_scan(params, J, tau, max_denominator, expected):
    """A point-by-point scan: gcd filter, _decide_point and contains."""
    gamma = ExtRational(params.q + params.s, params.q)
    dq = cable_interval(params, J - {2}, tau).quantities
    low = high = None
    tested = 0
    mismatches = []
    for den in range(1, max_denominator + 1):
        for num in range((dq.m0 - 2) * den + 1, (dq.m1 + 2) * den):
            if math.gcd(num, den) != 1:
                continue
            tested += 1
            x = ExtRational(num, den)
            got = _decide_point(J, 0, (gamma,), (tau, x))
            if got:
                low = x if low is None else min(low, x)
                high = x if high is None else max(high, x)
            want = expected.contains(x)
            if got != want:
                mismatches.append((x, got, want))
    return low, high, tested, mismatches


def _scanned(params, J, tau, max_denominator, expected):
    """One scan's report as the tuple that _reference_scan returns."""
    report = grid_scan_interval(params, J, tau, max_denominator,
                                expected=expected)
    return (report.hull_low, report.hull_high, report.tested_points,
            report.mismatches)


def _translate(expected, m):
    """The expected set moved by the integer m."""
    return mobius_set_image(IntMobius(1, m, 0, 1), expected)


class TestScanMembership:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(COPRIME), st.frozensets(st.integers(1, 2)),
           _rationals(-3, 3, 8), st.integers(1, 24), expectations())
    # a wrong arc: the scan must report its mismatches in order
    @example((2, 3), frozenset(), R("1/2"), 8, SlopeSet.interval(-2, -1))
    # an integer tau: the fixed part has a zero slot, and so has tau'
    # at every integer grid point
    @example((3, 2), frozenset(), ExtRational(1), 6,
             SlopeSet.interval(-3, R("-1/2")))
    @example((2, 5), frozenset({1}), ExtRational(-2), 5, SlopeSet.full())
    # J = {2}: tau' is strict, so its zero slot is no constraint
    @example((2, 3), frozenset({2}), R("1/2"), 8,
             SlopeSet.interval(R("-3/2"), R("-1/2"), False, False))
    @example((3, 2), frozenset({1, 2}), ExtRational(0), 7, SlopeSet.empty())
    # max_denominator = 1: one row of integers, without num = start
    @example((2, 3), frozenset(), R("1/2"), 1, SlopeSet.interval(-5, 5))
    # cuts beyond stop: a ray whose low end lies past the scan, and a
    # wrapped arc with both ends outside it
    @example((2, 3), frozenset(), R("1/2"), 6,
             SlopeSet.ray_above(40).with_infinity())
    @example((3, 4), frozenset({1}), R("-1/3"), 6,
             SlopeSet.ray_above(30).union(SlopeSet.ray_below(-30))
             .with_infinity())
    # J = {1}: every den > 1 has a = 0 and c = den, a span holding one
    # multiple of den and no grid point
    @example((3, 2), frozenset({1}), R("1/2"), 8, SlopeSet.point(-1))
    # zeros: the ends -2 and -1 of t sit on multiples of den, next to
    # each span's ends
    @example((3, 2), frozenset(), ExtRational(1), 12,
             SlopeSet.interval(-2, -1))
    # an integral tau in J: arity 2, the one point -7/4 at den = 4
    @example((3, 4), frozenset({1}), ExtRational(1), 12,
             SlopeSet.point(R("-7/4")))
    # max_denominator 24 and 40 cross many witness brackets
    @example((4, 3), frozenset(), R("5/12"), 24, C43_T.t)
    @example((4, 3), frozenset({2}), R("5/12"), 40, C43_T.t_strict)
    @example((4, 3), frozenset(), R("5/12"), 40, C43_T.t)
    def test_matches_reference_loop(self, pq, J, tau, max_denominator,
                                    expected):
        """D runs to 24, the bound of the benchmark's oracle scans.  The
        reference decides each grid point, 720 to 900 of them at D = 24,
        through ``_witness_exists``, whose window walk takes O(log) steps
        per pair instead of a loop over N up to a cap, so 200 examples
        take about as long as 300 did at D <= 8."""
        params = bezout(*pq)
        got = _scanned(params, J, tau, max_denominator, expected)
        assert got == _reference_scan(params, J, tau, max_denominator,
                                      expected)
        assert all(type(g) is bool and type(w) is bool
                   for _, g, w in got[3])

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(COPRIME), st.frozensets(st.integers(1, 2)),
           _rationals(-3, 3, 8), st.integers(1, 8), expectations(),
           st.sampled_from((-3, -2, -1, 1, 2, 3)))
    # an integral tau: J = {} and J = {1} share the slots and differ in
    # the zero count
    @example((3, 2), frozenset(), ExtRational(1), 6,
             SlopeSet.interval(-3, R("-1/2")), -2)
    # J = {} and J = {2} share the slots and differ in tau' strictness
    @example((4, 3), frozenset({2}), R("5/12"), 8, C43_T.t_strict, 3)
    @example((2, 3), frozenset(), R("1/2"), 8, SlopeSet.interval(-2, -1),
             1)
    def test_translates_match_reference_loop(self, pq, J, tau,
                                             max_denominator, expected, m):
        # tau + m moves b0 by -m, so with the expected set moved by -m
        # its scan is the cached scan of tau; with any other expected set
        # or J it is a scan of its own
        params = bezout(*pq)
        moved = ExtRational(tau.num + m * tau.den, tau.den)
        follows = _translate(expected, -m)
        oracle._relative_scan.cache_clear()
        assert _scanned(params, J, tau, max_denominator, expected) == (
            _reference_scan(params, J, tau, max_denominator, expected))
        calls = []
        real_exists, real_spans = oracle._witness_exists, oracle._spans

        def counted_exists(slots):
            calls.append("_witness_exists")
            return real_exists(slots)

        def counted_spans(*key):
            calls.append("_spans")
            return real_spans(*key)

        hits = oracle._relative_scan.cache_info().hits
        with mock.patch.object(oracle, "_witness_exists", counted_exists), \
                mock.patch.object(oracle, "_spans", counted_spans):
            got = _scanned(params, J, moved, max_denominator, follows)
        assert calls == []
        assert oracle._relative_scan.cache_info().hits == hits + 1
        assert got == _reference_scan(params, J, moved, max_denominator,
                                      follows)
        for J2, want in ((J, expected), (J ^ {1}, follows),
                         (J ^ {2}, follows)):
            assert _scanned(params, J2, moved, max_denominator, want) == (
                _reference_scan(params, J2, moved, max_denominator, want))

    def test_memo_keeps_runs_not_points(self):
        # the full circle disagrees at 44,851 grid points at D = 200; the
        # cached scan keeps at most two runs per den, not one entry each
        params, tau, D = bezout(5, 2), R("2/3"), 200
        report = grid_scan_interval(params, frozenset(), tau, D,
                                    expected=SlopeSet.full())
        assert len(report.mismatches) == 44851
        gamma = ExtRational(params.q + params.s, params.q)
        b0, fixed, zeros = oracle._reduce(frozenset(), 0, (gamma,), (tau,))
        ends = oracle._member_cuts(SlopeSet.full().affine_pieces(), b0,
                                   *oracle._scan_rows(fixed, zeros))
        hits = oracle._relative_scan.cache_info().hits
        entry = oracle._relative_scan(fixed, zeros, False, D, ends)
        assert oracle._relative_scan.cache_info().hits == hits + 1
        assert len(entry[3]) <= 2 * D

    def test_reports_share_no_state_with_cache(self):
        # a cached scan hands out a fresh mismatch list every time
        wrong = SlopeSet.interval(-2, -1)
        first = grid_scan_interval(C23, frozenset(), R("1/2"), 8,
                                   expected=wrong)
        want = list(first.mismatches)
        assert want
        first.mismatches.append((ExtRational(0), True, False))
        second = grid_scan_interval(C23, frozenset(), R("1/2"), 8,
                                    expected=wrong)
        assert second.mismatches == want
        second.mismatches.clear()
        third = grid_scan_interval(C23, frozenset(), R("1/2"), 8,
                                   expected=wrong)
        assert third.mismatches == want
        assert third.mismatches is not second.mismatches

    def test_float_bound_fails_after_cached_int(self):
        grid_scan_interval(C23, frozenset(), R("1/2"), 6)
        with pytest.raises(TypeError):
            grid_scan_interval(C23, frozenset(), R("1/2"), 6.0)

    def test_rejects_other_expectations(self):
        for expected in ("[-2,-1]", [ExtRational(-1)], ExtRational(-1)):
            with pytest.raises(TypeError):
                grid_scan_interval(C23, frozenset(), R("1/2"), 4,
                                   expected=expected)


@st.composite
def slot_values(draw):
    """2-5 (value, strict) slots, denominators <= 12 or <= 60."""
    values = []
    for _ in range(draw(st.integers(2, 5))):
        d = draw(st.one_of(st.integers(2, 12), st.integers(2, 60)))
        values.append((ExtRational(draw(st.integers(1, d - 1)), d),
                       draw(st.booleans())))
    return tuple(values)


class TestExhaustiveWitnessCheck:
    @settings(max_examples=500, deadline=None)
    @given(slot_values())
    @example(((R("1/3"), False), (R("2/3"), False)))  # the point 1/3
    @example(((R("1/3"), True), (R("2/3"), False)))  # (1/3, 1/3]: empty
    @example(((R("2/5"), True), (R("1/2"), True)))  # (2/5, 1/2): N = 7
    # four 1/5 slots cap N at 5, and no A/N of N <= 5 lies above 4/5
    @example(((R("1/5"), False),) * 4 + ((R("4/5"), True),))
    @example(((R("1/5"), False),) * 4 + ((R("4/5"), False),))
    def test_nonexistence_matches_reference(self, values):
        # with two slots nothing caps N: the walk is bounded by di + dj;
        # with more the last slot is checked against the others' sup
        slots = [(v.num, v.den, strict) for v, strict in values]
        assert exhaustive_witness_check(values, None) == (
            not witness_exists(slots))

    def test_confirms_found_witness(self):
        values = ((R("1/3"), True), (R("1/2"), False), (R("1/2"), False))
        w = witness_search(values)
        assert exhaustive_witness_check(values, w)

    def test_confirms_nonexistence(self):
        values = ((R("1/3"), True), (R("1/2"), False), (R("1/2"), True))
        assert exhaustive_witness_check(values, None)

    def test_rejects_wrong_nonexistence_claim(self):
        values = ((R("1/4"), True), (R("1/4"), True), (R("1/4"), True))
        assert not exhaustive_witness_check(values, None)

    def test_rejects_invalid_witness(self):
        from cableslopes.jn import JNWitness
        values = ((R("1/3"), True), (R("1/2"), False), (R("1/2"), False))
        bogus = JNWitness(4, 2, (R("1/2"), R("1/2"), R("1/4")))
        assert not exhaustive_witness_check(values, bogus)

    def test_rejects_wrong_multiset(self):
        from cableslopes.jn import JNWitness
        values = ((R("1/3"), True), (R("1/2"), False), (R("1/2"), False))
        bogus = JNWitness(2, 1, (R("1/2"), R("1/2"), R("1/4")))
        assert not exhaustive_witness_check(values, bogus)

    def test_value_equal_to_slot(self):
        from cableslopes.jn import JNWitness
        # N = 3, A = 1 assigns 1/3, 2/3, 1/3: the first slot receives
        # exactly its own value, which only a non-strict slot accepts
        w = JNWitness(3, 1, (R("1/3"), R("2/3"), R("1/3")))
        others = ((R("1/2"), False), (R("1/4"), True))
        assert not exhaustive_witness_check(((R("1/3"), True),) + others, w)
        assert exhaustive_witness_check(((R("1/3"), False),) + others, w)

    def test_needs_two_slots(self):
        with pytest.raises(ValueError, match="two slots"):
            exhaustive_witness_check(((R("1/2"), False),), None)

    def test_validates_input_range(self):
        # infinity has no order, so it must be refused before a compare
        for bad in (ExtRational(2), ExtRational(0), ExtRational(1),
                    R("-1/2"), INF):
            with pytest.raises(ValueError, match="must lie in"):
                exhaustive_witness_check(((bad, True), (R("1/2"), False)),
                                         None)
