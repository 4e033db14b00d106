import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import loop_reference
from cableslopes import jn, oracle
from cableslopes.exact import ExtRational
from cableslopes.jn import decide, extremal_slot_value, witness_search
from cableslopes.oracle import exhaustive_witness_check

R = ExtRational.parse
ONE = ExtRational(1)


class TestDecideExamples:
    def test_integral_slot_window(self):
        res = decide(frozenset(), 0, (R("2/3"),), (R("1/2"), R("-1")))
        assert res.realizable
        assert res.rule == "integral-slot-window"

    def test_complement_then_witness(self):
        res = decide(frozenset(), 0, (R("2/3"),), (R("1/2"), R("-3/2")))
        assert res.realizable
        assert res.witness.N == 2
        assert res.witness.A == 1

    def test_strict_slot_blocks_witness(self):
        res = decide(frozenset({2}), 0, (R("2/3"),), (R("1/2"), R("-3/2")))
        assert not res.realizable

    def test_b_out_of_window(self):
        res = decide(frozenset(), 5, (R("1/2"),), (R("1/2"), R("1/2")))
        assert not res.realizable
        assert res.rule == "translation-number-bound"

    def test_interior_window(self):
        res = decide(frozenset(), 2, (R("1/2"),), (R("1/3"), R("1/4"),
                                                   R("1/5")))
        assert res.realizable
        assert res.rule == "interior-window"

    def test_slot_sum(self):
        # two slots and no zero slot: realisable when the values add up
        # to b, strict or not
        for J, b, want in ((frozenset(), 1, True), (frozenset({1}), 1, True),
                           (frozenset(), 2, False), (frozenset(), 0, False)):
            res = decide(J, b, (R("1/2"),), (R("1/2"),))
            assert (res.realizable, res.rule) == (want, "slot-sum")
        assert decide(frozenset(), 0, (), ()).realizable
        assert not decide(frozenset(), 1, (R("1/2"),), ()).realizable


class TestSearchBound:
    def test_mixed_slots(self):
        values = ((R("1/3"), True), (R("1/2"), False), (R("1/2"), False))
        w = witness_search(values)
        assert w is not None

    def test_all_halves(self):
        values = ((R("1/2"), False),) * 3
        w = witness_search(values)
        assert (w.N, w.A) == (2, 1)

    def test_large_strict_values(self):
        values = ((R("2/3"), True),) * 3
        assert witness_search(values) is None

    def test_soundness_no_witness_beyond_bound(self):
        # brute force past the bound and confirm nothing new appears
        values = ((R("1/3"), True), (R("1/2"), False), (R("2/5"), True))
        w = witness_search(values)
        assert exhaustive_witness_check(values, w)


class TestWitnessSearch:
    def test_minimal_witness(self):
        values = ((R("1/3"), True), (R("1/2"), False), (R("1/2"), False))
        w = witness_search(values)
        assert (w.N, w.A) == (2, 1)
        assert sorted(w.assignment) == [R("1/2")] * 3

    def test_no_witness(self):
        values = ((R("1/3"), True), (R("1/2"), False), (R("1/2"), True))
        assert witness_search(values) is None
        assert exhaustive_witness_check(values, None)

    @pytest.mark.parametrize("bad", [ExtRational(0), ONE, R("3/2"),
                                     R("-1/2"), R("inf")])
    def test_slot_value_outside_unit_interval(self, bad):
        half = (R("1/2"), False)
        with pytest.raises(ValueError, match="must lie in"):
            witness_search((half, half, (bad, True)))
        with pytest.raises(ValueError, match="must lie in"):
            extremal_slot_value((half, (bad, False)))

    def test_all_quarters(self):
        values = ((R("1/4"), True),) * 3
        w = witness_search(values)
        assert w is not None
        assert exhaustive_witness_check(values, w)

    def test_witness_satisfies_constraints(self):
        values = ((R("1/5"), True), (R("2/7"), False), (R("1/3"), True),
                  (R("1/6"), False))
        w = witness_search(values)
        assert w is not None
        for (v, strict), a in zip(values, w.assignment):
            assert a > v if strict else a >= v


small_rats = st.builds(ExtRational, st.integers(1, 11), st.integers(2, 12))


@st.composite
def slot_lists(draw):
    k = draw(st.integers(3, 5))
    out = []
    for _ in range(k):
        n = draw(st.integers(1, 11))
        d = draw(st.integers(2, 12))
        if n >= d:
            n = d - 1
        out.append((ExtRational(n, d), draw(st.booleans())))
    return tuple(out)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(slot_lists())
    def test_search_agrees_with_brute_force(self, values):
        w = witness_search(values)
        assert exhaustive_witness_check(values, w)

    @settings(max_examples=100, deadline=None)
    @given(slot_lists())
    def test_relaxing_strictness_preserves(self, values):
        if witness_search(values) is None:
            return
        relaxed = tuple((v, False) for v, _ in values)
        assert witness_search(relaxed) is not None

    @settings(max_examples=100, deadline=None)
    @given(slot_lists())
    def test_permutation_invariance(self, values):
        base = witness_search(values) is not None
        rotated = values[1:] + values[:1]
        assert (witness_search(rotated) is not None) == base

    @settings(max_examples=100, deadline=None)
    @given(slot_lists())
    def test_complement_symmetry(self, values):
        # realisability at b = k-1 equals realisability of the
        # complemented values at b = 1
        k = len(values)
        gammas = tuple(v for v, strict in values if strict)
        taus = tuple(v for v, strict in values if not strict)
        if not gammas:
            return
        J = frozenset()
        lhs = decide(J, k - 1, gammas, taus).realizable
        rhs = decide(J, 1, tuple(_one_minus(g) for g in gammas),
                     tuple(_one_minus(t) for t in taus)).realizable
        assert lhs == rhs


def _one_minus(v):
    f = 1 - Fraction(v.num, v.den)
    return ExtRational(f.numerator, f.denominator)


@st.composite
def sized_slot_lists(draw, k_min, k_max, max_den):
    out = []
    for _ in range(draw(st.integers(k_min, k_max))):
        d = draw(st.integers(2, max_den))
        n = draw(st.integers(1, d - 1))
        out.append((ExtRational(n, d), draw(st.booleans())))
    return out


class TestMirrorPairs:
    """Pair (j, i) is pair (i, j) seen through x -> 1 - x.

    Its window [v_j, 1 - v_i] is the mirror image of [v_i, 1 - v_j],
    open ends included, and the slots outside the pair are the same, so
    both pairs have a witness or neither, at (N, A) and (N, N - A).
    The solvers walk each unordered pair once on this ground.
    """

    @settings(max_examples=300, deadline=None)
    @given(sized_slot_lists(2, 5, 13))
    def test_pair_and_mirror(self, values):
        slots = [(v.num, v.den, strict) for v, strict in values]
        caps = [(d - 1) // n if strict else d // n for n, d, strict in slots]
        for i, j in itertools.combinations(range(len(slots)), 2):
            rest = [c for m, c in enumerate(caps) if m not in (i, j)]
            cap = min(rest) if rest else None
            fit = jn._pair_witness(slots[i], slots[j], cap)
            mirror = jn._pair_witness(slots[j], slots[i], cap)
            if fit is None:
                assert mirror is None
            else:
                N, A = fit
                assert mirror == (N, N - A)


class TestMatchesLoopReference:
    """The Stern-Brocot solver returns what the (N, A, i, j) loops return."""

    @settings(max_examples=300, deadline=None)
    @given(sized_slot_lists(3, 5, 13))
    def test_witness_search(self, values):
        assert witness_search(values) == loop_reference.witness_search(values)

    @settings(max_examples=300, deadline=None)
    @given(sized_slot_lists(2, 4, 17))
    def test_extremal_slot_value(self, fixed):
        assert (extremal_slot_value(fixed)
                == loop_reference.extremal_slot_value(fixed))


@st.composite
def deep_slot_lists(draw):
    """A small slot 1/m, whose cap m or m - 1 lets the other slots' walks
    run to large denominators, and one or two slots of denominator
    50-300, in any order."""
    out = [(ExtRational(1, draw(st.integers(2, 400))), draw(st.booleans()))]
    for _ in range(draw(st.integers(1, 2))):
        den = draw(st.integers(50, 300))
        out.append((ExtRational(draw(st.integers(1, den - 1)), den),
                    draw(st.booleans())))
    return draw(st.permutations(out))


class TestZiggurat:
    """The free slot's largest value equals the Jankins-Neumann closed
    form, a maximum over one common denominator with no witness pair
    and no walk (``loop_reference.ziggurat_slot_value``).  Deep slots
    take the walks past the denominators that the loop references and
    the grid scans reach, where a cap clamp can go wrong.
    """

    @settings(max_examples=200, deadline=None)
    @given(deep_slot_lists())
    def test_solver_and_oracle_match_closed_form(self, fixed):
        want = loop_reference.ziggurat_slot_value(fixed)
        assert extremal_slot_value(fixed) == want
        slots = [(v.num, v.den, strict) for v, strict in fixed]
        assert (oracle._free_slot_sup(slots)
                == ((want.num, want.den) if want else (0, 1)))


def _weights(lo, hi):
    # num/den in [lo, hi] with den <= 6, or an integer in [lo, hi]
    fractions = st.integers(1, 6).flatmap(
        lambda d: st.builds(ExtRational, st.integers(lo * d, hi * d),
                            st.just(d)))
    return st.one_of(fractions, st.builds(ExtRational, st.integers(lo, hi)))


def _mix(*strategies):
    # a weighted choice: each repeat of a strategy adds to its share
    return st.sampled_from(strategies).flatmap(lambda s: s)


_UNIT = sized_slot_lists(1, 1, 9).map(lambda v: v[0][0])
_GAMMAS = _mix(_UNIT, _UNIT, _UNIT, _UNIT, _weights(-1, 2))
_TAUS = _mix(_UNIT, _weights(-3, 3), _weights(-3, 3), _weights(-3, 3),
             st.just(ExtRational(0)), st.just(ExtRational(1, 0)))


@st.composite
def tuples(draw):
    """(J, b, gammas, taus): 0-3 gammas, mostly valid, and 0-3 taus,
    integral, negative, zero or infinite, with J mostly a set of their
    indices and sometimes naming no tau."""
    gammas = draw(st.lists(_GAMMAS, max_size=3))
    taus = draw(st.lists(_TAUS, max_size=3))
    named = (st.frozensets(st.integers(1, len(taus)), max_size=3) if taus
             else st.just(frozenset()))
    J = draw(st.one_of(named, st.frozensets(st.integers(0, 4), max_size=2)))
    return J, draw(st.integers(-3, 5)), gammas, taus


_INF_TUPLE = (ValueError, "tau weight must be finite")


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:  # compared by type and text
        return type(exc), str(exc)


class TestDecideMatchesReference:
    """``decide`` reads the interval path's integer reduction; on every
    tuple it answers as the tuple decider it replaced did."""

    @settings(max_examples=500, deadline=None)
    @given(tuples())
    def test_same_result_or_error(self, tup):
        want = _outcome(loop_reference.decide, *tup)
        if want == _INF_TUPLE:
            # the one reduction checks J first and words an infinite
            # tau as the interval path does
            J, _, _, taus = tup
            bad_j = any(not 1 <= j <= len(taus) for j in J)
            want = (ValueError, "J must contain 1-based tau indices" if bad_j
                    else "fractional part of infinity")
        assert _outcome(decide, *tup) == want


def _brute_witnesses(values, n_range, free):
    """Every witness (N, A, assignment) with N in n_range, by direct check.

    Yields in ascending N, then A, then slot pair (i, j).  With ``free``
    the list gains a last slot with no constraint.
    """
    fracs = [(Fraction(v.num, v.den), strict) for v, strict in values]
    k = len(fracs) + free
    for N in n_range:
        for A in range(1, N):
            if math.gcd(A, N) != 1:
                continue
            for i in range(k):
                for j in range(k):
                    if i == j:
                        continue
                    got = [Fraction(1, N)] * k
                    got[i] = Fraction(A, N)
                    got[j] = Fraction(N - A, N)
                    if all(g > f if strict else g >= f
                           for (f, strict), g in zip(fracs, got)):
                        yield N, A, got


class TestBruteForce:
    """The solver's answers equal a Fraction brute force over N <= LIMIT.

    The lists below have denominators at most 6, which makes N <= 12
    complete.  A slot of value v accepts 1/N only for N <= 1/v <= 6.
    With three or more slots, some slot takes 1/N, so every witness has
    N <= 6.  The free slot takes more than 1/N only when it is special
    with one fixed slot; some other fixed slot then takes 1/N, so again
    N <= 6.  Otherwise it takes 1/N, which is largest at the least N
    whose A/N lies in the window [v_i, 1 - v_j] of two fixed slots, whose
    ends have denominators at most 6.  A closed end lies in the window,
    and when both ends are open their mediant lies strictly inside.
    Either way that least N is at most 12.
    """

    LIMIT = 12

    @settings(max_examples=100, deadline=None)
    @given(sized_slot_lists(3, 5, 6))
    def test_witness_search(self, values):
        brute = next(_brute_witnesses(values, range(2, self.LIMIT + 1),
                                      False), None)
        w = witness_search(values)
        if brute is None:
            assert w is None
        else:
            assert w is not None
            assert (w.N, w.A, [Fraction(a.num, a.den) for a in w.assignment]
                    ) == brute

    @settings(max_examples=100, deadline=None)
    @given(sized_slot_lists(2, 4, 6))
    def test_extremal_slot_value(self, fixed):
        best = max((got[-1] for _, _, got in _brute_witnesses(
            fixed, range(2, self.LIMIT + 1), True)), default=None)
        value = extremal_slot_value(fixed)
        if best is None:
            assert value is None
        else:
            assert Fraction(value.num, value.den) == best
