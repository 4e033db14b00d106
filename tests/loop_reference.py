"""Reference (A, N) enumerators for the witness solver tests.

These are the original loop searches: for every N up to the bound they
try every A in [1, N) and every slot pair (i, j).  They are slow but
plainly follow the definition, so the Stern-Brocot solver in
``cableslopes.jn`` is required to return exactly what they return.

``ziggurat_slot_value`` is a third derivation of the free slot's
largest value, a closed-form maximum over one common denominator with
no witness pair: ``jn.extremal_slot_value`` and the oracle's
``_free_slot_sup`` are both required to return it.

``realisable`` is the oracle's original per-b decision of a reduced
query, with its witness loop ``witness_exists``; the oracle's range of
realisable b is required to hold exactly the b it accepts.

``least_window_N`` is the oracle's original loop over N for the least
denominator in a pair's window; the oracle's Stern-Brocot descent is
required to return the same N.

``witness_thresholds`` is the oracle's original per-denominator scan
of the residues with a witness: it brackets each side between Farey
neighbours and runs ``witness_exists`` on at most one fraction per
denominator and side.  The (a, c) held in the oracle's spans, which
it reads off one sup per side, are required to equal it.

``decide`` is the tuple decider as it was before ``jn.decide`` took
the interval path's integer reduction: it validates a ``SeifertTuple``,
reduces it with its own ``reduce_integral`` to ``ExtRational`` slots
and turns those into integer keys in ``jn_realizable``.  ``jn.decide``
is required to return the same result or raise the same exception,
except that an infinite tau is worded as the interval path words it.

``cable_detected_set`` is the cabling pipeline as it was before its
lean rewrite, with its own ``_ray``, ``_piece_union``, basis maps and
``mobius_set_image``: it checks the fiber slope with ``contains``,
builds both basis maps per call, applies them through
``IntMobius.apply`` and ends rays with ``Fraction`` arithmetic.
``cableslopes.cable.cable_detected_set`` is required to print the same
set with the same tag.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from cableslopes.cable import DetectionMode
from cableslopes.exact import (INF, ExtRational, IntMobius, SlopeSet,
                               _as_rat, _directed_cuts, _point_cuts)
from cableslopes.intervals import _gates, _window
from cableslopes.jn import JNWitness, _decide


def _slot_ints(values):
    out = []
    for value, strict in values:
        if not isinstance(value, ExtRational):
            value = ExtRational(value)
        if not (0 < value < 1):
            raise ValueError("slot value must lie in (0,1): %s" % value)
        out.append((value.num, value.den, bool(strict)))
    return out


def _cap(num, den, strict):
    # largest N with num/den < 1/N (strict) or <= 1/N (non-strict)
    if strict:
        return (den - 1) // num
    return den // num


def search_bound(values):
    """Upper bound on N over all witnesses for the given slots.

    In any witness all but two slots receive 1/N, and a slot of value v
    tolerates 1/N only for N <= floor(1/v) (or strictly below 1/v when
    the slot is strict).  Maximizing over the choice of the two special
    slots bounds N.
    """
    slots = _slot_ints(values)
    k = len(slots)
    if k < 3:
        raise ValueError("need at least 3 slots")
    caps = [_cap(n, d, st) for n, d, st in slots]
    best = 0
    for i in range(k):
        for j in range(i + 1, k):
            rest = min(caps[m] for m in range(k) if m != i and m != j)
            best = max(best, rest)
    return best


def _needs(slots, N):
    # minimal numerator x such that the slot accepts the value x/N
    needs = []
    for num, den, strict in slots:
        t = num * N
        if strict:
            needs.append(t // den + 1)
        else:
            needs.append(-((-t) // den))
    return needs


def witness_search(values):
    """Find the minimal witness for a b=1 query, or None.

    Exhausts N from 2 up to search_bound(values); completeness of that
    bound rests on the remaining slots all receiving 1/N.
    """
    slots = _slot_ints(values)
    k = len(slots)
    if k < 3:
        raise ValueError("need at least 3 slots")
    bound = search_bound(values)
    for N in range(2, bound + 1):
        needs = _needs(slots, N)
        big = [i for i, x in enumerate(needs) if x > 1]
        if len(big) > 2:
            continue
        big_set = set(big)
        for A in range(1, N):
            if math.gcd(A, N) != 1:
                continue
            for i in range(k):
                if needs[i] > A:
                    continue
                for j in range(k):
                    if j == i or needs[j] > N - A:
                        continue
                    if not big_set <= {i, j}:
                        continue
                    assignment = [ExtRational(1, N)] * k
                    assignment[i] = ExtRational(A, N)
                    assignment[j] = ExtRational(N - A, N)
                    return JNWitness(N, A, tuple(assignment))
    return None


def _extremal_bound(slots):
    """Bound on N over all witnesses of the fixed slots plus a free slot.

    A witness assigns A/N and (N-A)/N to two slots and 1/N elsewhere.
    If both special slots are fixed, either some other fixed slot caps N
    through its 1/N constraint, or (when only the free slot remains)
    A/N must land in the gap between the two fixed values, and a short
    interval argument bounds the smallest usable N.  If the free slot is
    special, the remaining fixed slots cap N, and larger N only shrink
    the candidate values, so the maximum is attained within the bound.
    """
    k = len(slots)
    if k < 2:
        raise ValueError("need at least 2 fixed slots")
    caps = [_cap(n, d, st) for n, d, st in slots]
    best = 0
    for i in range(k):
        rest = [caps[m] for m in range(k) if m != i]
        best = max(best, min(rest))
        for j in range(i + 1, k):
            rest2 = [caps[m] for m in range(k) if m != i and m != j]
            if rest2:
                best = max(best, min(rest2))
                continue
            ni, di, si = slots[i]
            nj, dj, sj = slots[j]
            # gap for A/N between v_i and 1 - v_j
            gap_num = di * dj - ni * dj - nj * di
            gap_den = di * dj
            if gap_num > 0:
                best = max(best, -((-gap_den) // gap_num) + 1)
            elif gap_num == 0 and not si and not sj:
                best = max(best, di)
    return best


def extremal_slot_value(fixed):
    """Largest value a free extra slot can receive in any witness.

    ``fixed`` lists (value in (0,1), strict) constraints.  The search
    runs over coprime pairs (A, N) with N up to the completeness bound;
    returns None when no witness exists at all (the window is empty).
    """
    slots = []
    for value, strict in fixed:
        if not isinstance(value, ExtRational):
            value = ExtRational(value)
        if not (0 < value < 1):
            raise ValueError("fixed slot value must lie in (0,1): %s" % value)
        slots.append((value.num, value.den, bool(strict)))
    k = len(slots)
    bound = _extremal_bound(slots)
    best = None
    for N in range(2, bound + 1):
        needs = _needs(slots, N)
        big = [i for i, x in enumerate(needs) if x > 1]
        if len(big) > 2:
            continue
        big_set = set(big)
        for A in range(1, N):
            if math.gcd(A, N) != 1:
                continue
            candidates = []
            # free slot takes 1/N; two fixed slots take A/N and (N-A)/N
            for i in range(k):
                if needs[i] > A:
                    continue
                for j in range(k):
                    if j != i and needs[j] <= N - A and big_set <= {i, j}:
                        candidates.append(ExtRational(1, N))
                        break
                else:
                    continue
                break
            # free slot takes A/N; one fixed slot takes (N-A)/N
            for j in range(k):
                if needs[j] <= N - A and big_set <= {j}:
                    candidates.append(ExtRational(A, N))
                    break
            # free slot takes (N-A)/N; one fixed slot takes A/N
            for i in range(k):
                if needs[i] <= A and big_set <= {i}:
                    candidates.append(ExtRational(N - A, N))
                    break
            for c in candidates:
                if best is None or c > best:
                    best = c
    return best


def ziggurat_slot_value(fixed):
    """extremal_slot_value by the Jankins-Neumann formula, with no walk.

    Jankins and Neumann (Math. Ann. 271, 1985; proved by Calegari and
    Walker, J. Mod. Dyn. 2011, "Ziggurats and rotation numbers") give
    the largest rotation number of a product of circle maps with given
    rotation numbers r_i as a maximum over one common denominator q:
    the largest (sum p_i + k - 1)/q with p_i/q <= r_i.  A slot v_i is
    such a map with r_i = 1 - v_i, so with p_i(q) the largest p with
    p/q <= 1 - v_i (< when slot i is strict) the free slot's largest
    value is

        max over q of (sum p_i(q) + k - 1)/q - (k - 1),

    and there is none when that maximum is 0, its value at q = 1.  The
    search stops at q = sum den_i.  The largest value is attained in a
    witness of denominator N: 1/N for the least N of a window
    [v_i, 1 - v_j], at most den_i + den_j (the mediant of its ends), or
    x/N with N under a cap of a slot, at most its den.  The fixed
    slots' witness values c_i/N add up with x/N to 1 + (k - 1)/N, and
    p_i(N) >= N - c_i, so the term at q = N already reaches it.  The
    cost is O(k sum den_i).
    """
    slots = _slot_ints(fixed)
    k = len(slots)
    best_num, best_den = 0, 1
    for q in range(1, sum(den for _, den, _ in slots) + 1):
        num = sum(((den - n) * q - strict) // den for n, den, strict in slots)
        num += (k - 1) * (1 - q)
        if num * best_den > best_num * q:
            best_num, best_den = num, q
    return ExtRational(best_num, best_den) if best_num else None


def witness_exists(slots):
    """Whether two or more (num, den, strict) slots admit a b = 1 witness."""
    caps = [(d - st) // n for n, d, st in slots]
    for i, j in itertools.combinations(range(len(slots)), 2):
        ni, di, si = slots[i]
        nj, dj, sj = slots[j]
        # no N helps a pair whose window [v_i, 1 - v_j] is empty
        room = (dj - nj) * di - ni * dj
        if room < 0 or room == 0 and (si or sj):
            continue
        rest = [c for m, c in enumerate(caps) if m != i and m != j]
        if not rest:
            # nothing bounds N, and a non-empty window holds a fraction
            return True
        if least_window_N(slots[i], slots[j], min(rest)):
            return True
    return False


def least_window_N(slot_i, slot_j, bound):
    """The least N <= bound whose window [v_i, 1 - v_j], open at a strict
    end, holds some A/N, or None."""
    ni, di, si = slot_i
    nj, dj, sj = slot_j
    for N in range(2, bound + 1):
        # least A above v_i N against largest A below (1 - v_j) N
        if (ni * N + di - 1 + si) // di <= ((dj - nj) * N - sj) // dj:
            return N
    return None


def realisable(b, slots, zeros):
    """Decide a reduced query: integer b, (num, den, strict) slots, zeros."""
    k = len(slots)
    if zeros:
        return 2 - zeros <= b <= k + zeros - 2
    if k < 3:
        # arity 2: both translation numbers are pinned, so the slot
        # values must add up to b exactly
        num, den = 0, 1
        for n, d, _ in slots:
            num, den = num * d + n * den, den * d
        return num == b * den
    if b == k - 1:
        return witness_exists(tuple((d - n, d, st) for n, d, st in slots))
    if b == 1:
        return witness_exists(slots)
    return 2 <= b <= k - 2


def witness_thresholds(fixed, strict, max_denominator):
    """Per denominator den, (a, c) for tau' = fn/den beside ``fixed``.

    a is the largest fn < den with a b = 1 witness (0 if none) and c the
    least fn > 0 whose complement has one (den if none).  Witnesses
    form a prefix in value and complement witnesses a suffix, so each
    side keeps (largest known yes, least known no); after the
    denominators below den these are Farey neighbours, and only their
    mediant can lie strictly between them with denominator den.
    """
    comp = tuple((d - n, d, st) for n, d, st in fixed)
    yes, no = (0, 1), (1, 1)    # b = 1 side: prefix up to yes
    cno, cyes = (0, 1), (1, 1)  # complement side: suffix from cyes
    out = []
    for den in range(1, max_denominator + 1):
        a = yes[0] * den // yes[1]
        fn = a + 1
        if fn * no[1] < no[0] * den:
            if witness_exists(fixed + ((fn, den, strict),)):
                yes, a = (fn, den), fn
            else:
                no = (fn, den)
        c = -(-cyes[0] * den // cyes[1])
        fn = c - 1
        if fn * cno[1] > cno[0] * den:
            if witness_exists(comp + ((den - fn, den, strict),)):
                cyes, c = (fn, den), fn
            else:
                cno = (fn, den)
        out.append((a, c))
    return tuple(out)


def _check_gamma(g):
    g = _as_rat(g)
    if not 0 < g.num < g.den:
        raise ValueError("gamma weight must lie strictly between 0 and 1: %s" % g)
    return g


def _check_indices(J, taus):
    J = frozenset(J)
    for j in J:
        if not (isinstance(j, int) and 1 <= j <= len(taus)):
            raise ValueError("J must contain 1-based tau indices")
    return J


@dataclass(frozen=True)
class SeifertTuple:
    """An input tuple (J; b; gamma; tau)."""

    J: frozenset
    b: int
    gammas: tuple
    taus: tuple

    def __post_init__(self):
        object.__setattr__(self, "gammas",
                           tuple(_check_gamma(g) for g in self.gammas))
        taus = tuple(_as_rat(t) for t in self.taus)
        for t in taus:
            if t.is_infinite:
                raise ValueError("tau weight must be finite")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "J", _check_indices(self.J, taus))


def normalize(tup):
    """Shift each tau into [0, 1), absorbing integer parts into b.

    Replacing tau_j by its fractional part and b by b - sum(floor(tau_j))
    leaves realisability unchanged, so every decision can assume
    normalized weights.
    """
    shift = sum(t.num // t.den for t in tup.taus)
    return SeifertTuple(tup.J, tup.b - shift, tup.gammas,
                        tuple(ExtRational(t.num % t.den, t.den)
                              for t in tup.taus))


@dataclass(frozen=True)
class ReducedTuple:
    """A normalized tuple with forced slots stripped.

    ``slots`` lists the surviving constraints as (value, strict) pairs:
    every gamma (always strict) and every tau in (0, 1) (strict exactly
    when its index lies in J).  ``zeros`` counts the tau weights equal
    to 0 whose index is outside J; weights equal to 0 with index in J
    impose no constraint at all and are dropped.  ``kept_indices`` maps
    the surviving tau slots back to 1-based input positions.
    """

    b: int
    slots: tuple
    zeros: int
    kept_indices: tuple


def reduce_integral(tup):
    """Normalize a tuple as ``normalize`` does and strip forced integral slots.

    The tau weights are shifted into [0, 1) on the fly, so a validated
    SeifertTuple is reduced without being rebuilt.
    """
    b = tup.b
    slots = [(g, True) for g in tup.gammas]
    zeros = 0
    kept = []
    for idx, t in enumerate(tup.taus, start=1):
        fl, fn = divmod(t.num, t.den)
        b -= fl
        t = ExtRational(fn, t.den)
        if t.num == 0:
            if idx in tup.J:
                continue
            zeros += 1
        else:
            slots.append((t, idx in tup.J))
            kept.append(idx)
    return ReducedTuple(b, tuple(slots), zeros, tuple(kept))


def jn_realizable(query):
    """Decide a reduced query (fields b, slots, zeros)."""
    slot_key = tuple((v.num, v.den, st) for v, st in query.slots)
    return _decide(query.b, slot_key, query.zeros)


def decide(J, b, gammas, taus):
    """Decide an arbitrary tuple: validate, reduce, then dispatch."""
    tup = SeifertTuple(frozenset(J), b, tuple(gammas), tuple(taus))
    return jn_realizable(reduce_integral(tup))


def inner_basis_map(params):
    """Basis change into cable-space coordinates: p/q -> inf, inf -> -s/q."""
    return IntMobius(params.s, params.r, -params.q, params.p)


def outer_basis_map(params):
    """Basis change out to the cabled knot: -1 -> inf, inf -> pq."""
    pq = params.p * params.q
    return IntMobius(pq, pq + 1, 1, 1)


def _ray(params, side, at, include, strict):
    """Union of t (weak) or t_strict (strict) over tau >= at (right) or
    tau <= at (left), equality dropped unless ``include``; its end is the
    window of t(at) on that side (see the module docstring).
    """
    gamma = Fraction(params.gamma.num, params.gamma.den)
    x = Fraction(at.num, at.den)
    tb = x % 1
    if tb == 0:
        if include and not strict:
            end, closed = (-x if side == "right" else -x - 1), True
        else:
            end, closed = -x - gamma, strict and include
        end = ExtRational(end.numerator, end.denominator)
    else:
        fixed = [(gamma.numerator, gamma.denominator, True),
                 (tb.numerator, tb.denominator, strict or not include)]
        left, right, degenerate = _gates(fixed)
        opens, sign = (right, 1) if side == "right" else (left, -1)
        end = _window(fixed, opens, -math.floor(x) - 1, sign)
        closed = not strict or (include and degenerate)
    if side == "right":
        return SlopeSet.ray_below(end, closed)
    return SlopeSet.ray_above(end, closed)


def _piece_union(params, piece, strict):
    """Union of intervals over one affine piece of the inner-image set."""
    low, low_closed, high, high_closed = piece
    if low is None and high is None:
        return SlopeSet.reals()
    if low is None:
        return _ray(params, "left", high, high_closed, strict)
    if high is None:
        return _ray(params, "right", low, low_closed, strict)
    return _ray(params, "right", low, low_closed, strict).intersect(
        _ray(params, "left", high, high_closed, strict))


def cable_detected_set(params, input_set, mode, exactness="auto"):
    """Detected slopes of the cable, given the detected slopes downstairs.

    Returns (slope_set, tag) where tag is "equals" or "contains".  Weak
    mode is always exact.  Strong mode always reports a guaranteed
    subset.  Regular and weak mode compute the same set and differ only
    in the tag: regular mode reports "equals" unless the caller passes
    exactness="contains".  No input calls for "contains" by itself: a
    full input's inner image is the reals, one unbounded piece whose
    union is the reals, and with the fiber slope the output is the full
    circle.
    """
    if not isinstance(mode, DetectionMode):
        raise ValueError("mode must be a DetectionMode")
    if exactness not in ("auto", "equals", "contains"):
        raise ValueError("exactness must be 'auto', 'equals' or 'contains'")
    has_fiber = input_set.contains(params.fiber_slope)
    inner = mobius_set_image(inner_basis_map(params), input_set)
    inner = inner.intersect(SlopeSet.reals())
    use_strict = mode is DetectionMode.STRONG
    out = SlopeSet.empty()
    for piece in inner.affine_pieces():
        out = out.union(_piece_union(params, piece, use_strict))
    if has_fiber:  # the fiber slope passes through in every mode
        out = out.with_infinity()
    result = mobius_set_image(outer_basis_map(params), out)
    if mode is DetectionMode.WEAK:
        tag = "equals"
    elif mode is DetectionMode.STRONG:
        if exactness == "equals":
            raise ValueError("strong mode only guarantees a subset")
        tag = "contains"
    else:
        tag = "contains" if exactness == "contains" else "equals"
    return result, tag


def mobius_set_image(m, s):
    """Exact image of a SlopeSet under a Moebius map.

    Works piece by piece and canonicalises once.  A point maps to a
    point, and so does the point at infinity when it belongs to s.  Any
    other affine piece is an arc avoiding infinity; its image is the
    connected arc between the images of its ends, traversed positively
    when det > 0 and negatively when det < 0.
    """
    ivs = []
    inf = False
    if s.has_infinity:
        inf = _point_cuts(m.apply(INF), ivs)
    flip = m.det < 0
    for l, lc, h, hc in s.affine_pieces():
        if l is not None and l == h:
            inf = _point_cuts(m.apply(l), ivs) or inf
            continue
        u = m.apply(INF if l is None else l)
        v = m.apply(INF if h is None else h)
        if flip:
            u, lc, v, hc = v, hc, u, lc
        inf = _directed_cuts(u, lc, v, hc, ivs) or inf
    return SlopeSet(ivs, inf)
