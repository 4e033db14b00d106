"""Brute-force cross-checks for the interval machinery.

The scanner enumerates rational slopes on a denominator-bounded grid
and decides each one directly through the realisability test, so the
closed-form and search-based intervals can be validated point by
point.  This module shares no code with the solver it checks: it
imports nothing from ``jn``, ``seifert`` or ``intervals``, and decides
on integer (num, den, strict) slots with a witness test of its own.

A b = 1 witness gives two slots i and j the values A/N and (N-A)/N and
every other slot 1/N, so some N from 2 up to the least cap (the
largest N whose 1/N the slot accepts) of the other slots must have an
integer A in [v_i N, (1 - v_j) N], open at a strict end.  A need not
be coprime to N: a non-reduced A/N equals some a/n with n < N, and
1/n > 1/N still suits every other slot, so a/n is a witness too.  So
the least N in the window decides.  ``_descend`` is the module's one
walk down the Stern-Brocot tree: it finds a window's first node, of
least N, in O(log) batched steps, with no loop over N and no gap
argument, and ``_least_window_N`` hands it the pair's window.

The scan works on integers too.  A grid point tau' = num/den, with
num = fl den + fn and 0 <= fn < den, adds the slot fn/den to the
fixed slots of gamma and tau and puts b at b0 - fl, b0 being the shift
left by tau's floor.  The realisable b of one slot list form an integer
interval, ``_realisable_range``, so at b0 = 0 the realised tau' of
every den >= 2 are the grid points of one interval [L, H], which
``_spans`` gives:

- k >= 3 slots with tau' and no zero slot: 2 <= b <= k - 2 always,
  b = 1 when fn/den has a b = 1 witness, fn/den <= x/y, and b = k - 1
  when its complement has one, 1 - fn/den <= cx/cy, for the two sups
  below, so [L, H] = [(2 - k) - cx/cy, x/y - 1].  It is open when
  tau' is strict and a sup is non-zero, closed else.
- With zero slots the range ignores the slot values, so [L, H] is
  [-max b, 1 - min b] of it, open when tau' is strict.
- With one fixed slot v and no zero slot, the two values in (0, 1)
  must add up to b, so [L, H] is the point -v, b = 1, closed.
- For den = 1 the one residue is 0, a zero slot unless tau' is strict,
  and the realised numerators form the span [s, e) of its range.

One rule writes both sides: ``_member_cuts`` turns an end n/d of the
expected set into a triple (n, off, d) whose cut (n den + off) // d is
the least num inside the set or above it, and writes [L, H] so too.
num/den lies in the expected set exactly when an odd number of its
cuts is at most num, and is realised exactly when one of s and e is,
the cuts of den 1's span or of [L, H].  So sorted, all these cuts
bound the disagreements as [x0, x1), [x2, x3), ....  A correct t or
t_strict has [L, H]'s triples: every pair cancels at every den >= 2,
and one comparison of the two lists stands for the sweep there.  Only
a wrong set is swept den by den.  The hull needs no sweep:
``_least_above`` walks ``_descend`` to [L, H]'s least and greatest grid
points.  So a correct scan costs two sups and two walks whatever D,
and a sweep O(D) cuts and runs, while ``tested_points`` still counts
every grid point, rows times phi(den); a report pays one gcd per
numerator in a run.

The residues of one scan need no witness loop per denominator.  A
witness for a higher slot value meets a lower one's inequality too, so
with the other slots fixed tau' has a b = 1 witness exactly when it
suits W, the largest value a witness gives its slot, and its complement
has one exactly when it suits the complement slots' W.
``_free_slot_sup`` takes the exact W over two witness shapes, N bounded
by the least cap of the slots outside the pair, or with none by
di + dj, as a non-empty window holds the mediant of its ends:
- a fixed pair takes A/N and (N-A)/N, the free slot 1/N at the least N
  over the pairs whose window holds an A, from ``_least_window_N``;
- the free slot pairs with fixed slot i and takes (N-A)/N, so W is
  1 less the least A/N slot i accepts: ``_descend`` on the window
  [v_i, v_i], open at a strict v_i, hits v_i or ends on the least
  fraction above it.
No bound D enters W: a grid point at or below 1/N has den >= N, so it
would change no decision, only move [L, H] off the expected set's ends.
``_witness_exists`` reads W too: k >= 3 slots have a witness exactly
when the last suits the others' W, so one loop runs over slot pairs.

Each translation class of tau is scanned once.  Moving tau by an
integer moves b0 the other way, and every span and row is b0 den plus
its value at b0 = 0.  Adding b0 den to a numerator keeps its gcd with
den and the order of the grid points, so ``_relative_scan`` scans at
b0 = 0, on the expected set's cuts less b0 den, and
``grid_scan_interval`` adds b0 den back into fresh objects.
``_relative_scan`` is the scan's one memo, keyed on (slots, zeros,
strict, max_denominator, cuts): a translate whose expected set moves
with it is a cache hit.  It holds at most 256 entries, each the hull
ends and O(D) runs per expected piece, however many points they hold.
Beneath it only ``_coprime_count`` is cached.
"""

import math
from functools import lru_cache

from .exact import ExtRational, SlopeSet, _Record, _as_rat


class ScanReport(_Record):
    """A scan's realised hull (None, None: empty), point count and
    (point, got, expected) mismatches, a fresh list by default."""

    __slots__ = _fields = ("hull_low", "hull_high", "tested_points",
                           "mismatches")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, hull_low, hull_high, tested_points, mismatches=None):
        self.hull_low = hull_low
        self.hull_high = hull_high
        self.tested_points = tested_points
        self.mismatches = [] if mismatches is None else mismatches

    @property
    def ok(self):
        return not self.mismatches


def _check_J(J, count):
    J = frozenset(J)
    for j in J:
        if not (isinstance(j, int) and 1 <= j <= count):
            raise ValueError("J must contain 1-based tau indices")
    return J


def _gamma_slot(g):
    g = _as_rat(g)
    if g.is_infinite or not 0 < g.num < g.den:
        raise ValueError("gamma weight must lie strictly between 0 and 1: %s"
                         % g)
    return (g.num, g.den, True)


def _witness_exists(slots):
    """Whether two or more (num, den, strict) slots admit a b = 1 witness:
    two when their window holds a fraction, more when the last one suits
    the others' free-slot sup W, n/d <= W (< W if strict)."""
    if len(slots) == 2:
        return _least_window_N(*slots, slots[0][1] + slots[1][1]) is not None
    x, y = _free_slot_sup(slots[:-1])
    n, d, st = slots[-1]
    return x * d - n * y >= st


def _least_window_N(slot_i, slot_j, bound):
    """The least N <= bound whose window [v_i, 1 - v_j], open at a strict
    end, holds some A/N, or None.  An empty window is refused before
    ``_descend``, which needs its ends ordered to end.
    """
    ni, di, si = slot_i
    nj, dj, sj = slot_j
    room = (dj - nj) * di - ni * dj
    if room < 0 or room == 0 and (si or sj):
        return None  # the window is empty
    hit, _, N = _descend(slot_i, (dj - nj, dj, sj), bound)
    return N if hit else None


def _descend(low, high, bound):
    """The Stern-Brocot descent from 0/1 and 1/1 to the window between
    ends low and high, each (num, den, open) in (0, 1), in batched runs.
    Returns (True, A, N) for the window's first node, of least N, or
    (False, c, e) for the least c/e above it with e <= bound.  Its ends
    must not cross; (v, v], though empty, ends on the least c/e > v."""
    ln, ld, lo = low
    hn, hd, ho = high
    a, b, c, e = 0, 1, 1, 1  # a/b lies below the window and c/e above
    while b + e <= bound:
        # p/q clears low when p ld - ln q >= lo and high when
        # hn q - p hd >= ho; la, lc and ha, hc are those margins for
        # a/b and c/e, and the mediant's are their sums
        la, lc = a * ld - ln * b, c * ld - ln * e
        ha, hc = hn * b - a * hd, hn * e - c * hd
        if la + lc < lo:
            # a/b moves up by the most steps that keep it below
            t = min((lo - la - 1) // lc, (bound - b) // e)
            a, b = a + t * c, b + t * e
        elif ha + hc < ho:
            # c/e moves down by the most steps that keep it above; a/b
            # on high (ha = 0, only in (v, v]) lets it go to the bound
            t = min((ho - hc - 1) // ha if ha else bound, (bound - e) // b)
            c, e = c + t * a, e + t * b
        else:
            return True, a + c, b + e
    return False, c, e


def _realisable_range(slots, zeros):
    """The b realising k (num, den, strict) slots and ``zeros`` zero slots.

    With zeros: [2 - zeros, k + zeros - 2].  For k < 3: the slot sum if
    it is an integer.  Else [2, k - 2], widened to 1 by a b = 1 witness
    of the slots and to k - 1 by one of their complements.
    """
    k = len(slots)
    if zeros:
        return range(2 - zeros, k + zeros - 1)
    if k < 3:
        # arity 2: both translation numbers are pinned, so the slot
        # values must add up to b exactly
        num, den = 0, 1
        for n, d, _ in slots:
            num, den = num * d + n * den, den * d
        b, r = divmod(num, den)
        return range(0) if r else range(b, b + 1)
    low = 1 if _witness_exists(slots) else 2
    high = k - 2
    if _witness_exists([(d - n, d, st) for n, d, st in slots]):
        high = k - 1
    return range(low, high + 1)


def _free_slot_sup(fixed):
    """The largest value (X, Y) a free slot takes in a b = 1 witness with
    two or more (num, den, strict) slots ``fixed``, (0, 1) if none."""
    caps = [(d - st) // n for n, d, st in fixed]
    x, y = 0, 1
    for i, (n, d, st) in enumerate(fixed):
        # the free slot pairs with i, which takes the least A/N it
        # accepts: in the window [v, v], open at v if strict, or above it
        _, A, N = _descend((n, d, st), (n, d, False),
                           min(caps[:i] + caps[i + 1:]))
        if (N - A) * y > x * N:
            x, y = N - A, N
    for i in range(len(fixed)):
        for j in range(i + 1, len(fixed)):
            # the pair (i, j) takes A/N and (N-A)/N and the free slot 1/N
            rest = caps[:i] + caps[i + 1:j] + caps[j + 1:]
            N = _least_window_N(fixed[i], fixed[j],
                                min(rest, default=fixed[i][1] + fixed[j][1]))
            if N and N * x < y:
                x, y = 1, N
    return x, y


@lru_cache(maxsize=1 << 8)
def _coprime_count(max_denominator):
    """The sum of phi(den) over den <= max_denominator, by a sieve."""
    phi = list(range(max_denominator + 1))
    for p in range(2, max_denominator + 1):
        if phi[p] == p:  # p is prime
            for m in range(p, max_denominator + 1, p):
                phi[m] -= phi[m] // p
    return sum(phi[1:])


def _spans(fixed, zeros, strict):
    """The realised tau' at b0 = 0, with the (num, den, strict) slots
    ``fixed`` and ``zeros`` zero slots: den 1's numerator span [s, e),
    and L, H and closed of the interval [L, H] of every den >= 2."""
    rng = _realisable_range(fixed, zeros + (not strict))  # tau' = 0
    s, e = (-rng[-1], 1 - rng[0]) if rng else (0, 0)
    closed = not strict
    if zeros:
        # with zero slots any slot value gives the same range
        rng = _realisable_range(fixed + ((1, 2, strict),), zeros)
        low, high = ExtRational(-rng[-1]), ExtRational(1 - rng[0])
    elif len(fixed) < 2:
        # arity 2: tau' = -v alone, v = n/d the one fixed slot
        (n, d, _), = fixed
        low = high = ExtRational(-n, d)
        closed = True
    else:
        # fn/den has a b = 1 witness when it is <= W = x/y (< W if
        # strict), and its complement one when 1 - fn/den is <= cx/cy (<)
        x, y = _free_slot_sup(fixed)
        cx, cy = _free_slot_sup(tuple((d - n, d, st) for n, d, st in fixed))
        low = ExtRational._reduced((1 - len(fixed)) * cy - cx, cy)
        high = ExtRational._reduced(x - y, y)
        closed = not (strict and (x or cx))
    return (s, e), low, high, closed


def _reduce(J, b, gammas, taus):
    """Validate a tuple (J; b; gammas; taus) and reduce it to integers.

    Returns (b, slots, zeros).  Every gamma is a strict slot; each tau
    adds its floor to the shift of b and its fractional part as a slot
    (strict when its index is in J), unless that part is 0: then it is
    a zero slot outside J and no constraint inside.  Raises ValueError
    for a gamma outside (0, 1), an infinite tau or a J index that names
    no tau.
    """
    slots = [_gamma_slot(g) for g in gammas]
    taus = [_as_rat(t) for t in taus]
    if any(t.is_infinite for t in taus):
        raise ValueError("tau weight must be finite")
    J = _check_J(J, len(taus))
    zeros = 0
    for idx, t in enumerate(taus, start=1):
        fl, fn = divmod(t.num, t.den)
        b -= fl
        if fn:
            slots.append((fn, t.den, idx in J))
        elif idx not in J:
            zeros += 1
    return b, tuple(slots), zeros


def _decide_point(J, b, gammas, taus):
    """Realisability of one tuple (J; b; gammas; taus)."""
    b, slots, zeros = _reduce(J, b, gammas, taus)
    return b in _realisable_range(slots, zeros)


def _member_cuts(pieces, b0, lo, hi):
    """The cut triples (n, off, d) of affine pieces (low, low_closed,
    high, high_closed): a ceil (off = d - 1) or a floor + 1 (off = d) of
    n den / d, or the scan limit (lo, 0, 1) or (hi, 0, 1) at an unbounded
    end, all less b0 den: n - b0 d for n, and lo and hi rows less b0."""
    cuts = []
    for l, lc, h, hc in pieces:
        cuts.append((lo, 0, 1) if l is None
                    else (l.num - b0 * l.den, l.den - lc, l.den))
        cuts.append((hi, 0, 1) if h is None
                    else (h.num - b0 * h.den, h.den - (not hc), h.den))
    return tuple(cuts)


def _least_above(n, d, strict, bound):
    """The least fraction (num, den), 2 <= den <= bound, at or above
    n/d, or above it if ``strict``: ``_descend`` on the window [v, v]
    of the fractional part v, or else the next integer plus 1/bound."""
    fl, fn = divmod(n, d)
    if fn:
        _, A, N = _descend((fn, d, strict), (fn, d, False), bound)
        if A < N:
            return fl * N + A, N
        fl += 1
    return fl * bound + 1, bound


def _scan_rows(fixed, zeros):
    """The open row window (m0 - 2, m1 + 2) of a scan, less b0.

    The core window [m0, m1] is m0 = b0 - (tau slots + zeros) and
    m1 = b0 + zeros - 1, where ``fixed`` holds gamma and the tau slots.
    """
    return -(len(fixed) - 1 + zeros) - 2, zeros + 1


# typed: a key equal to a cached one but of another type, such as a
# float max_denominator, still runs the scan and fails as it would
@lru_cache(maxsize=1 << 8, typed=True)
def _relative_scan(fixed, zeros, strict, max_denominator, ends):
    """The scan of one translation class, in numerators less b0 den.

    ``ends`` are the expected set's cuts from ``_member_cuts``, or None.
    Returns (low, high, tested, found): the hull ends as (num, den) or
    None, the point count, and disagreement runs (x0, x1, den, got) in
    (den, num) order, of the num coprime to den in [x0, x1); no cut, s
    and e among them, lies in a run clipped to the rows, so got is fixed.
    """
    lo, hi = _scan_rows(fixed, zeros)
    (s1, e1), low, high, closed = _spans(fixed, zeros, strict)
    cuts = _member_cuts(((low, closed, high, closed),), 0, None, None)
    found = []
    if ends is not None:
        # den 1 keeps its own row; equal cut lists give equal columns,
        # which cancel in pairs
        for dens, span in ((range(1, 2), ((s1, 0, 1), (e1, 0, 1))),
                           (range(2, max_denominator + 1), cuts)):
            if ends == span:
                continue
            cols = [[(n * den + off) // d for den in dens]
                    for n, off, d in ends + span]
            for den, col in zip(dens, zip(*cols)):
                # the grid is the num coprime to den in [start, stop)
                s, e = col[-2:]
                start, stop = lo * den + 1, hi * den
                col = iter(sorted(col))
                for x0, x1 in zip(col, col):
                    x0, x1 = max(x0, start), min(x1, stop)
                    if x0 < x1:
                        found.append((x0, x1, den, s <= x0 < e))
    # the hull [ln/ld, hn/hd], 1/0 and -1/0 while empty: den 1's ends,
    # then [L, H]'s least and greatest fractions of den 2 to D
    ln, ld, hn, hd = (s1, 1, e1 - 1, 1) if s1 < e1 else (1, 0, -1, 0)
    if max_denominator > 1:
        a, b = _least_above(low.num, low.den, not closed, max_denominator)
        c, d = _least_above(-high.num, high.den, not closed, max_denominator)
        if a * d <= -c * b:
            if a * ld < ln * b:
                ln, ld = a, b
            if -c * hd > hn * d:
                hn, hd = -c, d
    # every den has (hi - lo) phi(den) grid points, but den = 1 lacks lo
    tested = (hi - lo) * _coprime_count(max_denominator) - 1
    if not ld:
        return None, None, tested, tuple(found)
    return (ln, ld), (hn, hd), tested, tuple(found)


def grid_scan_interval(params, J, tau, max_denominator=24, expected=None):
    """Scan tau' over a denominator-bounded grid around the core window.

    Tests every reduced fraction with denominator <= max_denominator in
    (m0 - 2, m1 + 2) and returns the hull of the realisable points.
    When ``expected`` is given, as a ``SlopeSet`` such as an interval
    result's t, disagreements are collected as (point, got, expected)
    mismatches in (denominator, numerator) order; any other type raises
    TypeError.  The scan of tau's translation class is cached, and
    shifted here by b0.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be at least 1")
    if not (expected is None or isinstance(expected, SlopeSet)):
        raise TypeError("expected must be a SlopeSet")
    # the tuple is (J; 0; gamma; tau, tau'): tau has index 1, tau' 2
    J = _check_J(J, 2)
    gamma = ExtRational(params.q + params.s, params.q)
    b0, fixed, zeros = _reduce(J - {2}, 0, (gamma,), (tau,))
    ends = (None if expected is None
            else _member_cuts(expected.affine_pieces(), b0,
                              *_scan_rows(fixed, zeros)))
    low, high, tested, found = _relative_scan(fixed, zeros, 2 in J,
                                              max_denominator, ends)
    # a run's grid points are its num coprime to den, as is num + b0 den
    mismatches = [(ExtRational._reduced(num + b0 * den, den), got, not got)
                  for x0, x1, den, got in found for num in range(x0, x1)
                  if math.gcd(num, den) == 1]
    if low is None:
        return ScanReport(None, None, tested, mismatches)
    return ScanReport(ExtRational._reduced(low[0] + b0 * low[1], low[1]),
                      ExtRational._reduced(high[0] + b0 * high[1], high[1]),
                      tested, mismatches)


def exhaustive_witness_check(values, claimed):
    """Validate a claimed witness, or a claimed non-existence, by brute force.

    ``values`` lists (value, strict) slot constraints with at least two
    slots.  A claimed witness is checked directly against the slot
    inequalities and the required multiset shape; claimed=None is
    confirmed when two slots' window is empty, or when the last of
    three or more slots lies above the others' free-slot sup (or on it,
    if strict), which walks of O(log) steps find.
    """
    values = [(v if isinstance(v, ExtRational) else ExtRational(v), bool(st))
              for v, st in values]
    if len(values) < 2:
        raise ValueError("need at least two slots")
    for v, _ in values:
        # infinity is stored as 1/0, so it fails this too
        if not 0 < v.num < v.den:
            raise ValueError("slot values must lie in (0,1)")
    if claimed is None:
        return not _witness_exists([(v.num, v.den, st) for v, st in values])
    N, A = claimed.N, claimed.A
    if not (0 < A < N) or math.gcd(A, N) != 1:
        return False
    # reduced (num, den) pairs are equal exactly when their values are
    assigned = [(x.num, x.den) for x in claimed.assignment]
    want = sorted([(A, N), (N - A, N)] + [(1, N)] * (len(values) - 2))
    if sorted(assigned) != want:
        return False
    for (v, strict), (n, d) in zip(values, assigned):
        # n/d - v has the sign of n v.den - v.num d: a strict slot needs
        # it positive, any other slot non-negative
        if n * v.den - v.num * d < strict:
            return False
    return True
