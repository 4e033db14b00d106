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
interval, ``_realisable_range``, so per denominator the realised
numerators form one span [s, e): its members coprime to den are
exactly the realised grid points; ``_spans`` gives them at b0 = 0.

- k >= 3 slots with tau' and no zero slot: 2 <= b <= k - 2 always,
  b = 1 when fn has a b = 1 witness, fn <= a, and b = k - 1 when its
  complement has one, fn >= c, for a and c read off the two sups below.
  b = -fl falls as the row fl rises, so the row of b = k - 1 keeps
  the suffix fn >= c, the rows between keep every residue and the row
  of b = 1 the prefix fn <= a: s = (1 - k) den + c and
  e = a + 1 - den.  c = den or a = 0 puts an end on a multiple of
  den, which is no grid point, so needs no case of its own.
- With zero slots the range ignores the slot values, so every fn != 0
  shares one range and the span covers its rows whole.  Its end takes
  the cut of a closed end, m den + 1: m den is no grid point.
- With one fixed slot v and no zero slot, the two values in (0, 1)
  must add up to b, so the one realised point is tau' = -v, b = 1,
  and each den's span is that point's own member cuts.
- For den = 1 the one residue is 0, a zero slot unless tau' is strict.

The expected set becomes integer cuts on the numerator, two per affine
piece, and num/den lies in it exactly when an odd number of cuts is at
most num; it is realised exactly when one of s and e is.  So a grid
point disagrees exactly when an odd number of all these cuts is at
most num, and sorted they bound the disagreements as [x0, x1),
[x2, x3), ....  Each cut is built as a column over den, and when the
columns are the spans' s and e, as for a correct t of a fractional
tau or an integral one outside J, every pair cancels and nothing is
swept.  Else the sweep reads s and e before they shrink to the hull's
coprime ends and keeps the disagreements as these runs.  A scan costs
two sups, O(D) spans, cuts and runs and a few gcds where a span end
could move the hull, while ``tested_points`` still counts every grid
point, rows times phi(den); a report pays one gcd per numerator in a run.

The residues of one scan need no witness loop per denominator.  A
witness for a higher slot value meets a lower one's inequality too, so
with the other slots fixed tau' has a b = 1 witness exactly when it
suits W, the largest value a witness gives its slot, and its complement
has one exactly when it suits the complement slots' W.
``_free_slot_sup`` takes W over two witness shapes, N bounded by the
other slots' least cap:
- a fixed pair takes A/N and (N-A)/N, the free slot 1/N at the least N
  whose window holds an A, from ``_least_window_N``; a grid point
  suits 1/N only if 1/N >= fn/den >= 1/den, so N <= D too;
- the free slot pairs with fixed slot i and takes (N-A)/N, so W is
  1 less the least A/N slot i accepts: ``_descend`` on the window
  [v_i, v_i], open at a strict v_i, hits v_i or ends on the least
  fraction above it.

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
    a pair (i, j) takes A/N and (N - A)/N, and N runs up to the least cap
    (den - strict) // num among the other slots, each of which takes 1/N.
    """
    caps = [(d - st) // n for n, d, st in slots]
    for i in range(len(slots)):
        for j in range(i + 1, len(slots)):
            rest = caps[:i] + caps[i + 1:j] + caps[j + 1:]
            # with no rest nothing bounds N, and a non-empty window
            # holds the mediant of its ends, of denominator di + dj
            bound = min(rest) if rest else slots[i][1] + slots[j][1]
            if _least_window_N(slots[i], slots[j], bound):
                return True
    return False


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
    of the slots and to k - 1 by one of their complements.  The grid
    scan reads it only for tau' = 0 and for slots with zeros; for the
    others ``_spans`` reads the two sups or the slot sum.
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


def _free_slot_sup(fixed, max_denominator):
    """The largest value (X, Y) a free slot takes in a b = 1 witness with
    the (num, den, strict) slots ``fixed``, (0, 1) if none, as far as a
    grid point of denominator <= max_denominator can tell.
    """
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
            # the pair (i, j) takes A/N and (N-A)/N and the free slot 1/N,
            # which beats W = x/y only for N x < y
            rest = caps[:i] + caps[i + 1:j] + caps[j + 1:]
            rest += [max_denominator, (y - 1) // x if x else max_denominator]
            N = _least_window_N(fixed[i], fixed[j], min(rest))
            if N:
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


def _spans(fixed, zeros, strict, max_denominator):
    """Per denominator 1, 2, ..., the numerator span [s, e) of tau'.

    tau' = num/den with num coprime to den is realisable, with the
    (num, den, strict) slots ``fixed``, ``zeros`` zero slots and
    b0 = 0, exactly when s <= num < e; the module docstring derives
    each case.  A span with s >= e is empty.
    """
    k = len(fixed) + 1
    dens = range(2, max_denominator + 1)
    rng = _realisable_range(fixed, zeros + (not strict))  # tau' = 0
    out = [(-rng[-1], 1 - rng[0]) if rng else (0, 0)]
    if zeros:
        # with zero slots any slot value gives the same range
        rng = _realisable_range(fixed + ((1, 2, strict),), zeros)
        return out + [(-rng[-1] * den, (1 - rng[0]) * den + 1) for den in dens]
    if k < 3:
        # arity 2: tau' = -v alone, v = n/d the one fixed slot; each
        # span is that point's member cuts
        (n, d, _), = fixed
        return out + [(-(n * den // d), -n * den // d + 1) for den in dens]
    # fn/den has a b = 1 witness when it is <= W = x/y (< W if strict),
    # and its complement one when 1 - fn/den is <= cx/cy (<); W > 0
    # keeps each floor >= 0, and W = 0 gives 0 once strict is dropped
    x, y = _free_slot_sup(fixed, max_denominator)
    cx, cy = _free_slot_sup(tuple((d - n, d, st) for n, d, st in fixed),
                            max_denominator)
    sa, sc = strict if x else 0, strict if cx else 0
    return out + [((2 - k) * den - (cx * den - sc) // cy,
                   (x * den - sa) // y + 1 - den) for den in dens]


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
    """Integer cuts on num for membership of num/den in affine pieces.

    Each piece (low, low_closed, high, high_closed) gives the least num
    inside it and the least num above it.  For an end n/d that is a
    ceil or a floor + 1 of n den / d, so each cut is a triple (n, off, d)
    that sits at (n den + off) // d; an unbounded end gives the scan
    limit lo or hi, as (lo, 0, 1) or (hi, 0, 1).  All of it is less
    b0 den: a triple holds n - b0 d for n, and lo and hi are rows less b0.
    """
    cuts = []
    for l, lc, h, hc in pieces:
        cuts.append((lo, 0, 1) if l is None
                    else (l.num - b0 * l.den, l.den - lc, l.den))
        cuts.append((hi, 0, 1) if h is None
                    else (h.num - b0 * h.den, h.den - (not hc), h.den))
    return tuple(cuts)


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
    spans = _spans(fixed, zeros, strict, max_denominator)
    found = []
    if ends is not None:
        dens = range(1, max_denominator + 1)
        cols = [[(n * den + off) // d for den in dens] for n, off, d in ends]
        # cuts equal to the span ends cancel in pairs: no disagreement
        se = list(map(list, zip(*spans)))
        if cols != se:
            for den, (s, e), cuts in zip(dens, spans, zip(*cols, *se)):
                # the grid is the num coprime to den in [start, stop);
                # the hull's shrink drops no grid point: raw s, e will do
                start, stop = lo * den + 1, hi * den
                cuts = iter(sorted(cuts))
                for x0, x1 in zip(cuts, cuts):
                    x0, x1 = max(x0, start), min(x1, stop)
                    if x0 < x1:
                        found.append((x0, x1, den, s <= x0 < e))
    # the hull so far is [ln/ld, hn/hd], 1/0 and -1/0 while empty; an end
    # shrinks to its first grid point only when it could move the hull
    # and still moves it: only an integer m can shrink, to m den +- 1
    # (a zero-slot span ends at the cut m den + 1, so its e - 1 is one)
    ln, ld, hn, hd = 1, 0, -1, 0
    for den, (s, e) in enumerate(spans, 1):
        if s < e and s * ld < ln * den:
            while s < e and math.gcd(s, den) != 1:
                s += 1
            if s < e:
                ln, ld = s, den
        if s < e and (e - 1) * hd > hn * den:
            while s < e and math.gcd(e - 1, den) != 1:
                e -= 1
            if s < e:
                hn, hd = e - 1, den
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
    confirmed when no pair's window holds a fraction of denominator up
    to the other slots' caps (with two slots, when the pair's window is
    empty), each found by a walk of O(log) steps.
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
