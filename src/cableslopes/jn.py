"""Deciding JN-realisability of slope tuples, and the witness solver.

``decide`` reduces a tuple with ``seifert.reduce_integral``, the
interval path's own reduction, to a query: the integer b + b0, the
surviving slots as integers (num, den, strict) and the count s0 of
zero slots.  Dispatch:

- with zero slots present, realisability is an integer window on b;
- with none and k <= 2 slots, every translation number is pinned, so
  the slot values must add up to b (``slot-sum``);
- otherwise b outside [1, k-1] is never realisable, 2 <= b <= k-2 is
  always realisable, b = k-1 reduces to b = 1 by complementing every
  slot value, and b = 1 is decided by a search for a coprime witness
  pair (A, N) whose multiset {A/N, (N-A)/N, 1/N, ...} can be assigned
  to the slots respecting every inequality.

This module holds the one solver for that search; ``intervals`` takes
``extremal_slot_value`` from here.  A witness gives two special slots
i and j the values A/N and (N-A)/N and every other slot 1/N.  So A/N
lies in the window [v_i, 1 - v_j], open at a strict end, and N is at
most the cap (largest N with 1/N acceptable) of every other slot, so
at most their least cap, taken over the other slots each time.
Caps only bound N from above, so each ordered pair needs just one
fraction: the least-denominator A/N in its window, found by a walk
down the Stern-Brocot tree (Graham-Knuth-Patashnik, Concrete
Mathematics, 4.5 and 6.7) in O(log D) integer steps.  The largest
value a free slot can take is a one-sided best approximation found by
the same walk.  No bound on N is needed.

Each unordered pair is walked once: x -> 1 - x maps the window of
(i, j) onto that of (j, i), open ends to open ends, so both have the
same least denominator N, at A and N - A, and the same slots outside.
Slots come as (value, strict) or as integers (num, den, strict).
``witness_search`` and ``extremal_slot_value`` validate them in the
pass that takes their caps.  A walk's nodes are reduced with den > 0,
as are 1/N and (N - A)/N, so values are built by
``ExtRational._reduced``.

The witness search is deterministic: least N, then least A, then the
lexicographically first slot pair, so reported witnesses are minimal
and stable.
"""

import itertools
from functools import lru_cache

from .exact import ExtRational, _Record, _as_rat
from .seifert import reduce_integral


class JNWitness(_Record):
    """A realisability certificate for a b=1 query.

    ``assignment`` maps each slot, in input order, to the fraction it
    received out of the multiset {A/N, (N-A)/N, 1/N, ..., 1/N}.
    """

    __slots__ = _fields = ("N", "A", "assignment")

    def __init__(self, N, A, assignment):
        self._fill(N, A, assignment)


class JNResult(_Record):
    """A decision, true exactly when ``realizable``; ``witness`` is the
    JNWitness of a b=1 search or None, and ``rule`` names the branch."""

    __slots__ = _fields = ("realizable", "witness", "rule")

    def __init__(self, realizable, witness, rule):
        self._fill(realizable, witness, rule)

    def __bool__(self):
        return self.realizable


def _slot_caps(values, least):
    """The slots as (num, den, strict), validated, and their caps, the
    largest N with num/den < 1/N (<= when not strict), in one pass."""
    slots, caps = [], []
    for slot in values:
        if len(slot) == 2:
            value = _as_rat(slot[0])
            slot = value.num, value.den, slot[1]
        num, den, strict = slot
        if not 0 < num < den:
            raise ValueError("slot value must lie in (0,1): %s"
                             % ExtRational(num, den))
        strict = bool(strict)
        slots.append((num, den, strict))
        caps.append((den - strict) // num)
    if len(slots) < least:
        raise ValueError("need at least %d slots" % least)
    return slots, caps


def _least_outside(caps, i, j):
    """The least cap of the slots other than i and j, or None."""
    least = None
    for m, cap in enumerate(caps):
        if m != i and m != j and (least is None or cap < least):
            least = cap
    return least


def _walk(low, high, cap):
    """Walk down the Stern-Brocot tree towards a window of fractions.

    The window runs from ``low`` to ``high``, each given as (num, den,
    open), inside (0, 1).  Returns (True, A, N) for the window's
    least-denominator fraction A/N when N <= cap (None: no cap), or
    else (False, a, n) for the largest fraction a/n below the window
    with n <= cap (0/1 when there is none).  Each run of steps in one
    direction is taken in one batch, so the walk takes O(log den) steps.
    """
    ln, ld, lopen = low
    un, ud, uopen = high
    a, b, c, d = 0, 1, 1, 1  # a/b lies below the window, c/d above it
    while cap is None or b + d <= cap:
        m, n = a + c, b + d
        if m * ld < ln * n or lopen and m * ld == ln * n:
            # largest t with (a + t c)/(b + t d) still below the window;
            # g = 0 only when c/d closes an empty window [x, x): no limit
            g = c * ld - ln * d
            t = (ln * b - a * ld - (not lopen)) // g if g else cap
            if cap is not None:
                t = min(t, (cap - b) // d)
            a, b = a + t * c, b + t * d
        elif m * ud > un * n or uopen and m * ud == un * n:
            # largest s with (c + s a)/(d + s b) still above the window
            s = (c * ud - un * d - (not uopen)) // (un * b - a * ud)
            c, d = c + s * a, d + s * b
        else:
            return True, m, n
    return False, a, b


def _pair_witness(slot_i, slot_j, cap):
    """The least (N, A) of a witness with special pair (i, j), or None.

    Slot i takes A/N, slot j takes (N-A)/N and every other slot 1/N.
    The A/N that suit the pair are the fractions in the window
    [v_i, 1 - v_j], open at a strict end, and the other slots accept
    1/N exactly for N up to ``cap``, their least cap (None: no other
    slot).  The least-denominator fraction of a window is unique and
    reduced, so it is the witness.
    """
    ni, di, si = slot_i
    nj, dj, sj = slot_j
    gap = (dj - nj) * di - ni * dj
    if gap < 0 or gap == 0 and (si or sj):
        return None
    hit, A, N = _walk((ni, di, si), (dj - nj, dj, sj), cap)
    return (N, A) if hit else None


def witness_search(values):
    """Find the minimal witness for a b=1 query, or None.

    Takes the least N over every ordered slot pair, then the least A,
    then the first pair.  Pair (j, i) is the mirror of pair (i, j):
    (N, N - A) where (i, j) has (N, A).
    """
    slots, caps = _slot_caps(values, 3)
    found = []
    for i, j in itertools.combinations(range(len(slots)), 2):
        fit = _pair_witness(slots[i], slots[j], _least_outside(caps, i, j))
        if fit is not None:
            N, A = fit
            found += (N, A, i, j), (N, N - A, j, i)
    if not found:
        return None
    N, A, i, j = min(found)
    assignment = [ExtRational._reduced(1, N)] * len(slots)
    assignment[i] = ExtRational._reduced(A, N)
    assignment[j] = ExtRational._reduced(N - A, N)
    return JNWitness(N, A, tuple(assignment))


def extremal_slot_value(fixed):
    """Largest value a free extra slot can receive in any witness.

    ``fixed`` lists at least two (value in (0,1), strict) constraints.
    The free slot joins them with no constraint.  Either it is special
    with one fixed slot j, and takes the largest x/n <= 1 - v_j (< when
    j is strict) whose n fits under the caps of the other fixed slots,
    or two fixed slots are special and it takes 1/N at the least N of
    any pair, which a pair and its mirror share.  Returns None when no
    witness exists at all.
    """
    slots, caps = _slot_caps(fixed, 2)
    best_num, best_den = 0, 1
    for j, (nj, dj, sj) in enumerate(slots):
        # the one-point window {1 - v_j}, empty when j is strict: the
        # walk returns that point or the largest fraction below it
        _, x, n = _walk((dj - nj, dj, False), (dj - nj, dj, sj),
                        _least_outside(caps, j, j))
        if x * best_den > best_num * n:
            best_num, best_den = x, n
    for i, j in itertools.combinations(range(len(slots)), 2):
        fit = _pair_witness(slots[i], slots[j], _least_outside(caps, i, j))
        if fit is not None and fit[0] * best_num < best_den:
            best_num, best_den = 1, fit[0]
    # a Stern-Brocot node or 1/N: reduced as it stands
    return ExtRational._reduced(best_num, best_den) if best_num else None


@lru_cache(maxsize=1 << 16)
def _decide(b, slot_key, zeros):
    k = len(slot_key)
    total = k + zeros
    if zeros > 0:
        ok = 2 - zeros <= b <= total - 2
        return JNResult(ok, None, "integral-slot-window")
    if k < 3:
        # every translation number is pinned: the slot values must add
        # up to b exactly
        num, den = 0, 1
        for n, d, _ in slot_key:
            num, den = num * d + n * den, den * d
        return JNResult(num == b * den, None, "slot-sum")
    if b < 1 or b > k - 1:
        return JNResult(False, None, "translation-number-bound")
    if 2 <= b <= k - 2:
        return JNResult(True, None, "interior-window")
    if b == k - 1:
        w = witness_search([(d - n, d, st) for n, d, st in slot_key])
        return JNResult(w is not None, w, "complement-then-witness")
    w = witness_search(slot_key)
    return JNResult(w is not None, w, "witness-search")


def decide(J, b, gammas, taus):
    """Decide any tuple: validate and reduce it once, then dispatch."""
    dq, fixed = reduce_integral(gammas, taus, J)
    return _decide(b + dq.b0, tuple(fixed), dq.s0)
