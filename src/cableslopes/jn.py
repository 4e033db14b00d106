"""Deciding JN-realisability of slope tuples, and the witness solver.

``decide`` reduces a tuple with ``seifert.reduce_integral``, the
interval path's own reduction, to a query: the integer b + b0, the
surviving slots as integers (num, den, strict) and the count s0 of
zero slots.  Dispatch:

- with zero slots present, realisability is an integer window on b;
- otherwise b outside [1, k-1] is never realisable, 2 <= b <= k-2 is
  always realisable, b = k-1 reduces to b = 1 by complementing every
  slot value, and b = 1 is decided by a search for a coprime witness
  pair (A, N) whose multiset {A/N, (N-A)/N, 1/N, ...} can be assigned
  to the slots respecting every inequality.

This module holds the one solver for that search; ``intervals`` takes
``extremal_slot_value`` from here.  A witness gives two special slots
i and j the values A/N and (N-A)/N and every other slot 1/N.  So A/N
lies in the window [v_i, 1 - v_j], open at a strict end, and N is at
most the cap (largest N with 1/N acceptable) of every other slot.
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

The witness search is deterministic: least N, then least A, then the
lexicographically first slot pair, so reported witnesses are minimal
and stable.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .exact import ExtRational, _as_rat
from .seifert import reduce_integral


class UnsupportedArity(ValueError):
    """Raised for zero-free queries with fewer than three slots."""


@dataclass(frozen=True)
class JNWitness:
    """A realisability certificate for a b=1 query.

    ``assignment`` maps each slot, in input order, to the fraction it
    received out of the multiset {A/N, (N-A)/N, 1/N, ..., 1/N}.
    """

    N: int
    A: int
    assignment: tuple


@dataclass(frozen=True)
class JNResult:
    realizable: bool
    witness: object
    rule: str

    def __bool__(self):
        return self.realizable


def _slot_ints(values, least):
    out = []
    for slot in values:
        if len(slot) == 2:
            value = _as_rat(slot[0])
            slot = value.num, value.den, slot[1]
        num, den, strict = slot
        if not 0 < num < den:
            raise ValueError("slot value must lie in (0,1): %s"
                             % ExtRational(num, den))
        out.append((num, den, bool(strict)))
    if len(out) < least:
        raise ValueError("need at least %d slots" % least)
    return out


def _least_caps(slots):
    """Each slot's cap, the largest N with num/den < 1/N (<= when not
    strict), and the indices of the three least caps."""
    caps = [(den - strict) // num for num, den, strict in slots]
    return caps, sorted(range(len(caps)), key=caps.__getitem__)[:3]


def _cap_outside(caps, least, i, j):
    # the least cap among the slots other than i and j, or None
    for m in least:
        if m != i and m != j:
            return caps[m]
    return None


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
    slots = _slot_ints(values, 3)
    caps, least = _least_caps(slots)
    found = []
    for i, j in itertools.combinations(range(len(slots)), 2):
        fit = _pair_witness(slots[i], slots[j],
                            _cap_outside(caps, least, i, j))
        if fit is not None:
            N, A = fit
            found += (N, A, i, j), (N, N - A, j, i)
    if not found:
        return None
    N, A, i, j = min(found)
    assignment = [ExtRational(1, N)] * len(slots)
    assignment[i] = ExtRational(A, N)
    assignment[j] = ExtRational(N - A, N)
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
    slots = _slot_ints(fixed, 2)
    caps, least = _least_caps(slots)
    best_num, best_den = 0, 1
    for j, (nj, dj, sj) in enumerate(slots):
        # the one-point window {1 - v_j}, empty when j is strict: the
        # walk returns that point or the largest fraction below it
        _, x, n = _walk((dj - nj, dj, False), (dj - nj, dj, sj),
                        _cap_outside(caps, least, j, j))
        if x * best_den > best_num * n:
            best_num, best_den = x, n
    for i, j in itertools.combinations(range(len(slots)), 2):
        fit = _pair_witness(slots[i], slots[j],
                            _cap_outside(caps, least, i, j))
        if fit is not None and fit[0] * best_num < best_den:
            best_num, best_den = 1, fit[0]
    return ExtRational(best_num, best_den) if best_num else None


@lru_cache(maxsize=1 << 16)
def _decide(b, slot_key, zeros):
    k = len(slot_key)
    total = k + zeros
    if zeros > 0:
        ok = 2 - zeros <= b <= total - 2
        return JNResult(ok, None, "integral-slot-window")
    if k < 3:
        raise UnsupportedArity(
            "unsupported arity: %d slots with no integral slot" % k)
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
