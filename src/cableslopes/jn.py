"""Deciding JN-realisability of reduced slope tuples, and the witness solver.

A reduced query consists of an integer b, a list of slot constraints
(value in (0,1), strict flag), and a count of zero slots.  Dispatch:

- with zero slots present, realisability is an integer window on b;
- otherwise b outside [1, k-1] is never realisable, 2 <= b <= k-2 is
  always realisable, b = k-1 reduces to b = 1 by complementing every
  slot value, and b = 1 is decided by an exhaustive search for a
  coprime witness pair (A, N) whose multiset {A/N, (N-A)/N, 1/N, ...}
  can be assigned to the slots respecting every inequality.

This module holds the one solver for that search; ``intervals`` takes
``extremal_slot_value`` from here.  It works one N at a time.  A slot
accepts x/N exactly when x >= needs, the least numerator that meets
its inequality, so for a fixed N the A that let slot i take A/N and
slot j take (N-A)/N form the integer interval [needs_i, N - needs_j],
and only pairs {i, j} covering every slot with needs > 1 qualify.  The
solver therefore needs, per N and qualifying pair, only the smallest
or the largest A coprime to N in that interval.

The witness search is deterministic: ascending N, then ascending A,
then the lexicographically first slot assignment, so reported
witnesses are minimal and stable.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .exact import ExtRational
from .seifert import SeifertTuple, reduce_integral


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
    for value, strict in values:
        if not isinstance(value, ExtRational):
            value = ExtRational(value)
        if not (0 < value < 1):
            raise ValueError("slot value must lie in (0,1): %s" % value)
        out.append((value.num, value.den, bool(strict)))
    if len(out) < least:
        raise ValueError("need at least %d slots" % least)
    return out


# The free slot of extremal_slot_value: the constraint "value > 0",
# which every x/N meets.
_FREE = (0, 1, True)


def _cap(num, den, strict):
    # largest N with num/den < 1/N (strict) or <= 1/N (non-strict);
    # None for the free slot, which tolerates 1/N at every N
    if num == 0:
        return None
    if strict:
        return (den - 1) // num
    return den // num


def _bound(slots):
    """Upper bound on N over the witnesses the solver must visit.

    A witness assigns A/N and (N-A)/N to a special pair of slots and
    1/N to every other slot, and a slot of value v tolerates 1/N only
    for N <= floor(1/v) (or strictly below 1/v when the slot is
    strict).  So for each pair the capped slots outside it bound N.
    When no capped slot lies outside the pair (two fixed slots and the
    free slot), A/N must land in the gap between v_i and 1 - v_j, the
    free slot receives 1/N, which only shrinks as N grows, and a short
    interval argument bounds the smallest usable N.
    """
    caps = [_cap(*slot) for slot in slots]
    best = 0
    for i, j in itertools.combinations(range(len(slots)), 2):
        rest = [c for m, c in enumerate(caps)
                if m != i and m != j and c is not None]
        if rest:
            best = max(best, min(rest))
        elif caps[i] is not None and caps[j] is not None:
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


def search_bound(values):
    """Upper bound on N over all witnesses for three or more slots."""
    return _bound(_slot_ints(values, 3))


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


def _windows(slots, N):
    """The slot pairs that can be special at this N, with their A range.

    Returns (i, j, lo, hi) in lexicographic order of (i, j): slot i
    accepts A/N, slot j accepts (N-A)/N and every other slot accepts
    1/N exactly when lo <= A <= hi.
    """
    needs = _needs(slots, N)
    big = sum(x > 1 for x in needs)
    if big > 2:
        return []
    # the pair must hold every slot that cannot take 1/N
    return [(i, j, needs[i], N - needs[j])
            for i, j in itertools.permutations(range(len(needs)), 2)
            if (needs[i] > 1) + (needs[j] > 1) == big
            and needs[i] + needs[j] <= N]


def _coprime(N, start, stop, step):
    """The first A coprime to N in range(start, stop, step), or None."""
    for A in range(start, stop, step):
        if math.gcd(A, N) == 1:
            return A
    return None


def witness_search(values):
    """Find the minimal witness for a b=1 query, or None.

    Scans N from 2 up to search_bound(values) and returns at the first
    N that has one: with the least A, then the first slot pair.
    """
    slots = _slot_ints(values, 3)
    for N in range(2, _bound(slots) + 1):
        found = []
        for i, j, lo, hi in _windows(slots, N):
            A = _coprime(N, lo, hi + 1, 1)
            if A is not None:
                found.append((A, i, j))
        if found:
            A, i, j = min(found)
            assignment = [ExtRational(1, N)] * len(slots)
            assignment[i] = ExtRational(A, N)
            assignment[j] = ExtRational(N - A, N)
            return JNWitness(N, A, tuple(assignment))
    return None


def extremal_slot_value(fixed):
    """Largest value a free extra slot can receive in any witness.

    ``fixed`` lists at least two (value in (0,1), strict) constraints.
    The free slot joins them with no constraint.  At each N it receives
    A/N as the first special slot (best with the largest A), (N-A)/N as
    the second (best with the smallest A), and 1/N otherwise.  Returns
    None when no witness exists at all (the window is empty).
    """
    slots = _slot_ints(fixed, 2) + [_FREE]
    free = len(slots) - 1
    best_num, best_den = 0, 1
    for N in range(2, _bound(slots) + 1):
        for i, j, lo, hi in _windows(slots, N):
            if i == free:
                A = _coprime(N, hi, lo - 1, -1)
            else:
                A = _coprime(N, lo, hi + 1, 1)
            if A is None:
                continue
            num = A if i == free else N - A if j == free else 1
            if num * best_den > best_num * N:
                best_num, best_den = num, N
    return ExtRational(best_num, best_den) if best_num else None


@lru_cache(maxsize=1 << 20)
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
        flipped = tuple((ExtRational(d - n, d), st) for n, d, st in slot_key)
        w = witness_search(flipped)
        return JNResult(w is not None, w, "complement-then-witness")
    values = tuple((ExtRational(n, d), st) for n, d, st in slot_key)
    w = witness_search(values)
    return JNResult(w is not None, w, "witness-search")


def jn_realizable(query):
    """Decide a reduced query (fields b, slots, zeros)."""
    slot_key = tuple((v.num, v.den, st) for v, st in query.slots)
    return _decide(query.b, slot_key, query.zeros)


def decide(J, b, gammas, taus):
    """Decide an arbitrary tuple: validate, reduce, then dispatch."""
    tup = SeifertTuple(frozenset(J), b, tuple(gammas), tuple(taus))
    return jn_realizable(reduce_integral(tup))
