"""Brute-force cross-checks for the interval machinery.

The scanner enumerates rational slopes on a denominator-bounded grid
and decides each one directly through the realisability test, so the
closed-form and search-based intervals can be validated point by
point.  This module deliberately depends only on the decision core,
not on the interval code it is checking.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import ExtRational
from .jn import UnsupportedArity, decide


@dataclass
class ScanReport:
    hull_low: ExtRational | None
    hull_high: ExtRational | None
    tested_points: int
    mismatches: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.mismatches


def _decide_point(J, b, gammas, taus):
    """Realisability of one tuple, with a local rule for arity 2.

    When only two constraint slots survive reduction the decision core
    declines; there the translation numbers of the two factors are
    pinned and the tuple is realisable exactly when the surviving
    values add up to the shifted b.
    """
    try:
        return decide(J, b, gammas, taus).realizable
    except UnsupportedArity:
        shift = sum(t.floor() for t in taus)
        b0 = b - shift
        total = ExtRational(0)
        for g in gammas:
            total = total + g
        for t in taus:
            total = total + t.frac()
        return total == b0


def grid_scan_interval(params, J, tau, max_denominator=24, expected=None):
    """Scan tau' over a denominator-bounded grid around the core window.

    Tests every reduced fraction with denominator <= max_denominator in
    (m0 - 2, m1 + 2) and returns the hull of the realisable points.
    When ``expected`` (anything with a ``contains`` method) is given,
    disagreements are collected as (point, got, expected) mismatches.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be at least 1")
    J = frozenset(J)
    gamma = ExtRational(params.q + params.s, params.q)
    tau = tau if isinstance(tau, ExtRational) else ExtRational(tau)
    fl = tau.floor()
    tb = tau.frac()
    # core window: b0 = -floor(tau); one gamma slot; tau slot unless
    # integral; m0 = b0 - (slots), m1 = b0 + s0 - 1
    s0 = 1 if (tb.num == 0 and 1 not in J) else 0
    r1 = 0 if tb.num == 0 else 1
    b0 = -fl
    m0 = b0 - (1 + r1 + s0 - 1)
    m1 = b0 + s0 - 1
    lo = Fraction(m0 - 2)
    hi = Fraction(m1 + 2)
    hull_low = hull_high = None
    tested = 0
    mismatches = []
    for den in range(1, max_denominator + 1):
        start = math.floor(lo * den) + 1
        stop = math.ceil(hi * den)
        for num in range(start, stop):
            if math.gcd(num, den) != 1:
                continue
            point = ExtRational(num, den)
            tested += 1
            got = _decide_point(J, 0, (gamma,), (tau, point))
            if got:
                if hull_low is None or point < hull_low:
                    hull_low = point
                if hull_high is None or point > hull_high:
                    hull_high = point
            if expected is not None and got != expected.contains(point):
                mismatches.append((point, got, expected.contains(point)))
    return ScanReport(hull_low, hull_high, tested, mismatches)


def _brute_bound(values):
    """Independent bound on witness denominators, via Fraction arithmetic.

    Any witness with N beyond this bound assigns 1/N to some slot
    whose constraint it then violates, or squeezes A/N into a rational
    gap too narrow for new denominators.
    """
    fracs = [(Fraction(v.num, v.den), strict) for v, strict in values]
    k = len(fracs)
    caps = []
    for f, strict in fracs:
        inv = Fraction(1) / f
        if strict:
            caps.append(math.ceil(inv) - 1)
        else:
            caps.append(math.floor(inv))
    best = 0
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            rest = [caps[m] for m in range(k) if m not in (i, j)]
            if rest:
                best = max(best, min(rest))
            else:
                gap = 1 - fracs[i][0] - fracs[j][0]
                if gap > 0:
                    best = max(best, math.ceil(1 / gap) + 1)
                elif gap == 0 and not fracs[i][1] and not fracs[j][1]:
                    best = max(best, fracs[i][0].denominator)
    return best


def _witness_exists(values):
    """Exhaustive enumeration over (A, N) and slot assignments."""
    fracs = [(Fraction(v.num, v.den), strict) for v, strict in values]
    k = len(fracs)
    bound = _brute_bound(values)
    for N in range(2, bound + 1):
        for A in range(1, N):
            if math.gcd(A, N) != 1:
                continue
            multiset = [Fraction(A, N), Fraction(N - A, N)]
            multiset += [Fraction(1, N)] * (k - 2)
            for perm in set(itertools.permutations(multiset)):
                good = True
                for (f, strict), assigned in zip(fracs, perm):
                    if strict and not assigned > f:
                        good = False
                        break
                    if not strict and not assigned >= f:
                        good = False
                        break
                if good:
                    return True
    return False


def exhaustive_witness_check(values, claimed):
    """Validate a claimed witness, or a claimed non-existence, by brute force.

    ``values`` lists (value, strict) slot constraints with at least two
    slots.  A claimed witness is checked directly against the slot
    inequalities and the required multiset shape; claimed=None is
    confirmed by exhausting all denominators up to an independent bound.
    """
    values = [(v if isinstance(v, ExtRational) else ExtRational(v), bool(st))
              for v, st in values]
    if len(values) < 2:
        raise ValueError("need at least two slots")
    for v, _ in values:
        if not (ExtRational(0) < v < ExtRational(1)):
            raise ValueError("slot values must lie in (0,1)")
    if claimed is None:
        return not _witness_exists(values)
    N, A = claimed.N, claimed.A
    if not (0 < A < N) or math.gcd(A, N) != 1:
        return False
    assigned = [Fraction(x.num, x.den) for x in claimed.assignment]
    want = sorted([Fraction(A, N), Fraction(N - A, N)]
                  + [Fraction(1, N)] * (len(values) - 2))
    if sorted(assigned) != want:
        return False
    for (v, strict), a in zip(values, assigned):
        f = Fraction(v.num, v.den)
        if strict and not a > f:
            return False
        if not strict and not a >= f:
            return False
    return True
