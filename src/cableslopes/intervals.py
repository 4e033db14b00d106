"""Relative slope intervals: the sets of tau' making a tuple realisable.

For fixed weights (gamma; tau_*) and strict set J, the set of tau' such
that (J; 0; gamma; tau_*, tau') is realisable is a closed rational
interval t, and its strict companion (tau' slot also strict) is either
the interior of t or a single point.  The core [m0, m1] is always
contained in t; beyond the core, one extra unit window may open on
each side, and its exact extent is the largest value a free slot can
receive in a witness pair (A, N).  That optimization is
``extremal_slot_value``, which lives with the single witness solver in
``jn`` (see there for the Stern-Brocot walk that finds it without a
scan over N) and is imported here.

Up to that call the assembly is integer work on (num, den, strict)
slots: a tau's fractional part is num mod den, the gate compares an
integer sum with m0 times its denominator, the left window complements
each slot to (den - num, den), and each endpoint m0 - w or m1 + w is
built once from the integers of m and w.
"""

from dataclasses import dataclass

from .exact import Arc, ExtRational, SlopeSet, _as_rat
from .jn import extremal_slot_value
from .seifert import DerivedQuantities, derived_quantities


class InsufficientData(ValueError):
    """Raised when fewer than two constraint slots remain."""


class WindowClosed(ValueError):
    """Raised when an endpoint search is requested on an empty window."""


@dataclass(frozen=True)
class RelativeIntervalResult:
    t: Arc
    t_strict: SlopeSet
    quantities: DerivedQuantities


def _fixed_slots(gammas, taus, J):
    """Surviving (num, den, strict) constraints with integral taus dropped.

    Valid in the s0=0 regime, where every integral tau has its index
    in J and is forced to the identity.  A tau's fractional part is
    (num mod den)/den, already reduced.
    """
    fixed = [(g.num, g.den, True) for g in gammas]
    for idx, t in enumerate(taus, start=1):
        if t.den != 1:
            fixed.append((t.num % t.den, t.den, idx in J))
    return fixed


def _gates(gammas, taus, J, dq):
    """The arithmetic gates: (left opens, right opens, degenerate).

    When n + r1 = 2, total = -(sum of all weights) against m0 decides
    each window: the left one opens when total < m0, the right one when
    total > m0.  At total = m0 the tuple is degenerate (t_strict is the
    point m0) when a gamma or a strict non-integral tau is present, and
    otherwise, the bullet case, both windows open.  For other n + r1
    the extremal search gates itself: (None, None, False).
    """
    if dq.n + dq.r1 != 2:
        return None, None, False
    # total = -num/den, compared with m0 over the same denominator
    num, den = 0, 1
    for w in gammas + taus:
        num, den = num * w.den + w.num * den, den * w.den
    total, m0 = -num, dq.m0 * den
    if total != m0:
        return total < m0, total > m0, False
    degenerate = dq.n != 0 or any(idx in J and t.den != 1
                                  for idx, t in enumerate(taus, start=1))
    return not degenerate, not degenerate, degenerate


def _window(side, fixed, opens, m):
    """Far end of a window: m - w with m = m0 on the left, m + w with
    m = m1 on the right, or None when the window is shut.

    ``fixed`` holds the (num, den, strict) slots of ``_fixed_slots``;
    the left window takes their complements 1 - v.  The width w is the
    extremal slot value.  ``opens`` is the side's gate from ``_gates``:
    False keeps the window shut, True requires the extremal search to
    find a value, and None lets the search decide.
    """
    if opens is False:
        return None
    sign = 1
    if side == "left":
        fixed = [(d - n, d, st) for n, d, st in fixed]
        sign = -1
    width = extremal_slot_value([(ExtRational(n, d), st)
                                 for n, d, st in fixed])
    if width is None:
        if opens:
            raise AssertionError(
                "open %s gate but empty witness search" % side)
        return None
    return ExtRational(m * width.den + sign * width.num, width.den)


def endpoint_search(side, gammas, taus, J):
    """Extremal rational endpoint in the open window on the given side.

    side="left" returns the minimal realisable tau' below m0;
    side="right" the maximal realisable tau' above m1.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    gammas = tuple(_as_rat(g) for g in gammas)
    taus = tuple(_as_rat(t) for t in taus)
    J = frozenset(J)
    dq = derived_quantities(gammas, taus, J)
    if dq.s0 != 0:
        raise WindowClosed("window closed: integral slots pin t to [m0,m1]")
    left_opens, right_opens, _ = _gates(gammas, taus, J, dq)
    fixed = _fixed_slots(gammas, taus, J)
    if side == "left":
        end = _window(side, fixed, left_opens, dq.m0)
        if end is None:
            raise WindowClosed("window closed below m0")
        return end
    end = _window(side, fixed, right_opens, dq.m1)
    if end is None:
        raise WindowClosed("window closed above m1")
    return end


def relative_interval(gammas, taus, J):
    """The closed interval t and strict set t_strict for (gamma; tau_*; J)."""
    gammas = tuple(_as_rat(g) for g in gammas)
    taus = tuple(_as_rat(t) for t in taus)
    J = frozenset(J)
    dq = derived_quantities(gammas, taus, J)
    if dq.n + dq.r1 + dq.s0 < 2:
        raise InsufficientData(
            "insufficient data: n + r1 + s0 = %d < 2"
            % (dq.n + dq.r1 + dq.s0))
    m0 = ExtRational(dq.m0)
    m1 = ExtRational(dq.m1)
    if dq.s0 > 0:
        return RelativeIntervalResult(
            Arc(m0, m1), SlopeSet.interval(m0, m1, False, False), dq)

    left_opens, right_opens, degenerate = _gates(gammas, taus, J, dq)
    fixed = _fixed_slots(gammas, taus, J)
    lo = _window("left", fixed, left_opens, dq.m0)
    hi = _window("right", fixed, right_opens, dq.m1)
    lo = m0 if lo is None else lo
    hi = m1 if hi is None else hi
    t = Arc(lo, hi)

    if degenerate:
        t_strict = SlopeSet.point(m0)
    elif lo == hi:
        t_strict = SlopeSet.empty()
    else:
        t_strict = SlopeSet.interval(lo, hi, False, False)
    return RelativeIntervalResult(t, t_strict, dq)


def cable_interval(params, J, tau):
    """Specialize relative_interval to a cable space with n=1.

    J is a subset of {1}.  For J={1} with integral tau the constraint
    slot disappears entirely and the answer collapses to one point.
    """
    tau = _as_rat(tau)
    J = frozenset(J)
    if not J <= {1}:
        raise ValueError("J must be a subset of {1}")
    gamma = params.gamma
    if 1 in J and tau.den == 1:
        value = -tau - gamma
        dq = derived_quantities((gamma,), (tau,), J)
        return RelativeIntervalResult(
            Arc(value, value), SlopeSet.point(value), dq)
    return relative_interval((gamma,), (tau,), J)


def special_slope_interval(params, b, strict=False):
    """Closed-form t for the slopes tau = (bs+r)/(p-qb).

    For integers 0 <= b <= p/q the interval is [-1-1/(p-qb), -1], and
    the strict (J={1}) variant widens to [-1-1/(p-q(b-1)), -1] except
    at slope 1 where it collapses to the point -(2q+s)/q.  For integer
    b >= p/q the interval is [-1, -1+1/(bq-p)] (no strict variant).
    """
    p, q, r, s = params.p, params.q, params.r, params.s
    if b < 0:
        raise ValueError("b must be a nonnegative integer")
    if p - q * b > 0:
        if not strict:
            return Arc(ExtRational(-1) - ExtRational(1, p - q * b),
                       ExtRational(-1))
        slope = ExtRational(b * s + r, p - q * b)
        if slope == 1:
            v = ExtRational(-(2 * q + s), q)
            return Arc(v, v)
        return Arc(ExtRational(-1) - ExtRational(1, p - q * (b - 1)),
                   ExtRational(-1))
    if q * b - p > 0:
        if strict:
            raise ValueError("no strict closed form on the b >= p/q branch")
        return Arc(ExtRational(-1),
                   ExtRational(-1) + ExtRational(1, q * b - p))
    raise ValueError("b = p/q is impossible for coprime p, q with q > 1")
