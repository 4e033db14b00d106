"""Relative slope intervals: the sets of tau' making a tuple realisable.

For fixed weights (gamma; tau_*) and strict set J, the set of tau' such
that (J; 0; gamma; tau_*, tau') is realisable is a closed rational
interval t, and its strict companion (tau' slot also strict) is either
the interior of t or a single point; both are SlopeSets.  A tuple with
no slot is the one exception: t is empty and t_strict is the point b0.
The core [m0, m1] is always contained in t; beyond the core, one extra
unit window may open on each side, and its exact extent is the largest
value a free slot can receive in a witness pair (A, N).  That
optimization is ``extremal_slot_value``, which lives with the single
witness solver in ``jn`` (see there for the Stern-Brocot walk that
finds it without a scan over N) and is imported here.

Everything else is integer work on the (num, den, strict) slots of
``seifert.reduce_integral``, which validates the input once: the gate
compares the sum of two slots with 1, the left window complements each
slot to (den - num, den), and each end m0 - w or m1 + w is built once.
Those slots are reduced and w is, so every end is a reduced pair with
den > 0 and is built by ``ExtRational._reduced``, and t and t_strict
are built from their cut lists by ``SlopeSet._canonical``, with no gcd
and no merge.  ``extremal_slot_value`` is a public entry and validates
its slots again, in its pass over the caps.  ``cable._ray_end`` reads
its ray end off the same gate and window.
"""

from .exact import ExtRational, SlopeSet, _Record
from .jn import extremal_slot_value
from .seifert import reduce_integral


class RelativeIntervalResult(_Record):
    __slots__ = _fields = ("t", "t_strict", "quantities")

    def __init__(self, t, t_strict, quantities):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "t_strict", t_strict)
        object.__setattr__(self, "quantities", quantities)


def _gates(fixed):
    """The arithmetic gates: (left opens, right opens, degenerate).

    When n + r1 = 2 and s0 = 0, m0 = b0 - 1 and the weights sum to
    v1 + v2 - b0, v1 and v2 the two slot values, so minus the weight
    sum against m0 is 1 against v1 + v2: the left window opens when
    v1 + v2 > 1 and the right one when v1 + v2 < 1.  At v1 + v2 = 1
    the tuple is degenerate (t_strict is the point m0) when a slot is
    strict, and otherwise, the bullet case, both windows open.  For
    other n + r1 the extremal search gates itself.
    """
    if len(fixed) != 2:
        return None, None, False
    (n1, d1, s1), (n2, d2, s2) = fixed
    excess = n1 * d2 + n2 * d1 - d1 * d2
    if excess:
        return excess > 0, excess < 0, False
    degenerate = s1 or s2
    return not degenerate, not degenerate, degenerate


def _window(fixed, opens, m, sign):
    """Far end of a window: m0 - w on the left (sign -1), m1 + w on the
    right (sign 1), or m itself when the window is shut.

    The width w is the extremal slot value, over the complements 1 - v
    on the left.  ``opens`` is the side's gate: False keeps the window
    shut, True requires the search to find a value, None lets it decide.
    """
    if opens is not False:
        if sign < 0:
            fixed = [(d - n, d, st) for n, d, st in fixed]
        width = extremal_slot_value(fixed)
        if width is not None:
            return ExtRational._reduced(m * width.den + sign * width.num,
                                        width.den)
        if opens:
            raise AssertionError("open %s gate but empty witness search"
                                 % ("left" if sign < 0 else "right"))
    return ExtRational._reduced(m, 1)


def _interval(dq, fixed):
    """relative_interval's result for a reduced tuple (dq, fixed).

    No zero slot and at most one slot v (v = 0 for none): a
    non-integral tau' adds the slot frac(tau'), and the values in (0, 1)
    must add up to b = b0 - floor(tau'), so with v, b = 1 and
    tau' = b0 - v, strict or not, and with none nothing.  An integral
    tau' outside J is a zero slot, whose window 1 <= b <= 0 is empty; in
    J it is dropped, and the slots must add up to b = b0 - tau', which
    v cannot and the empty sum does at tau' = b0.  So t_strict is
    {b0 - v}, and t is that point with v and {} without.
    A zero slot alone takes the core: m0 = m1 = b0, so t = {b0} and
    t_strict, the open core, is empty.
    """
    if not dq.s0 and dq.n + dq.r1 < 2:
        num, den = fixed[0][:2] if fixed else (0, 1)
        v = ExtRational._reduced(dq.b0 * den - num, den)
        point = SlopeSet._canonical([((0, v, 0), (0, v, 1))])
        return RelativeIntervalResult(
            point if fixed else SlopeSet._canonical(()), point, dq)
    if dq.s0 > 0:
        # t_strict is the open core (m0, m1), empty when m0 = m1
        lo = ExtRational._reduced(dq.m0, 1)
        hi = ExtRational._reduced(dq.m1, 1)
        cuts = [((0, lo, 1), (0, hi, 0))] if dq.m0 < dq.m1 else []
    else:
        left_opens, right_opens, degenerate = _gates(fixed)
        lo = _window(fixed, left_opens, dq.m0, -1)
        hi = _window(fixed, right_opens, dq.m1, 1)
        if degenerate:  # both windows shut: lo = m0 = hi
            cuts = [((0, lo, 0), (0, lo, 1))]
        elif lo == hi:
            cuts = []
        else:
            cuts = [((0, lo, 1), (0, hi, 0))]
    return RelativeIntervalResult(
        SlopeSet._canonical([((0, lo, 0), (0, hi, 1))]),
        SlopeSet._canonical(cuts), dq)


def relative_interval(gammas, taus, J):
    """The closed interval t, empty with no slot, and the strict set
    t_strict for (gamma; tau_*; J), both SlopeSets."""
    return _interval(*reduce_integral(gammas, taus, J))


def cable_interval(params, J, tau):
    """relative_interval with the cable's gamma and the one tau.

    J is a set of 1-based tau indices, so a subset of {1}; for J = {1}
    with integral tau the tau slot is dropped, and t is the one point
    -tau - gamma.
    """
    return relative_interval((params.gamma,), (tau,), J)


def special_slope_interval(params, b, strict=False):
    """Closed-form t for the slopes tau = (bs+r)/(p-qb), as a SlopeSet.

    For integers 0 <= b <= p/q the interval is [-1-1/(p-qb), -1], and
    the strict (J={1}) variant widens to [-1-1/(p-q(b-1)), -1] except
    at slope 1 where it collapses to the point -(2q+s)/q.  For integer
    b >= p/q the interval is [-1, -1+1/(bq-p)] (no strict variant).
    """
    p, q, r, s = params.p, params.q, params.r, params.s
    if b < 0:
        raise ValueError("b must be a nonnegative integer")
    d = p - q * b
    if d > 0:
        if not strict:
            return SlopeSet.interval(ExtRational(-d - 1, d), -1)
        if b * s + r == d:  # slope 1
            return SlopeSet.point(ExtRational(-(2 * q + s), q))
        d += q  # p - q(b - 1)
        return SlopeSet.interval(ExtRational(-d - 1, d), -1)
    if d < 0:
        if strict:
            raise ValueError("no strict closed form on the b >= p/q branch")
        return SlopeSet.interval(-1, ExtRational(d + 1, -d))
    raise ValueError("b = p/q is impossible for coprime p, q with q > 1")
