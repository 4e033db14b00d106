"""Seifert-fibered slope tuples and their integer reduction.

A tuple (J; b; gamma_1..gamma_n; tau_1..tau_{r-1}) consists of an
integer b, rational weights gamma_i in (0, 1), rational weights tau_j,
and a set J of tau indices (1-based) marked as strict.  Realisability
of such a tuple is decided in the jn module; this module provides the
bookkeeping that every caller needs first: shifting the tau weights
into [0, 1), discarding forced integral slots, and the derived slot
counts used by the interval formulas.  ``reduce_integral`` does all
three at once, with the surviving slots as integers (num, den, strict),
for ``jn.decide`` and the interval path alike.
"""

from .exact import _Record, _as_rat


def normalize(tau):
    """Split a finite tau into (floor, num) with tau = floor + num/den.

    Replacing each tau_j by num/den and b by b - sum(floor(tau_j))
    leaves realisability unchanged, and num/den lies in [0, 1).
    """
    if not tau.den:
        raise ValueError("fractional part of infinity")
    return divmod(tau.num, tau.den)


class DerivedQuantities(_Record):
    """Slot counts and the bounds they induce on the free weight.

    For weights gamma_1..gamma_n and tau_1..tau_{r-1} with strict set J:

    - ``r1``: number of non-integral tau weights;
    - ``s0``: number of integral tau weights with index outside J;
    - ``b0``: minus the sum of the tau floors;
    - ``m0`` = b0 - (n + r1 + s0 - 1) and ``m1`` = b0 + s0 - 1, the
      integer translates bounding where a further slot can be chosen.
    """

    __slots__ = _fields = ("n", "r1", "s0", "b0", "m0", "m1")

    def __init__(self, n, r1, s0, b0, m0, m1):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "b0", b0)
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "m1", m1)


def reduce_integral(gammas, taus, J):
    """Validate (gamma; tau; J) once and reduce it to integers.

    Returns the DerivedQuantities and the fixed slots: each gamma as
    (num, den, True) and each non-integral tau's fractional part as
    (num mod den, den, index in J), all reduced; an integral tau in J
    is dropped.  Raises ValueError for a gamma outside (0, 1), a J
    index that names no tau and an infinite tau, checked in that order.
    This is the tuple's one validation: callers build the values of its
    results with the trusted constructors of ``exact``.
    """
    fixed = []
    for g in gammas:
        g = _as_rat(g)
        if not 0 < g.num < g.den:
            raise ValueError(
                "gamma weight must lie strictly between 0 and 1: %s" % g)
        fixed.append((g.num, g.den, True))
    n = len(fixed)
    J = frozenset(J)
    for j in J:
        if not (isinstance(j, int) and 1 <= j <= len(taus)):
            raise ValueError("J must contain 1-based tau indices")
    b0 = s0 = 0
    for idx, t in enumerate(taus, start=1):
        t = _as_rat(t)
        fl, fn = normalize(t)
        b0 -= fl
        if fn:
            fixed.append((fn, t.den, idx in J))
        elif idx not in J:
            s0 += 1
    r1 = len(fixed) - n
    dq = DerivedQuantities(n, r1, s0, b0, b0 - (n + r1 + s0 - 1), b0 + s0 - 1)
    return dq, fixed
