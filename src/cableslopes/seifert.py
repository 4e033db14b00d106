"""Seifert-fibered slope tuples and their normal forms.

A tuple (J; b; gamma_1..gamma_n; tau_1..tau_{r-1}) consists of an
integer b, rational weights gamma_i in (0, 1), rational weights tau_j,
and a set J of tau indices (1-based) marked as strict.  Realisability
of such a tuple is decided in the jn module; this module provides the
bookkeeping that every caller needs first: shifting the tau weights
into [0, 1), discarding forced integral slots, and the derived slot
counts used by the interval formulas.  The interval path gets these
from one validation, ``_reduce_weights``, with the surviving slots as
integers (num, den, strict).
"""

from dataclasses import dataclass

from .exact import _as_rat


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
    shift = sum(t.floor() for t in tup.taus)
    return SeifertTuple(tup.J, tup.b - shift,
                        tup.gammas, tuple(t.frac() for t in tup.taus))


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
        b -= t.floor()
        t = t.frac()
        if t.num == 0:
            if idx in tup.J:
                continue
            zeros += 1
        else:
            slots.append((t, idx in tup.J))
            kept.append(idx)
    return ReducedTuple(b, tuple(slots), zeros, tuple(kept))


@dataclass(frozen=True)
class DerivedQuantities:
    """Slot counts and the bounds they induce on the free weight.

    For weights gamma_1..gamma_n and tau_1..tau_{r-1} with strict set J:

    - ``r1``: number of non-integral tau weights;
    - ``s0``: number of integral tau weights with index outside J;
    - ``b0``: minus the sum of the tau floors;
    - ``m0`` = b0 - (n + r1 + s0 - 1) and ``m1`` = b0 + s0 - 1, the
      integer translates bounding where a further slot can be chosen.
    """

    n: int
    r1: int
    s0: int
    b0: int
    m0: int
    m1: int


def _reduce_weights(gammas, taus, J):
    """Validate (gamma; tau; J) once and reduce it to integers.

    Returns the DerivedQuantities and the fixed slots: each gamma as
    (num, den, True) and each non-integral tau's fractional part as
    (num mod den, den, index in J), all reduced.  Raises ValueError for
    a gamma outside (0, 1), a J index that names no tau and an infinite
    tau, checked in that order.
    """
    fixed = [(g.num, g.den, True) for g in map(_check_gamma, gammas)]
    n = len(fixed)
    taus = [_as_rat(t) for t in taus]
    J = _check_indices(J, taus)
    b0 = s0 = 0
    for idx, t in enumerate(taus, start=1):
        if not t.den:
            raise ValueError("fractional part of infinity")
        fl, fn = divmod(t.num, t.den)
        b0 -= fl
        if fn:
            fixed.append((fn, t.den, idx in J))
        elif idx not in J:
            s0 += 1
    r1 = len(fixed) - n
    dq = DerivedQuantities(n, r1, s0, b0, b0 - (n + r1 + s0 - 1), b0 + s0 - 1)
    return dq, fixed


def derived_quantities(gammas, taus, J):
    return _reduce_weights(gammas, taus, J)[0]
