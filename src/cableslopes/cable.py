"""Detected slope sets on cable spaces and cabled knot complements.

The pipeline maps an input slope set through the inner basis change
into the cable-space coordinates, takes the union of relative
intervals over each connected piece, and maps the answer out through
the outer basis change.  Weak detection computes the union of closed
intervals t; strong detection uses the strict companions; regular
detection is sandwiched between the two.  The inner map sends p/q,
and nothing else, to infinity, so the pipeline reads whether the input
holds the fiber slope off the inner image, and sends it out as pq.

A piece is an interval of tau, so its union is one ray or the meet of
two: [l, r], l the end of the rays at its high end, r of those at its
low end, or unbounded.  Each [l, r] goes out, with the fiber slope,
through ``exact._image``, the one step that maps arcs through a
Moebius map, det g = -1 included; it drops the empty ones.  A ray
ends where one interval does: t(at) when it is weak and includes at,
else cable_interval(params, {1}, at).t, whose tau slot is strict.  As
t(tau + 1) = t(tau) - 1, further unit cells lie past the core end
-floor(at) - 1, and t(k) = [-k - 1, -k] joins the cells.  In at's cell
t's far end is the core end plus or minus the window width w, which
shrinks as tau moves away from at (a witness for a larger slot value
serves every smaller one), so its sup beyond at is read with the tau
slot strict.  That end is the interval path's own gate and window,
``intervals._gates`` and ``_window``, on the slots gamma (strict) and
frac(at), for the ray's side alone: one extremal search at most.
t_strict is the interior of t or a point, so strong rays are open but
at an included integral tau or frac(at) = 1 - gamma, where the gate is
degenerate.  Ends are built from divmod(at.num, at.den).
"""

import enum
import math

from .exact import (ExtRational, IntMobius, SlopeSet, _image, _Record,
                    _as_rat, mobius_set_image)
from .intervals import _gates, _window, cable_interval


class DetectionMode(enum.Enum):
    WEAK = "weak"
    REGULAR = "regular"
    STRONG = "strong"


class CableParams(_Record):
    """The cable C_{p,q}, built from p and q; it derives the normalized
    Bezout pair (r, s), p*s + q*r = 1 with -q < s < 0, the slopes
    gamma = (q + s)/q and fiber_slope = p/q, and the two basis maps.
    """

    _fields = ("p", "q", "r", "s")
    # gamma and the maps are not fields: ==, hash and repr read p, q, r
    # and s alone
    __slots__ = _fields + ("gamma", "fiber_slope", "_inner", "_outer")

    def __init__(self, p, q):
        if q < 2 or p < 1 or math.gcd(p, q) != 1:
            raise ValueError("need coprime p >= 1, q >= 2")
        s = pow(p, -1, q) - q
        r = (1 - p * s) // q
        self._fill(p, q, r, s, ExtRational(q + s, q), ExtRational(p, q),
                   IntMobius(s, r, -q, p), IntMobius(p * q, p * q + 1, 1, 1))


def bezout(p, q):
    """CableParams for (p, q), with its normalized Bezout pair."""
    return CableParams(p, q)


def inner_basis_map(params):
    """Basis change into cable-space coordinates: p/q -> inf, inf -> -s/q."""
    return params._inner


def outer_basis_map(params):
    """Basis change out to the cabled knot: -1 -> inf, inf -> pq."""
    return params._outer


def _ray_end(params, side, at, include, strict):
    """(end, closed) of the union of t (weak) or t_strict (strict) over
    tau >= at (right) or tau <= at (left), equality dropped unless
    ``include``: the window of t(at) on that side.
    """
    gamma = params.gamma
    fl, tn = divmod(at.num, at.den)  # at = fl + tn/den, 0 <= tn < den
    if not tn:  # gamma is reduced, so these ends are too
        if include and not strict:
            end = -fl if side == "right" else -fl - 1
            return ExtRational._reduced(end, 1), True
        return (ExtRational._reduced(-fl * gamma.den - gamma.num, gamma.den),
                strict and include)
    fixed = [(gamma.num, gamma.den, True),
             (tn, at.den, strict or not include)]
    left, right, degenerate = _gates(fixed)
    opens, sign = (right, 1) if side == "right" else (left, -1)
    return (_window(fixed, opens, -fl - 1, sign),
            not strict or (include and degenerate))


def _ray(params, side, at, include, strict):
    """The union that ``_ray_end`` ends, as a ray below (right) or above."""
    end, closed = _ray_end(params, side, at, include, strict)
    if side == "right":
        return SlopeSet.ray_below(end, closed)
    return SlopeSet.ray_above(end, closed)


def ray_union(params, direction, tau0):
    """Union of t over all tau >= tau0 (geq) or tau <= tau0 (leq)."""
    tau0 = _as_rat(tau0)
    if direction not in ("geq", "leq"):
        raise ValueError("direction must be 'geq' or 'leq'")
    if tau0.is_infinite:  # the text seifert.normalize gives
        raise ValueError("fractional part of infinity")
    side = "right" if direction == "geq" else "left"
    return _ray(params, side, tau0, True, False)


def cable_detected_set(params, input_set, mode):
    """Detected slopes of the cable, given the detected slopes downstairs.

    Returns (slope_set, tag).  Strong mode reports a guaranteed subset,
    tagged "contains".  Weak and regular mode compute the same exact
    set, tagged "equals": a full input's inner image is the reals, one
    unbounded piece whose union is the reals, and with the fiber slope
    the output is the full circle, so no input falls back to "contains".
    """
    if not isinstance(mode, DetectionMode):
        raise ValueError("mode must be a DetectionMode")
    inner = mobius_set_image(inner_basis_map(params), input_set)
    strict = mode is DetectionMode.STRONG
    pieces = []
    for low, low_closed, high, high_closed in inner.affine_pieces():
        # t over the piece is [l, r] (see the module docstring)
        l, lc = (None, False) if high is None else _ray_end(
            params, "left", high, high_closed, strict)
        r, rc = (None, False) if low is None else _ray_end(
            params, "right", low, low_closed, strict)
        pieces.append((l, lc, r, rc))
    return (_image(outer_basis_map(params), pieces, inner.has_infinity),
            "contains" if strict else "equals")


def torus_knot_detected(p, q):
    """Detected slopes of the (p, q) torus knot as two SlopeSets.

    Returns (regular, strong): the images under the outer basis change
    of the closed interval t and of its strict companion t_strict.
    """
    if p < 2 or q < 2 or math.gcd(p, q) != 1:
        raise ValueError("need coprime p, q >= 2")
    params = bezout(p, q)
    res = cable_interval(params, frozenset({1}), ExtRational(params.r, p))
    g = outer_basis_map(params)
    return mobius_set_image(g, res.t), mobius_set_image(g, res.t_strict)


def cable_genus_bound(p, q, g):
    """The slope 2g(K') - 1 = pq - p - q + 2gq of the cabled knot."""
    if p < 2 or q < 2 or math.gcd(p, q) != 1:
        raise ValueError("need coprime p, q >= 2")
    if g < 0:
        raise ValueError("genus must be nonnegative")
    return ExtRational(p * q - p - q + 2 * g * q)
