"""Exact values and sets on the rational projective circle.

Values live in Q together with a single point at infinity, i.e. the
rational points of RP^1.  An ExtRational is such a value, not a number:
it is built, compared, hashed, printed and parsed, and callers do their
arithmetic on its integers.  Every subset is a SlopeSet: a finite union
of arcs with rational endpoints, each end open or closed.  All work is
integer based; nothing in this module ever rounds.

Values are validated where they enter: by the public constructors and
at each public entry.  Code that has proved what a check proves builds
with a trusted constructor: the caller of ``ExtRational._reduced``
guarantees den > 0 and gcd(num, den) = 1, and the caller of
``SlopeSet._arc``, which builds every one-arc set, reduced ends.  Every
cut pair comes from ``_cuts``, bar the point cuts of ``contains``, the
membership model; no other module writes a cut.  ``_Record``, the base
of the value types, refuses change.

The hot paths avoid building objects: ExtRational compares another
ExtRational or an int by cross-multiplying integers, and the SlopeSet
algebra works in one pass over sorted cut lists (complement and
intersect build their results already canonical, as ``_arc`` does;
Moebius images apply the map's integers to each end and, like unions
of many sets, canonicalise once).  A map of det +-1 sends a coprime
pair to a coprime pair (Graham-Knuth-Patashnik, Concrete Mathematics
4.5), so its image ends need a sign and no gcd.  Two ends are ordered
by one integer cross product, in the cut rules and in ``_arc_empty``,
the one rule for an empty arc.
"""

import math
import operator
import re

_INTEGER = re.compile(r"[+-]?[0-9]+")  # one part of a rational's text


class _Record:
    """The base of every value type, and the one owner of immutability:
    assigning or deleting an attribute raises AttributeError.

    Read through ``_fields``, it works like a frozen dataclass: == within
    one class, hash and repr ``Name(field=value, ...)``; ``ExtRational``
    and ``SlopeSet`` define their own.  ``__init__`` fills ``__slots__``
    through ``_fill``, or on a hot path through ``object.__setattr__``;
    copy and pickle rebuild through ``object.__new__`` and ``_fill``.
    ``oracle.ScanReport``, one per scan, alone puts back object's
    __setattr__ and __delattr__ and has no hash: plain slot stores fill
    it in about 250 ns, ``object.__setattr__`` in about 900 ns (Python
    3.11 on a 2-core x86-64 host).
    """

    __slots__ = ()
    _fields = ()

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __reduce__(self):
        return object.__new__, (type(self),), [
            getattr(self, name) for name in self.__slots__]

    def __setstate__(self, values):
        self._fill(*values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))


class ExtRational(_Record):
    """A reduced rational value, or the single point at infinity.

    Infinity is stored uniquely as numerator 1, denominator 0.  Finite
    values are stored with a positive denominator and gcd(num, den) = 1.
    There is no arithmetic: + - * / and unary - raise TypeError.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if den == 0:
            if num == 0:
                raise ZeroDivisionError("0/0 is not a point of the circle")
            num = 1
        else:
            if den < 0:
                num, den = -num, -den
            g = math.gcd(num, den)
            num //= g
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _reduced(cls, num, den):
        """num/den, for den > 0 and gcd(num, den) = 1: no gcd."""
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    @property
    def is_infinite(self):
        return self.den == 0

    # Compares work on the integers of an ExtRational or an int (a bool
    # included, as the int it equals) and leave other types to Python.
    def __eq__(self, other):
        if isinstance(other, ExtRational):
            return self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den == 1 and self.num == other
        return NotImplemented

    def __hash__(self):
        # an integer hashes like the int it equals
        if self.den == 1:
            return hash(self.num)
        return hash((self.num, self.den))

    def _order(test):
        """An order method: ``test`` on the two cross products.

        Infinity is not ordered: comparing it raises TypeError.
        """
        def compare(self, other):
            if isinstance(other, ExtRational):
                onum, oden = other.num, other.den
            elif isinstance(other, int):
                onum, oden = other, 1
            else:
                return NotImplemented
            if not self.den or not oden:
                raise TypeError("infinity is not ordered")
            return test(self.num * oden, onum * self.den)
        return compare

    __lt__ = _order(operator.lt)
    __le__ = _order(operator.le)
    __gt__ = _order(operator.gt)
    __ge__ = _order(operator.ge)
    del _order

    def __repr__(self):
        return "ExtRational(%r)" % (str(self),)

    def __str__(self):
        if self.is_infinite:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return "%d/%d" % (self.num, self.den)

    @classmethod
    def parse(cls, text):
        """Read ``n``, ``n/d`` or ``inf`` (also ``+inf``, ``-inf``).

        Each of n and d is ``[+-]?[0-9]+`` after stripping whitespace.
        """
        text = text.strip()
        if text in ("inf", "+inf", "-inf"):
            return INF
        parts = [part.strip() for part in text.split("/", 1)]
        if not all(map(_INTEGER.fullmatch, parts)):
            raise ValueError("cannot parse rational: %r" % (text,))
        return cls(*map(int, parts))


INF = ExtRational(1, 0)


def _as_rat(x):
    return x if isinstance(x, ExtRational) else ExtRational(x)


def _arc_text(low, low_closed, high, high_closed):
    """Text like ``[low,high)``; an end that is None is unbounded."""
    return "%s%s,%s%s" % (
        "[" if low_closed else "(",
        "-inf" if low is None else low,
        "inf" if high is None else high,
        "]" if high_closed else ")")


# ---------------------------------------------------------------------------
# SlopeSet: finite unions of arcs, in canonical form.
#
# Internally a set is split into its affine part (a sorted list of disjoint,
# non-touching intervals over Q, possibly unbounded) and a flag saying
# whether the point at infinity belongs.  Interval endpoints are handled in
# "cut" coordinates: the cut (0, v, 0) sits just below the point v and
# (0, v, 1) just above it, so every interval becomes half-open in cut space
# and the usual sweep algorithms apply with no open/closed case analysis.
# Python's tuple order is the cut order, with _MIN and _MAX beyond every
# finite cut.  A canonical cut list is sorted, and each interval ends
# strictly before the next begins, so complement and intersect are single
# sweeps whose results need no merge.
# ---------------------------------------------------------------------------

_MIN = (-1,)  # below every rational
_MAX = (1,)   # above every rational


def _finite(x):
    """x as an ExtRational, checked to be finite: an interval or ray end."""
    x = _as_rat(x)
    if not x.den:
        raise ValueError("interval and ray ends must be finite")
    return x


def _cuts(low, low_closed, high, high_closed):
    """The cut pair of the arc from low to high, None at an unbounded end."""
    return (_MIN if low is None else (0, low, 0 if low_closed else 1),
            _MAX if high is None else (0, high, 1 if high_closed else 0))


def _arc_empty(low, low_closed, high, high_closed):
    """Whether finite, reduced ends bound the empty arc: they cross, or
    they are equal and not both closed.  One cross product decides."""
    cross = low.num * high.den - high.num * low.den
    return cross > 0 or not (cross or low_closed and high_closed)


def _merge_cut_intervals(ivs):
    out = []
    for lo, hi in sorted(iv for iv in ivs if iv[0] < iv[1]):
        if out and lo <= out[-1][1]:
            if out[-1][1] < hi:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


class SlopeSet(_Record):
    """A finite union of arcs on the rational projective circle.

    Always kept in canonical form: the affine intervals are disjoint,
    non-touching and sorted, so two equal sets compare equal
    structurally.  Instances are immutable; set operations return new
    instances.
    """

    __slots__ = ("_ivs", "_inf")

    def __init__(self, _ivs=(), _inf=False):
        object.__setattr__(self, "_ivs", tuple(_merge_cut_intervals(_ivs)))
        object.__setattr__(self, "_inf", bool(_inf))

    @classmethod
    def _canonical(cls, ivs, inf=False):
        """A set whose cut intervals are already canonical: no merge."""
        out = object.__new__(cls)
        object.__setattr__(out, "_ivs", tuple(ivs))
        object.__setattr__(out, "_inf", inf)
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def empty(cls):
        return cls()

    @classmethod
    def full(cls):
        return cls.reals().with_infinity()

    @classmethod
    def reals(cls):
        return cls._arc(None, False, None, False)

    @classmethod
    def _arc(cls, low, low_closed, high, high_closed):
        """The one arc from low to high, the inverse of ``affine_pieces()``:
        None marks an unbounded end, and other ends are reduced.  Empty
        when ``_arc_empty`` says so."""
        if low is not None and high is not None and _arc_empty(
                low, low_closed, high, high_closed):
            return cls._canonical(())
        return cls._canonical((_cuts(low, low_closed, high, high_closed),))

    @classmethod
    def point(cls, x):
        x = _as_rat(x)
        if x.is_infinite:
            return cls._canonical((), True)
        return cls._arc(x, True, x, True)

    @classmethod
    def interval(cls, low, high, low_closed=True, high_closed=True):
        """The affine interval between two finite rationals."""
        return cls._arc(_finite(low), low_closed, _finite(high), high_closed)

    @classmethod
    def ray_below(cls, high, closed=True):
        return cls._arc(None, False, _finite(high), closed)

    @classmethod
    def ray_above(cls, low, closed=True):
        return cls._arc(_finite(low), closed, None, False)

    # -- queries -------------------------------------------------------

    @property
    def is_empty(self):
        return not self._ivs and not self._inf

    @property
    def is_full(self):
        return self._inf and self._ivs == ((_MIN, _MAX),)

    @property
    def has_infinity(self):
        return self._inf

    @property
    def low(self):
        """The least affine end, or None when empty or unbounded below."""
        lo = self._ivs[0][0] if self._ivs else _MIN
        return None if lo == _MIN else lo[1]

    @property
    def high(self):
        """The greatest affine end, or None when empty or unbounded above."""
        hi = self._ivs[-1][1] if self._ivs else _MAX
        return None if hi == _MAX else hi[1]

    def contains(self, x):
        x = _as_rat(x)
        if x.is_infinite:
            return self._inf
        # the point's own cuts, not _arc's: the tests' membership model
        lo, hi = (0, x, 0), (0, x, 1)
        return any(a <= lo and hi <= b for a, b in self._ivs)

    def __eq__(self, other):
        if not isinstance(other, SlopeSet):
            return NotImplemented
        return self._ivs == other._ivs and self._inf == other._inf

    def __hash__(self):
        return hash((self._ivs, self._inf))

    def __bool__(self):
        return not self.is_empty

    # -- algebra --------------------------------------------------------

    def union(self, other):
        return SlopeSet(self._ivs + other._ivs, self._inf or other._inf)

    def complement(self):
        # the gaps between non-touching intervals are non-empty and do
        # not touch each other, so the result is canonical as built
        ivs = []
        prev = _MIN
        for lo, hi in self._ivs:
            if prev < lo:
                ivs.append((prev, lo))
            prev = hi
        if prev < _MAX:
            ivs.append((prev, _MAX))
        return SlopeSet._canonical(ivs, not self._inf)

    def intersect(self, other):
        # one sweep over both cut lists; pieces of canonical sets meet in
        # sorted, non-empty, non-touching intervals
        a, b = self._ivs, other._ivs
        ivs = []
        i = j = 0
        while i < len(a) and j < len(b):
            (alo, ahi), (blo, bhi) = a[i], b[j]
            lo = alo if blo < alo else blo
            hi = ahi if ahi < bhi else bhi
            if lo < hi:
                ivs.append((lo, hi))
            if ahi < bhi:
                i += 1
            else:
                j += 1
        return SlopeSet._canonical(ivs, self._inf and other._inf)

    def difference(self, other):
        return self.intersect(other.complement())

    def issubset(self, other):
        return self.difference(other).is_empty

    def with_infinity(self):
        return SlopeSet._canonical(self._ivs, True)

    # -- structure -------------------------------------------------------

    def affine_pieces(self):
        """The affine intervals as (low, low_closed, high, high_closed).

        Unbounded ends are reported as (None, False).
        """
        out = []
        for lo, hi in self._ivs:
            if lo == _MIN:
                l, lc = None, False
            else:
                l, lc = lo[1], lo[2] == 0
            if hi == _MAX:
                h, hc = None, False
            else:
                h, hc = hi[1], hi[2] == 1
            out.append((l, lc, h, hc))
        return out

    def __repr__(self):
        return "SlopeSet(%s)" % (str(self),)

    def parts(self):
        """Text of each arc in order; str() joins them with the union sign.

        A point prints as ``{v}``.  When infinity belongs to the set, the
        piece through it comes first: the two rays joined at infinity as
        one wrapped arc, or the one ray closed there.  With no ray, an
        isolated ``{inf}`` comes last.
        """
        if self.is_full:
            return ["[-inf,inf]"]
        pieces = self.affine_pieces()
        rays = []
        if self._inf and pieces and pieces[-1][2] is None:
            low, low_closed = pieces.pop()[:2]
            rays.append(_arc_text(low, low_closed, None, True))
        if self._inf and pieces and pieces[0][0] is None:
            high, high_closed = pieces.pop(0)[2:]
            rays.append(_arc_text(None, True, high, high_closed))
        out = ["∪".join(rays)] if rays else []
        for l, lc, h, hc in pieces:
            if l is not None and l == h:
                out.append("{%s}" % (l,))
            else:
                out.append(_arc_text(l, lc, h, hc))
        if self._inf and not rays:
            out.append("{inf}")
        return out

    def __str__(self):
        return " ∪ ".join(self.parts()) or "{}"


def _arc_cuts(text, ivs):
    """Add one arc like ``[1/2,3)`` to the cut list ivs.

    Each end is read by ``ExtRational.parse``, as a point is.  Returns
    whether the arc holds infinity.  Different ends give the arc from
    low to high, as ``_directed_cuts`` builds it: a ray holds infinity
    when its bracket at the infinite end is closed, and finite ends
    with low > high wrap through infinity, [low,inf] joined to
    [-inf,high].  Equal ends give a point, and so do two infinite ends
    with the same sign text, as in ``[inf,inf]`` or ``[-inf,-inf]``;
    infinite ends with different signs give the line, which holds
    infinity when either bracket is closed.
    """
    ends = text[1:-1].split(",")
    if text[0] not in "[(" or text[-1] not in "])" or len(ends) != 2:
        raise ValueError("cannot parse arc: %r" % (text,))
    lo, hi = map(ExtRational.parse, ends)
    lc = text[0] == "["
    hc = text[-1] == "]"
    if lo != hi:
        return _directed_cuts(lo, lc, hi, hc, ivs)
    # parse drops the sign of an infinite end, so read it off the text
    if lo.is_infinite and (ends[0].strip().startswith("-")
                           != ends[1].strip().startswith("-")):
        ivs.append(_cuts(None, False, None, False))
        return lc or hc
    if not (lc and hc):
        raise ValueError("degenerate open arc")
    return _point_cuts(lo, ivs)


def parse_slope_set(text):
    """Parse a union of arcs separated by the union sign (or 'U').

    Each arc is written like ``[1/2,3)``, ``[-inf,7]``, ``[2,-1]`` (a
    wrapped arc, see _arc_cuts) or ``{v}`` for one point.
    """
    text = text.strip()
    if text in ("{}", ""):
        return SlopeSet.empty()
    ivs, inf = [], False
    for chunk in re.split(r"∪|U", text):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk.startswith("{") and chunk.endswith("}"):
            inf = _point_cuts(ExtRational.parse(chunk[1:-1]), ivs) or inf
        else:
            inf = _arc_cuts(chunk, ivs) or inf
    return SlopeSet(ivs, inf)


# ---------------------------------------------------------------------------
# Integer Moebius maps
# ---------------------------------------------------------------------------

class IntMobius(_Record):
    """x -> (a x + b) / (c x + d) with integer entries and nonzero det.

    Acts on the projective circle; a positive determinant preserves the
    circular orientation, a negative one reverses it.
    """

    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        if a * d - b * c == 0:
            raise ValueError("degenerate map")
        self._fill(a, b, c, d)

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    def apply(self, x):
        x = _as_rat(x)
        return _end(self.a * x.num + self.b * x.den,
                    self.c * x.num + self.d * x.den, self.det in (1, -1))

    def __repr__(self):
        return "IntMobius(%d, %d, %d, %d)" % (self.a, self.b, self.c, self.d)


def _end(num, den, unit):
    """The image end num/den; with ``unit`` (det +-1) it needs no gcd."""
    if not unit:
        return ExtRational(num, den)
    if den < 0:
        return ExtRational._reduced(-num, -den)
    return ExtRational._reduced(num, den) if den else INF


def _point_cuts(x, ivs):
    """Add the point x to the cut list ivs; True when x is infinity."""
    if not x.den:
        return True
    ivs.append(_cuts(x, True, x, True))
    return False


def _directed_cuts(u, uc, v, vc, ivs):
    """Add the directed arc from u to v (positively) to the cut list ivs.

    Returns whether the arc passes through infinity.  Ends are reduced,
    so one cross product orders two finite ends.  Equal ends come only
    from the affine line, whose ends are open: its image wraps through
    infinity and leaves out the image u of infinity alone.
    """
    lo, hi = _cuts(u, uc, v, vc)
    if not u.den:
        ivs.append((_MIN, hi if v.den else _MAX))
        return uc
    if not v.den:
        ivs.append((lo, _MAX))
        return vc
    if u.num * v.den < v.num * u.den:
        ivs.append((lo, hi))
        return False
    ivs += [(lo, _MAX), (_MIN, hi)]
    return True


def mobius_set_image(m, s):
    """Exact image of a SlopeSet under a Moebius map."""
    return _image(m, s.affine_pieces(), s.has_infinity)


def _image(m, pieces, inf):
    """Image under m of affine pieces (low, low_closed, high,
    high_closed), None at an unbounded end, plus infinity when ``inf``
    is set, canonicalised once.  An empty piece (see ``_arc_empty``)
    is dropped.  A point maps to a point, and so does infinity.  Any
    other piece is an arc avoiding infinity; its image is the connected
    arc between the images of its ends, traversed positively when
    det > 0 and negatively when det < 0.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    det = m.det
    unit = det in (1, -1)
    at_inf = _end(a, c, unit)
    ivs = []
    inf = inf and _point_cuts(at_inf, ivs)
    for l, lc, h, hc in pieces:
        finite = l is not None and h is not None
        if finite and _arc_empty(l, lc, h, hc):
            continue
        u = at_inf if l is None else _end(
            a * l.num + b * l.den, c * l.num + d * l.den, unit)
        if finite and l.num == h.num and l.den == h.den:
            inf = _point_cuts(u, ivs) or inf
            continue
        v = at_inf if h is None else _end(
            a * h.num + b * h.den, c * h.num + d * h.den, unit)
        if det < 0:
            u, lc, v, hc = v, hc, u, lc
        inf = _directed_cuts(u, lc, v, hc, ivs) or inf
    return SlopeSet(ivs, inf)
