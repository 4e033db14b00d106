"""The benchmark workloads: inputs from a seed, the ops, and their checks.

``build(name, rng, plant)`` returns a workload's ops split into
chunks of one to two seconds; round r of a run runs chunk r mod (number
of chunks) in a fresh process, so every op is repeated several times
across a run.  A chunk is a list of ops, each a (function, args) pair
timed as one call, and a ``check`` that maps the op results to one pass
flag per op.  A result of None means the op raised.

Every seed runs the same work: the seed (``rng``) fixes the order of
the ops, which decides the cache state along oracle-sweep, and choices
that leave the work unchanged, such as which p represents a cable's
gamma.  Op costs are heavy-tailed in the inputs (in cable-pipeline the
costliest tenth of a random sample takes three quarters of the time),
so letting the seed redraw the inputs would move every timing by more
than any bound a regression check can use.

The references are independent of the code under test: closed forms
computed here with ``fractions.Fraction``, the brute-force oracle, and
set laws.  ``plant`` swaps in a wrong expected value, so that a
self-test can see every check fire.  README_EXAMPLES lists the CLI
examples of the README with their documented output.

Only public names of the library are used here.
"""

import math
import random
from fractions import Fraction

from cableslopes import cable, exact, intervals, oracle

# ---------------------------------------------------------------------------
# interval-ladder: cable_interval at the special slopes tau = (bs+r)/(p-qb)
# ---------------------------------------------------------------------------

# (q, D) rungs; D = |p - qb| is the denominator of tau.  Each rung runs
# on the low branch (b = 1, p = D + q) with J = {} and J = {1}, and on
# the high branch (b one above its least value, p = qb - D) with J = {}.
LADDER_RUNGS = ([(2, d) for d in range(1, 150, 6)]
                + [(3, d) for d in range(2, 90, 12)])
# The b = 8, p = q + 2 family of the ROADMAP baseline, D = 7q - 2: (7, 5)
# has D = 33.  (13, 11) at D = 75 alone would take a tenth of a round;
# bench/dtable.py times it.
BASELINE_RUNGS = tuple((q + 2, q, 8) for q in (3, 5, 7))
LADDER_CHUNKS = 2


def _bezout_rs(p, q):
    s = pow(p, -1, q) - q
    return (1 - p * s) // q, s


def special_slope_closed_form(p, q, b, strict):
    """Endpoints of t at tau = (bs+r)/(p-qb), as Fractions.

    Low branch (p > qb): [-1 - 1/(p-qb), -1]; with J = {1} it widens to
    [-1 - 1/(p-q(b-1)), -1], except at slope 1 where it is the point
    -(2q+s)/q.  High branch (qb > p, J = {}): [-1, -1 + 1/(qb-p)].
    """
    r, s = _bezout_rs(p, q)
    if p - q * b > 0:
        if not strict:
            return Fraction(-1) - Fraction(1, p - q * b), Fraction(-1)
        if Fraction(b * s + r, p - q * b) == 1:
            point = Fraction(-(2 * q + s), q)
            return point, point
        return Fraction(-1) - Fraction(1, p - q * (b - 1)), Fraction(-1)
    return Fraction(-1), Fraction(-1) + Fraction(1, q * b - p)


def _frac(x):
    return Fraction(x.num, x.den)


def _ladder(rng, plant):
    cases = []
    for family in ("low", "low-strict", "high"):
        for q, d in LADDER_RUNGS:
            if family == "high":
                b = (d + q) // q + 1
                p = q * b - d
            else:
                b = 1
                p = d + q
            cases.append((p, q, b, family == "low-strict"))
    cases.extend((p, q, b, False) for p, q, b in BASELINE_RUNGS)
    rng.shuffle(cases)
    return [_ladder_chunk(cases[i::LADDER_CHUNKS], plant)
            for i in range(LADDER_CHUNKS)]


def _ladder_chunk(cases, plant):
    ops, expected = [], []
    for p, q, b, strict in cases:
        params = cable.bezout(p, q)
        tau = exact.ExtRational(b * params.s + params.r, p - q * b)
        J = frozenset({1}) if strict else frozenset()
        ops.append((intervals.cable_interval, (params, J, tau)))
        lo, hi = special_slope_closed_form(p, q, b, strict)
        if plant:
            lo -= Fraction(1, abs(p - q * b) + 1)
        expected.append((lo, hi))

    def check(results):
        return [res is not None
                and (_frac(res.t.low), _frac(res.t.high)) == want
                for res, want in zip(results, expected)]

    return ops, check


# ---------------------------------------------------------------------------
# oracle-sweep: one tau scan = cable_interval + grid_scan_interval
# ---------------------------------------------------------------------------

# One cable per (q, p mod q), which fixes gamma = (q+s)/q and so all the
# work; the seed picks the representative p.  Integer translates of a tau
# within one cable share decide cache entries, different gammas share
# none, so each cable is a chunk of its own without changing the work.
ORACLE_CLASSES = ((3, 1), (4, 3), (5, 2))
ORACLE_TAUS = tuple(Fraction(k, 12) for k in range(-24, 25))


def _tau_scan(params, tau, plant):
    t = intervals.cable_interval(params, frozenset(), tau).t
    if plant:
        t = exact.Arc(t.low, t.high + 1)
    return oracle.grid_scan_interval(params, frozenset(), tau, 24,
                                     expected=t)


def _scans_pass(results):
    return [rep is not None and rep.tested_points > 0 and not rep.mismatches
            for rep in results]


def _oracle_sweep(rng, plant):
    chunks = []
    for q, residue in ORACLE_CLASSES:
        params = cable.bezout(residue + q * rng.randrange(4), q)
        ops = [(_tau_scan, (params, exact.ExtRational(tau.numerator,
                                                      tau.denominator), plant))
               for tau in ORACLE_TAUS]
        rng.shuffle(ops)
        chunks.append((ops, _scans_pass))
    return chunks


# ---------------------------------------------------------------------------
# cable-pipeline: one cable_detected_set call
# ---------------------------------------------------------------------------

PIPELINE_PAIRS = tuple((p, q) for q in range(2, 8) for p in range(1, 8)
                       if math.gcd(p, q) == 1)
CRITERION_06 = tuple((p, q, g) for p, q in PIPELINE_PAIRS if p >= 2
                     for g in range(1, 6))
PIPELINE_CASES = 200
PIPELINE_CHUNKS = 2
# the random slope sets are drawn once, from this fixed stream
PIPELINE_POPULATION_SEED = "cable-pipeline-population"


def _small_fraction(rng):
    den = rng.randint(1, 4)
    return Fraction(rng.randint(-4 * den, 4 * den), den)


def random_slope_set_text(rng, fiber):
    """1-3 arcs or points with small denominators, maybe inf or the fiber."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        a, b = sorted((_small_fraction(rng), _small_fraction(rng)))
        if a == b or rng.random() < 0.1:
            parts.append("{%s}" % a)
            continue
        low = "-inf" if rng.random() < 0.15 else str(a)
        high = "inf" if rng.random() < 0.15 else str(b)
        parts.append("%s%s,%s%s" % (rng.choice("[("), low, high,
                                    rng.choice("])")))
    if rng.random() < 0.15:
        parts.append("{inf}")
    if rng.random() < 0.15:
        parts.append("{%s}" % fiber)
    return " U ".join(parts)


def _cable_pipeline(rng, plant):
    cases = [("criterion-06", p, q, g) for p, q, g in CRITERION_06]
    draw = random.Random(PIPELINE_POPULATION_SEED)
    for _ in range(PIPELINE_CASES):
        p, q = draw.choice(PIPELINE_PAIRS)
        fiber = "%d/%d" % (p, q)
        cases.append(("laws", p, q, (random_slope_set_text(draw, fiber),
                                     random_slope_set_text(draw, fiber))))
    rng.shuffle(cases)
    return [_pipeline_chunk(cases[i::PIPELINE_CHUNKS], plant)
            for i in range(PIPELINE_CHUNKS)]


def _pipeline_chunk(cases, plant):
    detect = cable.cable_detected_set
    weak = cable.DetectionMode.WEAK
    regular = cable.DetectionMode.REGULAR
    strong = cable.DetectionMode.STRONG
    ops, groups = [], []
    for kind, p, q, data in cases:
        params = cable.bezout(p, q)
        if kind == "laws":
            a, b = (exact.parse_slope_set(text) for text in data)
            first = len(ops)
            for s, mode in ((a, weak), (a, regular), (a, strong), (b, weak),
                            (a.union(b), weak)):
                ops.append((detect, (params, s, mode)))
            groups.append(("laws", list(range(first, len(ops))), None))
            continue
        g = data
        edge = 2 * g - 1
        if Fraction(edge) < Fraction(p, q):
            end = p * q - p - q + 2 * g * q + (1 if plant else 0)
            want = exact.SlopeSet.ray_below(exact.ExtRational(end))
            want = want.with_infinity()
        else:
            want = exact.SlopeSet.full()
        groups.append(("criterion-06", [len(ops)], want))
        ops.append((detect, (params, exact.parse_slope_set(
            "[-inf,%d]" % edge), regular)))

    def laws_hold(results, idx, want):
        weak_a, regular_a, strong_a, weak_b, weak_ab = (
            results[i][0] for i in idx)
        if plant:
            chain = regular_a.issubset(strong_a)
        else:
            chain = (strong_a.issubset(regular_a)
                     and regular_a.issubset(weak_a))
        return chain and weak_ab == weak_a.union(weak_b)

    def criterion_06_holds(results, idx, want):
        out, tag = results[idx[0]]
        return out == want and tag == "equals"

    rules = {"criterion-06": criterion_06_holds, "laws": laws_hold}

    def check(results):
        ok = [res is not None for res in results]
        for kind, idx, want in groups:
            passed = all(ok[i] for i in idx)
            if passed:
                try:
                    passed = rules[kind](results, idx, want)
                except Exception:
                    passed = False
            for i in idx:
                ok[i] = passed
        return ok

    return ops, check


# ---------------------------------------------------------------------------
# The README's CLI examples and their documented output
# ---------------------------------------------------------------------------

README_EXAMPLES = (
    (("interval", "--p", "2", "--q", "3", "--tau", "1/2"),
     "[-3/2,-1] (T), (-3/2,-1) (T~)"),
    (("torus", "--p", "3", "--q", "5"),
     "[-inf,7] regular; (-inf,7) strong"),
    (("cable", "--p", "5", "--q", "2", "--input", "[-inf,1]",
      "--mode", "regular"),
     "[-inf,7] (equals)"),
    (("bezout", "--p", "5", "--q", "2"),
     "p=5 q=2 r=3 s=-1 gamma=1/2"),
    (("jn", "--J", "", "--b", "0", "--gamma", "2/3", "--tau", "1/2,-3/2"),
     "true (witness N=2 A=1: 1/2,1/2,1/2)"),
    (("oracle", "--p", "2", "--q", "3", "--tau", "1/2",
      "--max-denominator", "12"),
     "hull [-3/2,-1] tested 183 mismatches 0"),
    (("ray-union", "--p", "2", "--q", "3", "--tau", "1/2",
      "--direction", "geq"),
     "(-inf,-1]"),
)

# ---------------------------------------------------------------------------
# Reference task: fixed work that does not touch the library.  Its best
# time in a run gauges the host's speed, and run.py scales the workload's
# times by nominal / measured.
# ---------------------------------------------------------------------------


def reference_loop():
    """Pure-Python rational arithmetic, like the library's inner loops."""
    total = Fraction(0)
    for k in range(1, 1500):
        total += Fraction(k % 7 + 1, k % 11 + 2)
    return total


# best time of reference_loop on a quiet 2-core x86-64 host, Python 3.11
REFERENCE_LOOP_NOMINAL_S = 0.0035

WORKLOADS = {
    "interval-ladder": _ladder,
    "oracle-sweep": _oracle_sweep,
    "cable-pipeline": _cable_pipeline,
}


def build(name, rng, plant=False):
    """The chunks of a workload: a list of (ops, check) pairs."""
    return WORKLOADS[name](rng, plant)
