"""Print one line per case of the differential corpus of the cabling path.

    python3 tests/golden_dump.py > dump.txt

Runs the library in ``src`` next to this directory.  Two checkouts that
print byte-identical dumps (compare them with ``cmp``) agree on every
case.  The corpus covers what the set and cabling layers compute:

- the cable-pipeline ops of the benchmark seeds 1-3, built by
  ``bench/workloads.build`` (read only);
- the README CLI examples, in text and JSON;
- the Hedden-Hom net: 300 chains drawn as ``test_hedden_hom_net``
  draws them, each run in all three detection modes;
- ``torus_knot_detected`` for coprime 2 <= p, q <= 30;
- ``mobius_set_image`` on 20,000 fixed random (map, set) pairs, and
  ``IntMobius.apply`` on one point each: maps of both orientations,
  unimodular and not, a fifth with c = 0;
- ``parse_slope_set`` on 20,000 ``random_slope_set_text`` inputs, as
  the cut rules that map arcs are also the ones that parse them;
- the oracle: ``grid_scan_interval`` reports (hull, tested points,
  mismatches) on 6,000 random cable keys with D <= 30, each against the
  key's t, its t_strict and a perturbed t; wrong scans whose runs span
  many numerators, the full circle and t moved up by 1, on 10 fixed
  keys with D = 40-80, one line per mismatch; ``_decide_point`` on 20,000
  random tuples of 3-5 slots; ``_free_slot_sup`` on 20,000 random fixed
  lists of 2-4 slots; and ``exhaustive_witness_check(values, None)`` on
  20,000 random lists of 2-4 slots.

Pytest does not collect this file.
"""

import contextlib
import io
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "bench"),
                str(HERE)]

import workloads  # noqa: E402
from cableslopes import cli  # noqa: E402
from cableslopes.cable import (DetectionMode, bezout,  # noqa: E402
                               cable_detected_set, torus_knot_detected)
from cableslopes.exact import (ExtRational, IntMobius,  # noqa: E402
                               SlopeSet, mobius_set_image, parse_slope_set)
from cableslopes.intervals import cable_interval  # noqa: E402
from cableslopes.oracle import (_decide_point,  # noqa: E402
                                _free_slot_sup, exhaustive_witness_check,
                                grid_scan_interval)
from test_readme import EXAMPLES  # noqa: E402

CASES = 20000


def _pipeline():
    for seed in (1, 2, 3):
        chunks = workloads.build("cable-pipeline", random.Random(seed))
        for c, (ops, _) in enumerate(chunks):
            for i, (func, (params, s, mode)) in enumerate(ops):
                out, tag = func(params, s, mode)
                yield "pipeline %d %d %d %r %s %s: %s %s" % (
                    seed, c, i, params, s, mode.value, out, tag)


def _readme():
    for argv, _ in EXAMPLES:
        for fmt in ("text", "json"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv + ["--format", fmt])
            yield "readme %s %s: %d %r" % (" ".join(argv), fmt, code,
                                           out.getvalue())


def _hedden_hom():
    rng = random.Random(1)
    for chain in range(300):
        steps = []
        for _ in range(rng.randint(1, 3)):
            q = rng.randint(2, 300)
            p = rng.randint(2, 3 * q)
            while math.gcd(p, q) != 1:
                p = rng.randint(2, 3 * q)
            steps.append((p, q))
        for mode in DetectionMode:
            current = parse_slope_set("[-inf,1]")
            for p, q in steps:
                current, tag = cable_detected_set(bezout(p, q), current, mode)
                yield "hedden-hom %d %s %d %d: %s %s" % (
                    chain, mode.value, p, q, current, tag)


def _torus():
    for p in range(2, 31):
        for q in range(2, 31):
            if math.gcd(p, q) == 1:
                regular, strong = torus_knot_detected(p, q)
                yield "torus %d %d: %s; %s" % (p, q, regular, strong)


def _random_map(rng):
    """A map of either orientation: a product of SL2(Z) and GL2(Z)
    generators, or small entries with any nonzero det; c = 0 for a
    fifth of them."""
    c_zero = rng.random() < 0.2
    if rng.random() < 0.5:
        a, b, c, d = 1, 0, 0, 1
        for _ in range(rng.randint(1, 6)):
            kind = rng.randrange(3)
            if kind == 0 and not c_zero:  # S: x -> -1/x
                a, b, c, d = b, -a, d, -c
            elif kind == 1:  # T^k: x -> x + k
                k = rng.randint(-9, 9)
                b, d = a * k + b, c * k + d
            else:  # R: x -> -x, det -1
                a, c = -a, -c
        return IntMobius(a, b, c, d)
    while True:
        a, b, d = (rng.randint(-6, 6) for _ in range(3))
        c = 0 if c_zero else rng.randint(-6, 6)
        if a * d - b * c:
            return IntMobius(a, b, c, d)


def _images():
    rng = random.Random(33)
    for i in range(CASES):
        m = _random_map(rng)
        fiber = "%d/%d" % (rng.randint(-9, 9), rng.randint(1, 5))
        s = parse_slope_set(workloads.random_slope_set_text(rng, fiber))
        point = m.apply(ExtRational.parse(fiber))
        yield "image %d %r %s: %s; %s" % (i, m, s, mobius_set_image(m, s),
                                           point)


def _parses():
    rng = random.Random(34)
    for i in range(CASES):
        fiber = "%d/%d" % (rng.randint(-9, 9), rng.randint(1, 5))
        text = workloads.random_slope_set_text(rng, fiber)
        s = parse_slope_set(text)
        yield "parse %d %s: %s %r" % (i, text, s, s._ivs)


def _rational(rng, lo, hi, max_den):
    d = rng.randint(1, max_den)
    return ExtRational(rng.randint(lo * d, hi * d), d)


def _slot(rng):
    """A (num, den, strict) slot, den <= 15 or <= 2,000, its numerator
    often next to 0, where its cap grows large, or next to den, where
    its complement's does."""
    d = rng.randint(2, 15) if rng.random() < 0.5 else rng.randint(2, 2000)
    n = rng.choice((rng.randint(1, d - 1), rng.randint(1, min(3, d - 1)),
                    rng.randint(1, min(3, d - 1)),
                    rng.randint(max(d - 3, 1), d - 1)))
    g = math.gcd(n, d)
    return n // g, d // g, rng.random() < 0.5


def _perturbed(rng, t):
    """t with a random point added, a random short arc taken out, or
    complemented."""
    x = _rational(rng, -6, 6, 30)
    kind = rng.randrange(3)
    if kind == 0:
        return t.union(SlopeSet.point(x))
    if kind == 1:
        y = ExtRational(x.num * 7 + x.den, x.den * 7)
        return t.difference(SlopeSet.interval(x, y, rng.random() < 0.5,
                                              rng.random() < 0.5))
    return t.complement()


def _scans():
    rng = random.Random(35)
    for i in range(6000):
        q = rng.randint(2, 12)
        p = rng.randint(1, 15)
        while math.gcd(p, q) != 1:
            p = rng.randint(1, 15)
        params = bezout(p, q)
        J = frozenset(j for j in (1, 2) if rng.random() < 0.5)
        tau = _rational(rng, -3, 3, 12)
        D = rng.randint(1, 30)
        res = cable_interval(params, J - {2}, tau)
        for name, expected in (("t", res.t), ("t_strict", res.t_strict),
                               ("perturbed", _perturbed(rng, res.t))):
            r = grid_scan_interval(params, J, tau, D, expected)
            yield "scan %d %d %d %s %s %d %s %s: %s %s %d %s" % (
                i, p, q, sorted(J), tau, D, name, expected, r.hull_low,
                r.hull_high, r.tested_points,
                [(str(x), got, want) for x, got, want in r.mismatches])


# (p, q, J, tau, D) keys of the wrong scans with long runs
LONG_SCANS = ((2, 3, (), "1/2", 80), (3, 2, (), "1", 64),
              (4, 3, (1,), "5/12", 48), (5, 2, (), "2/3", 72),
              (7, 5, (2,), "-7/6", 40), (3, 4, (1,), "-1/3", 56),
              (5, 3, (1, 2), "2", 60), (7, 2, (), "-5/3", 44),
              (9, 4, (2,), "1/5", 52), (11, 7, (1,), "3/4", 68))


def _long_scans():
    for p, q, J, tau, D in LONG_SCANS:
        params, J, tau = bezout(p, q), frozenset(J), ExtRational.parse(tau)
        res = cable_interval(params, J - {2}, tau)
        t = res.t_strict if 2 in J else res.t
        for name, expected in (("full", SlopeSet.full()), ("shifted", (
                mobius_set_image(IntMobius(1, 1, 0, 1), t)))):
            r = grid_scan_interval(params, J, tau, D, expected)
            yield "long-scan %d %d %s %s %d %s: %s %s %d %d" % (
                p, q, sorted(J), tau, D, name, r.hull_low, r.hull_high,
                r.tested_points, len(r.mismatches))
            for x, got, want in r.mismatches:
                yield "long-scan %d %d %s %s: %s %s %s" % (
                    p, q, tau, name, x, got, want)


def _decisions():
    rng = random.Random(36)
    for i in range(CASES):
        count = rng.randint(3, 5)
        gammas = tuple(ExtRational(*_slot(rng)[:2])
                       for _ in range(rng.randint(0, count - 1)))
        taus = tuple(_rational(rng, -3, 3, 15) if rng.random() < 0.8
                     else ExtRational(rng.randint(-3, 3))
                     for _ in range(count - len(gammas)))
        J = frozenset(j for j in range(1, len(taus) + 1)
                      if rng.random() < 0.3)
        b = rng.randint(-2, 6)
        yield "decide %d %s %d %s %s: %s" % (
            i, sorted(J), b, [str(g) for g in gammas],
            [str(t) for t in taus], _decide_point(J, b, gammas, taus))


def _sups():
    rng = random.Random(37)
    for i in range(CASES):
        fixed = [_slot(rng) for _ in range(rng.randint(2, 4))]
        D = rng.randint(1, 40)
        yield "sup %d %s %d: %s" % (i, fixed, D, _free_slot_sup(fixed, D))


def _witness_checks():
    rng = random.Random(38)
    for i in range(CASES):
        values = [(ExtRational(n, d), st) for n, d, st in
                  (_slot(rng) for _ in range(rng.randint(2, 4)))]
        yield "no-witness %d %s: %s" % (
            i, [(str(v), st) for v, st in values],
            exhaustive_witness_check(values, None))


def main():
    for part in (_pipeline, _readme, _hedden_hom, _torus, _images, _parses,
                 _scans, _long_scans, _decisions, _sups, _witness_checks):
        for line in part():
            print(line)


if __name__ == "__main__":
    main()
