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
  the cut rules that map arcs are also the ones that parse them.

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
                               mobius_set_image, parse_slope_set)
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


def main():
    for part in (_pipeline, _readme, _hedden_hom, _torus, _images, _parses):
        for line in part():
            print(line)


if __name__ == "__main__":
    main()
