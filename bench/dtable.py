"""Scaling table of cable_interval in the denominator D of tau.

    python3 bench/dtable.py

Times cable_interval at the special slope tau = (8s+r)/(p-8q) of the
b = 8, p = q + 2 family for odd q from 3 to 11.  Its
denominator is D = 7q - 2, so (7, 5) gives D = 33 and (13, 11) gives
D = 75, the ROADMAP baseline rows.  Prints one JSON line per row with
the best of three calls, that time scaled to a host of nominal speed
the way run.py scales (by the reference loop timed just before the
row), and whether the result equals the closed form.
"""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cableslopes import cable, exact, intervals  # noqa: E402
from worker import time_reference  # noqa: E402
from workloads import (REFERENCE_LOOP_NOMINAL_S, reference_loop,  # noqa: E402
                       special_slope_closed_form)

REPEATS = 3
B = 8
MAX_Q = 11  # q = 15 (D = 103) already takes seconds


def main():
    for q in range(3, MAX_Q + 1, 2):
        p = q + 2
        params = cable.bezout(p, q)
        tau = exact.ExtRational(B * params.s + params.r, p - q * B)
        scale = REFERENCE_LOOP_NOMINAL_S / time_reference(reference_loop)
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            res = intervals.cable_interval(params, frozenset(), tau)
            times.append(time.perf_counter() - t0)
        got = (Fraction(res.t.low.num, res.t.low.den),
               Fraction(res.t.high.num, res.t.high.den))
        print(json.dumps({"p": p, "q": q, "b": B, "D": tau.den,
                          "best_ms": min(times) * 1000,
                          "scaled_ms": min(times) * scale * 1000,
                          "correct": got == special_slope_closed_form(
                              p, q, B, False)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
