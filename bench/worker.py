"""One benchmark round in a fresh process, or the in-process CLI probe.

    python3 bench/worker.py '{"workload": ..., "seed": ..., "round": ...,
                              "traced": false, "plant": false}'
    python3 bench/worker.py --cli-main-probe [--plant]

A round imports the library, builds the workload's inputs from
(workload, seed), then times every op of chunk (round mod chunks).  It
prints one JSON line: the chunk and their number, the set-up time
(from the worker's first statement to its first op), each op's latency,
the timed wall, the best time of workloads.reference_loop run right
after the ops (it gauges the host's speed), how many ops failed their
check, the peak RSS and, when traced, the span totals.  A traced round
also writes its spans to .bench_out/<workload>.chunk<k>.spans.json.

The library must be importable (run.py puts ``src`` on PYTHONPATH).
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here

import contextlib
import io
import json
import random
import resource
import statistics
import sys
from pathlib import Path

from tracer import Tracer

OUT_DIR = Path(__file__).resolve().parents[1] / ".bench_out"
MAX_ERRORS_SHOWN = 3
REFERENCE_REPEATS = 8
CLI_PROBE_PASSES = 3


def time_reference(reference):
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - t0)
    return best


def run_round(spec):
    name = spec["workload"]
    tracer = Tracer() if spec["traced"] else None
    if tracer is not None:
        tracer.install()
    import workloads
    rng = random.Random("%s:%d" % (name, spec["seed"]))
    chunks = workloads.build(name, rng, spec["plant"])
    chunk = spec["round"] % len(chunks)
    ops, check = chunks[chunk]
    if tracer is not None:
        tracer.reset()

    clock = time.perf_counter
    latencies, results, errors = [], [], []
    start = clock()
    for fn, args in ops:
        t0 = clock()
        try:
            result = fn(*args)
        except Exception as exc:  # an op that raises counts as failed
            result = None
            errors.append(repr(exc))
        latencies.append(clock() - t0)
        results.append(result)
    wall = clock() - start

    out = {
        "chunk": chunk,
        "chunks": len(chunks),
        "setup": start - STARTED,
        "latencies": latencies,
        "wall": wall,
        "reference": time_reference(workloads.reference_loop),
        "reference_nominal": workloads.REFERENCE_LOOP_NOMINAL_S,
        "attempted": len(ops),
        "errors": errors[:MAX_ERRORS_SHOWN],
    }
    if tracer is not None:
        # summarise before the checks, whose set algebra is not timed
        tracer.finish()
        out["stats"], out["accounting_ok"] = tracer.stats(wall)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / ("%s.chunk%d.spans.json" % (name, chunk)))
    out["failed"] = check(results).count(False)
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


def cli_main_probe(plant):
    """In-process cli.main over the README examples: latency and output.

    Returns the median latency of a call and how many calls printed
    something other than what the README documents, or did not return 0.
    ``plant`` alters the expected torus line, for the self-test.
    """
    from cableslopes import cli
    from workloads import README_EXAMPLES
    times, failed = [], 0
    for _ in range(CLI_PROBE_PASSES):
        for argv, line in README_EXAMPLES:
            if plant and argv[0] == "torus":
                line = line.replace("7", "8")
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                code = cli.main(list(argv))
                times.append(time.perf_counter() - t0)
            failed += code != 0 or buf.getvalue() != line + "\n"
    return {"main_ms": statistics.median(times) * 1000,
            "attempted": len(times), "failed": failed}


def main(argv):
    if argv[:1] == ["--cli-main-probe"]:
        print(json.dumps(cli_main_probe(argv[1:] == ["--plant"])))
    else:
        print(json.dumps(run_round(json.loads(argv[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
