"""Benchmark entry point for cableslopes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of one workload until about ``--seconds`` have passed.  The
seed fixes the workload's ops, which are split into chunks of one to
two seconds; round r runs chunk r mod (number of chunks) in a fresh
worker process, so every round starts with an empty decision cache and
every op is repeated several times, spread over the run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The host is shared, and its speed for Python drifts by a third or more
over seconds to minutes.  So every round also times a fixed loop of
rational arithmetic that does not touch the library
(workloads.reference_loop) right after its ops, and the round's times
are multiplied by the loop's nominal time / its time in that round: on
a host that runs the loop in its nominal time the scaled times are the
measured ones.  An op's latency is the median of its scaled repeats.
With ``--trace 0`` the metrics are the end-to-end ones:

- setup_s: median over rounds of the worker's scaled time from its
  first statement to its first timed op: importing the library and
  generating the inputs;
- throughput_ops_s: ops / the sum over ops of their latencies;
- op_p50_ms, op_p90_ms: percentiles over the ops of their latencies;
- peak_rss_mb: largest ru_maxrss of a worker;
- pass_ratio: ops that passed their check / ops attempted.  Failures
  are also in ``failed``; fail_ratio is 1 - pass_ratio.

With ``--trace 1`` every round runs twice, untraced and traced, and the
metrics are the per-layer ones, unscaled, from the spans of one traced
round per chunk (the one with the median wall), plus the median traced
/ untraced wall ratio, the reference loop's fastest time and probes of
the CLI: a bare interpreter start, ``import cableslopes.cli`` in a
fresh process, and in-process ``cli.main`` on the README examples,
whose output is checked against the README.  Workloads, metrics and
the numbers at the seed commit are in bench/records.json.

The library is imported from ``src`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("interval-ladder", "oracle-sweep", "cable-pipeline")
WORKER_TIMEOUT_S = 150
PROBE_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

PER_LAYER = {
    "intervals.extremal_slot_value.calls": "count",
    "intervals.extremal_slot_value.self_s": "s",
    "intervals.cable_interval.calls": "count",
    "intervals.cable_interval.self_s": "s",
    "intervals.cable_interval.p50_ms.D001-016": "ms",
    "intervals.cable_interval.p50_ms.D017-040": "ms",
    "intervals.cable_interval.p50_ms.D041-080": "ms",
    "intervals.cable_interval.p50_ms.D081-160": "ms",
    "jn.decide.calls": "count",
    "jn.decide.self_s": "s",
    "jn.witness_search.calls": "count",
    "jn.witness_search.self_s": "s",
    "jn.cache.hits": "count",
    "jn.cache.misses": "count",
    "jn.cache.hit_ratio": "ratio",
    "jn.cache.entries": "count",
    "seifert.normalize.calls": "count",
    "seifert.normalize.self_s": "s",
    "seifert.reduce_integral.self_s": "s",
    "oracle.grid_scan_interval.self_s": "s",
    "oracle.points_tested": "count",
    "oracle.points_per_s": "1/s",
    "oracle.mismatches": "count",
    "cable.cable_detected_set.calls": "count",
    "cable.cable_detected_set.self_s": "s",
    "exact.set_algebra.calls": "count",
    "exact.set_algebra.self_s": "s",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "host.reference_ms": "ms",
    "trace.wall_s": "s",
    "trace.unspanned_s": "s",
}


class BenchError(Exception):
    pass


def library_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def run_worker(args, env):
    """Run bench/worker.py with ``args``; return its JSON.

    The worker gets its own process group, which is killed if anything
    goes wrong, so no CLI process it started outlives the benchmark.
    """
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError("worker failed (%d): %s"
                         % (proc.returncode, stderr.strip()[-2000:]))
    return json.loads(stdout.strip().splitlines()[-1])


def run_rounds(workload, seed, seconds, trace, env):
    """Untraced rounds (and, with ``trace``, a traced twin of each).

    Stops once the next round would end after ``seconds``, but not
    before every chunk has run.
    """
    start = time.monotonic()
    untraced, traced = [], []
    r = 0
    while True:
        began = time.monotonic()
        order = (False, True) if r % 2 == 0 else (True, False)
        for is_traced in (order if trace else (False,)):
            spec = {"workload": workload, "seed": seed, "round": r,
                    "traced": is_traced, "plant": False}
            out = run_worker([json.dumps(spec)], env)
            for err in out["errors"]:
                print("op error: %s" % err, file=sys.stderr)
            (traced if is_traced else untraced).append(out)
        r += 1
        now = time.monotonic()
        if r >= out["chunks"] and now - start + (now - began) > seconds:
            return untraced, traced


def by_chunk(rounds):
    groups = {}
    for r in rounds:
        groups.setdefault(r["chunk"], []).append(r)
    return groups


def end_to_end(rounds):
    for r in rounds:
        # times of a round, scaled by the reference loop run right after it
        r["scale"] = r["reference_nominal"] / r["reference"]
    latencies = []
    for group in by_chunk(rounds).values():
        # rounds of one chunk repeat the same ops, which line up by index
        latencies += [statistics.median(xs) for xs in zip(
            *([x * r["scale"] for x in r["latencies"]] for r in group))]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    return {
        "setup_s": statistics.median(r["setup"] * r["scale"] for r in rounds),
        "throughput_ops_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": statistics.quantiles(latencies, n=10,
                                          method="inclusive")[-1] * 1000,
        "peak_rss_mb": max(r["rss_kb"] for r in rounds) / 1024,
        "pass_ratio": (attempted - failed) / attempted,
    }


def _median_wall_ms(argv, env):
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True,
                       timeout=WORKER_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000


def per_layer(untraced, traced, env):
    """Per-layer metrics, and (attempted, failed) of the CLI probe."""
    picked = []
    for group in by_chunk(traced).values():
        group.sort(key=lambda r: r["wall"])
        picked.append(group[(len(group) - 1) // 2]["stats"])
    out = tracer.layer_metrics(tracer.merge_stats(picked))
    out["trace.overhead_ratio"] = statistics.median(
        t["wall"] / u["wall"] for u, t in zip(untraced, traced))
    out["cli.interp_ms"] = _median_wall_ms([sys.executable, "-c", "pass"], env)
    out["cli.import_ms"] = _median_wall_ms(
        [sys.executable, "-c", "import cableslopes.cli"], env)
    probe = run_worker(["--cli-main-probe"], env)
    out["cli.main_ms"] = probe["main_ms"]
    out["host.reference_ms"] = min(r["reference"] for r in untraced) * 1000
    return out, (probe["attempted"], probe["failed"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # let subprocess cleanup run on SIGTERM, as it does on Ctrl-C
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "cableslopes" / "__init__.py").is_file():
        print("error: library sources not found under %s"
              % (ROOT / "src" / "cableslopes"), file=sys.stderr)
        return 2
    env = library_env()
    probe = (0, 0)
    try:
        untraced, traced = run_rounds(args.workload, args.seed, args.seconds,
                                      args.trace == 1, env)
        if args.trace:
            values, probe = per_layer(untraced, traced, env)
            units = PER_LAYER
        else:
            values = end_to_end(untraced)
            units = END_TO_END
    except (BenchError, subprocess.SubprocessError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    rounds = untraced + traced
    attempted = sum(r["attempted"] for r in rounds) + probe[0]
    failed = sum(r["failed"] for r in rounds) + probe[1]
    accounting_ok = all(r["accounting_ok"] for r in traced)
    if not accounting_ok:
        print("error: span self times do not add up to the traced wall",
              file=sys.stderr)
    metrics = {k: {"value": values[k], "unit": unit}
               for k, unit in units.items() if k in values}
    print(json.dumps({"correct": failed == 0 and accounting_ok,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
