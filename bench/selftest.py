"""Self-test of the benchmark's correctness gates and metric tables.

    python3 bench/selftest.py

For every workload it runs each chunk once with the true expected
values, where every op must pass, and once with a planted wrong answer,
where some op must fail: a perturbed closed-form endpoint
(interval-ladder, cable-pipeline), a widened interval handed to the
oracle (oracle-sweep) and a flipped set law (cable-pipeline).  The CLI
probe of the traced run gets the same treatment: it must find every
README output, and miss an altered one.  Last, the metric names and
units in run.py must match BENCHMARK.json.  Exits 0 when all hold.
"""

import json
import sys

import run


def check_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if tuple(w["name"] for w in spec["workloads"]) != run.WORKLOADS:
        problems.append("workload names differ from BENCHMARK.json")
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != table:
            problems.append("%s metrics differ from BENCHMARK.json" % key)
    return problems


def main():
    env = run.library_env()
    problems = check_tables()
    for workload in run.WORKLOADS:
        for plant in (False, True):
            failed = attempted = 0
            r = chunks = 0
            while r == 0 or r < chunks:
                spec = {"workload": workload, "seed": 1, "round": r,
                        "traced": False, "plant": plant}
                out = run.run_worker([json.dumps(spec)], env)
                failed += out["failed"]
                attempted += out["attempted"]
                chunks = out["chunks"]
                r += 1
            print("%-16s plant=%-5s failed %5d of %5d"
                  % (workload, plant, failed, attempted))
            if (failed > 0) != plant:
                problems.append("%s: gate %s with plant=%s" % (
                    workload, "fired" if failed else "stayed silent", plant))
    for plant in (False, True):
        out = run.run_worker(["--cli-main-probe"]
                                + (["--plant"] if plant else []), env)
        print("%-16s plant=%-5s failed %5d of %5d"
              % ("cli probe", plant, out["failed"], out["attempted"]))
        if (out["failed"] > 0) != plant:
            problems.append("cli probe: gate %s with plant=%s" % (
                "fired" if out["failed"] else "stayed silent", plant))
    for problem in problems:
        print("FAIL: %s" % problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
