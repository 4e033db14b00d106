"""The benchmark's own checks pass on every op of every workload.

``bench/workloads.py`` checks each op against an independent reference
(closed forms, oracle scans, criterion 06 and set laws).  Running each
workload once here means a wrong answer fails the test suite instead of
only lowering the benchmark's pass_ratio.  The module is loaded from
its file and nothing under ``bench/`` is written.

One traced round per workload also runs ``bench/worker.py`` as the
benchmark does, in a fresh process, and checks the line it prints, and
one traced ``bench/run.py`` checks the result line the benchmark reads.
"""

import importlib.util
import json
import os
import pathlib
import random
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS_PY = ROOT / "bench" / "workloads.py"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


workloads = _load(WORKLOADS_PY, "bench_workloads")
tracer = _load(ROOT / "bench" / "tracer.py", "bench_tracer")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_op_passes_its_check(name):
    # the same seed string form as the benchmark's worker
    rng = random.Random("%s:%d" % (name, 1))
    chunks = workloads.build(name, rng, plant=False)
    assert chunks
    for ops, check in chunks:
        results = [fn(*args) for fn, args in ops]
        flags = check(results)
        assert len(flags) == len(ops) > 0
        failed = [ops[i] for i, ok in enumerate(flags) if not ok]
        assert not failed, failed[:3]


def _strict_constant(name):
    raise ValueError("not strict JSON: %s" % name)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_round_reports_every_target(name, tmp_path):
    # a traced round must end in one strict-JSON line whose span totals
    # name every tracer target: the tracer skips a target that no longer
    # resolves, which would silently drop its metrics.  The round runs
    # on a copy of bench/, so its spans are written under tmp_path.
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in WORKLOADS_PY.parent.glob("*.py"):
        shutil.copy(path, bench / path.name)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    spec = {"workload": name, "seed": 7, "round": 0, "traced": True,
            "plant": False}
    proc = subprocess.run([sys.executable, str(bench / "worker.py"),
                           json.dumps(spec)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=50)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.splitlines()[-1],
                     parse_constant=_strict_constant)
    assert out["accounting_ok"] is True
    assert out["failed"] == 0
    assert set(out["stats"]["calls"]) == {t[0] for t in tracer.TARGETS}


def test_traced_run_prints_every_per_layer_metric(tmp_path):
    # the benchmark reads run.py's last line: it must be one strict-JSON
    # result that is correct and names every per-layer metric that
    # BENCHMARK.json declares.  run.py imports the library from the src
    # beside its own directory, so a copy of bench/ gets a link to src.
    bench = tmp_path / "bench"
    shutil.copytree(WORKLOADS_PY.parent, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(SRC, target_is_directory=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(bench / "run.py"),
                           "--workload", "interval-ladder", "--seed", "7",
                           "--seconds", "0", "--trace", "1"],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.splitlines()[-1],
                     parse_constant=_strict_constant)
    assert out["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(out["metrics"]) == {m["name"] for m in declared["per_layer"]}
