"""The benchmark's own checks pass on every op of every workload.

``bench/workloads.py`` checks each op against an independent reference
(closed forms, oracle scans, criterion 06 and set laws).  Running each
workload once here means a wrong answer fails the test suite instead of
only lowering the benchmark's pass_ratio.  The module is loaded from
its file and nothing under ``bench/`` is written.
"""

import importlib.util
import pathlib
import random
import sys

import pytest

WORKLOADS_PY = (pathlib.Path(__file__).resolve().parents[1]
                / "bench" / "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


workloads = _load_workloads()


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
