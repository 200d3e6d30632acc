"""Smoke test of the benchmark: every workload at its smallest size.

    python3 perfbench/smoke_test.py        # or: python3 -m pytest perfbench/smoke_test.py

Runs each workload untraced and traced with --tiny, and checks that the last
line of output is a result carrying exactly the metrics BENCHMARK.json names,
with no failed operation.  Also checks that the benchmark refuses to run, and
prints no result, in a directory that holds only the benchmark.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("logs_to_pool", "train", "closed_loop")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-3000:]
    assert result["attempted"] >= 1 and result["failed"] == 0, proc.stdout[-3000:]
    want = {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(want), sorted(set(got) ^ set(want))
    for name, m in got.items():
        assert m["unit"] == want[name], name
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name


def test_workloads_untraced():
    for workload in WORKLOADS:
        check_result(workload, 0)


def test_workloads_traced():
    for workload in WORKLOADS:
        check_result(workload, 1)


def test_refuses_without_sources():
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(tmp, "logs_to_pool", 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for test in (test_refuses_without_sources, test_workloads_untraced, test_workloads_traced):
        test()
        print(f"{test.__name__}: ok", flush=True)
