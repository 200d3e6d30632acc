"""tools/bench_pairs.py's summary of paired benchmark runs, on canned result
lines of the form `perfbench/run.py` prints, and smallest runs of
tools/step_pairs.py and tools/decision_pairs.py."""

import contextlib
import importlib.util
import json
import os
import pathlib
import signal
import subprocess
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
        {"name": "decisions_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}]


def stdout(p50, rate, failed=0):
    """What one run prints: log lines, then the result object."""
    result = {"correct": not failed, "attempted": 5, "failed": failed,
              "metrics": {"latency_p50_ms": {"value": p50, "unit": "ms"},
                          "decisions_per_s": {"value": rate, "unit": "1/s"}}}
    return f"setup: imports 0.2 s\nlatency_p50_ms {p50} ms\n{json.dumps(result)}\n\n"


def pairs(base, change):
    return [{"base": bench_pairs.parse_result(stdout(*b)),
             "change": bench_pairs.parse_result(stdout(*c))} for b, c in zip(base, change)]


def test_parse_result_reads_the_last_line():
    assert bench_pairs.parse_result(stdout(0.4, 100.0, failed=1))["failed"] == 1
    with pytest.raises(ValueError):
        bench_pairs.parse_result("\n \n")


def test_summary_quartiles_wins_and_rules():
    base = [(0.40, 100.0), (0.42, 100.0), (0.44, 110.0), (0.46, 90.0), (0.41, 105.0)]
    change = [(0.30, 120.0), (0.31, 100.0), (0.45, 130.0), (0.32, 80.0), (0.33, 125.0)]
    out = bench_pairs.summarise(pairs(base, change), SPEC)
    assert out["pairs"] == 5 and out["failed"] == {"base": 0, "change": 0}
    assert out["attempted"] == {"base": 25, "change": 25}
    p50, rate = out["metrics"]["latency_p50_ms"], out["metrics"]["decisions_per_s"]
    assert p50["base"]["runs"] == [0.40, 0.42, 0.44, 0.46, 0.41]
    assert (p50["base"]["q1"], p50["base"]["median"], p50["base"]["q3"]) == pytest.approx(
        (0.41, 0.42, 0.44))
    assert p50["change"]["median"] == pytest.approx(0.32)
    # the change is lower in 4 of 5 pairs: better by far more than the
    # base's IQR, but short of nine tenths of the pairs
    assert (p50["wins"], p50["ties"]) == (4, 0)
    assert p50["base_iqr"] == pytest.approx(0.03)
    assert p50["median_change_pct"] == pytest.approx(100 * (0.32 - 0.42) / 0.42)
    assert not p50["claim_holds"] and p50["within_bound"]
    # higher is better: 3 wins, 1 tie, 1 loss
    assert (rate["wins"], rate["ties"]) == (3, 1)
    assert rate["within_bound"]


def test_claim_and_bound_decisions():
    base = [(0.40, 100.0)] * 10
    out = bench_pairs.summarise(pairs(base, [(0.30, 79.0)] * 10), SPEC)["metrics"]
    assert out["latency_p50_ms"]["claim_holds"] and out["latency_p50_ms"]["wins"] == 10
    # 21% fewer decisions per second is past the 20% bound
    assert not out["decisions_per_s"]["within_bound"]
    assert not out["decisions_per_s"]["claim_holds"]
    # a change 10% slower in every pair: within the bound, no claim
    out = bench_pairs.summarise(pairs(base, [(0.44, 100.0)] * 10), SPEC)["metrics"]
    assert out["latency_p50_ms"]["within_bound"] and not out["latency_p50_ms"]["claim_holds"]
    assert out["decisions_per_s"]["ties"] == 10


def test_console_summary_shows_wins_and_both_gates():
    base = [(0.40, 100.0)] * 10
    summary = bench_pairs.summarise(pairs(base, [(0.30, 79.0)] * 10), SPEC)
    failures, p50, rate = bench_pairs.summary_lines("closed_loop", summary)
    assert failures.startswith("closed_loop")
    assert failures.endswith("failed base 0/50 change 0/50 failed_share_holds True")
    assert p50.startswith("closed_loop") and "latency_p50_ms" in p50
    assert "(-25.0%) wins 10/10" in p50
    assert p50.endswith("claim_holds True within_bound True")
    assert "decisions_per_s" in rate and "wins 0/10" in rate
    assert rate.endswith("claim_holds False within_bound False")


def test_failed_operations_are_summed_per_side():
    out = bench_pairs.summarise(pairs([(0.4, 1.0, 2)] * 2, [(0.4, 1.0, 0)] * 2), SPEC)
    assert out["failed"] == {"base": 4, "change": 0}


@pytest.mark.parametrize("base_failed,change_failed,holds", [
    (0, 0, True), (2, 0, True), (1, 1, True), (0, 1, False), (1, 2, False)])
def test_failed_share_gate(base_failed, change_failed, holds):
    """The change's share of failed operations may not rise above the base's;
    the console shows both sides' failed/attempted counts."""
    summary = bench_pairs.summarise(pairs([(0.4, 1.0, base_failed)] * 2,
                                          [(0.4, 1.0, change_failed)] * 2), SPEC)
    assert summary["failed_share_holds"] is holds
    assert bench_pairs.summary_lines("train", summary)[0] == (
        f"train         failed base {2 * base_failed}/10 change {2 * change_failed}/10 "
        f"failed_share_holds {holds}")


def test_reads_the_benchmark_metric_specs():
    """Every end-to-end metric BENCHMARK.json declares carries the fields
    summarise reads."""
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert specs and all({"name", "unit", "better", "bound"} <= spec.keys() for spec in specs)
    assert {spec["better"] for spec in specs} <= {"lower", "higher"}


def test_workloads_default_to_every_benchmark_workload():
    """With no --workloads a run covers every workload BENCHMARK.json names,
    so a claim file also shows the ones the change did not target."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench_pairs.parse_args(["--label", "x", "--seed", "1"]).workloads is None
    assert bench_pairs.workload_names(benchmark) == ["logs_to_pool", "train", "closed_loop"]
    assert bench_pairs.parse_args(["--label", "x", "--seed", "1", "--workloads", "train"]
                                  ).workloads == ["train"]


def test_exports_the_commit_and_the_tracked_working_tree(tmp_path):
    """The base is the commit; the change is the working tree's tracked
    files as they are on disk, staged new files included, untracked ones not."""
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        bench_pairs.subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                                   cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    (repo / "pkg").mkdir()
    (repo / "pkg" / "a.py").write_text("old\n")
    git("add", ".")
    git("commit", "-q", "-m", "base")
    (repo / "pkg" / "a.py").write_text("edited\n")
    (repo / "b.py").write_text("staged\n")
    git("add", "b.py")
    (repo / "c.py").write_text("untracked\n")
    base, work = tmp_path / "x" / "base", tmp_path / "x" / "work"
    bench_pairs.export_commit(str(repo), "HEAD", str(base))
    bench_pairs.export_tree(str(repo), str(work))
    assert sorted(p.name for p in base.rglob("*.py")) == ["a.py"]
    assert (base / "pkg" / "a.py").read_text() == "old\n"
    assert sorted(p.name for p in work.rglob("*.py")) == ["a.py", "b.py"]
    assert (work / "pkg" / "a.py").read_text() == "edited\n"


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_file_is_stamped(path):
    """Every committed BENCH_*.json says what it measured and where: its
    label, both commits, the machine with its Python and numpy versions and
    the arguments, and for each workload exactly the end-to-end metrics
    BENCHMARK.json declares."""
    doc = json.loads(path.read_text())
    names = {spec["name"] for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert doc["label"] and path.name == f"BENCH_{doc['label']}.json"
    assert all(doc["commits"].get(side) for side in ("base", "change"))
    assert all(doc["machine"].get(key) for key in ("platform", "cpu_model", "nproc", "python", "numpy"))
    assert doc["arguments"]["label"] == doc["label"]
    assert doc["workloads"] and set(doc["arguments"]["workloads"]) == set(doc["workloads"])
    for workload, entry in doc["workloads"].items():
        assert set(entry["summary"]["metrics"]) == names, workload


def test_step_pairs_runs_at_its_smallest_size_against_head():
    """tools/step_pairs.py imports HEAD's and the working tree's packages
    into one process, times their train steps block by block and writes
    nothing into the checkout."""
    def status():
        return subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"], cwd=ROOT,
                              check=True, capture_output=True, text=True).stdout

    before = status()
    proc = subprocess.run(
        [sys.executable, "tools/step_pairs.py", "--blocks", "2", "--steps", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("base ") and "1 layer(s), 2 head(s), 2 blocks of 1 steps" in lines[0]
    assert [line.split(" first ")[0] for line in lines[1:3]] == ["block 1/2", "block 2/2"]
    assert "first base" in lines[1] and "first change" in lines[2]
    assert all(" ratio " in line for line in lines[1:3])
    assert lines[3].startswith("change faster in ") and lines[3].endswith(" of 2 blocks")
    assert float(lines[4].rsplit(" ", 1)[1]) > 0
    assert status() == before


def committed_copy(dest):
    """A git repository at `dest` whose HEAD commit holds the working tree's
    tracked files as they are on disk.  decision_pairs compares only
    commits of one checkpoint format, so its runs below take this HEAD as
    their base: the checkout's own HEAD may be of an earlier format while
    a change to the format is not yet committed."""
    bench_pairs.export_tree(str(ROOT), str(dest))
    for args in (["init", "-q"], ["add", "-A"],
                 ["-c", "user.name=tests", "-c", "user.email=tests@localhost", "-c", "commit.gpgsign=false",
                  "commit", "-q", "--no-verify", "-m", "working tree"]):
        subprocess.run(["git", *args], cwd=dest, check=True, capture_output=True)
    return dest


def test_decision_pairs_runs_at_its_smallest_size_against_head(tmp_path):
    """tools/decision_pairs.py imports HEAD's and the working tree's
    packages into one process, checks that their logits agree on the
    recorded windows, times their decisions block by block and writes
    nothing into the checkout."""
    checkout = committed_copy(tmp_path / "checkout")

    def status():
        return subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"], cwd=checkout,
                              check=True, capture_output=True, text=True).stdout

    before = status()
    proc = subprocess.run(
        [sys.executable, "tools/decision_pairs.py", "--blocks", "2", "--seconds", "1"],
        cwd=checkout, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("base ") and "of a 1 s held-out episode, 1 layer(s), 2 head(s), " \
        "2 blocks; largest logits difference " in lines[0]
    assert float(lines[0].rsplit(" ", 1)[1]) <= 1e-5
    assert [line.split(" first ")[0] for line in lines[1:3]] == ["block 1/2", "block 2/2"]
    assert "first base" in lines[1] and "first change" in lines[2]
    assert all(" ratio " in line for line in lines[1:3])
    assert lines[3].startswith("change faster in ") and lines[3].endswith(" of 2 blocks")
    assert float(lines[4].rsplit(" ", 1)[1]) > 0
    assert status() == before


def test_decision_pairs_exits_2_when_the_base_cannot_read_the_checkpoint(tmp_path, monkeypatch,
                                                                         capsys):
    """A base of an earlier checkpoint format refuses the working tree's
    checkpoint: the tool says that it compares only commits of one format,
    names the tool that covers the rest, and exits 2 without a traceback."""
    import aqmlab.model
    monkeypatch.setattr(sys, "path", [*sys.path])   # the tool puts tools/ on it
    spec = importlib.util.spec_from_file_location("decision_pairs", ROOT / "tools" / "decision_pairs.py")
    decision_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(decision_pairs)

    class BaseCheckpointError(RuntimeError):
        pass

    def refuse(path):
        raise BaseCheckpointError("unsupported checkpoint version 7")

    @contextlib.contextmanager
    def side_trees(rev, prefix):
        base = types.SimpleNamespace(model=types.SimpleNamespace(
            CheckpointError=BaseCheckpointError, load_checkpoint=refuse))
        yield "0" * 40, str(tmp_path), {"base": base, "change": aqmlab}

    model = aqmlab.model
    monkeypatch.setattr(decision_pairs.step_pairs, "side_trees", side_trees)
    monkeypatch.setattr(decision_pairs, "write_checkpoint", lambda package, path: model.save_checkpoint(
        model.PolicyModel(model.ModelConfig()), path))
    assert decision_pairs.main(["--blocks", "1", "--seconds", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: base 000000000000 cannot read the working tree's checkpoint "
                          "(unsupported checkpoint version 7); decision_pairs compares only "
                          "commits of one checkpoint format, and tools/bench_pairs.py covers")


@pytest.mark.parametrize("tool, size, prefix", [
    ("step_pairs.py", ["--steps", "1"], "step-pairs-"),
    ("decision_pairs.py", ["--seconds", "1"], "decision-pairs-")], ids=["step_pairs", "decision_pairs"])
def test_pairs_tool_removes_its_checkouts_on_sigterm(tmp_path, tool, size, prefix):
    """A run ended by SIGTERM still removes its temporary directory."""
    checkout, tmp = committed_copy(tmp_path / "checkout"), tmp_path / "tmp"
    tmp.mkdir()
    proc = subprocess.Popen(
        [sys.executable, f"tools/{tool}", "--blocks", "100000", *size],
        cwd=checkout, env=dict(os.environ, TMPDIR=str(tmp)), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    try:
        assert proc.stdout.readline().startswith("base ")
        assert len(list(tmp.glob(f"{prefix}*"))) == 1
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert not list(tmp.glob(f"{prefix}*"))
