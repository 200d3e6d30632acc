"""tools/bench_pairs.py's summary of paired benchmark runs, on canned result
lines of the form `perfbench/run.py` prints, and smallest runs of
tools/step_pairs.py and tools/decision_pairs.py."""

import contextlib
import importlib.util
import json
import os
import pathlib
import re
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


EPISODE = ("seed {}: 23422 decisions, 2342 model calls; delay p50/p99 rule 13.38/53.10 ms, "
           "llm 15.08/47.09 ms (median off by 12.7%, KS {}); util rule 0.981 llm 0.986; "
           "enqueue/drop/mark rule 0.593/0.167/0.240 llm 0.599/0.169/0.232; "
           "model MARKs applied as DROP 1072")


def test_closed_loop_episodes_are_kept_and_their_ks_range_shown():
    """Each closed_loop episode line becomes one record under `episodes`;
    logs_to_pool's per-seed klog lines are not episodes.  The summary and
    its console lines give each side's KS range."""
    out = "\n".join(["seed 1000: 475 decisions, klog sha256 a0ea32", EPISODE.format(1500, "0.042"),
                     EPISODE.format(1501, "0.051"), "closed_loop latency_p50_ms 0.16 ms"])
    first, second = bench_pairs.parse_episodes(out)
    assert first == {"seed": 1500, "decisions": 23422, "model_calls": 2342, "rule_p50_ms": 13.38,
                     "rule_p99_ms": 53.1, "llm_p50_ms": 15.08, "llm_p99_ms": 47.09,
                     "median_off_pct": 12.7, "ks": 0.042, "rule_util": 0.981, "llm_util": 0.986,
                     "rule_actions": [0.593, 0.167, 0.24], "llm_actions": [0.599, 0.169, 0.232],
                     "mark_downgraded": 1072}
    assert (second["seed"], second["ks"]) == (1501, 0.051)
    assert bench_pairs.parse_episodes("seed 1000: 475 decisions, klog sha256 a0ea32\n") == []
    runs = pairs([(0.4, 100.0)] * 2, [(0.4, 100.0)] * 2)
    for pair, ks in zip(runs, ((0.03, 0.05), (0.02, 0.04))):
        for side, k in zip(bench_pairs.SIDES, ks):
            pair[side]["episodes"] = bench_pairs.parse_episodes(EPISODE.format(1500, k))
    summary = bench_pairs.summarise(runs, SPEC)
    assert summary["ks_range"] == {"base": [0.02, 0.03], "change": [0.04, 0.05]}
    assert bench_pairs.summary_lines("closed_loop", summary)[1] == (
        "closed_loop   episode KS base 0.020-0.030 change 0.040-0.050")
    assert "ks_range" not in bench_pairs.summarise(pairs([(0.4, 1.0)], [(0.4, 1.0)]), SPEC)


def test_check_failures_are_kept_and_shown():
    """Each `CHECK FAILED` line a run prints, of the phase or of one
    operation, becomes one record under `check_failures`; the summary
    gathers them with their side and pair, and the console prints each."""
    out = ("train latency_p50_ms 4.1 ms\n"
           "CHECK FAILED: trained loss 1.2 is not below the initial 1.1\n"
           "CHECK FAILED (operation 3): non-finite logits\n"
           "checks passed: 4 of 5\n")
    failures = bench_pairs.parse_check_failures(out)
    assert failures == [
        {"operation": None, "message": "trained loss 1.2 is not below the initial 1.1"},
        {"operation": 3, "message": "non-finite logits"}]
    assert bench_pairs.parse_check_failures(stdout(0.4, 100.0)) == []
    runs = pairs([(0.4, 100.0)] * 2, [(0.4, 100.0, 1)] * 2)
    runs[1]["change"]["check_failures"] = failures[1:]
    summary = bench_pairs.summarise(runs, SPEC)
    assert summary["check_failures"] == [
        {"side": "change", "pair": 1, "operation": 3, "message": "non-finite logits"}]
    assert bench_pairs.summary_lines("train", summary)[1] == (
        "train         CHECK FAILED change pair 2 (operation 3): non-finite logits")
    assert "check_failures" not in bench_pairs.summarise(pairs([(0.4, 1.0)], [(0.4, 1.0)]), SPEC)


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


def git_status():
    return subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"], cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout


def test_step_pairs_runs_at_its_smallest_size_against_head():
    """tools/step_pairs.py imports HEAD's and the working tree's packages
    into one process, times their train steps block by block and writes
    nothing into the checkout."""
    before = git_status()
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
    assert git_status() == before


def test_decision_pairs_runs_at_its_smallest_size_against_head():
    """tools/decision_pairs.py imports HEAD's and the working tree's
    packages into one process, names both checkpoint versions, times their
    seeded snapshots' decisions block by block and writes nothing into the
    checkout; of one checkpoint version, their logits agree."""
    before = git_status()
    proc = subprocess.run([sys.executable, "tools/decision_pairs.py", "--blocks", "2"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    versions = re.findall(r"\(checkpoint v(\d+)\)", lines[0])
    assert lines[0].startswith("base ") and len(versions) == 2
    assert " pool steps, 1 layer(s), 2 head(s), 2 blocks; largest logits difference " in lines[0]
    assert versions[0] != versions[1] or float(lines[0].rsplit(" ", 1)[1]) <= 1e-5
    assert [line.split(" first ")[0] for line in lines[1:3]] == ["block 1/2", "block 2/2"]
    assert "first base" in lines[1] and "first change" in lines[2]
    assert all(" ratio " in line for line in lines[1:3])
    assert lines[3].startswith("change faster in ") and lines[3].endswith(" of 2 blocks")
    assert float(lines[4].rsplit(" ", 1)[1]) > 0
    assert git_status() == before


@pytest.mark.parametrize("base_version, code", [(8, 0), (9, 1)], ids=["other_format", "same_format"])
def test_decision_pairs_checks_parity_only_within_one_checkpoint_format(monkeypatch, capsys,
                                                                      base_version, code):
    """A base whose seeded snapshot's logits differ by 1e-3: of another
    checkpoint version the tool notes the gap and times to the end; of the
    same version it exits 1 before timing."""
    import aqmlab.training   # and the model, pool and simulator it imports
    monkeypatch.setattr(sys, "path", [*sys.path])   # the tool puts tools/ on it
    spec = importlib.util.spec_from_file_location("decision_pairs", ROOT / "tools" / "decision_pairs.py")
    decision_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(decision_pairs)
    model = aqmlab.model

    class Shifted(model.InferencePolicy):
        def logits(self, *window):
            return super().logits(*window) + 1e-3

    base = types.SimpleNamespace(model=types.SimpleNamespace(
        CHECKPOINT_VERSION=base_version, ModelConfig=model.ModelConfig,
        PolicyModel=model.PolicyModel, InferencePolicy=Shifted))

    @contextlib.contextmanager
    def side_trees(rev, prefix):
        yield "0" * 40, "", {"base": base, "change": aqmlab}

    monkeypatch.setattr(model, "CHECKPOINT_VERSION", 9)
    monkeypatch.setattr(decision_pairs.step_pairs, "side_trees", side_trees)
    monkeypatch.setattr(decision_pairs.step_pairs, "POOL_SECONDS", 1.0)
    assert decision_pairs.main(["--blocks", "1"]) == code
    out, err = capsys.readouterr()
    assert out.startswith(f"base 000000000000 (checkpoint v{base_version}) against the working "
                          f"tree (checkpoint v9): ")
    assert out.splitlines()[0].endswith("largest logits difference 0.001")
    if code:
        assert err == "error: the two sides' logits differ by 0.001, more than 1e-05\n"
        assert len(out.splitlines()) == 1
    else:
        assert err.startswith("note: checkpoint v8 and v9 are different models")
        assert out.splitlines()[-1].startswith("median ratio change/base ")


@pytest.mark.parametrize("tool, size, prefix", [
    ("step_pairs.py", ["--steps", "1"], "step-pairs-"),
    ("decision_pairs.py", [], "decision-pairs-")], ids=["step_pairs", "decision_pairs"])
def test_pairs_tool_removes_its_checkouts_on_sigterm(tmp_path, tool, size, prefix):
    """A run ended by SIGTERM still removes its temporary directory."""
    proc = subprocess.Popen(
        [sys.executable, f"tools/{tool}", "--blocks", "100000", *size],
        cwd=ROOT, env=dict(os.environ, TMPDIR=str(tmp_path)), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    try:
        assert proc.stdout.readline().startswith("base ")
        assert len(list(tmp_path.glob(f"{prefix}*"))) == 1
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert not list(tmp_path.glob(f"{prefix}*"))
