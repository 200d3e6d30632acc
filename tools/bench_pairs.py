"""Paired benchmark runs of a base commit against the working tree.

    python3 tools/bench_pairs.py --label inference_fold --pairs 10 --seed 7 \
        --seconds 15 --workloads closed_loop train logs_to_pool

Run from anywhere inside a git checkout.  The base commit (`--base`,
default HEAD) is exported with `git archive`, and the working tree's tracked
files, as they are on disk, are copied beside it.  The two copies sit in one
temporary directory under names of equal length, so nothing is registered
in `.git`, an interrupted run leaves nothing to prune, and both sides run
from paths of the same length: closed_loop's `peak_rss_mb` settles on
levels up to 20 MB apart by the checkout's path alone, for the same code.
`--workloads` defaults to every workload `BENCHMARK.json` names, so a
claim file also shows the workloads a change did not target.  For each
workload, each pair runs `perfbench/run.py --trace 0` once in each
copy, with the side that runs first alternating from pair to pair.  The
runs are sequential, one process at a time.

The result is `BENCH_<label>.json` in the checkout's root.  It records both
commits, the machine, the Python and numpy versions, the arguments, every
run's result line, and, for each end-to-end metric `BENCHMARK.json`
declares, both sides' quartiles, the pair wins and whether the change stays
within the metric's bound, and, per workload, both sides' failed and
attempted operations and whether the change's failed share stays at or
below the base's.  A closed_loop run's record also keeps, under `episodes`,
the figures `perfbench/run.py` logs for each episode: the median gap and the
KS against the rule, the enqueue/drop/mark fractions and the model MARKs
applied as DROP.  Every run's record keeps, under `check_failures`, each
`CHECK FAILED` line it printed: the operation's index (None for a check of
the whole phase) and the message.  The console summary prints, per
workload, both sides' failed/attempted counts and `failed_share_holds`, for
closed_loop both sides' KS range, and each run's `CHECK FAILED` messages,
then, per metric, the medians, the wins and both gates, `claim_holds` and
`within_bound`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import tempfile

import numpy as np

SIDES = ("base", "change")


def git(root, *args):
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


def exit_on_sigterm():
    """Make SIGTERM raise SystemExit, so that a `with` block removes its
    temporary checkouts and `subprocess.run` kills its child: the default
    action ends the process without running any Python."""
    def handler(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def parse_result(stdout):
    """The result object `perfbench/run.py` prints as its last line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


_NUM = r"([-+.\w]+)"
# one closed_loop episode line, as `perfbench/workloads.py` `closed_loop_timed` logs it
_EPISODE = re.compile(
    rf"seed (\d+): (\d+) decisions, (\d+) model calls; delay p50/p99 rule {_NUM}/{_NUM} ms, "
    rf"llm {_NUM}/{_NUM} ms \(median off by {_NUM}%, KS {_NUM}\); util rule {_NUM} llm {_NUM}; "
    r"enqueue/drop/mark rule ([\d./]+) llm ([\d./]+); model MARKs applied as DROP (\d+)")


def _fractions(text):
    return [float(x) for x in text.split("/")]


# each of _EPISODE's groups, in order, by name and type
_EPISODE_FIELDS = {"seed": int, "decisions": int, "model_calls": int, "rule_p50_ms": float,
                   "rule_p99_ms": float, "llm_p50_ms": float, "llm_p99_ms": float,
                   "median_off_pct": float, "ks": float, "rule_util": float, "llm_util": float,
                   "rule_actions": _fractions, "llm_actions": _fractions, "mark_downgraded": int}


def parse_episodes(stdout):
    """The closed_loop episode lines of a run's output, one dict each;
    rule_actions and llm_actions are enqueue/drop/mark fractions."""
    episodes = []
    for line in stdout.splitlines():
        m = _EPISODE.fullmatch(line.strip())
        if m:
            episodes.append({name: convert(value) for (name, convert), value
                             in zip(_EPISODE_FIELDS.items(), m.groups())})
    return episodes


# a failed check, as `perfbench/run.py` logs it for a phase or one of its operations
_CHECK_FAILED = re.compile(r"CHECK FAILED(?: \(operation (\d+)\))?: (.*)")


def parse_check_failures(stdout):
    """The `CHECK FAILED` lines of a run's output, one dict each: the
    operation's index, None for a check of the whole phase, and the
    message."""
    failures = []
    for line in stdout.splitlines():
        m = _CHECK_FAILED.fullmatch(line.strip())
        if m:
            failures.append({"operation": None if m[1] is None else int(m[1]), "message": m[2]})
    return failures


def quartiles(values):
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def summarise(pairs, end_to_end):
    """Per end-to-end metric, both sides' runs and quartiles and the pairs
    the change wins.  `pairs` is a list of {"base": result, "change":
    result} of the result objects `perfbench/run.py` prints; `end_to_end`
    is BENCHMARK.json's list of metric specs (name, unit, better, bound).

    `failed` and `attempted` sum each side's operations over the pairs, and
    `failed_share_holds` holds when the change's share of failed operations
    is no larger than the base's.  `ks_range` gives each side's least and
    largest episode KS where both sides' runs kept `episodes`, and
    `check_failures` every run's failed checks, with its side and pair
    index, where any run kept one.

    A pair is a win when the change reads better than the base, a tie when
    the two read the same.  `claim_holds` applies the gain rule: wins in at
    least nine tenths of the pairs, and medians further apart than the
    base's interquartile range.  `within_bound` holds when the change's
    median is no worse than the base's by more than the bound (a fraction
    of the base's median).
    """
    failed = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
    attempted = {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES}
    share = {side: failed[side] / attempted[side] if attempted[side] else 0.0 for side in SIDES}
    out = {"pairs": len(pairs), "failed": failed, "attempted": attempted,
           "failed_share_holds": share["change"] <= share["base"], "metrics": {}}
    ks = {side: [e["ks"] for p in pairs for e in p[side].get("episodes", ())] for side in SIDES}
    if all(ks.values()):
        out["ks_range"] = {side: [min(ks[side]), max(ks[side])] for side in SIDES}
    failures = [{"side": side, "pair": i, **f} for i, p in enumerate(pairs) for side in SIDES
                for f in p[side].get("check_failures", ())]
    if failures:
        out["check_failures"] = failures
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
        runs = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        # `gain` > 0 where the change reads better than the base
        gain = sign * (np.asarray(runs["base"], dtype=float) - np.asarray(runs["change"], dtype=float))
        stats = {side: {"runs": runs[side], **quartiles(runs[side])} for side in SIDES}
        base_med, change_med = stats["base"]["median"], stats["change"]["median"]
        worse = sign * (change_med - base_med)
        wins = int(np.sum(gain > 0))
        out["metrics"][name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            **stats,
            "wins": wins, "ties": int(np.sum(gain == 0)),
            "median_change_pct": 100.0 * (change_med - base_med) / base_med if base_med else None,
            "base_iqr": stats["base"]["q3"] - stats["base"]["q1"],
            "claim_holds": bool(wins >= 0.9 * len(pairs)
                                and -worse > stats["base"]["q3"] - stats["base"]["q1"]),
            "within_bound": bool(worse <= spec["bound"] * abs(base_med)),
        }
    return out


def summary_lines(workload, summary):
    """The console lines of a workload's `summarise` output: first both
    sides' failed/attempted operations and `failed_share_holds`, then both
    sides' episode KS range where the summary has one, then each failed
    check with its side and pair (counted from 1), then one line per
    metric with both medians, the change in percent, the pair wins, the
    base's IQR and the two gates, `claim_holds` and `within_bound`."""
    failed, attempted = summary["failed"], summary["attempted"]
    lines = [f"{workload:13s} failed base {failed['base']}/{attempted['base']} "
             f"change {failed['change']}/{attempted['change']} "
             f"failed_share_holds {summary['failed_share_holds']}"]
    if "ks_range" in summary:
        lines.append(f"{workload:13s} episode KS " + " ".join(
            f"{side} {lo:.3f}-{hi:.3f}" for side, (lo, hi) in summary["ks_range"].items()))
    for f in summary.get("check_failures", ()):
        where = "" if f["operation"] is None else f" (operation {f['operation']})"
        lines.append(f"{workload:13s} CHECK FAILED {f['side']} pair {f['pair'] + 1}{where}: "
                     f"{f['message']}")
    for name, m in summary["metrics"].items():
        pct = m["median_change_pct"]
        lines.append(f"{workload:13s} {name:16s} base {m['base']['median']:.4g} "
                     f"change {m['change']['median']:.4g}"
                     + (f" ({pct:+.1f}%)" if pct is not None else "")
                     + f" wins {m['wins']}/{summary['pairs']} base IQR {m['base_iqr']:.3g}"
                     f" claim_holds {m['claim_holds']} within_bound {m['within_bound']}")
    return lines


def machine():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpu_model": cpu or platform.processor(), "nproc": nproc,
            "python": platform.python_version(), "numpy": np.__version__}


def workload_names(benchmark):
    """The names of the workloads a parsed BENCHMARK.json declares, in its
    order."""
    return [w["name"] for w in benchmark["workloads"]]


def export_commit(root, commit, dest):
    """The files of `commit`, extracted into the new directory `dest`."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=root,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def export_tree(root, dest):
    """The working tree's tracked files as they are on disk (uncommitted
    edits and staged new files included), copied into the new directory
    `dest`."""
    for rel in git(root, "ls-files", "-z").split("\0"):
        src = os.path.join(root, rel)
        if rel and os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def run_once(checkout, workload, args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = parse_result(proc.stdout)
    for key, parse in (("episodes", parse_episodes), ("check_failures", parse_check_failures)):
        found = parse(proc.stdout)
        if found:
            result[key] = found
    return result


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="the output is BENCH_<label>.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--workloads", nargs="+",
                    help="the workloads to run (default: every one BENCHMARK.json names)")
    ap.add_argument("--base", default="HEAD", help="the commit to compare against (default HEAD)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    exit_on_sigterm()
    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    end_to_end = benchmark["end_to_end"]
    args.workloads = args.workloads or workload_names(benchmark)
    commits = {"base": git(root, "rev-parse", args.base),
               "change": git(root, "rev-parse", "HEAD"),
               "change_has_uncommitted_edits": bool(git(root, "status", "--porcelain",
                                                        "--untracked-files=no"))}
    doc = {"label": args.label, "commits": commits, "machine": machine(),
           "arguments": dict(vars(args)), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        # names of equal length, so both sides run from paths of one length
        checkouts = {"base": os.path.join(tmp, "base"), "change": os.path.join(tmp, "work")}
        export_commit(root, commits["base"], checkouts["base"])
        export_tree(root, checkouts["change"])
        for workload in args.workloads:
            pairs = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], workload, args)
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: " + " ".join(
                        f"{k}={m['value']:.4g}" for k, m in pair[side]["metrics"].items()),
                        flush=True)
                pairs.append(pair)
            doc["workloads"][workload] = {"runs": pairs, "summary": summarise(pairs, end_to_end)}
    path = os.path.join(root, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for workload, entry in doc["workloads"].items():
        for line in summary_lines(workload, entry["summary"]):
            print(line)
    print(f"written {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
