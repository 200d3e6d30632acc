"""Closed-loop evaluation of AQM policies plus stability diagnostics.

A PolicyDriver decides, per packet arrival, whether to keep the built-in
rule decision or substitute a model prediction.  RuleBased keeps every rule
decision; LlmEvery(n) routes every n-th decision through a trained policy
model conditioned on the live decision history.

compare() reports robust deltas (median / IQR) and a two-sample KS statistic
between the two runs' delay quantile grids, and refuses a run with no delay
samples.  diagnose() runs lyapunov_drift over the steady-state Classic delay
trace of a stats document, and backs the `diagnose` CLI command;
lipschitz_estimate is a library-only probe that no CLI command calls.
"""

from __future__ import annotations

import itertools
import json
import operator
from collections import deque

import numpy as np

from .features import ACTION_COUNT, ACTION_MARK, STATE_DIM
from .model import InferencePolicy, load_checkpoint
from .pool import compute_reward, klog_states, normalize
from .simulator import ScenarioConfig, World, run_scenario

STATS_FORMAT_VERSION = 2           # 2 added the time-ordered Classic delay trace
STEADY_STATE_SKIP_US = 5_000_000   # discard the first 5 s of every run
UTIL_BIN_US = 100_000              # utilisation measured in 100 ms bins


class EvalError(RuntimeError):
    pass


# ------------------------------------------------------------------ drivers


class RuleBased:
    """Pass-through driver: every decision is the built-in AQM rule."""

    name = "rule"

    def hook(self, world, q, pkt, decision):
        return decision.action

    def finish(self):
        return {}


class LlmEvery:
    """Route every n-th AQM decision through the checkpoint's policy, run as
    a `model.InferencePolicy` snapshot (`self.model`).

    Keeps the klog fields of the last `window` decisions (the model's
    context window), with the probabilities read from the world's
    `klog_probs`, the fixed-point pair its log records.  At a model decision
    it passes `InferencePolicy.logits` the real steps of the window the pool
    would hold for them, with no padding: states through
    `pool.klog_states`, normalised with the checkpoint's feature
    statistics, and the return channel pinned to the training-time target
    return, which the checkpoint must store as it must store the
    statistics; the action is the argmax of the newest logits.  The
    earlier steps' actions are read from the world's log, which holds what
    the world applied (a MARK on a not-ECN-capable packet or anything but a
    DROP on a full buffer is applied as a DROP), and the decision index is
    the log's length, since the world logs each decision right after its
    hook.  So one driver runs one episode: hooked into a second world it
    raises `EvalError`.  Model marks on not-ECN-capable packets are counted
    here as violations.

    `action_matrix[rule][model]` counts the model decisions by the rule's
    action (row) and the action the model asked for (column), in
    `ACTION_NAMES` order, so a policy that answers one class to everything
    shows as one full column.
    """

    name = "llm"

    def __init__(self, checkpoint_path, every=10):
        if every < 1:
            raise EvalError(f"every must be >= 1, got {every}")
        self.every = every
        model, stats, extra = load_checkpoint(checkpoint_path)
        if stats is None:
            raise EvalError("checkpoint has no feature statistics")
        # arrays once, not at every model decision
        self.feature_stats = {key: np.asarray(value) for key, value in stats.items()}
        self.model = InferencePolicy(model)
        if "target_return" not in extra:
            raise EvalError("checkpoint has no target return to condition on; "
                            "retrain it with `aqmlab train`")
        self.target_return = float(extra["target_return"])
        self.window = model.config.context_window
        self._fields = deque(maxlen=self.window)        # klog_states input per decision
        self._last_drops = {}
        self.model_decisions = 0
        self.action_matrix = [[0] * ACTION_COUNT for _ in range(ACTION_COUNT)]
        self.violations = 0      # model marked a not-ECN-capable packet

    def hook(self, world, q, pkt, decision):
        k = len(world.records)   # this decision's index in the episode
        # a world's first decision finds a driver that has decided before
        # only when the driver is reused
        if not k and self._fields:
            raise EvalError("an LlmEvery drives one episode; build a new one for each world")
        drops = q.total_drops
        delta = drops - self._last_drops.get(q.queue_type, drops)
        self._last_drops[q.queue_type] = drops
        drop_p, acc_p = world.klog_probs
        # in STATE_FEATURES order
        self._fields.append((q.queue_type, q.burst_allowance, drop_p, q.current_queue_delay,
                             acc_p, q.length_bytes, delta, pkt.size_bytes))
        if (k + 1) % self.every:
            return decision.action
        predicted = self._infer(world.records, k)
        self.model_decisions += 1
        self.action_matrix[decision.action][predicted] += 1
        if predicted == ACTION_MARK and not pkt.ecn_capable:
            self.violations += 1
        return predicted

    def _infer(self, records, k):
        """The action of decision `k` for the window of the last n decisions,
        passed to the snapshot as its real steps alone: the states and the
        earlier steps' actions as `records` logged them.
        `WindowDataset.gather` left-pads such a window, which changes none
        of its newest logits."""
        n = len(self._fields)
        fields = np.fromiter(itertools.chain.from_iterable(self._fields), np.float64, n * STATE_DIM)
        states = normalize(klog_states(fields.reshape(n, STATE_DIM)), self.feature_stats)
        actions = [rec.dequeue_action for rec in records[k - n + 1:k]]
        return int(self.model.logits(self.target_return, states, actions).argmax())

    def finish(self):
        return {
            "model_decisions": self.model_decisions,
            "action_matrix": [row[:] for row in self.action_matrix],
            "mark_violations": self.violations,
        }


# ------------------------------------------------------------------ metrics


def _summary(values):
    """Five-number-ish summary: median, IQR, Tukey whiskers, outlier count.
    Of no samples, count 0 and every statistic None (JSON null), not a
    measured 0."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return {"count": 0, **dict.fromkeys(("median", "q1", "q3", "iqr", "lo_whisker",
                                              "hi_whisker", "outliers", "mean", "p95", "p99"))}
    q1, med, q3 = np.percentile(v, [25, 50, 75])
    iqr = q3 - q1
    lo = v[v >= q1 - 1.5 * iqr].min()
    hi = v[v <= q3 + 1.5 * iqr].max()
    return {
        "count": int(v.size),
        "median": float(med), "q1": float(q1), "q3": float(q3),
        "iqr": float(iqr),
        "lo_whisker": float(lo), "hi_whisker": float(hi),
        "outliers": int(np.sum((v < lo) | (v > hi))),
        "mean": float(v.mean()),
        "p95": float(np.percentile(v, 95)),
        "p99": float(np.percentile(v, 99)),
    }


def _cdf(values, points=101):
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        return {"x": [], "p": []}
    p = np.linspace(0, 1, points)
    return {"x": np.quantile(v, p).tolist(), "p": p.tolist()}


def _int_rows(rows, width):
    """A list of equal-length int tuples as an int64 [len, width] array."""
    return np.fromiter(itertools.chain.from_iterable(rows), np.int64,
                       len(rows) * width).reshape(-1, width)


def utilization(delivered, duration_us, link_rate_bps, bin_us=UTIL_BIN_US,
                skip_us=STEADY_STATE_SKIP_US):
    """Per-bin link utilisation in [0, 1] over the steady-state interval."""
    nbins = max(1, (duration_us - skip_us) // bin_us)
    d = _int_rows(delivered, 2)
    d = d[(d[:, 0] >= skip_us) & (d[:, 0] < skip_us + nbins * bin_us)]
    bins = np.bincount((d[:, 0] - skip_us) // bin_us, weights=d[:, 1], minlength=nbins)
    cap = link_rate_bps * bin_us / 8 / 1_000_000
    return bins / cap


def evaluate(scenario: ScenarioConfig, driver=None) -> dict:
    """Run one closed-loop episode and return a JSON-ready stats document."""
    driver = driver or RuleBased()
    world = run_scenario(scenario, decision_hook=driver.hook)
    return collect_stats(world, driver)


def _steady_state_skip(world: World) -> int:
    # short calibration runs would otherwise fall entirely inside the skip
    return min(STEADY_STATE_SKIP_US, world.config.duration_us // 2)


def collect_stats(world: World, driver) -> dict:
    skip = _steady_state_skip(world)
    samples = _int_rows(world.qdelay_samples, 3)
    samples = samples[samples[:, 0] >= skip]
    classic = samples[:, 1] == 0
    delay_ms = {0: samples[classic, 2] / 1000.0, 1: samples[~classic, 2] / 1000.0}
    all_delay = np.concatenate([delay_ms[0], delay_ms[1]])

    packet_length, queue_delay_us, actions = (
        np.fromiter(map(operator.attrgetter(name), world.records), np.int64, len(world.records))
        for name in ("packet_length", "current_queue_delay", "dequeue_action"))
    rewards = compute_reward(packet_length, queue_delay_us // 1000)
    util = utilization(world.delivered, world.config.duration_us,
                       world.params.link_rate_bps, skip_us=skip)
    counts = np.bincount(actions, minlength=ACTION_COUNT).tolist()
    n = max(1, len(actions))
    doc = {
        "format_version": STATS_FORMAT_VERSION,
        "header": {
            "driver": driver.name,
            "scenario": world.config.name,
            "seed": world.config.seed,
            "duration_us": world.config.duration_us,
            "steady_state_skip_us": skip,
        },
        "summary": {
            "delay_ms": _summary(all_delay),
            "classic_delay_ms": _summary(delay_ms[0]),
            "l4s_delay_ms": _summary(delay_ms[1]),
            "utilization": _summary(util),
            "reward": _summary(rewards),
        },
        "actions": {
            "enqueue_frac": counts[0] / n,
            "drop_frac": counts[1] / n,
            "mark_frac": counts[2] / n,
            "total": len(actions),
            # hook answers the world could not carry out and applied as DROP
            "rewritten": dict(world.rewritten),
        },
        "cdf": {"delay_ms": _cdf(all_delay)},
        # the steady-state Classic queue delay in time order, which diagnose reads
        "trace": {"t_us": samples[classic, 0].tolist(), "delay_ms": delay_ms[0].tolist()},
        "driver": driver.finish(),
    }
    return doc


def save_stats(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_stats(path):
    with open(path) as fh:
        return json.load(fh)


# ------------------------------------------------------------------ compare


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (max ECDF gap)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise EvalError("KS statistic needs non-empty samples")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def compare(baseline: dict, candidate: dict) -> dict:
    """Robust deltas between two stats documents (candidate minus baseline).

    Per summary key, the change of the median and of the IQR, and the
    median's change relative to the baseline's median, None where that
    median is 0.  A key either document has no samples of (a traffic class
    the scenario does not carry) has no median, so all three are None
    there, not a change from or to 0.  `ks_delay` is the KS statistic
    between the two documents' 101-point quantile grids of the delay
    (`cdf.delay_ms.x`), not between the raw samples.  A document with no
    delay samples gives no evidence, so it raises EvalError rather than
    read as "no difference".
    """
    for role, doc in (("baseline", baseline), ("candidate", candidate)):
        if not doc["cdf"]["delay_ms"]["x"]:
            raise EvalError(f"the {role} stats document has no delay samples to compare")
    out = {"baseline": baseline["header"], "candidate": candidate["header"],
           "deltas": {}}
    for key in ("delay_ms", "classic_delay_ms", "l4s_delay_ms",
                "utilization", "reward"):
        b = baseline["summary"][key]
        c = candidate["summary"][key]
        if not (b["count"] and c["count"]):
            out["deltas"][key] = {"median": None, "median_rel": None, "iqr": None}
            continue
        out["deltas"][key] = {
            "median": c["median"] - b["median"],
            "median_rel": (c["median"] - b["median"]) / b["median"] if b["median"] else None,
            "iqr": c["iqr"] - b["iqr"],
        }
    out["ks_delay"] = ks_statistic(baseline["cdf"]["delay_ms"]["x"],
                                   candidate["cdf"]["delay_ms"]["x"])
    return out


# ---------------------------------------------------------------- diagnose


def lyapunov_drift(delay_trace, target):
    """Drift of V(t) = (qdelay(t) - target)^2 along a delay trace.

    Returns per-step drifts V(t+1) - V(t), their mean, and the fraction of
    steps with negative drift.  A converging controller shows negative mean
    drift and a high negative fraction.
    """
    d = np.asarray(delay_trace, dtype=float)
    if d.size < 2:
        raise EvalError("need at least two delay samples")
    v = (d - float(target)) ** 2
    drifts = np.diff(v)
    return {
        "drifts": drifts.tolist(),
        "mean_drift": float(drifts.mean()),
        "negative_fraction": float(np.mean(drifts < 0)),
    }


def lipschitz_estimate(block, pairs):
    """Empirical Lipschitz constant of `block` over input pairs.

    `block` maps a 1-D numpy vector to a 1-D numpy vector; `pairs` is an
    iterable of (x, y) probe pairs.  Zero-distance pairs are skipped.
    """
    best = 0.0
    used = 0
    for x, y in pairs:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dx = np.linalg.norm(x - y)
        if dx == 0:
            continue
        dy = np.linalg.norm(np.asarray(block(x), dtype=float)
                            - np.asarray(block(y), dtype=float))
        best = max(best, dy / dx)
        used += 1
    if used == 0:
        raise EvalError("all probe pairs had zero distance")
    return {"constant": best, "pairs_used": used, "expansive": best >= 1.0}


def diagnose(doc, target_ms) -> dict:
    """Lyapunov drift of the steady-state Classic queue delay, in time order,
    from the trace of a stats document that `collect_stats` made."""
    if "trace" not in doc:
        raise EvalError("stats document has no delay trace (format_version "
                        f"{doc.get('format_version', 1)}); re-run `aqmlab evaluate`")
    drift = lyapunov_drift(doc["trace"]["delay_ms"], target_ms)
    drift.pop("drifts")
    return {"lyapunov": drift, "target_ms": target_ms}
