"""Closed-loop evaluation of AQM policies plus stability diagnostics.

A PolicyDriver decides, per packet arrival, whether to keep the built-in
rule decision or substitute a model prediction.  RuleBased keeps every rule
decision; LlmEvery(n) routes every n-th decision through a trained policy
model conditioned on the live decision history.

compare() reports robust deltas (median / IQR) and a two-sample KS statistic
between delay distributions.  diagnose() runs lyapunov_drift over the
steady-state Classic delay trace of a finished world or of its stats
document, and backs the `diagnose` CLI command; lipschitz_estimate is a
library-only probe that no CLI command calls.
"""

from __future__ import annotations

import itertools
import json
import operator
import time

import numpy as np

from .features import ACTION_COUNT, ACTION_MARK, STATE_DIM
from .model import InferencePolicy, load_checkpoint
from .pool import PoolError, normalize_state
from .simulator import PROB_SCALE, ScenarioConfig, World, applied_action, run_scenario

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

    Keeps a rolling window of (return-target, state, action) history fed to
    the model exactly as during training: states are normalised with the
    checkpoint's feature statistics and the return channel is pinned to the
    training-time target return.  Model marks on not-ECN-capable packets are
    downgraded to drops by the simulator and counted here as violations.

    `action_matrix[rule][model]` counts the model decisions by the rule's
    action (row) and the action the model asked for (column), in
    `ACTION_NAMES` order, so a policy that answers one class to everything
    shows as one full column.

    shadow=True runs (and counts) inference on schedule but always applies
    the rule action, so runs with different `every` traverse identical
    traces — useful for inference-cost measurements.
    """

    name = "llm"

    def __init__(self, checkpoint_path, every=10, shadow=False):
        if every < 1:
            raise EvalError(f"every must be >= 1, got {every}")
        self.every = every
        self.shadow = shadow
        model, self.feature_stats, extra = load_checkpoint(checkpoint_path)
        if self.feature_stats is None:
            raise EvalError("checkpoint has no feature statistics")
        self.model = InferencePolicy(model)
        self.target_return = float(extra.get("target_return", 1.0))
        self.window = int(extra.get("window", self.model.config.context_window))
        self._hist = []          # (ret, normalised state, applied action, timestep) per decision
        self._last_drops = {}
        self._count = 0
        self.model_decisions = 0
        self.action_matrix = [[0] * ACTION_COUNT for _ in range(ACTION_COUNT)]
        self.violations = 0      # model marked a not-ECN-capable packet
        self.latencies = []      # seconds per model inference

    def hook(self, world, q, pkt, decision):
        raw = self._raw_state(q, pkt)
        norm = normalize_state(raw, self.feature_stats)
        self._count += 1
        action = decision.action
        if self._count % self.every == 0:
            predicted = self._infer(norm)
            self.model_decisions += 1
            self.action_matrix[decision.action][predicted] += 1
            if predicted == ACTION_MARK and not pkt.ecn_capable:
                self.violations += 1
            if not self.shadow:
                action = predicted
        # the history holds what the world applies, as the .klog and the
        # training pool do, not what was asked for
        self._hist.append([self.target_return, norm, applied_action(action, pkt), self._count - 1])
        if len(self._hist) > self.window:
            self._hist.pop(0)
        return action

    def _raw_state(self, q, pkt):
        """The 8 features the pool holds for this decision: probabilities go
        through the log's 1e-6 fixed point, as they do offline."""
        prev = self._last_drops.get(q.queue_type, q.total_drops)
        delta = q.total_drops - prev
        self._last_drops[q.queue_type] = q.total_drops
        return [
            float(q.queue_type),
            float(q.burst_allowance),
            round(q.drop_probability * PROB_SCALE) / PROB_SCALE,
            float(q.current_queue_delay),
            round(q.accumulated_probability * PROB_SCALE) / PROB_SCALE,
            float(q.length_bytes),
            float(delta),
            float(pkt.size_bytes),
        ]

    def _infer(self, norm_state):
        w = self.window
        hist = self._hist[-(w - 1):] if w > 1 else []
        n = len(hist) + 1
        R = np.zeros((1, w)); S = np.zeros((1, w, STATE_DIM))
        A = np.zeros((1, w)); T = np.zeros((1, w)); pad = np.zeros((1, w))
        off = w - n
        for i, (r, s, a, t) in enumerate(hist):
            R[0, off + i] = r; S[0, off + i] = s; A[0, off + i] = a
            T[0, off + i] = t; pad[0, off + i] = 1.0
        R[0, w - 1] = self.target_return
        S[0, w - 1] = norm_state
        T[0, w - 1] = self._count - 1
        pad[0, w - 1] = 1.0
        t0 = time.perf_counter()
        dist = self.model.predict(R, S, A, T, pad_mask=pad)[0]
        self.latencies.append(time.perf_counter() - t0)
        return dist.action

    def finish(self):
        lat = self.latencies or [0.0]
        return {
            "model_decisions": self.model_decisions,
            "action_matrix": [row[:] for row in self.action_matrix],
            "mark_violations": self.violations,
            "mean_latency_s": float(np.mean(lat)),
            "p95_latency_s": float(np.percentile(lat, 95)),
        }


# ------------------------------------------------------------------ metrics


def _summary(values):
    """Five-number-ish summary: median, IQR, Tukey whiskers, outlier count."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return {"count": 0, "median": 0.0, "q1": 0.0, "q3": 0.0, "iqr": 0.0,
                "lo_whisker": 0.0, "hi_whisker": 0.0, "outliers": 0,
                "mean": 0.0, "p95": 0.0, "p99": 0.0}
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
    # compute_reward's checks and arithmetic, over the whole run at once
    if (packet_length <= 0).any():
        raise PoolError("packet_length must be > 0")
    if (queue_delay_us < 0).any():
        raise PoolError("queue_delay must be >= 0")
    rewards = packet_length / (queue_delay_us // 1000 + 1.0)
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
    """Robust deltas between two stats documents (candidate minus baseline)."""
    out = {"baseline": baseline["header"], "candidate": candidate["header"],
           "deltas": {}}
    for key in ("delay_ms", "classic_delay_ms", "l4s_delay_ms",
                "utilization", "reward"):
        b = baseline["summary"][key]
        c = candidate["summary"][key]
        rel = ((c["median"] - b["median"]) / b["median"]
               if b["median"] != 0 else 0.0)
        out["deltas"][key] = {
            "median": c["median"] - b["median"],
            "median_rel": rel,
            "iqr": c["iqr"] - b["iqr"],
        }
    bx, cx = baseline["cdf"]["delay_ms"]["x"], candidate["cdf"]["delay_ms"]["x"]
    out["ks_delay"] = ks_statistic(bx, cx) if bx and cx else 0.0
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


def diagnose(world_or_doc, target_ms) -> dict:
    """Lyapunov drift of the steady-state Classic queue delay, in time order,
    for a finished World or the stats document `collect_stats` made of it."""
    if isinstance(world_or_doc, World):
        skip = _steady_state_skip(world_or_doc)
        trace = [s / 1000.0 for t, qc, s in world_or_doc.qdelay_samples
                 if t >= skip and qc == 0]
    elif "trace" in world_or_doc:
        trace = world_or_doc["trace"]["delay_ms"]
    else:
        raise EvalError("stats document has no delay trace (format_version "
                        f"{world_or_doc.get('format_version', 1)}); re-run `aqmlab evaluate`")
    drift = lyapunov_drift(trace, target_ms)
    drift.pop("drifts")
    return {"lyapunov": drift, "target_ms": target_ms}
