"""Turn kernel logs into return-conditioned training trajectories.

One trajectory per log file, held as columns: rewards, 8-feature states,
actions and returns-to-go, each a numpy array with one row per decision; a
step's timestep is its index.  `klog_states` and `normalize` are the one
definition of the model's state input, which the closed loop shares.  Pools
serialize to an uncompressed `.npz` file (format 2): those arrays plus
a JSON header with the discount factor, normalization stats and provenance.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .features import ACTION_COUNT, STATE_DIM, STATE_FEATURES
# read_klog stays importable from here: perfbench/spans.py traces it under this module
from .simulator import KLOG_FIELDS, PROB_SCALE, read_klog, read_klog_columns  # noqa: F401

POOL_FORMAT_VERSION = 2
RETURN_TOL = 1e-9   # `validate`'s relative tolerance on a stored return-to-go
_REQUIRED_ARRAYS = ("rewards", "states", "actions", "returns")
_TRAJECTORY_ARRAYS = _REQUIRED_ARRAYS + ("masked",)   # masked None: nothing masked
_COLUMN = {name: i for i, name in enumerate(KLOG_FIELDS)}
# divides the fixed-point probabilities by PROB_SCALE and every other
# feature by 1.0, which leaves it exact
_STATE_SCALE = np.array([PROB_SCALE if name in ("drop_probability", "accumulated_probability")
                         else 1.0 for name in STATE_FEATURES])


class PoolError(ValueError):
    pass


def compute_reward(packet_length, queue_delay_ms):
    """pkt_len / (qdelay + 1), element-wise over arrays or scalars: throughput
    up, latency down, no zero-delay pole."""
    packet_length, queue_delay_ms = np.asarray(packet_length), np.asarray(queue_delay_ms)
    if (packet_length <= 0).any():
        raise PoolError("packet_length must be > 0")
    if (queue_delay_ms < 0).any():
        raise PoolError("queue_delay must be >= 0")
    return packet_length / (queue_delay_ms + 1.0)


def returns_to_go(rewards, gamma: float):
    """Discounted suffix sums via the backward recursion R_t = r_t + gamma*R_{t+1}."""
    rewards = list(rewards)
    if not rewards:
        raise PoolError("returns_to_go: empty reward sequence")
    if not (0.0 < gamma <= 1.0):
        raise PoolError(f"gamma must be in (0,1], got {gamma}")
    out = [0.0] * len(rewards)
    acc = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + gamma * acc
        out[i] = acc
    return out


@dataclass(frozen=True)
class Step:
    """A read-only view of one row of a Trajectory."""
    reward: float
    state: list           # 8 floats in STATE_FEATURES order
    action: int
    done: int
    ret: float = 0.0      # return-to-go
    masked: bool = False  # set by step dropout


class Trajectory:
    """One episode as columns: rewards [n], states [n, 8], actions [n] and
    returns [n]; masked [n] (None: no step masked).  The last step is the
    terminal one.

    `len` counts the steps and iteration gives `Step` views, built on
    demand; read or edit the arrays for anything else.
    """

    __slots__ = _TRAJECTORY_ARRAYS

    def __init__(self, rewards, states, actions, returns, masked=None):
        self.rewards = np.asarray(rewards, dtype=np.float64)
        self.states = np.asarray(states, dtype=np.float64)
        self.actions = np.asarray(actions, dtype=np.int64)
        self.returns = np.asarray(returns, dtype=np.float64)
        self.masked = None if masked is None else np.asarray(masked, dtype=bool)

    def replace(self, **columns) -> "Trajectory":
        """A new trajectory sharing every column not given."""
        return Trajectory(**{name: columns.get(name, getattr(self, name))
                             for name in _TRAJECTORY_ARRAYS})

    def step_masked(self):
        return np.zeros(len(self), dtype=bool) if self.masked is None else self.masked

    def __len__(self):
        return len(self.rewards)

    def __iter__(self):
        n = len(self)
        for i, (r, s, a, ret, m) in enumerate(zip(
                self.rewards.tolist(), self.states.tolist(), self.actions.tolist(),
                self.returns.tolist(), self.step_masked().tolist())):
            yield Step(r, s, a, int(i == n - 1), ret, m)


@dataclass
class ExperiencePool:
    trajectories: list = field(default_factory=list)   # list[Trajectory]
    gamma: float = 0.95
    feature_stats: Optional[dict] = None
    provenance: dict = field(default_factory=dict)

    def num_steps(self):
        return sum(len(t) for t in self.trajectories)

    def validate(self):
        if not (0.0 < self.gamma <= 1.0):
            raise PoolError(f"gamma must be in (0,1], got {self.gamma}")
        for ti, traj in enumerate(self.trajectories):
            n = len(traj)
            if n == 0:
                raise PoolError(f"trajectory {ti} is empty")
            if traj.states.shape != (n, STATE_DIM):
                raise PoolError(f"trajectory {ti}: states are {traj.states.shape}, "
                                f"expected ({n}, {STATE_DIM})")
            for name in ("actions", "returns", "masked"):
                col = getattr(traj, name)
                if col is not None and col.shape != (n,):
                    raise PoolError(f"trajectory {ti}: {name} are {col.shape}, expected ({n},)")
            bad = ~np.isfinite(traj.states).all(axis=1)
            if bad.any():
                raise PoolError(f"trajectory {ti} step {int(np.argmax(bad))}: non-finite state")
            want = np.array(returns_to_go(traj.rewards.tolist(), self.gamma))
            # NaN-safe: a NaN return counts as a mismatch
            bad = ~(np.abs(traj.returns - want) <= RETURN_TOL * np.maximum(1.0, np.abs(want)))
            if bad.any():
                si = int(np.flatnonzero(bad)[-1])
                raise PoolError(f"trajectory {ti} step {si}: stored return "
                                f"{traj.returns[si]} != recomputed {want[si]}")
        return True

    # -------------------------------------------------------------- persist

    def save(self, path):
        """Write format 2 to exactly `path` (np.savez would add `.npz` to a
        path given as a string that lacks it)."""
        meta = {"format_version": POOL_FORMAT_VERSION, "gamma": self.gamma,
                "feature_stats": self.feature_stats, "provenance": self.provenance,
                "trajectories": len(self.trajectories)}
        arrays = {"meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)}
        for ti, traj in enumerate(self.trajectories):
            for name in _TRAJECTORY_ARRAYS:
                col = getattr(traj, name)
                if col is not None:
                    arrays[f"t{ti}_{name}"] = col
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    @classmethod
    def load(cls, path):
        """The pool saved at `path`, validated: a file whose stored returns
        no longer match its rewards, or with a non-finite state, a
        mis-shaped column or no numeric gamma, raises PoolError."""
        with open(path, "rb") as fh:
            head = fh.read(4)
            fh.seek(0)
            if head[:1] == b"{":
                raise PoolError(f"{path} is a format-1 JSON pool; pools are derived "
                                f"from .klog files, so rebuild it with `aqmlab build-pool`")
            if head != b"PK\x03\x04":
                raise PoolError(f"{path} is not an experience pool (.npz)")
            with np.load(fh, allow_pickle=False) as z:
                stored = set(z.files)
                if "meta" not in stored:
                    raise PoolError(f"{path} is an .npz file but not an experience pool")
                meta = json.loads(z["meta"].tobytes().decode("utf-8"))
                if meta.get("format_version") != POOL_FORMAT_VERSION:
                    raise PoolError(f"unsupported pool format version {meta.get('format_version')}")
                gamma = meta.get("gamma")
                if type(gamma) not in (int, float):   # JSON's numbers; a bool is no gamma
                    raise PoolError(f"{path} has no numeric gamma in its meta, but {gamma!r}")
                if any(key.endswith("_timesteps") for key in stored):
                    raise PoolError(f"{path} stores timestep columns, which came from --jitter; "
                                    f"a step's timestep is its index, so rebuild the pool "
                                    f"with `aqmlab build-pool` without --jitter")
                count = meta.get("trajectories")
                if not isinstance(count, int) or count < 0:
                    raise PoolError(f"{path} has no trajectory count")
                missing = [f"t{ti}_{name}" for ti in range(count) for name in _REQUIRED_ARRAYS
                           if f"t{ti}_{name}" not in stored]
                if missing:
                    raise PoolError(f"{path} lacks the array {missing[0]}")
                trajectories = [
                    Trajectory(**{name: z[f"t{ti}_{name}"] for name in _TRAJECTORY_ARRAYS
                                  if f"t{ti}_{name}" in stored})
                    for ti in range(count)]
        pool = cls(trajectories=trajectories, gamma=gamma,
                   feature_stats=meta.get("feature_stats"),
                   provenance=meta.get("provenance", {}))
        pool.validate()
        return pool


# ------------------------------------------------------------------ building


def klog_states(fields) -> np.ndarray:
    """The float64 [N, 8] states of N decisions from their klog fields.

    `fields` is [N, 8] integers in STATE_FEATURES order: the probabilities in
    the log's 1e-6 fixed point (`World.klog_probs`) and the drops as the
    rise in total_drops since the previous record of the same queue.  The
    pool builder and the closed loop both call it, so the model sees online
    the states it was trained on.
    """
    return np.asarray(fields, dtype=np.float64) / _STATE_SCALE


def trajectory_from_columns(cols, gamma) -> Trajectory:
    """A trajectory from an int64 [N, 24] klog column matrix.

    Rewards are pkt_len / (delay_ms + 1) with the delay floored to whole ms;
    probabilities are rescaled to [0, 1]; the drops feature is the rise in
    total_drops since the previous record of the same queue (0 at its first).
    """
    cols = np.asarray(cols, dtype=np.int64)
    if cols.size == 0:
        raise PoolError("empty record sequence")
    if cols.ndim != 2 or cols.shape[1] != len(KLOG_FIELDS):
        raise PoolError(f"expected [N, {len(KLOG_FIELDS)}] klog columns, got {cols.shape}")
    c = {name: cols[:, i] for name, i in _COLUMN.items()}
    rewards = compute_reward(c["packet_length"], c["current_queue_delay"] // 1000)
    if not np.isin(c["dequeue_action"], np.arange(ACTION_COUNT)).all():
        raise PoolError("dequeue_action must be 0/1/2")

    drops_delta = c["total_drops_delta"] = np.zeros(len(cols), dtype=np.int64)
    for qt in np.unique(c["queue_type"]):
        idx = np.flatnonzero(c["queue_type"] == qt)
        drops_delta[idx[1:]] = np.diff(c["total_drops"][idx])
    states = klog_states(np.column_stack([c[name] for name in STATE_FEATURES]))
    return Trajectory(rewards, states, c["dequeue_action"].copy(),
                      returns_to_go(rewards.tolist(), gamma))


def build_pool(log_files, gamma=0.95) -> ExperiencePool:
    """One trajectory per .klog file, merged in sorted path order; the
    provenance names each log by its base name."""
    log_files = sorted(str(f) for f in log_files)
    if not log_files:
        raise PoolError("no log files given")
    pool = ExperiencePool(gamma=gamma)
    digest = hashlib.sha256()
    for path in log_files:
        cols = read_klog_columns(path)
        if not len(cols):
            raise PoolError(f"{path}: empty log")
        pool.trajectories.append(trajectory_from_columns(cols, gamma))
        with open(path, "rb") as fh:
            digest.update(fh.read())
    # base names, so that the pool does not depend on where the logs sit
    pool.provenance = {"source_logs": [os.path.basename(f) for f in log_files],
                       "content_sha256": digest.hexdigest()}
    return pool


def build_pool_from_records(record_lists, gamma=0.95) -> ExperiencePool:
    pool = ExperiencePool(gamma=gamma)
    for records in record_lists:
        pool.trajectories.append(
            trajectory_from_columns(np.array(records, dtype=np.int64), gamma))
    return pool


# -------------------------------------------------------------- normalization


def compute_feature_stats(pool: ExperiencePool) -> dict:
    if pool.num_steps() == 0:
        raise PoolError("empty pool")
    states = np.concatenate([t.states for t in pool.trajectories])
    # reductions along axis 0 add the rows in order, as a running sum would
    mean = states.sum(axis=0) / len(states)
    std = np.sqrt(((states - mean) ** 2).sum(axis=0) / len(states))
    zero_variance = std < 1e-12
    return {
        "features": list(STATE_FEATURES),
        "mean": mean.tolist(),
        "std": np.where(zero_variance, 1.0, std).tolist(),
        "zero_variance": zero_variance.tolist(),
    }


def normalize(states, stats):
    """(state - mean) / std per feature over the last axis of `states`, with
    zero-variance features mapped to 0."""
    return np.where(stats["zero_variance"], 0.0,
                    (states - np.asarray(stats["mean"])) / np.asarray(stats["std"]))


def normalize_states(pool: ExperiencePool):
    """Affine per-feature normalization; returns (new pool, stats).

    Zero-variance features map to 0 and are flagged in the stats.  The new
    pool shares every column but the states with the input.
    """
    stats = compute_feature_stats(pool)
    out = ExperiencePool(gamma=pool.gamma, feature_stats=stats,
                         provenance=dict(pool.provenance, normalized=True))
    for traj in pool.trajectories:
        out.trajectories.append(traj.replace(states=normalize(traj.states, stats)))
    return out, stats


# ---------------------------------------------------------------- augmentation


def augment(pool: ExperiencePool, noise_sigma=0.0, dropout_prob=0.0, seed=0) -> ExperiencePool:
    """Stochastic augmentation: state noise and step dropout.

    Actions and returns are never touched; noise perturbs only states,
    dropout marks steps as masked for the trainer.  A feature's noise std is
    `noise_sigma` times its std over the input pool, whatever its units (0
    if that is 0).  Both are drawn as whole arrays, trajectory by trajectory,
    from one `np.random.default_rng(seed)`.  The input pool is left
    untouched, and with both disabled the output is an exact copy.
    """
    if noise_sigma < 0:
        raise PoolError("noise_sigma must be >= 0")
    if not (0.0 <= dropout_prob <= 1.0):
        raise PoolError("dropout_prob must be in [0,1]")
    if noise_sigma > 0:
        stats = compute_feature_stats(pool)
        scale = noise_sigma * np.where(stats["zero_variance"], 0.0, stats["std"])
    rng = np.random.default_rng(seed)
    out = ExperiencePool(gamma=pool.gamma, feature_stats=pool.feature_stats,
                         provenance=dict(pool.provenance, augmented=True))
    for traj in pool.trajectories:
        states, masked = traj.states.copy(), traj.step_masked().copy()
        if noise_sigma > 0:
            states += rng.normal(0.0, scale, states.shape)
        if dropout_prob > 0:
            masked |= rng.random(len(traj)) < dropout_prob
        out.trajectories.append(traj.replace(states=states, masked=masked))
    return out
