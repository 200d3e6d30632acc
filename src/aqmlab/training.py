"""Offline return-conditioned behavior-cloning trainer.

Windows of w consecutive (return-to-go, state, action) steps are sampled
uniformly over trajectory end-positions, short histories left-padded and
masked.  Loss is cross-entropy over all unmasked prediction positions; each
step is one sampled batch, its update clipped to a global norm in plain SGD.
Train/eval split is by trajectory, never by step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .features import ACTION_COUNT, ACTION_NAMES
from .model import PolicyModel, save_checkpoint
from .pool import ExperiencePool, normalize_states


# the closed loop conditions on this percentile of the pool's returns-to-go
TARGET_RETURN_PERCENTILE = 90.0


class TrainError(ValueError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    lr: float = 0.5
    clip_norm: float = 1.0
    gamma: float = 0.95
    window: int = 8   # must equal the model's context_window
    seed: int = 0
    eval_split: float = 0.2
    batches_per_epoch: int = 0   # 0 = cover every end-position once per epoch
    eval_batches: int = 0        # 0 = score the whole eval split each epoch

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise TrainError("epochs and batch_size must be >= 1")
        if not (0.0 < self.eval_split < 1.0):
            raise TrainError("eval_split must be in (0,1)")
        if not self.lr >= 0.0:
            raise TrainError(f"lr must be >= 0, got {self.lr}")
        # a config always clips: the unclipped step is the library's `sgd_step(clip_norm=None)`
        if not self.clip_norm > 0.0:
            raise TrainError(f"clip_norm must be > 0, got {self.clip_norm}")
        for name in ("batches_per_epoch", "eval_batches"):
            if getattr(self, name) < 0:
                raise TrainError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class TrainReport:
    rows: list = field(default_factory=list)
    best_eval_accuracy: float = 0.0
    best_epoch: int = -1


class WindowDataset:
    """Every trajectory's columns concatenated, plus uniform window sampling.

    A window is named by its end step: a flat position into the concatenated
    steps, or a (trajectory index, end position) pair.  Flat position i is
    step i - starts[ti] of trajectory ti, and that index is its timestep.
    """

    def __init__(self, pool: ExperiencePool, window: int):
        if pool.num_steps() < 1:
            raise TrainError("pool has no steps")
        self.window = window
        trajs = pool.trajectories
        self.starts = np.cumsum([0] + [len(t) for t in trajs])
        self.returns = np.concatenate([t.returns for t in trajs])
        self.states = np.concatenate([t.states for t in trajs])
        self.actions = np.concatenate([t.actions for t in trajs])
        self.keep = np.concatenate([~t.step_masked() for t in trajs]).astype(np.float64)

    def __len__(self):
        return int(self.starts[-1])

    def picks(self, positions):
        """(trajectory index, end position) pairs [n, 2] of flat positions."""
        positions = np.asarray(positions, dtype=np.int64)
        ti = np.searchsorted(self.starts, positions, side="right") - 1
        return np.column_stack([ti, positions - self.starts[ti]])

    def gather(self, picks):
        """Build batch arrays for (traj_idx, end_pos) picks: each row holds
        the window's steps up to its end, left-padded with zeros (mask 0)
        where the trajectory starts later."""
        picks = np.asarray(picks, dtype=np.int64).reshape(-1, 2)
        ti, end = picks[:, 0], picks[:, 1]
        if ((ti < 0) | (ti >= len(self.starts) - 1)).any():
            raise TrainError("trajectory index out of range")
        first = self.starts[ti]
        if ((end < 0) | (first + end >= self.starts[ti + 1])).any():
            raise TrainError("window end outside its trajectory")
        steps = (first + end)[:, None] + np.arange(1 - self.window, 1)   # [b, w]
        real = steps >= first[:, None]
        steps = np.where(real, steps, 0)
        R = np.where(real, self.returns[steps], 0.0)
        S = np.where(real[:, :, None], self.states[steps], 0.0)
        tgt = np.where(real, self.actions[steps], 0)
        # slot 4 stays for perfbench's unpacking; ROADMAP item 1 (the benchmark change) drops it
        ts = np.where(real, steps - first[:, None], 0)
        mask = np.where(real, self.keep[steps], 0.0)
        return R, S, tgt.astype(np.float64), tgt, ts, mask

    def sample(self, batch_size, rng):
        return self.gather(self.picks(rng.integers(len(self), size=batch_size)))

    def iter_all(self, batch_size):
        for i in range(0, len(self), batch_size):
            yield self.gather(self.picks(np.arange(i, min(i + batch_size, len(self)))))


def _batch_loss(model, batch):
    R, S, A, tgt, _, mask = batch
    logits = model.forward(R, S, A, pad_mask=(mask > 0).astype(float))
    b, w = tgt.shape
    weights = mask.reshape(-1).astype(np.float64)
    loss = T.cross_entropy(logits.reshape(b * w, ACTION_COUNT), tgt.reshape(-1), weights)
    preds = np.argmax(logits.data, axis=-1).reshape(-1)
    keep = mask.reshape(-1) > 0
    return loss, preds[keep], tgt.reshape(-1)[keep]


def train_epoch(model: PolicyModel, dataset: WindowDataset, cfg: TrainConfig, rng):
    """One pass of sample -> backward -> clip -> step updates; returns a
    report row."""
    params = list(model.params.values())
    n_batches = cfg.batches_per_epoch or max(1, len(dataset) // cfg.batch_size)
    losses, hits, total, norms = [], 0, 0, []
    t0 = time.perf_counter()
    for _ in range(n_batches):
        T.zero_grads(params)
        loss, preds, tgts = _batch_loss(model, dataset.sample(cfg.batch_size, rng))
        if not np.isfinite(loss.data):
            raise T.OptimizerFault("non-finite loss; epoch aborted")
        loss.backward()
        hits += int(np.sum(preds == tgts))
        total += len(tgts)
        norms.append(T.sgd_step(params, cfg.lr, cfg.clip_norm))
        losses.append(float(loss.data))
    return {
        "mean_loss": float(np.mean(losses)),
        "mean_accuracy": hits / max(1, total),
        "seconds": time.perf_counter() - t0,
        "grad_norm_mean": float(np.mean(norms)),
        "grad_norm_max": float(np.max(norms)),
    }


def evaluate_accuracy(model: PolicyModel, dataset: WindowDataset, batch_size=64,
                      max_batches=0, confusion=None):
    """Share of unmasked positions whose action the model predicts.

    A given `confusion` [ACTION_COUNT, ACTION_COUNT] int array gains the
    count of each (true action, predicted action) pair.
    """
    hits, total = 0, 0
    for bi, batch in enumerate(dataset.iter_all(batch_size)):
        if max_batches and bi >= max_batches:
            break
        R, S, A, tgt, _, mask = batch
        with T.no_grad():
            logits = model.forward(R, S, A, pad_mask=(mask > 0).astype(float))
        preds = np.argmax(logits.data, axis=-1)
        keep = mask > 0
        hits += int(np.sum((preds == tgt) & keep))
        total += int(np.sum(keep))
        if confusion is not None:
            np.add.at(confusion, (tgt[keep], preds[keep]), 1)
    return hits / max(1, total)


def class_recall(confusion) -> dict:
    """Recall per action name from a (true, predicted) count matrix; None
    for an action that never occurs."""
    confusion = np.asarray(confusion)
    support = confusion.sum(axis=1)
    return {name: (float(confusion[a, a] / support[a]) if support[a] else None)
            for a, name in enumerate(ACTION_NAMES)}


def split_pool(pool: ExperiencePool, eval_split: float, seed: int):
    """Trajectory-granular train/eval split (no step-level leakage)."""
    n = len(pool.trajectories)
    if n < 2:
        raise TrainError("need at least 2 trajectories to split")
    order = list(range(n))
    np.random.default_rng(seed).shuffle(order)
    n_eval = max(1, int(round(eval_split * n)))
    if n_eval >= n:
        n_eval = n - 1
    eval_idx = set(order[:n_eval])
    train = ExperiencePool(trajectories=[pool.trajectories[i] for i in range(n) if i not in eval_idx],
                           gamma=pool.gamma, feature_stats=pool.feature_stats)
    evalp = ExperiencePool(trajectories=[pool.trajectories[i] for i in eval_idx],
                           gamma=pool.gamma, feature_stats=pool.feature_stats)
    return train, evalp


def _all_returns(pool: ExperiencePool):
    return np.concatenate([t.returns for t in pool.trajectories])


def target_return(pool: ExperiencePool, percentile: float) -> float:
    return float(np.percentile(_all_returns(pool), percentile))


def normalize_pool(pool: ExperiencePool):
    """The pool `train` trains on, its states normalized by `normalize_states`
    and its returns standardized; with the feature stats and the returns'
    mean and std."""
    pool, feature_stats = normalize_states(pool)  # near-identity if already normalized
    rets = _all_returns(pool)
    r_mean, r_std = float(rets.mean()), float(max(rets.std(), 1e-9))
    # new arrays: normalize_states shares the returns with the caller's pool
    pool.trajectories = [t.replace(returns=(t.returns - r_mean) / r_std)
                         for t in pool.trajectories]
    return pool, feature_stats, r_mean, r_std


def train(model: PolicyModel, pool: ExperiencePool, cfg: TrainConfig, checkpoint_path=None):
    """Full training run; saves the best-eval-accuracy checkpoint.

    States and returns are normalized here (training-set statistics would
    leak nothing extra at this scale; stats come from the whole pool) and
    the scalers travel inside the checkpoint so closed-loop evaluation can
    transform live inputs identically.  The window is the model's context
    window, which the checkpoint's config carries.
    """
    if abs(pool.gamma - cfg.gamma) > 1e-12:
        raise TrainError(f"config gamma {cfg.gamma} != pool gamma {pool.gamma}")
    if cfg.window != model.config.context_window:
        raise TrainError(f"config window {cfg.window} != the model's context_window "
                         f"{model.config.context_window}")
    pool, feature_stats, r_mean, r_std = normalize_pool(pool)
    train_pool, eval_pool = split_pool(pool, cfg.eval_split, cfg.seed)
    train_ds = WindowDataset(train_pool, cfg.window)
    eval_ds = WindowDataset(eval_pool, cfg.window)
    rng = np.random.default_rng(cfg.seed)

    report = TrainReport()
    extra = {"target_return": target_return(pool, TARGET_RETURN_PERCENTILE), "gamma": cfg.gamma,
             "return_mean": r_mean, "return_std": r_std}
    for epoch in range(cfg.epochs):
        row = train_epoch(model, train_ds, cfg, rng)
        row["epoch"] = epoch
        confusion = np.zeros((ACTION_COUNT, ACTION_COUNT), dtype=np.int64)
        row["eval_accuracy"] = evaluate_accuracy(model, eval_ds, max_batches=cfg.eval_batches,
                                                 confusion=confusion)
        # accuracy alone hides a policy that answers the majority class
        row["eval_recall"] = class_recall(confusion)
        report.rows.append(row)
        if row["eval_accuracy"] >= report.best_eval_accuracy:
            report.best_eval_accuracy = row["eval_accuracy"]
            report.best_epoch = epoch
            if checkpoint_path:
                save_checkpoint(model, checkpoint_path, feature_stats=feature_stats,
                                extra=extra)
    return report
