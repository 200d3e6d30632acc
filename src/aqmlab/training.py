"""Offline return-conditioned behavior-cloning trainer.

Windows of w consecutive (return-to-go, state, action) steps are sampled
uniformly over trajectory end-positions, short histories left-padded and
masked.  Loss is cross-entropy over all unmasked prediction positions;
updates go through gradient accumulation and global-norm clipping into plain
SGD.  Train/eval split is by trajectory, never by step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .features import ACTION_COUNT
from .model import PolicyModel, save_checkpoint
from .pool import ExperiencePool, normalize_states


class TrainError(ValueError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    accumulation_steps: int = 1
    lr: float = 0.05
    clip_norm: float = 1.0
    gamma: float = 0.95
    window: int = 20
    seed: int = 0
    eval_split: float = 0.2
    target_return_percentile: float = 90.0
    class_weighting: bool = False
    batches_per_epoch: int = 0   # 0 = cover every end-position once per epoch
    eval_batches: int = 0        # 0 = score the whole eval split each epoch

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise TrainError("epochs and batch_size must be >= 1")
        if not (0.0 < self.eval_split < 1.0):
            raise TrainError("eval_split must be in (0,1)")


@dataclass
class TrainReport:
    rows: list = field(default_factory=list)
    final_eval_accuracy: float = 0.0
    best_eval_accuracy: float = 0.0
    best_epoch: int = -1

    def to_dict(self):
        return {"rows": self.rows,
                "final_eval_accuracy": self.final_eval_accuracy,
                "best_eval_accuracy": self.best_eval_accuracy,
                "best_epoch": self.best_epoch}


class WindowDataset:
    """Flattened trajectory arrays plus uniform window sampling."""

    def __init__(self, pool: ExperiencePool, window: int):
        if pool.num_steps() < 1:
            raise TrainError("pool has no steps")
        self.window = window
        self.trajs = [{"R": traj.returns, "S": traj.states, "A": traj.actions,
                       "T": traj.step_timesteps(), "keep": (~traj.step_masked()).astype(np.float64)}
                      for traj in pool.trajectories]
        self.index = [(ti, t) for ti, tr in enumerate(self.trajs)
                      for t in range(len(tr["R"]))]

    def __len__(self):
        return len(self.index)

    def gather(self, picks):
        """Build batch tensors for a list of (traj_idx, end_pos) picks."""
        w = self.window
        b = len(picks)
        R = np.zeros((b, w)); S = np.zeros((b, w, self.trajs[0]["S"].shape[1]))
        A = np.zeros((b, w)); tgt = np.zeros((b, w), dtype=np.int64)
        ts = np.zeros((b, w), dtype=np.int64); mask = np.zeros((b, w))
        for row, (ti, end) in enumerate(picks):
            tr = self.trajs[ti]
            lo = max(0, end - w + 1)
            n = end - lo + 1
            sl = slice(w - n, w)
            R[row, sl] = tr["R"][lo:end + 1]
            S[row, sl] = tr["S"][lo:end + 1]
            A[row, sl] = tr["A"][lo:end + 1]
            tgt[row, sl] = tr["A"][lo:end + 1]
            ts[row, sl] = tr["T"][lo:end + 1]
            mask[row, sl] = tr["keep"][lo:end + 1]
        return R, S, A, tgt, ts, mask

    def sample(self, batch_size, rng):
        picks = [self.index[rng.integers(len(self.index))] for _ in range(batch_size)]
        return self.gather(picks)

    def iter_all(self, batch_size):
        for i in range(0, len(self.index), batch_size):
            yield self.gather(self.index[i:i + batch_size])


def accuracy(preds, true_actions) -> float:
    preds = np.asarray(preds)
    true_actions = np.asarray(true_actions)
    if preds.shape != true_actions.shape:
        raise TrainError(f"length mismatch: {preds.shape} vs {true_actions.shape}")
    if preds.size == 0:
        raise TrainError("empty prediction set")
    return float(np.mean(preds == true_actions))


def _batch_loss(model, batch, class_weights=None):
    R, S, A, tgt, ts, mask = batch
    logits = model.forward(R, S, A, ts, pad_mask=(mask > 0).astype(float))
    b, w = tgt.shape
    weights = mask.reshape(-1).astype(np.float64)
    if class_weights is not None:
        weights = weights * class_weights[tgt.reshape(-1)]
    loss = T.cross_entropy(logits.reshape(b * w, ACTION_COUNT), tgt.reshape(-1), weights)
    preds = np.argmax(logits.data, axis=-1).reshape(-1)
    keep = mask.reshape(-1) > 0
    return loss, preds[keep], tgt.reshape(-1)[keep]


def _class_weights(dataset):
    counts = np.ones(ACTION_COUNT)
    for tr in dataset.trajs:
        for a in range(ACTION_COUNT):
            counts[a] += np.sum(tr["A"] == a)
    inv = counts.sum() / (ACTION_COUNT * counts)
    return inv


def train_epoch(model: PolicyModel, dataset: WindowDataset, cfg: TrainConfig, rng,
                class_weights=None):
    """One pass of accumulate -> clip -> step updates; returns a report row."""
    params = list(model.params.values())
    n_batches = cfg.batches_per_epoch or max(1, len(dataset) // cfg.batch_size)
    losses, hits, total, norms = [], 0, 0, []
    t0 = time.perf_counter()
    for _ in range(n_batches):
        T.zero_grads(params)
        micro_losses = []
        for _ in range(cfg.accumulation_steps):
            loss, preds, tgts = _batch_loss(model, dataset.sample(cfg.batch_size, rng),
                                            class_weights)
            if not np.isfinite(loss.data):
                raise T.OptimizerFault("non-finite loss; epoch aborted")
            loss.backward()
            micro_losses.append(float(loss.data))
            hits += int(np.sum(preds == tgts))
            total += len(tgts)
        if cfg.accumulation_steps > 1:
            scale = 1.0 / cfg.accumulation_steps
            for p in params:
                if p.grad is not None:
                    p.grad = p.grad * scale
        norms.append(T.sgd_step(params, cfg.lr, cfg.clip_norm))
        losses.append(float(np.mean(micro_losses)))
    return {
        "mean_loss": float(np.mean(losses)),
        "mean_accuracy": hits / max(1, total),
        "seconds": time.perf_counter() - t0,
        "grad_norm_mean": float(np.mean(norms)),
        "grad_norm_max": float(np.max(norms)),
    }


def evaluate_accuracy(model: PolicyModel, dataset: WindowDataset, batch_size=64,
                      max_batches=0):
    hits, total = 0, 0
    for bi, batch in enumerate(dataset.iter_all(batch_size)):
        if max_batches and bi >= max_batches:
            break
        R, S, A, tgt, ts, mask = batch
        with T.no_grad():
            logits = model.forward(R, S, A, ts, pad_mask=(mask > 0).astype(float))
        preds = np.argmax(logits.data, axis=-1)
        keep = mask > 0
        hits += int(np.sum((preds == tgt) & keep))
        total += int(np.sum(keep))
    return hits / max(1, total)


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


def train(model: PolicyModel, pool: ExperiencePool, cfg: TrainConfig,
          checkpoint_path=None, feature_stats=None, log=None):
    """Full training run; saves the best-eval-accuracy checkpoint.

    States and returns are normalized here (training-set statistics would
    leak nothing extra at this scale; stats come from the whole pool) and
    the scalers travel inside the checkpoint so closed-loop evaluation can
    transform live inputs identically.
    """
    if abs(pool.gamma - cfg.gamma) > 1e-12:
        raise TrainError(f"config gamma {cfg.gamma} != pool gamma {pool.gamma}")
    pool, stats = normalize_states(pool)  # near-identity if already normalized
    feature_stats = feature_stats or stats
    rets = _all_returns(pool)
    r_mean, r_std = float(rets.mean()), float(max(rets.std(), 1e-9))
    # new arrays: normalize_states shares the returns with the caller's pool
    pool.trajectories = [t.replace(returns=(t.returns - r_mean) / r_std)
                         for t in pool.trajectories]
    train_pool, eval_pool = split_pool(pool, cfg.eval_split, cfg.seed)
    train_ds = WindowDataset(train_pool, cfg.window)
    eval_ds = WindowDataset(eval_pool, cfg.window)
    rng = np.random.default_rng(cfg.seed)
    class_weights = _class_weights(train_ds) if cfg.class_weighting else None

    report = TrainReport()
    extra = {"target_return": target_return(pool, cfg.target_return_percentile),
             "window": cfg.window, "gamma": cfg.gamma,
             "return_mean": r_mean, "return_std": r_std}
    for epoch in range(cfg.epochs):
        row = train_epoch(model, train_ds, cfg, rng, class_weights)
        row["epoch"] = epoch
        row["eval_accuracy"] = evaluate_accuracy(model, eval_ds,
                                                 max_batches=cfg.eval_batches)
        report.rows.append(row)
        if log:
            log(f"epoch {epoch}: loss={row['mean_loss']:.4f} "
                f"acc={row['mean_accuracy']:.3f} eval={row['eval_accuracy']:.3f}")
        if row["eval_accuracy"] >= report.best_eval_accuracy:
            report.best_eval_accuracy = row["eval_accuracy"]
            report.best_epoch = epoch
            if checkpoint_path:
                save_checkpoint(model, checkpoint_path, feature_stats=feature_stats,
                                extra=extra)
        report.final_eval_accuracy = row["eval_accuracy"]
    return report
