"""Closed-loop decisions of a base commit and the working tree, interleaved in one process.

    python3 tools/decision_pairs.py --blocks 20

Process-level pairs (`tools/bench_pairs.py`) compare whole runs, and a host
that moves between speed regimes can time the same decision up to 2x apart
from one process to the next.  This tool compares decisions inside one
process instead, as `tools/step_pairs.py` does for train steps.  The base
commit (`--base`, default HEAD) is exported with `git archive` and the
working tree's tracked files are copied beside it, into one temporary
directory, and each side's `aqmlab` package is imported under its own name.
Nothing is written into the checkout.

Each side times a seeded snapshot of its own CLI-default model,
`InferencePolicy(PolicyModel(ModelConfig(), seed=0))`, so no checkpoint
crosses sides and the two may be of any checkpoint formats; trained weights
do not change what a decision costs.  Both time the same windows, built
from `step_pairs.make_pool`'s in-memory pool with the working tree's code:
every EVERY-th decision of each trajectory, as `LlmEvery(every=EVERY)`
consults the model, with its last w steps or fewer (w the smaller of the
sides' context windows), in the types `LlmEvery` passes to `logits`.  Of
equal `CHECKPOINT_VERSION`s, the seeded models hold the same draws, and if
their logits differ by more than TOLERANCE on any window the tool says so
and exits 1.  Of different versions, the model is another function by
design: the tool notes the gap and times on.

A block runs through the windows once, calling each side's `logits` on each
window in turn, so both sides meet the same speed regime; the side that
goes first alternates from block to block.  Each block prints both sides'
median decision time and their ratio change/base; the last lines give the
blocks the change won and the median of the block ratios, below 1 when the
change is faster.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import step_pairs  # noqa: E402

SIDES = step_pairs.SIDES
EVERY = 10
TOLERANCE = 1e-5   # the largest logits difference between the sides that passes


def pool_windows(pool, w):
    """The (return, states, actions) window of every EVERY-th decision of
    each of `pool`'s trajectories, its last `w` steps or fewer, in the types
    `LlmEvery` passes to `logits`."""
    windows = []
    for traj in pool.trajectories:
        for k in range(EVERY - 1, len(traj), EVERY):
            lo = max(0, k - w + 1)
            windows.append((float(traj.returns[k]), traj.states[lo:k + 1],
                            traj.actions[lo:k].tolist()))
    return windows


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="the commit to compare against (default HEAD)")
    ap.add_argument("--blocks", type=int, default=20)
    args = ap.parse_args(argv)
    if args.blocks < 1:
        ap.error("--blocks must be >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    with step_pairs.side_trees(args.base, "decision-pairs-") as (base, _, trees):
        modules = {side: trees[side].model for side in SIDES}
        configs = {side: modules[side].ModelConfig() for side in SIDES}
        versions = {side: modules[side].CHECKPOINT_VERSION for side in SIDES}
        policies = {side: modules[side].InferencePolicy(
            modules[side].PolicyModel(configs[side], seed=0)) for side in SIDES}
        pool = step_pairs.make_pool(trees["change"])
        windows = pool_windows(pool, min(cfg.context_window for cfg in configs.values()))
        logits = {side: np.array([policies[side].logits(*w) for w in windows]) for side in SIDES}
        gap = float(np.abs(logits["change"] - logits["base"]).max())
        mcfg = configs["change"]
        print(f"base {base[:12]} (checkpoint v{versions['base']}) against the working tree "
              f"(checkpoint v{versions['change']}): {len(windows)} windows of {pool.num_steps()} "
              f"pool steps, {mcfg.n_layers} layer(s), {mcfg.n_heads} head(s), {args.blocks} "
              f"blocks; largest logits difference {gap:.3g}", flush=True)
        if versions["base"] != versions["change"]:
            print(f"note: checkpoint v{versions['base']} and v{versions['change']} are different "
                  f"models, so their logits gap of {gap:.3g} is not checked", file=sys.stderr)
        elif not gap <= TOLERANCE:
            print(f"error: the two sides' logits differ by {gap:.3g}, more than {TOLERANCE:g}",
                  file=sys.stderr)
            return 1

        def timer(logits):
            def timed(k):
                t0 = time.perf_counter()
                logits(*windows[k])
                return time.perf_counter() - t0
            return timed
        step_pairs.interleave({side: timer(policies[side].logits) for side in SIDES},
                              args.blocks, len(windows), unit="us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
