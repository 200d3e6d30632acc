"""Closed-loop decisions of a base commit and the working tree, interleaved in one process.

    python3 tools/decision_pairs.py --blocks 20 --seconds 10

Process-level pairs (`tools/bench_pairs.py`) compare whole runs, and a host
that moves between speed regimes can time the same decision up to 2x apart
from one process to the next.  This tool compares decisions inside one
process instead, as `tools/step_pairs.py` does for train steps.  The base
commit (`--base`, default HEAD) is exported with `git archive` and the
working tree's tracked files are copied beside it, into one temporary
directory, and each side's `aqmlab` package is imported under its own name.
Nothing is written into the checkout.

With the working tree's code, one checkpoint of the CLI-default model is
trained for TRAIN_STEPS steps on a pool of POOL_SEEDS default scenarios of
POOL_SECONDS each, so it carries the pool's feature stats and target
return, and `LlmEvery(checkpoint, every=10)` drives one held-out default
scenario (seed HELD_OUT_SEED, `--seconds` long), recording each window it
passes to `InferencePolicy.logits`.  Each side then loads the checkpoint and
builds its own `InferencePolicy`.  If the base cannot read the checkpoint,
a commit of an earlier checkpoint format, the tool says so and exits 2:
it compares only commits of one format, and `tools/bench_pairs.py`, which
runs each side's own pipeline, covers the rest.  If the two sides' logits
differ by more than TOLERANCE on any window, the tool says so and exits 1.

A block runs through the recorded windows once, calling each side's
`logits` on each window in turn, so both sides meet the same speed regime;
the side that goes first alternates from block to block.  Each block prints
both sides' median decision time and their ratio change/base; the last
lines give the blocks the change won and the median of the block ratios,
below 1 when the change is faster.
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
POOL_SEEDS, POOL_SECONDS, TRAIN_STEPS, EVERY = 2, 3.0, 20, 10
HELD_OUT_SEED = 500
TOLERANCE = 1e-5   # the largest logits difference between the sides that passes


def write_checkpoint(aqmlab, path):
    """A checkpoint of the CLI-default model, trained by `training.train`
    for TRAIN_STEPS steps of its default batch on a short default-scenario
    pool, so it stores the pool's feature stats and target return."""
    training, model = aqmlab.training, aqmlab.model
    pool = aqmlab.pool.build_pool_from_records(
        step_pairs.scenario_records(aqmlab, POOL_SEEDS, POOL_SECONDS))
    mcfg = model.ModelConfig()
    tcfg = training.TrainConfig(epochs=1, batches_per_epoch=TRAIN_STEPS, eval_batches=1,
                                gamma=pool.gamma, window=mcfg.context_window)
    training.train(model.PolicyModel(mcfg, seed=tcfg.seed), pool, tcfg, checkpoint_path=path)


def record_windows(aqmlab, ckpt, seconds):
    """The windows (returns, states, actions) that
    `LlmEvery(ckpt, every=EVERY)` passes to `logits` over one held-out
    episode."""
    evaluation, sim = aqmlab.evaluation, aqmlab.simulator
    driver = evaluation.LlmEvery(ckpt, every=EVERY)
    windows = []
    logits = driver.model.logits

    def recording_logits(returns, states, actions):
        windows.append((returns, np.array(states), list(actions)))
        return logits(returns, states, actions)

    driver.model.logits = recording_logits
    evaluation.evaluate(sim.default_scenario(seed=HELD_OUT_SEED, duration_us=int(seconds * 1e6)),
                        driver)
    return windows


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="the commit to compare against (default HEAD)")
    ap.add_argument("--blocks", type=int, default=20)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="simulated seconds of the held-out episode whose windows are timed")
    args = ap.parse_args(argv)
    if args.blocks < 1 or args.seconds <= 0:
        ap.error("--blocks must be >= 1 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    with step_pairs.side_trees(args.base, "decision-pairs-") as (base, tmp, trees):
        ckpt = os.path.join(tmp, "policy.npz")
        write_checkpoint(trees["change"], ckpt)
        try:
            base_model = trees["base"].model.load_checkpoint(ckpt)[0]
        except trees["base"].model.CheckpointError as e:
            print(f"error: base {base[:12]} cannot read the working tree's checkpoint ({e}); "
                  f"decision_pairs compares only commits of one checkpoint format, and "
                  f"tools/bench_pairs.py covers the rest", file=sys.stderr)
            return 2
        models = {"base": base_model, "change": trees["change"].model.load_checkpoint(ckpt)[0]}
        windows = record_windows(trees["change"], ckpt, args.seconds)
        policies = {side: trees[side].model.InferencePolicy(models[side]) for side in SIDES}
        logits = {side: np.array([policies[side].logits(*w) for w in windows]) for side in SIDES}
        gap = float(np.abs(logits["change"] - logits["base"]).max())
        mcfg = policies["change"].config
        print(f"base {base[:12]} against the working tree: {len(windows)} windows of a "
              f"{args.seconds:g} s held-out episode, {mcfg.n_layers} layer(s), {mcfg.n_heads} "
              f"head(s), {args.blocks} blocks; largest logits difference {gap:.3g}", flush=True)
        if not gap <= TOLERANCE:
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
