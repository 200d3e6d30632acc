"""Train steps of a base commit and the working tree, interleaved in one process.

    python3 tools/step_pairs.py --blocks 8 --steps 40

Process-level pairs (`tools/bench_pairs.py`) compare whole runs, and a host
that moves between speed regimes can time the same step 1.5x apart from
one process to the next.  This tool compares steps inside one process
instead.  The base commit (`--base`, default HEAD) is exported with
`git archive` and the working tree's tracked files are copied beside it,
into one temporary directory, and each side's `aqmlab` package is imported
under its own name.  Nothing is written into the checkout.

One pool is simulated in memory with the working tree's code (POOL_SEEDS
default scenarios of POOL_SECONDS each) and normalised by its
`training.normalize_pool`, as `training.train` normalises a pool.  Each
side trains its own model, built from the `aqmlab train` defaults (b=32;
`--layers` and `--heads` change the model's depth and width), with the
same seed, so both sides see the same batches; each first runs WARMUP
untimed steps.  A step is one `training.train_epoch` call of one batch:
sample, forward, loss, backward and the clipped SGD step.  A block runs
`--steps` rounds of one step of each side, so both sides meet the same
speed regime; the side that goes first in a round alternates from block
to block.

Each block prints both sides' median step time and their ratio change/base;
the last lines give the blocks the change won and the median of the block
ratios, below 1 when the change is faster.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import importlib.util
import os
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_pairs  # noqa: E402

SIDES = bench_pairs.SIDES
# two simulated scenarios of 10 s: about 15k pool steps in a fifth of a second
POOL_SEEDS, POOL_SECONDS, WARMUP = 2, 10.0, 2


def import_tree(checkout, name):
    """The `aqmlab` package of `checkout`'s src/, imported as `name`, with
    its `evaluation`, `model`, `pool`, `simulator` and `training` modules
    loaded."""
    src = os.path.join(checkout, "src", "aqmlab")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"), submodule_search_locations=[src])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("evaluation", "model", "pool", "simulator", "training"):
        importlib.import_module(f"{name}.{module}")
    return package


@contextlib.contextmanager
def side_trees(rev, prefix):
    """Export the commit `rev` names and the working tree's tracked files
    into one temporary directory named with `prefix`, and import each
    side's package as aqmlab_base and aqmlab_change.  Yields the base
    commit, the directory and {side: package}; SIGTERM ends the run through
    SystemExit, so the directory is removed then too."""
    bench_pairs.exit_on_sigterm()
    root = bench_pairs.git(os.getcwd(), "rev-parse", "--show-toplevel")
    base = bench_pairs.git(root, "rev-parse", rev)
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory(prefix=prefix) as tmp:
        checkouts = {"base": os.path.join(tmp, "base"), "change": os.path.join(tmp, "work")}
        bench_pairs.export_commit(root, base, checkouts["base"])
        bench_pairs.export_tree(root, checkouts["change"])
        yield base, tmp, {side: import_tree(checkouts[side], f"aqmlab_{side}") for side in SIDES}


def interleave(timed, blocks, rounds, unit="ms"):
    """Time `blocks` blocks of `rounds` rounds: round k calls each side's
    `timed[side](k)`, which returns its seconds, and the side that goes
    first alternates from block to block.  Prints each block's medians and
    their ratio change/base, then the blocks the change won and the median
    of the block ratios, below 1 when the change is faster."""
    scale = {"ms": 1e3, "us": 1e6}[unit]
    ratios = []
    for i in range(blocks):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        times = {side: [] for side in SIDES}
        for k in range(rounds):
            for side in order:
                times[side].append(timed[side](k))
        medians = {side: float(np.median(times[side])) for side in SIDES}
        ratios.append(medians["change"] / medians["base"])
        print(f"block {i + 1}/{blocks} first {order[0]:6s} base {scale * medians['base']:.3f} {unit} "
              f"change {scale * medians['change']:.3f} {unit} ratio {ratios[-1]:.3f}", flush=True)
    print(f"change faster in {sum(r < 1.0 for r in ratios)} of {blocks} blocks")
    print(f"median ratio change/base {float(np.median(ratios)):.3f}")


def scenario_records(aqmlab, seeds, seconds):
    """The decision records of default scenarios on seeds 1..seeds, `seconds` each."""
    sim = aqmlab.simulator
    return [sim.run_scenario(sim.default_scenario(seed=seed, duration_us=int(seconds * 1e6))).records
            for seed in range(1, seeds + 1)]


def make_pool(aqmlab):
    """A pool of default scenarios on seeds 1..POOL_SEEDS, POOL_SECONDS each,
    normalised by `training.normalize_pool`, as `training.train` normalises."""
    records = scenario_records(aqmlab, POOL_SEEDS, POOL_SECONDS)
    return aqmlab.training.normalize_pool(aqmlab.pool.build_pool_from_records(records))[0]


class Side:
    """One side's model, dataset, train config and batch stream."""

    def __init__(self, aqmlab, pool, args):
        training, model = aqmlab.training, aqmlab.model
        tcfg = training.TrainConfig(batches_per_epoch=1, gamma=pool.gamma)
        mcfg = dataclasses.replace(model.ModelConfig(), n_layers=args.layers, n_heads=args.heads,
                                   context_window=tcfg.window)
        self.training, self.cfg = training, tcfg
        self.model = model.PolicyModel(mcfg, seed=tcfg.seed)
        self.dataset = training.WindowDataset(pool, tcfg.window)
        self.rng = np.random.default_rng(tcfg.seed)

    def step(self):
        """The host seconds of one train step."""
        t0 = time.perf_counter()
        self.training.train_epoch(self.model, self.dataset, self.cfg, self.rng)
        return time.perf_counter() - t0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="the commit to compare against (default HEAD)")
    ap.add_argument("--blocks", type=int, default=8)
    ap.add_argument("--steps", type=int, default=40, help="steps of each side per block")
    ap.add_argument("--layers", type=int, help="the model's blocks (default: the CLI's)")
    ap.add_argument("--heads", type=int, help="attention heads (default: the CLI's)")
    args = ap.parse_args(argv)
    if min(args.blocks, args.steps) < 1:
        ap.error("--blocks and --steps must be >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    with side_trees(args.base, "step-pairs-") as (base, _, trees):
        defaults = trees["change"].model.ModelConfig()
        args.layers = defaults.n_layers if args.layers is None else args.layers
        args.heads = defaults.n_heads if args.heads is None else args.heads
        pool = make_pool(trees["change"])
        sides = {side: Side(trees[side], pool, args) for side in SIDES}
        print(f"base {base[:12]} against the working tree: {pool.num_steps()} pool steps, "
              f"{args.layers} layer(s), {args.heads} head(s), {args.blocks} blocks of "
              f"{args.steps} steps per side", flush=True)
        for _ in range(WARMUP):
            for side in SIDES:
                sides[side].step()
        interleave({side: lambda k, side=sides[side]: side.step() for side in SIDES},
                   args.blocks, args.steps)
    return 0


if __name__ == "__main__":
    sys.exit(main())
