"""Command-line entry point.

Subcommands cover the full pipeline: simulate a scenario into a .klog,
build an experience pool from logs, train a policy, run closed-loop
evaluation, compare runs, run stability diagnostics, and aggregate stats
documents into a CSV report.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

from . import evaluation, pool as pool_mod, simulator, training
from .features import ACTION_NAMES
from .model import LORA_RANK, ModelConfig, PolicyModel, load_checkpoint


def _add_scenario_args(p):
    p.add_argument("--scenario", help="scenario JSON (default: built-in)")
    p.add_argument("--seed", type=int)
    p.add_argument("--duration", type=float, help="seconds")


def _scenario(args):
    """The scenario `_add_scenario_args` describes: `--scenario` (default:
    built-in), with `--seed` and `--duration` applied when given, through
    `dataclasses.replace`, so the scenario's own checks see them too."""
    if args.scenario:
        sc = simulator.ScenarioConfig.load(args.scenario)
    else:
        sc = simulator.default_scenario()
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.duration is not None:
        changes["duration_us"] = int(args.duration * 1_000_000)
    return dataclasses.replace(sc, **changes)


def _cmd_simulate(args):
    world = simulator.run_scenario(_scenario(args))
    simulator.write_klog(world.records, args.output)
    print(f"wrote {len(world.records)} records to {args.output}")


def _cmd_build_pool(args):
    p = pool_mod.build_pool(args.logs, gamma=args.gamma)
    if args.noise or args.dropout:
        p = pool_mod.augment(p, noise_sigma=args.noise, dropout_prob=args.dropout,
                             seed=args.seed)
        p.validate()   # what `ExperiencePool.load` would refuse is not written
    p.feature_stats = pool_mod.compute_feature_stats(p)
    p.save(args.output)
    print(f"wrote pool: {len(p.trajectories)} trajectories, "
          f"{p.num_steps()} steps -> {args.output}")


def _cmd_train(args):
    p = pool_mod.ExperiencePool.load(args.pool)
    if args.init_from:
        model, _, _ = load_checkpoint(args.init_from)
        model.enable_lora(rank=args.lora_rank, seed=args.seed)
    else:
        model = PolicyModel(ModelConfig(feature_dim=args.feature_dim, embed_size=args.embed_size,
                                        n_layers=args.layers, n_heads=args.heads,
                                        context_window=args.window), seed=args.seed)
    tcfg = training.TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                                lr=args.lr, clip_norm=args.clip_norm,
                                gamma=p.gamma, window=model.config.context_window,
                                seed=args.seed)
    total = sum(t.data.size for t in model.params.values())
    print(f"parameters: {model.trainable_count():,} trainable of {total:,}")
    report = training.train(model, p, tcfg, checkpoint_path=args.output)
    for row in report.rows:
        recall = "  ".join(f"{name} {'-' if r is None else f'{r:.3f}'}"
                           for name, r in row["eval_recall"].items())
        print(f"epoch {row['epoch']:3d}  loss {row['mean_loss']:.4f}  "
              f"acc {row['mean_accuracy']:.3f}  eval {row['eval_accuracy']:.3f}  "
              f"eval recall {recall}")
    print(f"best eval accuracy {report.best_eval_accuracy:.3f} "
          f"(epoch {report.best_epoch}) -> {args.output}")


def _make_driver(args):
    if args.checkpoint:
        return evaluation.LlmEvery(args.checkpoint, every=args.every)
    return evaluation.RuleBased()


def _cmd_evaluate(args):
    doc = evaluation.evaluate(_scenario(args), driver=_make_driver(args))
    evaluation.save_stats(doc, args.output)
    s = doc["summary"]["delay_ms"]
    delay = (f"median delay {s['median']:.2f} ms, IQR {s['iqr']:.2f} ms" if s["count"]
             else "no delay samples")
    print(f"{delay}, utilization {doc['summary']['utilization']['mean']:.3f} "
          f"-> {args.output}")
    matrix = doc["driver"].get("action_matrix")
    if matrix is not None:
        print(f"model decisions by rule action (rows) and model action (columns), "
              f"{'/'.join(ACTION_NAMES)}: {matrix}")


def _cmd_compare(args):
    base = evaluation.load_stats(args.baseline)
    cand = evaluation.load_stats(args.candidate)
    out = evaluation.compare(base, cand)
    text = json.dumps(out, indent=1)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    print(text)


def _cmd_diagnose(args):
    doc = evaluation.load_stats(args.stats)
    print(json.dumps(evaluation.diagnose(doc, args.target_ms), indent=1))


def _cmd_report(args):
    rows = []
    for path in args.stats:
        doc = evaluation.load_stats(path)
        s = doc["summary"]
        rows.append({
            "file": path,
            "driver": doc["header"]["driver"],
            "scenario": doc["header"]["scenario"],
            "seed": doc["header"]["seed"],
            "median_delay_ms": s["delay_ms"]["median"],
            "iqr_delay_ms": s["delay_ms"]["iqr"],
            "p99_delay_ms": s["delay_ms"]["p99"],
            "mean_utilization": s["utilization"]["mean"],
            "drop_frac": doc["actions"]["drop_frac"],
            "mark_frac": doc["actions"]["mark_frac"],
        })
    with open(args.output, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.output}")


def build_parser():
    # the model and training defaults are the config dataclasses' own
    mdef, tdef = ModelConfig(), training.TrainConfig()
    ap = argparse.ArgumentParser(prog="aqmlab",
                                 description="L4S AQM policy distillation lab")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario, write a .klog")
    _add_scenario_args(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("build-pool", help="logs -> experience pool")
    p.add_argument("logs", nargs="+")
    p.add_argument("--gamma", type=float, default=tdef.gamma)
    p.add_argument("--noise", type=float, default=0.0,
                   help="state noise sigma, in units of each feature's std (augments)")
    p.add_argument("--dropout", type=float, default=0.0,
                   help="step dropout probability (augments)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_build_pool)

    p = sub.add_parser("train", help="behaviour-clone a policy from a pool")
    p.add_argument("pool")
    p.add_argument("--epochs", type=int, default=tdef.epochs)
    p.add_argument("--batch-size", type=int, default=tdef.batch_size)
    p.add_argument("--lr", type=float, default=tdef.lr)
    p.add_argument("--clip-norm", type=float, default=tdef.clip_norm)
    p.add_argument("--window", type=int, default=tdef.window,
                   help="context window of a fresh model; a fine-tune trains at its "
                        "checkpoint's window")
    p.add_argument("--feature-dim", type=int, default=mdef.feature_dim)
    p.add_argument("--embed-size", type=int, default=mdef.embed_size)
    p.add_argument("--layers", type=int, default=mdef.n_layers)
    p.add_argument("--heads", type=int, default=mdef.n_heads)
    p.add_argument("--seed", type=int, default=tdef.seed)
    p.add_argument("--init-from", help="fine-tune this checkpoint with LoRA")
    p.add_argument("--lora-rank", type=int, default=LORA_RANK)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("evaluate", help="closed-loop evaluation run")
    _add_scenario_args(p)
    p.add_argument("--checkpoint", help="policy checkpoint (default: rule-based)")
    p.add_argument("--every", type=int, default=10,
                   help="route every n-th decision through the model")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("compare", help="robust deltas between two stats files")
    p.add_argument("baseline")
    p.add_argument("candidate")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("diagnose", help="stability diagnostics for a stats file")
    p.add_argument("stats")
    p.add_argument("--target-ms", type=float, default=15.0)
    p.set_defaults(fn=_cmd_diagnose)

    p = sub.add_parser("report", help="aggregate stats files into a CSV")
    p.add_argument("stats", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_report)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except Exception as e:  # uniform nonzero exit with a short message
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
