"""The `aqmlab` command, one subcommand at a time, through `cli.main([...])`
on a short pipeline: simulate two 2 s logs, pool them, train one epoch,
evaluate the rule-based controller and the trained policy, then compare and
report the two runs."""

import contextlib
import csv
import inspect
import io
import json

import pytest

from aqmlab import cli
from aqmlab import evaluation as ev
from aqmlab.model import LORA_RANK, ModelConfig, PolicyModel, load_checkpoint
from aqmlab.pool import ExperiencePool, augment, build_pool, compute_feature_stats
from aqmlab.training import TARGET_RETURN_PERCENTILE, TrainConfig, normalize_pool, target_return
from aqmlab.simulator import (
    Dualpi2Params, FlowKind, FlowSpec, ScenarioConfig, default_scenario, run_scenario, write_klog,
)
from helpers import CORRUPT_POOL_EDITS, CORRUPT_POOL_IDS, corrupt_pool_file

SECONDS = 2


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    paths = {name: d / name for name in (
        "1.klog", "2.klog", "pool.npz", "policy.npz", "rule.json", "llm.json",
        "compare.json", "summary.csv")}
    steps = [
        ["simulate", "--seed", 1, "--duration", SECONDS, "-o", paths["1.klog"]],
        ["simulate", "--seed", 2, "--duration", SECONDS, "-o", paths["2.klog"]],
        ["build-pool", paths["1.klog"], paths["2.klog"], "-o", paths["pool.npz"]],
        ["train", paths["pool.npz"], "--epochs", 1, "--batch-size", 64, "--window", 4,
         "--embed-size", 16, "-o", paths["policy.npz"]],
        ["evaluate", "--seed", 3, "--duration", SECONDS, "-o", paths["rule.json"]],
        ["evaluate", "--seed", 3, "--duration", SECONDS, "--checkpoint", paths["policy.npz"],
         "--every", 5, "-o", paths["llm.json"]],
        ["compare", paths["rule.json"], paths["llm.json"], "-o", paths["compare.json"]],
        ["report", paths["rule.json"], paths["llm.json"], "-o", paths["summary.csv"]],
    ]
    out = []
    for argv in steps:
        # capsys is function-scoped, so the module fixture reads stdout itself
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main([str(a) for a in argv]) == 0, argv
        out.append(buf.getvalue())
    return paths, dict(zip(("sim1", "sim2", "pool", "train", "rule", "llm", "compare",
                            "report"), out))


def test_simulate_writes_the_scenario_log(pipeline, tmp_path):
    paths, out = pipeline
    world = run_scenario(default_scenario(seed=1, duration_us=SECONDS * 1_000_000))
    write_klog(world.records, tmp_path / "ref.klog")
    assert paths["1.klog"].read_bytes() == (tmp_path / "ref.klog").read_bytes()
    assert out["sim1"].startswith(f"wrote {len(world.records)} records")


def test_build_pool_holds_one_trajectory_per_log(pipeline):
    paths, out = pipeline
    p = ExperiencePool.load(paths["pool.npz"])
    lines = [len(paths[n].read_text().splitlines()) for n in ("1.klog", "2.klog")]
    assert [len(t) for t in p.trajectories] == lines
    assert p.feature_stats is not None and p.gamma == 0.95
    assert p.provenance["source_logs"] == ["1.klog", "2.klog"]
    assert f"{sum(lines)} steps" in out["pool"]
    # no --noise and no --dropout: the pool is not augmented
    assert all(t.masked is None for t in p.trajectories) and "augmented" not in p.provenance


def test_noise_and_dropout_augment_the_pool(pipeline, tmp_path):
    """`build-pool` augments exactly when --noise or --dropout is non-zero:
    the states carry augment's noise and the pool a masked column."""
    paths, _ = pipeline
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in (
            "build-pool", paths["1.klog"], "--noise", 0.5, "--dropout", 0.3,
            "-o", tmp_path / "aug.npz")]) == 0
    got = ExperiencePool.load(tmp_path / "aug.npz")
    plain = build_pool([paths["1.klog"]])
    want = augment(plain, noise_sigma=0.5, dropout_prob=0.3, seed=0).trajectories[0]
    traj = got.trajectories[0]
    assert traj.states.tobytes() == want.states.tobytes() != plain.trajectories[0].states.tobytes()
    assert traj.masked is not None and traj.masked.tobytes() == want.masked.tobytes()
    assert 0 < traj.masked.mean() < 1 and got.provenance["augmented"]


def test_train_writes_a_checkpoint_with_the_cli_config(pipeline):
    paths, out = pipeline
    model, stats, extra = load_checkpoint(paths["policy.npz"])
    cfg = model.config
    assert (cfg.context_window, cfg.embed_size, cfg.n_layers, cfg.n_heads) == (4, 16, 1, 2)
    assert stats is not None and "window" not in extra
    # the parameter counts, one epoch row, then the best
    counts, first, last = out["train"].splitlines()
    assert first.startswith("epoch   0  loss") and last.startswith("best eval accuracy")
    total = sum(p.data.size for p in model.params.values())
    assert counts == f"parameters: {total:,} trainable of {total:,}"


def test_train_from_a_checkpoint_builds_no_model_from_the_cli_config(
        pipeline, tmp_path, monkeypatch):
    """With --init-from the model comes from the checkpoint alone, so the
    CLI's model settings build and draw nothing."""
    paths, _ = pipeline

    def built(*args, **kwargs):
        raise AssertionError("built a model from the CLI config")
    monkeypatch.setattr(cli, "PolicyModel", built)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in (
            "train", paths["pool.npz"], "--epochs", 1, "--batch-size", 64, "--window", 4,
            "--init-from", paths["policy.npz"], "-o", tmp_path / "lora.npz")]) == 0
    assert load_checkpoint(tmp_path / "lora.npz")[0].lora_rank == LORA_RANK


def test_fine_tune_trains_at_the_checkpoints_window(pipeline, tmp_path):
    """--window, like --layers, shapes only a fresh model: a fine-tune of
    the window-4 checkpoint, given no --window, trains at window 4."""
    paths, _ = pipeline
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in (
            "train", paths["pool.npz"], "--epochs", 1, "--batch-size", 64,
            "--init-from", paths["policy.npz"], "-o", tmp_path / "lora.npz")]) == 0
    model = load_checkpoint(tmp_path / "lora.npz")[0]
    assert model.lora_rank == LORA_RANK and model.config.context_window == 4


def test_the_cli_default_model_has_15315_parameters(pipeline, tmp_path):
    """The CLI-default model stores no time table: `train` prints 15,315
    parameters, all trainable."""
    paths, _ = pipeline
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main([str(a) for a in (
            "train", paths["pool.npz"], "--epochs", 1, "--batch-size", 256,
            "-o", tmp_path / "m.npz")]) == 0
    assert buf.getvalue().splitlines()[0] == "parameters: 15,315 trainable of 15,315"


def test_fine_tune_refits_the_feature_stats_from_the_new_pool(pipeline, tmp_path):
    """`--init-from` keeps the checkpoint's weights but not its input
    scale: the fine-tuned checkpoint stores the feature stats and target
    return of the pool it was tuned on, not those of the base checkpoint."""
    paths, _ = pipeline
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (
                ["simulate", "--seed", 4, "--duration", SECONDS, "-o", tmp_path / "4.klog"],
                ["build-pool", paths["1.klog"], tmp_path / "4.klog", "--noise", 1.0,
                 "-o", tmp_path / "new.npz"],
                ["train", tmp_path / "new.npz", "--epochs", 1, "--batch-size", 64,
                 "--init-from", paths["policy.npz"], "-o", tmp_path / "tuned.npz"]):
            assert cli.main([str(a) for a in argv]) == 0, argv
    new_pool = ExperiencePool.load(tmp_path / "new.npz")
    _, base_stats, base_extra = load_checkpoint(paths["policy.npz"])
    _, stats, extra = load_checkpoint(tmp_path / "tuned.npz")
    assert stats == compute_feature_stats(new_pool) != base_stats
    want = target_return(normalize_pool(new_pool)[0], TARGET_RETURN_PERCENTILE)
    assert extra["target_return"] == want != base_extra["target_return"]


def test_parsed_defaults_are_the_config_defaults():
    """`aqmlab train` and `build-pool` write no default of their own: the
    LoRA rank's is the one `enable_lora` reads too."""
    mdef, tdef = ModelConfig(), TrainConfig()
    args = cli.build_parser().parse_args(["train", "pool.npz", "-o", "m.npz"])
    assert (args.feature_dim, args.embed_size, args.layers, args.heads, args.window) == (
        mdef.feature_dim, mdef.embed_size, mdef.n_layers, mdef.n_heads, mdef.context_window)
    assert args.lora_rank == LORA_RANK == inspect.signature(
        PolicyModel.enable_lora).parameters["rank"].default
    assert (args.epochs, args.batch_size, args.lr, args.clip_norm, args.window, args.seed) == (
        tdef.epochs, tdef.batch_size, tdef.lr, tdef.clip_norm, tdef.window, tdef.seed)
    args = cli.build_parser().parse_args(["build-pool", "x.klog", "-o", "pool.npz"])
    assert args.gamma == tdef.gamma and (args.noise, args.dropout) == (0.0, 0.0)
    assert not hasattr(args, "jitter") and not hasattr(args, "augment")


def test_train_with_lora_prints_the_trainable_share(pipeline, tmp_path):
    paths, _ = pipeline
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main([str(a) for a in (
            "train", paths["pool.npz"], "--epochs", 1, "--batch-size", 64, "--window", 4,
            "--init-from", paths["policy.npz"], "--lora-rank", 2,
            "-o", tmp_path / "lora.npz")]) == 0
    model, _, _ = load_checkpoint(tmp_path / "lora.npz")
    total = sum(p.data.size for p in model.params.values())
    trainable = model.trainable_count()
    assert model.lora_rank == 2 and trainable < total
    assert buf.getvalue().splitlines()[0] == f"parameters: {trainable:,} trainable of {total:,}"


def test_evaluate_with_checkpoint_runs_the_inference_policy(pipeline):
    paths, out = pipeline
    doc = ev.load_stats(paths["llm.json"])
    assert doc["header"]["driver"] == "llm" and doc["header"]["seed"] == 3
    decisions = doc["actions"]["total"]
    assert doc["driver"]["model_decisions"] == decisions // 5
    # the same run through the library gives the same document, byte for
    # byte: no field of it depends on the machine
    driver = ev.LlmEvery(str(paths["policy.npz"]), every=5)
    again = ev.evaluate(default_scenario(seed=3, duration_us=SECONDS * 1_000_000), driver)
    assert driver.model.forward_count == driver.model_decisions == decisions // 5
    assert set(doc["driver"]) == {"model_decisions", "action_matrix", "mark_violations"}
    assert json.dumps(again, indent=1) == paths["llm.json"].read_text()
    assert out["llm"].startswith("median delay")


def test_compare_prints_and_writes_the_deltas(pipeline):
    paths, out = pipeline
    want = ev.compare(ev.load_stats(paths["rule.json"]), ev.load_stats(paths["llm.json"]))
    assert json.loads(out["compare"]) == json.loads(json.dumps(want))
    assert json.loads(paths["compare.json"].read_text()) == json.loads(out["compare"])


def test_report_has_one_row_per_stats_file(pipeline):
    paths, out = pipeline
    with open(paths["summary.csv"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["driver"] for r in rows] == ["rule", "llm"]
    for row, name in zip(rows, ("rule.json", "llm.json")):
        doc = ev.load_stats(paths[name])
        assert row["file"] == str(paths[name])
        assert float(row["median_delay_ms"]) == doc["summary"]["delay_ms"]["median"]
        assert float(row["drop_frac"]) == doc["actions"]["drop_frac"]
    assert out["report"].startswith("wrote 2 rows")


def test_train_prints_eval_recall_per_action(pipeline):
    paths, out = pipeline
    first = out["train"].splitlines()[1]
    _, recall = first.split("  eval recall ")
    fields = recall.split()
    assert fields[0::2] == ["enqueue", "drop", "mark"]
    assert all(f == "-" or 0.0 <= float(f) <= 1.0 for f in fields[1::2])


def test_evaluate_prints_the_action_matrix(pipeline):
    paths, out = pipeline
    matrix = ev.load_stats(paths["llm.json"])["driver"]["action_matrix"]
    assert out["llm"].splitlines()[1].endswith(f"enqueue/drop/mark: {matrix}")
    assert len(out["rule"].splitlines()) == 1


def test_diagnose_reports_positive_drift_on_a_diverging_run(tmp_path, capsys):
    """With the controller off (alpha = beta = 0) and a 10 MB buffer, a
    loss-based flow grows its window every RTT and the Classic delay grows
    without bound, so its Lyapunov drift must be positive."""
    sc = ScenarioConfig(name="classic_unbounded", seed=3, duration_us=3_000_000,
                        aqm=Dualpi2Params(alpha=0.0, beta=0.0, buffer_limit_bytes=10_000_000),
                        flows=[FlowSpec(FlowKind.CUBIC_LIKE, ecn_capable=False)])
    sc.save(tmp_path / "scenario.json")
    stats = tmp_path / "stats.json"
    assert cli.main(["evaluate", "--scenario", str(tmp_path / "scenario.json"),
                     "-o", str(stats)]) == 0
    trace = ev.load_stats(stats)["trace"]["delay_ms"]
    assert len(trace) > 100 and trace[-1] > trace[0]
    capsys.readouterr()
    assert cli.main(["diagnose", str(stats)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lyapunov"]["mean_drift"] > 0
    assert out["lyapunov"]["negative_fraction"] < 0.5


def test_scenario_with_a_zero_tupdate_exits_1(tmp_path, capsys):
    """A zero controller period would stall the event loop; the scenario is
    refused when it loads."""
    doc = default_scenario(duration_us=1_000_000).to_dict()
    doc["aqm"]["tupdate"] = 0
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    assert cli.main(["simulate", "--scenario", str(tmp_path / "scenario.json"),
                     "-o", str(tmp_path / "x.klog")]) == 1
    assert "tupdate must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "x.klog").exists()


def test_scenario_with_a_negative_start_exits_1(tmp_path, capsys):
    """A flow that starts before 0 would schedule an event in the past; the
    scenario is refused when it loads, naming the field."""
    doc = default_scenario(duration_us=1_000_000).to_dict()
    doc["flows"][0]["start_us"] = -5
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    assert cli.main(["simulate", "--scenario", str(tmp_path / "scenario.json"),
                     "-o", str(tmp_path / "x.klog")]) == 1
    assert "start_us must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "x.klog").exists()


@pytest.mark.parametrize("name,index,edit,message", CORRUPT_POOL_EDITS,
                         ids=CORRUPT_POOL_IDS)
def test_train_on_a_corrupt_pool_exits_1(pipeline, tmp_path, capsys, name, index, edit, message):
    paths, _ = pipeline
    bad = corrupt_pool_file(paths["pool.npz"], tmp_path / "bad.npz", name, index, edit)
    assert cli.main(["train", str(bad), "-o", str(tmp_path / "m.npz")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.npz").exists()


def test_train_with_zero_heads_exits_1(pipeline, tmp_path, capsys):
    """A size that builds no model is refused by name before training."""
    paths, _ = pipeline
    assert cli.main(["train", str(paths["pool.npz"]), "--heads", "0",
                     "-o", str(tmp_path / "m.npz")]) == 1
    assert "n_heads must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "m.npz").exists()


def test_train_with_a_negative_clip_norm_exits_1(pipeline, tmp_path, capsys):
    """A clip norm of 0 or less would train unclipped: refused by name."""
    paths, _ = pipeline
    assert cli.main(["train", str(paths["pool.npz"]), "--clip-norm", "-1",
                     "-o", str(tmp_path / "m.npz")]) == 1
    assert "clip_norm must be > 0, got -1.0" in capsys.readouterr().err
    assert not (tmp_path / "m.npz").exists()


def test_build_pool_with_full_dropout_exits_1(pipeline, tmp_path, capsys):
    """Dropout 1 would mask every step, a pool nothing can be trained on."""
    paths, _ = pipeline
    assert cli.main(["build-pool", str(paths["1.klog"]), "--dropout", "1",
                     "-o", str(tmp_path / "pool.npz")]) == 1
    assert "1 masks every step" in capsys.readouterr().err
    assert not (tmp_path / "pool.npz").exists()


def test_a_run_without_delay_samples_reports_none(tmp_path, capsys):
    """A run with no flows has no delay samples: `evaluate` says so rather
    than print a 0 ms median, and `report` leaves its delay cells empty."""
    ScenarioConfig(name="empty", duration_us=SECONDS * 1_000_000, flows=[]).save(
        tmp_path / "scenario.json")
    stats, csv_path = tmp_path / "empty.json", tmp_path / "report.csv"
    assert cli.main(["evaluate", "--scenario", str(tmp_path / "scenario.json"),
                     "-o", str(stats)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("no delay samples, utilization ") and "median" not in out
    delay = ev.load_stats(stats)["summary"]["delay_ms"]
    assert delay["count"] == 0 and delay["median"] is None and delay["p99"] is None
    assert cli.main(["report", str(stats), "-o", str(csv_path)]) == 0
    with open(csv_path, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["median_delay_ms"] == row["iqr_delay_ms"] == row["p99_delay_ms"] == ""
    assert float(row["mean_utilization"]) == 0.0


def test_missing_input_exits_1(tmp_path, capsys):
    assert cli.main(["report", str(tmp_path / "absent.json"), "-o", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "x.csv").exists()
