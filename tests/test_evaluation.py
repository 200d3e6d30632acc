"""Evaluation tests: summaries, KS/compare, Lyapunov, Lipschitz, drivers."""

import hashlib
import json

import numpy as np
import pytest

from aqmlab import evaluation as ev
from aqmlab.evaluation import (
    EvalError, RuleBased, compare, ks_statistic, lipschitz_estimate,
    lyapunov_drift, utilization,
)
from aqmlab.features import ACTION_DROP, ACTION_MARK, STATE_DIM, STATE_FEATURES
from aqmlab.model import ModelConfig, PolicyModel, save_checkpoint
from aqmlab.pool import (
    PoolError, build_pool_from_records, compute_feature_stats, compute_reward, normalize,
)
from aqmlab.simulator import (
    FlowKind, FlowSpec, ScenarioConfig, default_scenario, run_scenario, write_klog,
)
from aqmlab.training import WindowDataset

IDENTITY_STATS = {"mean": [0.0] * 8, "std": [1.0] * 8, "zero_variance": [False] * 8}


def tiny_checkpoint(path, seed=0, window=4):
    """An untrained small model whose feature stats leave states as they are."""
    cfg = ModelConfig(feature_dim=2, embed_size=8, n_layers=1, n_heads=2,
                      context_window=window)
    save_checkpoint(PolicyModel(cfg, seed=seed), path, feature_stats=IDENTITY_STATS,
                    extra={"target_return": 1.0})
    return str(path)


def record_windows(driver, forced=None):
    """Make `driver.model.logits` record each window it is passed, with the
    logits it returns; with `forced`, it returns logits whose argmax is that
    action.  Returns the list the windows go to."""
    windows = []
    logits = driver.model.logits

    def recording_logits(returns, states, actions):
        out = logits(returns, states, actions) if forced is None else np.eye(3)[forced]
        windows.append((returns, states.copy(), np.asarray(actions, dtype=np.float64), out))
        return out

    driver.model.logits = recording_logits
    return windows


def left_padded(windows, w):
    """The recorded windows as `WindowDataset.gather` builds them: [N, w]
    returns, [N, w, 8] states, [N, w] actions (the newest slot 0) and
    [N, w] pad mask, each window's n real steps last and its first w - n
    steps zero."""
    N = len(windows)
    R, A, pad = np.zeros((N, w)), np.zeros((N, w)), np.zeros((N, w))
    S = np.zeros((N, w, STATE_DIM))
    for i, (returns, states, actions, _) in enumerate(windows):
        n = len(states)
        R[i, w - n:], S[i, w - n:], A[i, w - n:w - 1] = returns, states, actions
        pad[i, w - n:] = 1.0
    return R, S, A, pad


class TestLyapunov:
    def test_worked_example(self):
        """Trace [30, 25, 22] vs target 20: V = [100, 25, 4], drifts
        [-75, -21] -- all negative."""
        out = lyapunov_drift([30.0, 25.0, 22.0], 20.0)
        np.testing.assert_allclose(out["drifts"], [-75.0, -21.0])
        assert out["negative_fraction"] == 1.0
        assert out["mean_drift"] == pytest.approx(-48.0)

    def test_converging_trace_all_negative(self):
        target = 15.0
        trace = [target + 30.0 * (0.8 ** n) for n in range(40)]
        out = lyapunov_drift(trace, target)
        assert out["negative_fraction"] == 1.0
        assert out["mean_drift"] < 0

    def test_diverging_trace_positive(self):
        trace = [15.0 + 2.0 * n for n in range(20)]
        out = lyapunov_drift(trace, 15.0)
        assert out["negative_fraction"] == 0.0
        assert out["mean_drift"] > 0

    def test_at_target_zero_drift(self):
        out = lyapunov_drift([15.0, 15.0, 15.0], 15.0)
        np.testing.assert_allclose(out["drifts"], [0.0, 0.0])

    def test_too_short_rejected(self):
        with pytest.raises(EvalError):
            lyapunov_drift([10.0], 5.0)


class TestLipschitz:
    def _pairs(self, n=20, dim=6, seed=0):
        rng = np.random.default_rng(seed)
        return [(rng.normal(size=dim), rng.normal(size=dim)) for _ in range(n)]

    def test_identity_is_exactly_one(self):
        out = lipschitz_estimate(lambda x: x, self._pairs())
        assert out["constant"] == 1.0
        assert out["expansive"]

    def test_half_scaling_is_half(self):
        out = lipschitz_estimate(lambda x: 0.5 * x, self._pairs())
        assert out["constant"] == pytest.approx(0.5)
        assert not out["expansive"]

    def test_tanh_not_expansive(self):
        out = lipschitz_estimate(np.tanh, self._pairs())
        assert out["constant"] <= 1.0

    def test_zero_distance_pairs_skipped(self):
        x = np.ones(3)
        pairs = [(x, x), (np.zeros(3), np.ones(3))]
        out = lipschitz_estimate(lambda v: 2.0 * v, pairs)
        assert out["pairs_used"] == 1
        assert out["constant"] == pytest.approx(2.0)

    def test_all_zero_distance_rejected(self):
        x = np.ones(3)
        with pytest.raises(EvalError):
            lipschitz_estimate(lambda v: v, [(x, x)])


class TestKs:
    def test_identical_samples_zero(self):
        a = np.random.default_rng(0).normal(size=200)
        assert ks_statistic(a, a) == 0.0

    def test_disjoint_supports_one(self):
        assert ks_statistic([1.0, 2.0, 3.0], [10.0, 11.0]) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=80), rng.normal(1.0, 1.0, size=90)
        assert ks_statistic(a, b) == pytest.approx(ks_statistic(b, a))

    def test_shifted_distributions_detected(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 1, 500)
        b = rng.normal(2, 1, 500)
        assert ks_statistic(a, b) > 0.5

    def test_empty_rejected(self):
        with pytest.raises(EvalError):
            ks_statistic([], [1.0])


class TestSummaries:
    def test_summary_fields(self):
        v = np.arange(101, dtype=float)
        s = ev._summary(v)
        assert s["median"] == 50.0
        assert s["q1"] == 25.0 and s["q3"] == 75.0
        assert s["iqr"] == 50.0
        assert s["outliers"] == 0

    def test_outliers_counted(self):
        v = list(np.ones(50)) + [100.0]
        s = ev._summary(v)
        assert s["outliers"] == 1

    def test_empty_summary(self):
        """No samples give no statistics: null, not a measured 0."""
        s = ev._summary([])
        assert s["count"] == 0
        assert s.keys() == ev._summary([1.0]).keys()
        assert all(v is None for k, v in s.items() if k != "count")

    def test_utilization_bins(self):
        # 1000 bytes delivered into the first bin after the skip window
        delivered = [(ev.STEADY_STATE_SKIP_US + 10, 1000)]
        u = utilization(delivered, ev.STEADY_STATE_SKIP_US + 200_000,
                        link_rate_bps=8_000_000)
        cap = 8_000_000 * ev.UTIL_BIN_US / 8 / 1_000_000
        assert u[0] == pytest.approx(1000 / cap)
        assert (u[1:] == 0).all()


def _stats_doc(med, iqr, util, xs):
    return {
        "header": {"driver": "rule", "scenario": "t", "seed": 1},
        "summary": {
            key: {"median": med, "iqr": iqr, "q1": 0, "q3": 0, "mean": util,
                  "p95": 0, "p99": 0, "count": 10, "lo_whisker": 0,
                  "hi_whisker": 0, "outliers": 0}
            for key in ("delay_ms", "classic_delay_ms", "l4s_delay_ms",
                        "utilization", "reward")
        },
        "actions": {"enqueue_frac": 1, "drop_frac": 0, "mark_frac": 0, "total": 1},
        "cdf": {"delay_ms": {"x": list(xs), "p": []}},
        "driver": {},
    }


class TestCompare:
    def test_self_compare_is_zero(self):
        doc = _stats_doc(10.0, 2.0, 0.9, np.linspace(0, 20, 50))
        out = compare(doc, doc)
        for key, d in out["deltas"].items():
            assert d["median"] == 0.0 and d["iqr"] == 0.0
        assert out["ks_delay"] == 0.0

    def test_median_delta_sign(self):
        a = _stats_doc(10.0, 2.0, 0.9, np.linspace(0, 20, 50))
        b = _stats_doc(13.0, 2.5, 0.8, np.linspace(5, 25, 50))
        out = compare(a, b)
        assert out["deltas"]["delay_ms"]["median"] == pytest.approx(3.0)
        assert out["deltas"]["delay_ms"]["median_rel"] == pytest.approx(0.3)
        assert out["ks_delay"] > 0

    def test_ks_is_taken_between_the_quantile_grids(self):
        a = _stats_doc(10.0, 2.0, 0.9, np.linspace(0, 20, 101))
        b = _stats_doc(13.0, 2.5, 0.8, np.linspace(5, 25, 101))
        assert compare(a, b)["ks_delay"] == ks_statistic(np.linspace(0, 20, 101),
                                                         np.linspace(5, 25, 101))

    def test_zero_baseline_median_has_no_relative_change(self):
        """A relative change from 0 is undefined: null, not 0.0 (no change)."""
        a = _stats_doc(0.0, 2.0, 0.9, np.linspace(0, 20, 101))
        b = _stats_doc(2.4, 2.0, 0.9, np.linspace(0, 20, 101))
        delta = compare(a, b)["deltas"]["delay_ms"]
        assert delta["median"] == pytest.approx(2.4) and delta["median_rel"] is None
        assert json.loads(json.dumps(compare(a, b)))["deltas"]["delay_ms"]["median_rel"] is None
        assert compare(b, a)["deltas"]["delay_ms"]["median_rel"] == pytest.approx(-1.0)

    def test_a_class_without_samples_has_no_delta(self):
        """A run without the L4S flow has no L4S delay to compare: either
        way round, that class's deltas are null, not a change from or to a
        measured 0 ms, and the classes both runs carry stay numbers."""
        full = default_scenario(seed=1, duration_us=2_000_000)
        no_l4s = ScenarioConfig(seed=1, duration_us=full.duration_us, flows=[
            f for f in full.flows if f.kind is not FlowKind.DCTCP_LIKE])
        docs = ev.evaluate(full), ev.evaluate(no_l4s)
        assert docs[0]["summary"]["l4s_delay_ms"]["count"] > 0
        assert docs[1]["summary"]["l4s_delay_ms"]["count"] == 0
        for baseline, candidate in (docs, docs[::-1]):
            deltas = json.loads(json.dumps(compare(baseline, candidate)))["deltas"]
            assert deltas["l4s_delay_ms"] == {"median": None, "median_rel": None, "iqr": None}
            for key in ("delay_ms", "classic_delay_ms"):
                assert all(isinstance(v, float) for v in deltas[key].values()), key

    def test_a_run_without_delay_samples_is_refused(self, tmp_path, capsys):
        """A run with no flows has no delay samples: comparing it with a
        real run, either way round, raises rather than report a KS of 0 or a
        relative change of 0, and `aqmlab compare` exits 1."""
        from aqmlab import cli
        empty = ev.evaluate(ScenarioConfig(name="empty", duration_us=2_000_000, flows=[]))
        busy = ev.evaluate(default_scenario(seed=1, duration_us=2_000_000))
        assert empty["summary"]["delay_ms"]["count"] == 0 < busy["summary"]["delay_ms"]["count"]
        for baseline, candidate, role in ((empty, busy, "baseline"), (busy, empty, "candidate")):
            with pytest.raises(EvalError, match=f"the {role} .* no delay samples"):
                compare(baseline, candidate)
        paths = [tmp_path / "empty.json", tmp_path / "busy.json"]
        for doc, path in zip((empty, busy), paths):
            ev.save_stats(doc, path)
        capsys.readouterr()
        assert cli.main(["compare", str(paths[1]), str(paths[0])]) == 1
        assert "no delay samples" in capsys.readouterr().err


class TestClosedLoopEval:
    def test_rule_based_stats_document(self):
        sc = default_scenario(seed=2, duration_us=7_000_000)
        doc = ev.evaluate(sc, driver=RuleBased())
        assert doc["header"]["driver"] == "rule"
        assert doc["summary"]["delay_ms"]["count"] > 0
        assert 0 < doc["summary"]["utilization"]["mean"] <= 1.2
        fr = doc["actions"]
        assert fr["enqueue_frac"] + fr["drop_frac"] + fr["mark_frac"] == pytest.approx(1.0)
        json.dumps(doc)  # must be serializable

    def test_stats_report_the_worlds_rewrites(self):
        """The actions section counts the hook answers the world rewrote,
        by cause: none for the rule, both causes for an always-MARK hook
        (the default scenario holds non-ECN flows)."""
        rule = ev.evaluate(default_scenario(seed=2, duration_us=2_000_000))
        assert rule["actions"]["rewritten"] == {"buffer_full": 0, "not_ecn_capable": 0}

        class AlwaysMark(RuleBased):
            def hook(self, world, q, pkt, decision):
                return ACTION_MARK

        world = run_scenario(default_scenario(seed=2, duration_us=2_000_000),
                             decision_hook=AlwaysMark().hook)
        doc = ev.collect_stats(world, AlwaysMark())
        rewritten = doc["actions"]["rewritten"]
        assert rewritten == world.rewritten and rewritten["not_ecn_capable"] > 0
        assert sum(rewritten.values()) == round(doc["actions"]["drop_frac"] * doc["actions"]["total"])

    def test_stats_round_trip(self, tmp_path):
        sc = default_scenario(seed=2, duration_us=6_000_000)
        doc = ev.evaluate(sc)
        path = tmp_path / "s.json"
        ev.save_stats(doc, path)
        assert ev.load_stats(path) == doc

    def test_same_run_same_document_text(self, tmp_path):
        """A stats document holds only what the run determines, so two runs
        of one scenario and checkpoint write the same text."""
        ckpt = tiny_checkpoint(tmp_path / "m.npz")
        sc = default_scenario(seed=3, duration_us=2_000_000)
        first, second = (json.dumps(ev.evaluate(sc, ev.LlmEvery(ckpt, every=3)))
                         for _ in range(2))
        assert first == second

    def test_llm_every_drives_one_world(self, tmp_path):
        """The driver reads its history from the world's log, so it refuses
        a second world rather than carry one episode's steps into the next."""
        driver = ev.LlmEvery(tiny_checkpoint(tmp_path / "m.npz"), every=3)
        sc = default_scenario(seed=3, duration_us=500_000)
        ev.evaluate(sc, driver)
        with pytest.raises(EvalError, match="one episode"):
            ev.evaluate(sc, driver)

    def test_checkpoint_without_a_target_return_refused(self, tmp_path, capsys):
        """The return channel is pinned to the checkpoint's target return, so
        a checkpoint without one is refused rather than conditioned on 1.0,
        and `aqmlab evaluate --checkpoint` exits 1."""
        from aqmlab import cli
        cfg = ModelConfig(feature_dim=2, embed_size=8, n_layers=1, n_heads=2, context_window=4)
        path = tmp_path / "m.npz"
        save_checkpoint(PolicyModel(cfg, seed=0), path, feature_stats=IDENTITY_STATS)
        with pytest.raises(EvalError, match="no target return"):
            ev.LlmEvery(str(path))
        capsys.readouterr()
        assert cli.main(["evaluate", "--checkpoint", str(path), "--duration", "1",
                         "-o", str(tmp_path / "s.json")]) == 1
        assert "no target return" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    def test_diagnose_on_converged_run(self):
        from aqmlab.simulator import run_scenario
        world = run_scenario(default_scenario(seed=2, duration_us=8_000_000))
        out = ev.diagnose(ev.collect_stats(world, RuleBased()), target_ms=15.0)
        assert "lyapunov" in out
        assert np.isfinite(out["lyapunov"]["mean_drift"])
        assert 0.0 <= out["lyapunov"]["negative_fraction"] <= 1.0

    def test_diagnose_on_short_run(self):
        """A run of 5 s or less keeps half its samples, as collect_stats does."""
        world = run_scenario(default_scenario(seed=1, duration_us=4_000_000))
        out = ev.diagnose(ev.collect_stats(world, RuleBased()), target_ms=15.0)
        assert np.isfinite(out["lyapunov"]["mean_drift"])


def loop_collect_stats(world, driver):
    """collect_stats as a Python loop over every sample, record and delivery:
    the reference for the array version."""
    skip = ev._steady_state_skip(world)
    delay_ms, t_us = {0: [], 1: []}, {0: [], 1: []}
    for t, qc, sojourn in world.qdelay_samples:
        if t >= skip:
            delay_ms[qc].append(sojourn / 1000.0)
            t_us[qc].append(t)
    all_delay = delay_ms[0] + delay_ms[1]
    rewards = [compute_reward(rec.packet_length, rec.current_queue_delay // 1000)
               for rec in world.records]
    nbins = max(1, (world.config.duration_us - skip) // ev.UTIL_BIN_US)
    bins = np.zeros(nbins)
    for t, nbytes in world.delivered:
        if skip <= t < skip + nbins * ev.UTIL_BIN_US:
            bins[(t - skip) // ev.UTIL_BIN_US] += nbytes
    util = bins / (world.params.link_rate_bps * ev.UTIL_BIN_US / 8 / 1_000_000)
    actions = [rec.dequeue_action for rec in world.records]
    n = max(1, len(actions))
    return {
        "format_version": ev.STATS_FORMAT_VERSION,
        "header": {"driver": driver.name, "scenario": world.config.name,
                   "seed": world.config.seed, "duration_us": world.config.duration_us,
                   "steady_state_skip_us": skip},
        "summary": {"delay_ms": ev._summary(all_delay),
                    "classic_delay_ms": ev._summary(delay_ms[0]),
                    "l4s_delay_ms": ev._summary(delay_ms[1]),
                    "utilization": ev._summary(util), "reward": ev._summary(rewards)},
        "actions": {"enqueue_frac": actions.count(0) / n, "drop_frac": actions.count(1) / n,
                    "mark_frac": actions.count(2) / n, "total": len(actions),
                    "rewritten": dict(world.rewritten)},
        "cdf": {"delay_ms": ev._cdf(all_delay)},
        "trace": {"t_us": t_us[0], "delay_ms": delay_ms[0]},
        "driver": driver.finish(),
    }


class TestCollectStats:
    @pytest.fixture(scope="class")
    def ckpt(self, tmp_path_factory):
        return tiny_checkpoint(tmp_path_factory.mktemp("stats") / "m.npz", seed=3)

    @pytest.mark.parametrize("seed", [1, 2, 1000])
    @pytest.mark.parametrize("driver_name", ["rule", "llm"])
    def test_document_equals_the_loop_reference(self, ckpt, seed, driver_name):
        """The same JSON text, number for number, for the rule and for a
        model driving every 3rd decision (so actions and delays differ)."""
        driver = RuleBased() if driver_name == "rule" else ev.LlmEvery(ckpt, every=3)
        world = run_scenario(default_scenario(seed=seed, duration_us=6_000_000),
                             decision_hook=driver.hook)
        assert world.qdelay_samples and world.delivered
        assert json.dumps(ev.collect_stats(world, driver)) == json.dumps(
            loop_collect_stats(world, driver))

    @pytest.mark.parametrize("field,value", [("packet_length", 0), ("packet_length", -3),
                                             ("current_queue_delay", -1)])
    def test_invalid_record_rejected(self, field, value):
        world = run_scenario(default_scenario(seed=1, duration_us=500_000))
        world.records[7] = world.records[7]._replace(**{field: value})
        with pytest.raises(PoolError):
            ev.collect_stats(world, RuleBased())


class TestDiagnoseCli:
    def test_cli_drift_equals_diagnose_of_the_run(self, tmp_path, capsys):
        """`aqmlab diagnose` reads the stats document's time-ordered Classic
        delay trace, so it reports what diagnose gives for the run's own
        stats."""
        from aqmlab import cli
        doc_path = tmp_path / "rule.json"
        assert cli.main(["evaluate", "--seed", "1", "--duration", "4", "-o", str(doc_path)]) == 0
        doc = ev.load_stats(doc_path)
        assert doc["format_version"] == ev.STATS_FORMAT_VERSION
        t_us = doc["trace"]["t_us"]
        assert len(t_us) == len(doc["trace"]["delay_ms"]) > 2
        assert t_us == sorted(t_us) and t_us[0] >= doc["header"]["steady_state_skip_us"]
        run_doc = ev.collect_stats(run_scenario(default_scenario(seed=1, duration_us=4_000_000)),
                                   RuleBased())
        for target in (0.0, 1000.0):
            capsys.readouterr()
            assert cli.main(["diagnose", str(doc_path), "--target-ms", str(target)]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out == ev.diagnose(run_doc, target)
            # sorted quantiles would give 0 or 1 here, whatever the run did
            assert 0.0 < out["lyapunov"]["negative_fraction"] < 1.0

    def test_doc_without_trace_exits_1(self, tmp_path, capsys):
        from aqmlab import cli
        doc = ev.evaluate(default_scenario(seed=1, duration_us=2_000_000))
        del doc["trace"], doc["format_version"]
        path = tmp_path / "old.json"
        ev.save_stats(doc, path)
        with pytest.raises(EvalError, match="re-run"):
            ev.diagnose(doc, 15.0)
        assert cli.main(["diagnose", str(path)]) == 1
        assert "re-run `aqmlab evaluate`" in capsys.readouterr().err


class TestActionMatrix:
    def test_matrix_counts_rule_against_model_actions(self, tmp_path):
        driver = ev.LlmEvery(tiny_checkpoint(tmp_path / "m.npz"), every=3)
        want = np.zeros((3, 3), dtype=np.int64)
        hook = driver.hook

        def recording_hook(world, q, pkt, decision):
            before = driver.model_decisions
            action = hook(world, q, pkt, decision)
            if driver.model_decisions != before:
                want[decision.action, action] += 1
            return action

        driver.hook = recording_hook
        doc = ev.evaluate(default_scenario(seed=3, duration_us=2_000_000), driver)
        matrix = doc["driver"]["action_matrix"]
        assert matrix == want.tolist()
        assert want.sum() == driver.model_decisions == doc["actions"]["total"] // 3
        assert len(np.flatnonzero(want.sum(axis=1))) > 1   # the rule used more than one action
        assert "overridden" not in doc["driver"]


class TestOnlineWindowParity:
    @pytest.mark.parametrize("window,forced,seconds", [
        (4, None, 1), (1, None, 1), (4, ACTION_MARK, 1), (8, None, 6)])
    def test_windows_equal_the_pool_windows(self, tmp_path, window, forced, seconds):
        """Every window LlmEvery(every=1) passes to the model is, bit for bit,
        the one WindowDataset.gather builds at that step of the episode's own
        log: the real steps' states (under identity stats), their number and
        the earlier steps' actions, against the real rows, pad mask and
        actions of the gathered window.
        With a model forced to MARK, a not-ECN-capable packet's MARK is
        applied as a DROP, and the later windows hold the DROP, as the log
        does."""
        driver = ev.LlmEvery(tiny_checkpoint(tmp_path / "m.npz", window=window), every=1)
        windows = record_windows(driver, forced)
        world = run_scenario(default_scenario(seed=3, duration_us=seconds * 1_000_000),
                             decision_hook=driver.hook)
        assert len(windows) == len(world.records) == driver.model_decisions > 400 * seconds
        R, S, A, pad = left_padded(windows, window)
        pool = build_pool_from_records([world.records])
        want_R, want_S, want_A, _, _, want_mask = WindowDataset(pool, window).gather(
            [(0, i) for i in range(len(windows))])
        assert S.tobytes() == want_S.tobytes()
        assert pad.tobytes() == want_mask.tobytes()
        assert A[:, :-1].tobytes() == want_A[:, :-1].tobytes()
        assert all(returns == driver.target_return for returns, *_ in windows)
        if forced is not None:
            applied = pool.trajectories[0].actions
            assert set(applied.tolist()) == {ACTION_MARK, ACTION_DROP}
            assert driver.violations == int((applied == ACTION_DROP).sum())


    def test_windows_under_real_stats_with_a_zero_variance_feature(self, tmp_path):
        """On an L4S-only scenario every packet is in the L queue, so
        queue_type has zero variance in the pool's statistics (as have the
        drops, none, and the packet length, one MSS).  Under those statistics
        each window's states equal, bit for bit, `pool.normalize` of the
        window WindowDataset.gather builds, and each zero-variance column,
        queue_type's among them, is 0."""
        def l4s_only(seed, seconds=2):
            return ScenarioConfig(name="l4s", seed=seed, duration_us=seconds * 1_000_000, flows=[
                FlowSpec(FlowKind.DCTCP_LIKE), FlowSpec(FlowKind.DCTCP_LIKE, start_us=100_000)])

        stats = compute_feature_stats(build_pool_from_records(
            [run_scenario(l4s_only(1)).records]))
        zero = np.array(stats["zero_variance"])
        assert zero[STATE_FEATURES.index("queue_type")] and not zero.all()
        cfg = ModelConfig(feature_dim=2, embed_size=8, n_layers=1, n_heads=2,
                          context_window=4)
        save_checkpoint(PolicyModel(cfg, seed=0), tmp_path / "m.npz", feature_stats=stats,
                        extra={"target_return": 1.0})
        driver = ev.LlmEvery(str(tmp_path / "m.npz"), every=1)
        windows = record_windows(driver)
        # this untrained model marks every packet, so its flows send less
        world = run_scenario(l4s_only(2, seconds=3), decision_hook=driver.hook)
        assert len(windows) == len(world.records) > 400
        _, S, _, pad = left_padded(windows, cfg.context_window)
        _, want_S, _, _, _, mask = WindowDataset(build_pool_from_records([world.records]),
                                                 cfg.context_window).gather(
            [(0, i) for i in range(len(windows))])
        want_S = np.where(mask[:, :, None] > 0, normalize(want_S, stats), 0.0)
        assert S.tobytes() == want_S.tobytes()
        assert not S[:, :, zero].any() and S[pad > 0][:, ~zero].std(axis=0).min() > 0


class TestSnapshotInTheLoop:
    def test_every_decision_matches_the_tensor_model(self, tmp_path):
        """In an every=1 episode of a two-layer float64 model, each decision's
        snapshot logits equal PolicyModel.predict's on the window
        WindowDataset.gather builds from the episode's log, within 1e-12,
        and give the same action: the padded first decisions and the earlier
        block's causal path run inside the loop."""
        cfg = ModelConfig(feature_dim=4, embed_size=16, n_layers=2, n_heads=2,
                          context_window=8, dtype="float64")
        # a seed whose decisions vary: many untrained models give one action
        # at every decision, a closed loop whose states then stay alike
        model = PolicyModel(cfg, seed=0)
        rng = np.random.default_rng(3)
        for p in model.params.values():
            p.data = p.data + rng.normal(0.0, 0.05, p.shape)
        stats = compute_feature_stats(build_pool_from_records(
            [run_scenario(default_scenario(seed=1, duration_us=2_000_000)).records]))
        save_checkpoint(model, tmp_path / "m.npz", feature_stats=stats,
                        extra={"target_return": 1.5})
        driver = ev.LlmEvery(str(tmp_path / "m.npz"), every=1)
        windows = record_windows(driver)
        world = run_scenario(default_scenario(seed=4, duration_us=2_000_000),
                             decision_hook=driver.hook)
        assert len(windows) == len(world.records) > 800
        got = np.stack([out for *_, out in windows])
        _, S, A, _, _, mask = WindowDataset(build_pool_from_records([world.records]),
                                            cfg.context_window).gather(
            [(0, i) for i in range(len(windows))])
        real = mask > 0
        R = np.where(real, driver.target_return, 0.0)
        S = np.where(real[:, :, None], normalize(S, driver.feature_stats), 0.0)
        want = np.concatenate([model.predict(
            R[lo:lo + 512], S[lo:lo + 512], A[lo:lo + 512], pad_mask=mask[lo:lo + 512])
            for lo in range(0, len(R), 512)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert got.argmax(axis=1).tolist() == want.argmax(axis=1).tolist()
        assert len(set(got.argmax(axis=1).tolist())) > 1


# sha256 of the .klog of 6 s seed-11 episodes driven by LlmEvery with the
# untrained seed-5 model below: the state, normalisation and history it
# feeds the model must not move.  Pinned with checkpoint v7, whose code
# reproduced the earlier code's logs byte for byte from the same tensors
# with the earlier time table set to 0.
GOLDEN_LLM_EVERY = {
    1: "4f69c96ef9b66794534316025ac59b95ea2f9735bf26178b21def00b27f19aa9",
    10: "467d1b51db6d2dda0b98ae890eeeb1db6a5510f8ccc64b2c9a8798acb492a161",
}


class TestLlmEveryGolden:
    @pytest.fixture(scope="class")
    def ckpt(self, tmp_path_factory):
        """A seeded, untrained CLI-sized model (float64, so that no BLAS
        rounding can flip a decision) with the feature stats of a real pool."""
        pool = build_pool_from_records(
            [run_scenario(default_scenario(seed=1, duration_us=3_000_000)).records])
        cfg = ModelConfig(feature_dim=8, embed_size=32, n_layers=1, n_heads=2,
                          context_window=8, dtype="float64")
        path = tmp_path_factory.mktemp("golden") / "m.npz"
        save_checkpoint(PolicyModel(cfg, seed=5), path, feature_stats=compute_feature_stats(pool),
                        extra={"target_return": 1.5})
        return str(path)

    @pytest.mark.parametrize("every", [1, 10])
    def test_klog_bytes(self, ckpt, every, tmp_path):
        driver = ev.LlmEvery(ckpt, every=every)
        world = run_scenario(default_scenario(seed=11, duration_us=6_000_000),
                             decision_hook=driver.hook)
        assert driver.model_decisions == len(world.records) // every > 400
        write_klog(world.records, tmp_path / "x.klog")
        assert hashlib.sha256((tmp_path / "x.klog").read_bytes()).hexdigest() == \
            GOLDEN_LLM_EVERY[every]
