"""Evaluation tests: summaries, KS/compare, Lyapunov, Lipschitz, drivers."""

import json

import numpy as np
import pytest

from aqmlab import evaluation as ev
from aqmlab.evaluation import (
    EvalError, RuleBased, compare, ks_statistic, lipschitz_estimate,
    lyapunov_drift, utilization,
)
from aqmlab.features import ACTION_DROP, ACTION_MARK
from aqmlab.model import ModelConfig, PolicyModel, save_checkpoint
from aqmlab.pool import build_pool_from_records
from aqmlab.simulator import default_scenario, run_scenario


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
        assert ev._summary([])["count"] == 0

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

    def test_stats_round_trip(self, tmp_path):
        sc = default_scenario(seed=2, duration_us=6_000_000)
        doc = ev.evaluate(sc)
        path = tmp_path / "s.json"
        ev.save_stats(doc, path)
        assert ev.load_stats(path) == doc

    def test_diagnose_on_converged_run(self):
        from aqmlab.simulator import run_scenario
        world = run_scenario(default_scenario(seed=2, duration_us=8_000_000))
        out = ev.diagnose(world, target_ms=15.0)
        assert "lyapunov" in out
        assert np.isfinite(out["lyapunov"]["mean_drift"])
        assert 0.0 <= out["lyapunov"]["negative_fraction"] <= 1.0

    def test_diagnose_on_short_run(self):
        """A run of 5 s or less keeps half its samples, as collect_stats does."""
        world = run_scenario(default_scenario(seed=1, duration_us=4_000_000))
        out = ev.diagnose(world, target_ms=15.0)
        assert np.isfinite(out["lyapunov"]["mean_drift"])


class TestDiagnoseCli:
    def test_cli_drift_equals_diagnose_of_the_run(self, tmp_path, capsys):
        """`aqmlab diagnose` reads the stats document's time-ordered Classic
        delay trace, so it reports what diagnose(world) does for the run."""
        from aqmlab import cli
        doc_path = tmp_path / "rule.json"
        assert cli.main(["evaluate", "--seed", "1", "--duration", "4", "-o", str(doc_path)]) == 0
        doc = ev.load_stats(doc_path)
        assert doc["format_version"] == ev.STATS_FORMAT_VERSION
        t_us = doc["trace"]["t_us"]
        assert len(t_us) == len(doc["trace"]["delay_ms"]) > 2
        assert t_us == sorted(t_us) and t_us[0] >= doc["header"]["steady_state_skip_us"]
        world = run_scenario(default_scenario(seed=1, duration_us=4_000_000))
        for target in (0.0, 1000.0):
            capsys.readouterr()
            assert cli.main(["diagnose", str(doc_path), "--target-ms", str(target)]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out == ev.diagnose(world, target)
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


class TestLlmEveryHistory:
    def test_history_holds_the_applied_action(self, tmp_path):
        """A model MARK on a not-ECN-capable packet is applied as a DROP; the
        history the next windows see must hold the DROP, as the log does."""
        cfg = ModelConfig(feature_dim=2, embed_size=8, n_layers=1, n_heads=2,
                          context_window=4, max_timestep=64)
        ckpt = tmp_path / "m.npz"
        stats = {"mean": [0.0] * 8, "std": [1.0] * 8, "zero_variance": [False] * 8}
        save_checkpoint(PolicyModel(cfg, seed=0), ckpt, feature_stats=stats,
                        extra={"target_return": 1.0, "window": 4})
        driver = ev.LlmEvery(str(ckpt), every=1)
        driver._infer = lambda norm_state: ACTION_MARK
        entries = []
        hook = driver.hook

        def recording_hook(world, q, pkt, decision):
            action = hook(world, q, pkt, decision)
            entries.append((driver._hist[-1][3], driver._hist[-1][2]))
            return action

        world = run_scenario(default_scenario(seed=3, duration_us=1_000_000),
                             decision_hook=recording_hook)
        assert len(entries) == len(world.records) == driver.model_decisions
        for t, action in entries:
            assert action == world.records[t].dequeue_action, t
        applied = {a for _, a in entries}
        assert applied == {ACTION_MARK, ACTION_DROP}
        assert driver.violations == sum(a == ACTION_DROP for _, a in entries)


class TestActionMatrix:
    def test_matrix_counts_rule_against_model_actions(self, tmp_path):
        cfg = ModelConfig(feature_dim=2, embed_size=8, n_layers=1, n_heads=2,
                          context_window=4, max_timestep=64)
        ckpt = tmp_path / "m.npz"
        stats = {"mean": [0.0] * 8, "std": [1.0] * 8, "zero_variance": [False] * 8}
        save_checkpoint(PolicyModel(cfg, seed=0), ckpt, feature_stats=stats,
                        extra={"target_return": 1.0, "window": 4})
        driver = ev.LlmEvery(str(ckpt), every=3)
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


class TestOnlineStateParity:
    def test_online_states_equal_pool_states(self, tmp_path):
        """The states LlmEvery builds from the live queue must be the ones the
        pool builds from the logged records of the same decisions, bit for bit
        (probabilities through the log's 1e-6 fixed point on both sides)."""
        cfg = ModelConfig(feature_dim=2, embed_size=8, n_layers=1, n_heads=2,
                          context_window=4, max_timestep=64)
        ckpt = tmp_path / "m.npz"
        stats = {"mean": [0.0] * 8, "std": [1.0] * 8, "zero_variance": [False] * 8}
        save_checkpoint(PolicyModel(cfg, seed=0), ckpt, feature_stats=stats,
                        extra={"target_return": 1.0, "window": 4})
        driver = ev.LlmEvery(str(ckpt), every=10 ** 9, shadow=True)
        online = []
        raw_state = driver._raw_state

        def recording_raw_state(q, pkt):
            online.append(raw_state(q, pkt))
            return online[-1]

        driver._raw_state = recording_raw_state
        world = run_scenario(default_scenario(seed=3, duration_us=10_000_000),
                             decision_hook=driver.hook)
        offline = build_pool_from_records([world.records]).trajectories[0].states
        assert len(online) == len(offline) > 5000
        assert np.array_equal(np.array(online), offline)
