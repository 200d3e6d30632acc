"""Experience pool tests: rewards, returns, construction, augmentation."""

import dataclasses
import json
import math

import numpy as np
import pytest

from aqmlab import pool as pool_mod
from aqmlab.features import STATE_DIM
from aqmlab.pool import (
    ExperiencePool, PoolError, Step, Trajectory, augment, build_pool,
    build_pool_from_records, compute_feature_stats, compute_reward,
    denormalize_state, normalize_state, normalize_states, returns_to_go,
)
from aqmlab.simulator import KLOG_FIELDS, default_scenario, run_scenario, write_klog


def forward_sum_returns(rewards, gamma):
    """Independent oracle: R_t = sum_k gamma^(k-t) r_k computed head-on."""
    n = len(rewards)
    return [sum(gamma ** (k - t) * rewards[k] for k in range(t, n))
            for t in range(n)]


class TestReward:
    def test_worked_examples(self):
        assert compute_reward(500, 0) == pytest.approx(500.0)
        assert compute_reward(1500, 2) == pytest.approx(500.0)
        assert compute_reward(1500, 0) == pytest.approx(1500.0)

    def test_monotone_in_delay(self):
        assert compute_reward(1000, 1) > compute_reward(1000, 10)

    def test_validation(self):
        with pytest.raises(PoolError):
            compute_reward(0, 5)
        with pytest.raises(PoolError):
            compute_reward(1000, -1)


class TestReturnsToGo:
    def test_worked_example(self):
        """[10, 20, 30] at gamma 0.95: R2=30, R1=20+28.5=48.5,
        R0=10+0.95*48.5=56.075."""
        out = returns_to_go([10.0, 20.0, 30.0], 0.95)
        np.testing.assert_allclose(out, [56.075, 48.5, 30.0], rtol=1e-12)

    def test_matches_forward_oracle(self):
        rng = np.random.default_rng(4)
        rewards = rng.uniform(0, 100, size=60).tolist()
        fast = returns_to_go(rewards, 0.9)
        slow = forward_sum_returns(rewards, 0.9)
        np.testing.assert_allclose(fast, slow, rtol=1e-9)

    def test_gamma_zero_limits_to_rewards(self):
        rewards = [1.0, 2.0, 3.0]
        out = returns_to_go(rewards, 1e-12)
        np.testing.assert_allclose(out, rewards, atol=1e-9)

    def test_gamma_one_is_plain_suffix_sum(self):
        out = returns_to_go([1.0, 2.0, 3.0], 1.0)
        np.testing.assert_allclose(out, [6.0, 5.0, 3.0])

    def test_empty_rejected(self):
        with pytest.raises(PoolError):
            returns_to_go([], 0.95)

    def test_bad_gamma_rejected(self):
        with pytest.raises(PoolError):
            returns_to_go([1.0], 1.5)
        with pytest.raises(PoolError):
            returns_to_go([1.0], 0.0)


def _sim_records(seed=5, duration_us=1_500_000):
    return run_scenario(default_scenario(seed=seed, duration_us=duration_us)).records


class TestPoolConstruction:
    def test_build_from_records(self):
        recs = _sim_records()
        pool = build_pool_from_records([recs], gamma=0.95)
        assert len(pool.trajectories) == 1
        traj = pool.trajectories[0]
        assert len(traj) == len(recs)
        assert traj[-1].done == 1
        assert all(s.done == 0 for s in traj[:-1])
        for s in traj:
            assert len(s.state) == STATE_DIM
        pool.validate()

    def test_returns_consistent_with_rewards(self):
        recs = _sim_records()
        pool = build_pool_from_records([recs], gamma=0.95)
        traj = pool.trajectories[0]
        oracle = forward_sum_returns([s.reward for s in traj], 0.95)
        np.testing.assert_allclose([s.ret for s in traj], oracle, rtol=1e-9)

    def test_probabilities_rescaled_to_unit(self):
        recs = _sim_records()
        pool = build_pool_from_records([recs], gamma=0.95)
        for s in pool.all_steps():
            assert 0.0 <= s.state[2] <= 1.0
            assert s.state[4] >= 0.0  # accumulated: running sum, not bounded by 1

    def test_drops_delta_nonnegative_and_incremental(self):
        recs = _sim_records(seed=11, duration_us=4_000_000)
        pool = build_pool_from_records([recs], gamma=0.95)
        deltas = [s.state[6] for s in pool.all_steps()]
        assert all(d >= 0 for d in deltas)
        total_delta = sum(deltas)
        finals = {}
        firsts = {}
        for r in recs:
            finals[r.queue_type] = r.total_drops
            firsts.setdefault(r.queue_type, r.total_drops)
        assert total_delta == sum(finals[k] - firsts[k] for k in finals)

    def test_build_pool_from_files(self, tmp_path):
        paths = []
        for seed in (1, 2):
            recs = _sim_records(seed=seed)
            p = tmp_path / f"{seed}.klog"
            write_klog(recs, p)
            paths.append(str(p))
        pool = build_pool(paths, gamma=0.9)
        assert len(pool.trajectories) == 2
        assert pool.gamma == 0.9
        assert "source_logs" in pool.provenance
        assert "content_sha256" in pool.provenance

    def test_json_round_trip(self, tmp_path):
        pool = build_pool_from_records([_sim_records()], gamma=0.95)
        pool.feature_stats = compute_feature_stats(pool)
        path = tmp_path / "pool.json"
        pool.save(path)
        loaded = ExperiencePool.load(path)
        loaded.validate()
        assert loaded.gamma == pool.gamma
        assert loaded.num_steps() == pool.num_steps()
        first = pool.trajectories[0][0]
        lfirst = loaded.trajectories[0][0]
        assert lfirst.state == first.state and lfirst.ret == first.ret

    def test_validate_catches_corrupt_returns(self):
        pool = build_pool_from_records([_sim_records()], gamma=0.95)
        pool.trajectories[0].returns[0] += 1.0
        with pytest.raises(PoolError):
            pool.validate()

    def test_empty_records_rejected(self):
        with pytest.raises(PoolError):
            build_pool_from_records([[]], gamma=0.95)


class TestPoolFormat:
    """Format 2: uncompressed .npz of per-trajectory arrays plus a JSON header."""

    def _pool(self, tmp_path):
        paths = []
        for seed in (1, 2):
            path = tmp_path / f"{seed}.klog"
            write_klog(_sim_records(seed=seed), path)
            paths.append(path)
        pool = augment(build_pool(paths, gamma=0.9), jitter_range=4, dropout_prob=0.2, seed=1)
        pool.trajectories.append(build_pool_from_records([_sim_records(seed=3)], 0.9).trajectories[0])
        pool.feature_stats = compute_feature_stats(pool)
        return pool

    def test_round_trip_bit_identical(self, tmp_path):
        pool = self._pool(tmp_path)
        path = tmp_path / "pool.npz"
        pool.save(path)
        loaded = ExperiencePool.load(path)
        assert loaded.gamma == pool.gamma
        assert loaded.feature_stats == pool.feature_stats
        assert loaded.provenance == pool.provenance
        assert len(loaded.trajectories) == 3
        for a, b in zip(pool.trajectories, loaded.trajectories):
            for name in ("rewards", "states", "actions", "returns", "timesteps", "masked"):
                x, y = getattr(a, name), getattr(b, name)
                if x is None:
                    assert y is None, name
                else:
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        assert loaded.trajectories[2].timesteps is None
        assert list(loaded.all_steps()) == list(pool.all_steps())
        loaded.validate()

    def test_writes_exactly_the_given_path(self, tmp_path):
        pool = self._pool(tmp_path)
        for name in ("x.json", "y"):
            pool.save(str(tmp_path / name))
            assert (tmp_path / name).is_file()
            assert not (tmp_path / f"{name}.npz").exists()
            assert ExperiencePool.load(str(tmp_path / name)).num_steps() == pool.num_steps()

    def test_format_1_json_rejected_with_rebuild_hint(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format_version": 1, "gamma": 0.95, "trajectories": []}))
        with pytest.raises(PoolError, match="aqmlab build-pool"):
            ExperiencePool.load(path)

    def test_other_files_rejected(self, tmp_path):
        path = tmp_path / "x.klog"
        write_klog(_sim_records(), path)
        other = tmp_path / "other.npz"
        np.savez(other, weights=np.zeros(3))
        for bad in (path, other):
            with pytest.raises(PoolError, match="not an experience pool"):
                ExperiencePool.load(bad)


class TestTrajectory:
    def test_steps_are_read_only_row_views(self):
        traj = build_pool_from_records([_sim_records()], gamma=0.95).trajectories[0]
        step = traj[3]
        assert isinstance(step, Step)
        assert step.state == traj.states[3].tolist() and step.action == traj.actions[3]
        assert step.ret == traj.returns[3] and step.done == 0 and traj[-1].done == 1
        for name, value in (("ret", 1.0), ("action", 2), ("masked", True), ("state", [])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(step, name, value)
        assert list(traj)[3] == step and traj[1:3] == [traj[1], traj[2]]
        with pytest.raises(IndexError):
            traj[len(traj)]

    def test_built_from_columns(self):
        recs = _sim_records()
        cols = np.array(recs, dtype=np.int64)
        traj = pool_mod.trajectory_from_columns(cols, 0.95)
        f = {name: cols[:, i] for i, name in enumerate(KLOG_FIELDS)}
        np.testing.assert_array_equal(traj.actions, f["dequeue_action"])
        np.testing.assert_array_equal(traj.states[:, 2], f["drop_probability"] / 1e6)
        assert traj.rewards[0] == compute_reward(recs[0].packet_length,
                                                 recs[0].current_queue_delay // 1000)
        with pytest.raises(PoolError):
            pool_mod.trajectory_from_columns(cols[:, :23], 0.95)


class TestNormalization:
    def _pool(self):
        return build_pool_from_records([_sim_records()], gamma=0.95)

    def test_round_trip(self):
        pool = self._pool()
        stats = compute_feature_stats(pool)
        s = pool.trajectories[0][3].state
        back = denormalize_state(normalize_state(s, stats), stats)
        np.testing.assert_allclose(back, s, rtol=1e-9, atol=1e-9)

    def test_normalized_pool_standardized(self):
        pool = self._pool()
        normed, stats = normalize_states(pool)
        X = np.array([s.state for s in normed.all_steps()])
        live = ~np.array(stats["zero_variance"])
        np.testing.assert_allclose(X[:, live].mean(axis=0), 0, atol=1e-8)
        np.testing.assert_allclose(X[:, live].std(axis=0), 1, atol=1e-6)

    def test_zero_variance_flagged_and_mapped_to_zero(self):
        pool = ExperiencePool(gamma=0.95)
        rewards = [1.0] * 4
        pool.trajectories.append(Trajectory(
            rewards, [[5.0] + [float(i)] * 7 for i in range(4)], [0] * 4,
            returns_to_go(rewards, 0.95)))
        normed, stats = normalize_states(pool)
        assert stats["zero_variance"][0] is True or stats["zero_variance"][0] == 1
        assert all(s.state[0] == 0.0 for s in normed.all_steps())


class TestAugmentation:
    def _pool(self):
        return build_pool_from_records([_sim_records()], gamma=0.95)

    def test_identity_when_disabled(self):
        pool = self._pool()
        out = augment(pool, jitter_range=0, noise_sigma=0.0, dropout_prob=0.0)
        for a, b in zip(pool.all_steps(), out.all_steps()):
            assert a.state == b.state and a.action == b.action
            assert a.ret == b.ret and a.masked == b.masked

    def test_source_pool_untouched(self):
        pool = self._pool()
        before = [list(s.state) for s in pool.all_steps()]
        augment(pool, noise_sigma=1.0, dropout_prob=0.5, jitter_range=3, seed=1)
        after = [list(s.state) for s in pool.all_steps()]
        assert before == after

    def test_noise_scale_close_to_sigma(self):
        """Applied perturbations should have std within 20% of sigma=0.01."""
        pool = self._pool()
        out = augment(pool, noise_sigma=0.01, seed=2)
        diffs = (np.array([s.state for s in out.all_steps()])
                 - np.array([s.state for s in pool.all_steps()])).ravel()
        assert abs(diffs.std() - 0.01) < 0.002

    def test_actions_and_returns_never_touched(self):
        pool = self._pool()
        out = augment(pool, jitter_range=5, noise_sigma=0.5, dropout_prob=0.3, seed=3)
        for a, b in zip(pool.all_steps(), out.all_steps()):
            assert a.action == b.action
            assert a.ret == b.ret

    def test_dropout_marks_some_steps(self):
        pool = self._pool()
        out = augment(pool, dropout_prob=0.5, seed=4)
        frac = np.mean([s.masked for s in out.all_steps()])
        assert 0.3 < frac < 0.7

    def test_jitter_shifts_whole_trajectory_uniformly(self):
        pool = self._pool()
        out = augment(pool, jitter_range=10, seed=5)
        for traj in out.trajectories:
            ts = [s.timestep for s in traj]
            assert ts == list(range(ts[0], ts[0] + len(ts)))

    def test_boundary_validation(self):
        pool = self._pool()
        with pytest.raises(PoolError):
            augment(pool, noise_sigma=-0.1)
        with pytest.raises(PoolError):
            augment(pool, dropout_prob=1.5)
        with pytest.raises(PoolError):
            augment(pool, jitter_range=-1)

    def test_deterministic_per_seed(self):
        pool = self._pool()
        a = augment(pool, noise_sigma=0.2, seed=9)
        b = augment(pool, noise_sigma=0.2, seed=9)
        assert [s.state for s in a.all_steps()] == [s.state for s in b.all_steps()]
