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
    normalize, normalize_states, returns_to_go,
)
from aqmlab.simulator import KLOG_FIELDS, default_scenario, run_scenario, write_klog
from helpers import CORRUPT_POOL_EDITS, CORRUPT_POOL_IDS, all_steps, corrupt_pool_file


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

    def test_element_wise_over_arrays(self):
        """One definition serves a whole log: each element is the scalar
        reward, and one bad element fails the call."""
        lengths, delays = np.array([500, 1500, 1000, 64]), np.array([0, 2, 10, 3])
        got = compute_reward(lengths, delays)
        assert got.tolist() == [compute_reward(n, d) for n, d in zip(lengths, delays)]
        with pytest.raises(PoolError, match="packet_length"):
            compute_reward(np.array([1500, 0]), np.array([1, 1]))
        with pytest.raises(PoolError, match="queue_delay"):
            compute_reward(np.array([1500, 1500]), np.array([1, -1]))


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
        steps = list(traj)
        assert steps[-1].done == 1
        assert all(s.done == 0 for s in steps[:-1])
        for s in steps:
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
        for s in all_steps(pool):
            assert 0.0 <= s.state[2] <= 1.0
            assert s.state[4] >= 0.0  # accumulated: running sum, not bounded by 1

    def test_drops_delta_nonnegative_and_incremental(self):
        recs = _sim_records(seed=11, duration_us=4_000_000)
        pool = build_pool_from_records([recs], gamma=0.95)
        deltas = [s.state[6] for s in all_steps(pool)]
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

    def test_provenance_does_not_depend_on_the_log_directory(self, tmp_path):
        """Base names in sorted full-path order, and the content digest, so
        copies of the same logs in two directories give equal provenance."""
        pools = []
        for sub in ("a", "much/longer/dir"):
            d = tmp_path / sub
            d.mkdir(parents=True)
            paths = []
            for seed, name in ((1, "z.klog"), (2, "m.klog")):
                write_klog(_sim_records(seed=seed), d / name)
                paths.append(d / name)
            pools.append(build_pool(paths, gamma=0.9))
        assert pools[0].provenance == pools[1].provenance
        assert pools[0].provenance["source_logs"] == ["m.klog", "z.klog"]
        # full-path order, not base-name order: the trajectories follow it
        nested = tmp_path / "b"
        nested.mkdir()
        write_klog(_sim_records(seed=2), nested / "a.klog")
        p = build_pool([nested / "a.klog", tmp_path / "a" / "z.klog"], gamma=0.9)
        assert p.provenance["source_logs"] == ["z.klog", "a.klog"]

    def test_json_round_trip(self, tmp_path):
        pool = build_pool_from_records([_sim_records()], gamma=0.95)
        pool.feature_stats = compute_feature_stats(pool)
        path = tmp_path / "pool.json"
        pool.save(path)
        loaded = ExperiencePool.load(path)
        loaded.validate()
        assert loaded.gamma == pool.gamma
        assert loaded.num_steps() == pool.num_steps()
        first, lfirst = pool.trajectories[0], loaded.trajectories[0]
        assert lfirst.states[0].tolist() == first.states[0].tolist()
        assert lfirst.returns[0] == first.returns[0]

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
        pool = augment(build_pool(paths, gamma=0.9), dropout_prob=0.2, seed=1)
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
            for name in ("rewards", "states", "actions", "returns", "masked"):
                x, y = getattr(a, name), getattr(b, name)
                if x is None:
                    assert y is None, name
                else:
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        assert loaded.trajectories[2].masked is None
        assert list(all_steps(loaded)) == list(all_steps(pool))
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

    def _resave(self, tmp_path, edit):
        """The pool of `_pool`, saved, with its arrays or header edited."""
        path = tmp_path / "pool.npz"
        self._pool(tmp_path).save(path)
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        meta = json.loads(arrays["meta"].tobytes().decode("utf-8"))
        edit(arrays, meta)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        return path

    def test_timestep_column_rejected_with_rebuild_hint(self, tmp_path):
        """A pool built with the removed --jitter stored its shifted
        timesteps; the step index is now the only timestep."""
        def add_timesteps(arrays, meta):
            arrays["t0_timesteps"] = np.arange(len(arrays["t0_rewards"])) + 7
        with pytest.raises(PoolError, match="without --jitter"):
            ExperiencePool.load(self._resave(tmp_path, add_timesteps))

    def test_missing_array_rejected(self, tmp_path):
        with pytest.raises(PoolError, match="t1_returns"):
            ExperiencePool.load(self._resave(tmp_path, lambda arrays, meta: arrays.pop("t1_returns")))

    def test_missing_trajectory_count_rejected(self, tmp_path):
        with pytest.raises(PoolError, match="trajectory count"):
            ExperiencePool.load(self._resave(tmp_path, lambda arrays, meta: meta.pop("trajectories")))

    @pytest.mark.parametrize("name,index,edit,message", CORRUPT_POOL_EDITS,
                             ids=CORRUPT_POOL_IDS)
    def test_corrupt_values_rejected(self, tmp_path, name, index, edit, message):
        """`load` validates what it read, not only the file's structure."""
        path = tmp_path / "pool.npz"
        self._pool(tmp_path).save(path)
        bad = corrupt_pool_file(path, tmp_path / "bad.npz", name, index, edit)
        with pytest.raises(PoolError, match=message):
            ExperiencePool.load(bad)

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
        steps = list(traj)
        step = steps[3]
        assert isinstance(step, Step) and len(steps) == len(traj)
        assert step.state == traj.states[3].tolist() and step.action == traj.actions[3]
        assert step.ret == traj.returns[3] and step.done == 0 and steps[-1].done == 1
        for name, value in (("ret", 1.0), ("action", 2), ("masked", True), ("state", [])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(step, name, value)

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
        s = pool.trajectories[0].states[3]
        live = ~np.array(stats["zero_variance"])
        back = normalize(s, stats) * stats["std"] + stats["mean"]
        np.testing.assert_allclose(back[live], s[live], rtol=1e-9, atol=1e-9)
        assert (normalize(s, stats)[~live] == 0.0).all()

    def test_one_row_as_the_pool_normalizes_it(self):
        pool = self._pool()
        normed, stats = normalize_states(pool)
        for i in (0, 3, len(pool.trajectories[0]) - 1):
            row = normalize(pool.trajectories[0].states[i], stats)
            assert row.tobytes() == normed.trajectories[0].states[i].tobytes()

    def test_normalized_pool_standardized(self):
        pool = self._pool()
        normed, stats = normalize_states(pool)
        X = np.array([s.state for s in all_steps(normed)])
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
        assert all(s.state[0] == 0.0 for s in all_steps(normed))


class TestAugmentation:
    def _pool(self):
        return build_pool_from_records([_sim_records()], gamma=0.95)

    def test_identity_when_disabled(self):
        pool = self._pool()
        out = augment(pool, noise_sigma=0.0, dropout_prob=0.0)
        for a, b in zip(all_steps(pool), all_steps(out)):
            assert a.state == b.state and a.action == b.action
            assert a.ret == b.ret and a.masked == b.masked

    def test_source_pool_untouched(self):
        pool = self._pool()
        before = [list(s.state) for s in all_steps(pool)]
        augment(pool, noise_sigma=1.0, dropout_prob=0.5, seed=1)
        after = [list(s.state) for s in all_steps(pool)]
        assert before == after

    def test_noise_is_sigma_times_each_features_std(self):
        """Each feature's perturbation has a std within 10% of sigma times
        that feature's std over the input pool, on features whose stds span
        five orders of magnitude; a zero-variance feature gets no noise."""
        pool = self._pool()
        stats = compute_feature_stats(pool)
        std, constant = np.array(stats["std"]), np.array(stats["zero_variance"])
        assert constant.any() and std[~constant].max() > 1e4 * std[~constant].min()
        out = augment(pool, noise_sigma=0.5, seed=2)
        diffs = (np.array([s.state for s in all_steps(out)])
                 - np.array([s.state for s in all_steps(pool)]))
        np.testing.assert_allclose(diffs[:, ~constant].std(axis=0), 0.5 * std[~constant],
                                   rtol=0.1)
        assert (diffs[:, constant] == 0.0).all()

    def test_actions_and_returns_never_touched(self):
        pool = self._pool()
        out = augment(pool, noise_sigma=0.5, dropout_prob=0.3, seed=3)
        for a, b in zip(all_steps(pool), all_steps(out)):
            assert a.action == b.action
            assert a.ret == b.ret

    def test_dropout_marks_some_steps(self):
        pool = self._pool()
        out = augment(pool, dropout_prob=0.5, seed=4)
        frac = np.mean([s.masked for s in all_steps(out)])
        assert 0.3 < frac < 0.7

    def test_boundary_validation(self):
        pool = self._pool()
        with pytest.raises(PoolError):
            augment(pool, noise_sigma=-0.1)
        with pytest.raises(PoolError):
            augment(pool, dropout_prob=1.5)

    def test_deterministic_per_seed(self):
        pool = self._pool()
        a = augment(pool, noise_sigma=0.2, seed=9)
        b = augment(pool, noise_sigma=0.2, seed=9)
        assert [s.state for s in all_steps(a)] == [s.state for s in all_steps(b)]
