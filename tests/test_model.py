"""Policy model tests: shapes, token layout, causality, LoRA, checkpoints,
the fused state encoder and inference without a graph."""

import json
import pathlib

import numpy as np
import pytest

from aqmlab import tensor as T
from aqmlab.features import STATE_FEATURES
from aqmlab.model import (
    CHECKPOINT_VERSION, TOKENS_PER_STEP, CheckpointError, ModelConfig, PolicyModel,
    load_checkpoint, save_checkpoint,
)
from aqmlab.tensor import Tensor

# A checkpoint in the version-1 layout (one enc{i}_* / embed{i}_* set per
# feature): PolicyModel(ModelConfig(feature_dim=4, embed_size=8, n_layers=1,
# n_heads=2, context_window=4, max_timestep=8, dtype="float64"), seed=7),
# untrained, saved by the v1 code.  extra["probe"] holds a fixed input and the
# logits the v1 forward pass gave for it.
V1_CHECKPOINT = pathlib.Path(__file__).parent / "data" / "policy_v1.npz"


def small_config(**over):
    base = dict(feature_dim=4, embed_size=16, n_layers=2, n_heads=2,
                context_window=6, max_timestep=64, dtype="float64")
    base.update(over)
    return ModelConfig(**base)


def rand_batch(cfg, b=3, w=None, seed=0):
    w = w or cfg.context_window
    rng = np.random.default_rng(seed)
    R = rng.normal(size=(b, w))
    S = rng.normal(size=(b, w, cfg.state_dim))
    A = rng.integers(0, cfg.action_count, size=(b, w)).astype(float)
    ts = np.tile(np.arange(w), (b, 1))
    return R, S, A, ts


class TestShapes:
    def test_forward_logits_shape(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A, ts = rand_batch(cfg)
        out = m.forward(R, S, A, ts)
        assert out.shape == (3, cfg.context_window, cfg.action_count)

    def test_sequence_has_ten_tokens_per_step(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A, ts = rand_batch(cfg, w=4)
        x, raw = m.build_sequence(R, S, A, ts)
        assert x.shape == (3, 4 * TOKENS_PER_STEP, cfg.embed_size)
        assert raw.shape == x.shape
        assert TOKENS_PER_STEP == 10  # return + 8 state features + action

    def test_shorter_window_accepted(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A, ts = rand_batch(cfg, w=2)
        assert m.forward(R, S, A, ts).shape == (3, 2, 3)

    def test_forward_count_increments(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A, ts = rand_batch(cfg)
        n0 = m.forward_count
        m.forward(R, S, A, ts)
        m.forward(R, S, A, ts)
        assert m.forward_count == n0 + 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(embed_size=15)  # not divisible by heads
        with pytest.raises(ValueError):
            small_config(action_count=4)

    def test_predict_returns_distribution(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A, ts = rand_batch(cfg)
        dists = m.predict(R, S, A, ts)
        assert len(dists) == 3
        for d in dists:
            assert d.action in (0, 1, 2)
            np.testing.assert_allclose(d.probabilities.sum(), 1.0, atol=1e-8)


class TestTimeEmbedding:
    def test_timestep_changes_output(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A, ts = rand_batch(cfg)
        y1 = m.forward(R, S, A, ts).data
        y2 = m.forward(R, S, A, ts + 5).data
        assert np.abs(y1 - y2).max() > 0

    def test_zero_time_table_removes_time_dependence(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        m.params["W_time"].data[:] = 0.0
        R, S, A, ts = rand_batch(cfg)
        y1 = m.forward(R, S, A, ts).data
        y2 = m.forward(R, S, A, ts + 7).data
        np.testing.assert_array_equal(y1, y2)

    def test_timestep_clipped_to_table(self):
        cfg = small_config(max_timestep=8)
        m = PolicyModel(cfg, seed=0)
        R, S, A, ts = rand_batch(cfg)
        m.forward(R, S, A, ts + 10_000)  # must not raise


class TestCausality:
    """Prediction at step t must be a function of history <= t only,
    excluding step t's own action."""

    def _logits(self, m, R, S, A, ts):
        return m.forward(R, S, A, ts).data

    def test_future_state_cannot_affect_past(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A, ts = rand_batch(cfg)
        base = self._logits(m, R, S, A, ts)
        S2 = S.copy()
        S2[:, 4:, :] += 100.0
        pert = self._logits(m, R, S2, A, ts)
        np.testing.assert_array_equal(base[:, :4], pert[:, :4])

    def test_future_action_cannot_affect_past(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A, ts = rand_batch(cfg)
        base = self._logits(m, R, S, A, ts)
        A2 = A.copy()
        A2[:, 5] = (A2[:, 5] + 1) % 3
        pert = self._logits(m, R, S, A2, ts)
        np.testing.assert_array_equal(base[:, :5], pert[:, :5])

    def test_future_return_cannot_affect_past(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A, ts = rand_batch(cfg)
        base = self._logits(m, R, S, A, ts)
        R2 = R.copy()
        R2[:, 3:] -= 42.0
        pert = self._logits(m, R2, S, A, ts)
        np.testing.assert_array_equal(base[:, :3], pert[:, :3])

    def test_own_step_action_token_excluded(self):
        """The step-t prediction is read from the last state token, one
        position before the action token, so changing a_t must not move
        the step-t logits."""
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A, ts = rand_batch(cfg)
        base = self._logits(m, R, S, A, ts)
        A2 = A.copy()
        A2[:, -1] = (A2[:, -1] + 1) % 3
        pert = self._logits(m, R, S, A2, ts)
        np.testing.assert_array_equal(base[:, -1], pert[:, -1])

    def test_past_state_does_affect_present(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A, ts = rand_batch(cfg)
        base = self._logits(m, R, S, A, ts)
        S2 = S.copy()
        S2[:, 0, :] += 5.0
        pert = self._logits(m, R, S2, A, ts)
        assert np.abs(base[:, -1] - pert[:, -1]).max() > 0

    def test_pad_mask_keeps_logits_finite(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A, ts = rand_batch(cfg)
        pad = np.zeros((3, cfg.context_window))
        pad[:, -2:] = 1.0  # only last two steps real
        out = m.forward(R, S, A, ts, pad_mask=pad).data
        assert np.isfinite(out).all()

    def test_padded_history_matches_short_history(self):
        """Left-padded forward on 2 real steps == forward on just those steps."""
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A, ts = rand_batch(cfg, b=2, w=cfg.context_window)
        w = cfg.context_window
        pad = np.zeros((2, w)); pad[:, -2:] = 1.0
        R2 = np.zeros_like(R); S2 = np.zeros_like(S); A2 = np.zeros_like(A)
        ts2 = np.zeros_like(ts)
        R2[:, -2:] = R[:, :2]; S2[:, -2:] = S[:, :2]; A2[:, -2:] = A[:, :2]
        ts2[:, -2:] = ts[:, :2]
        full = m.forward(R2, S2, A2, ts2, pad_mask=pad).data[:, -2:]
        short = m.forward(R[:, :2], S[:, :2], A[:, :2], ts[:, :2]).data
        np.testing.assert_allclose(full, short, atol=1e-10)


class TestLora:
    def _model(self):
        m = PolicyModel(small_config(), seed=0)
        return m

    def test_b_zero_init_preserves_base_function(self):
        m = self._model()
        R, S, A, ts = rand_batch(m.config)
        before = m.forward(R, S, A, ts).data
        m.enable_lora(rank=2, seed=3)
        after = m.forward(R, S, A, ts).data
        np.testing.assert_array_equal(before, after)

    def test_backbone_frozen_after_enable(self):
        m = self._model()
        m.enable_lora(rank=2)
        for name, p in m.params.items():
            if name.startswith("blk"):
                if "lora" in name:
                    assert p.requires_grad
                else:
                    assert not p.requires_grad

    def test_trainable_count_formula(self):
        m = self._model()
        full = m.trainable_count()
        r = 2
        m.enable_lora(rank=r)
        d = m.config.embed_size
        lora = m.config.n_layers * 2 * r * (d + d)  # q and v adapters
        non_block = sum(p.data.size for n, p in m.params.items()
                        if not n.startswith("blk"))
        assert m.trainable_count() == non_block + lora
        assert m.trainable_count() < full

    def test_adapters_receive_gradients(self):
        m = self._model()
        m.enable_lora(rank=2)
        R, S, A, ts = rand_batch(m.config)
        tgt = np.zeros(3 * m.config.context_window, dtype=int)
        loss = T.cross_entropy(
            m.forward(R, S, A, ts).reshape(3 * m.config.context_window, 3), tgt)
        loss.backward()
        for name in m.lora_param_names():
            if name.endswith("_lora_B"):
                assert m.params[name].grad is not None
                assert np.abs(m.params[name].grad).max() > 0
        for name, p in m.params.items():
            if name.startswith("blk") and "lora" not in name:
                assert p.grad is None

    def test_merge_matches_factored_model(self):
        m = self._model()
        m.enable_lora(rank=2, seed=5)
        # make the adapters non-trivial
        for name in m.lora_param_names():
            if name.endswith("_lora_B"):
                m.params[name].data += 0.05
        R, S, A, ts = rand_batch(m.config)
        factored = m.forward(R, S, A, ts).data
        merged = m.merged_model()
        out = merged.forward(R, S, A, ts).data
        np.testing.assert_allclose(out, factored, atol=1e-12)
        assert not merged.lora_enabled

    def test_rank_warning(self):
        m = self._model()
        with pytest.warns(UserWarning):
            m.enable_lora(rank=m.config.embed_size)

    def test_digest_distinguishes_adapters(self):
        m = self._model()
        m.enable_lora(rank=2)
        d1 = m.parameter_digest(m.lora_param_names())
        m.params[m.lora_param_names()[0]].data += 1.0
        assert m.parameter_digest(m.lora_param_names()) != d1


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        m = PolicyModel(small_config(), seed=2)
        path = tmp_path / "m.npz"
        stats = {"mean": [0.0] * 8, "std": [1.0] * 8, "zero_variance": [False] * 8}
        save_checkpoint(m, path, feature_stats=stats, extra={"k": 1})
        m2, stats2, extra = load_checkpoint(path)
        assert stats2 == stats and extra == {"k": 1}
        for name, p in m.params.items():
            np.testing.assert_array_equal(p.data, m2.params[name].data)
        R, S, A, ts = rand_batch(m.config)
        np.testing.assert_array_equal(m.forward(R, S, A, ts).data,
                                      m2.forward(R, S, A, ts).data)

    def test_lora_state_round_trips(self, tmp_path):
        m = PolicyModel(small_config(), seed=2)
        m.enable_lora(rank=2, seed=4)
        path = tmp_path / "m.npz"
        save_checkpoint(m, path)
        m2, _, _ = load_checkpoint(path)
        assert m2.lora_enabled
        assert sorted(m2.lora_param_names()) == sorted(m.lora_param_names())
        for name, p in m.params.items():
            assert p.requires_grad == m2.params[name].requires_grad

    def test_truncated_file_raises(self, tmp_path):
        m = PolicyModel(small_config(), seed=2)
        path = tmp_path / "m.npz"
        save_checkpoint(m, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "x.npz"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def bench_config(**over):
    """The CLI default model (one layer, embed 32, window 8)."""
    base = dict(feature_dim=8, embed_size=32, n_layers=1, n_heads=2, context_window=8)
    base.update(over)
    return ModelConfig(**base)


def reference_encode_state(model, states):
    """The per-feature encoder the fused one replaced, built from the stacked
    parameters: a linear map per scalar feature; per conv feature, one causal
    T.conv1d per kernel size, concatenated and projected; then a linear
    embedding per feature."""
    cfg, p = model.config, model.params
    states = np.asarray(states, dtype=cfg.np_dtype)
    b, w, _ = states.shape
    fd, nk = cfg.feature_dim, len(cfg.conv_kernel_sizes)

    def row(name, r):
        return T.select_positions(p[name], [r], axis=0)

    mask = cfg.scalar_feature_mask()
    outs, si, ci = [], 0, 0
    for i in range(cfg.state_dim):
        col = Tensor(states[:, :, i:i + 1])
        if mask[i]:
            feat = T.linear(col, row("enc_scalar_W", si), row("enc_scalar_b", si).reshape(fd))
            si += 1
        else:
            seq = col.reshape(b, 1, w)
            convs = [T.conv1d(seq, row(f"enc_conv{k}_K", ci).transpose(2, 0, 1),
                              row(f"enc_conv{k}_b", ci).reshape(fd), padding="causal")
                     for k in cfg.conv_kernel_sizes]
            cat = T.concat(convs, axis=1).transpose(0, 2, 1)
            feat = T.linear(cat, row("enc_proj_W", ci).reshape(nk * fd, fd),
                            row("enc_proj_b", ci).reshape(fd))
            ci += 1
        d = cfg.embed_size
        outs.append(T.linear(feat, row("embed_W", i).reshape(fd, d), row("embed_b", i).reshape(d)))
    return T.concat([o.reshape(b, w, 1, d) for o in outs], axis=2)


def loss_and_grads(model, batch, pad):
    R, S, A, ts = batch
    T.zero_grads(model.params.values())
    logits = model.forward(R, S, A, ts, pad_mask=pad)
    b, w, c = logits.shape
    tgt = np.arange(b * w) % c
    T.cross_entropy(logits.reshape(b * w, c), tgt).backward()
    return logits.data, {n: p.grad for n, p in model.params.items()}


class TestFusedEncoder:
    @pytest.mark.parametrize("dtype,tol", [("float32", 1e-5), ("float64", 1e-12)])
    @pytest.mark.parametrize("conv_features", [
        None, ("current_queue_delay",), ("queue_type", "packet_length", "drop_probability"),
        (), STATE_FEATURES])
    def test_matches_per_feature_reference(self, dtype, tol, conv_features):
        over = {"dtype": dtype}
        if conv_features is not None:
            over["conv_features"] = conv_features
        cfg = bench_config(**over)
        fused, ref = PolicyModel(cfg, seed=4), PolicyModel(cfg, seed=4)
        ref.encode_state = lambda states: reference_encode_state(ref, states)
        batch = rand_batch(cfg, b=3, seed=5)
        pad = np.ones((3, cfg.context_window))
        pad[1, :3] = 0.0
        y_f, g_f = loss_and_grads(fused, batch, pad)
        y_r, g_r = loss_and_grads(ref, batch, pad)
        np.testing.assert_allclose(y_f, y_r, rtol=0, atol=tol)
        for name in g_r:
            np.testing.assert_allclose(g_f[name], g_r[name], rtol=0, atol=tol, err_msg=name)

    def test_stacked_parameter_shapes(self):
        cfg = bench_config()
        m = PolicyModel(cfg, seed=0)
        fd, d, nk = cfg.feature_dim, cfg.embed_size, len(cfg.conv_kernel_sizes)
        nc = len(cfg.conv_features)
        shapes = {n: p.shape for n, p in m.params.items() if n.startswith(("enc", "embed"))}
        want = {"enc_scalar_W": (8 - nc, fd), "enc_scalar_b": (8 - nc, fd),
                "enc_proj_W": (nc, nk * fd, fd), "enc_proj_b": (nc, fd),
                "embed_W": (8, fd, d), "embed_b": (8, d)}
        for k in cfg.conv_kernel_sizes:
            want[f"enc_conv{k}_K"] = (nc, k, fd)
            want[f"enc_conv{k}_b"] = (nc, fd)
        assert shapes == want

    @pytest.mark.parametrize("b", [1, 32])
    def test_graph_size_per_forward(self, b, monkeypatch):
        cfg = bench_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A, ts = rand_batch(cfg, b=b)
        built = []
        init = Tensor.__init__

        def counting_init(obj, *args, **kwargs):
            built.append(1)
            init(obj, *args, **kwargs)
        monkeypatch.setattr(Tensor, "__init__", counting_init)
        m.forward(R, S, A, ts, pad_mask=np.ones((b, cfg.context_window)))
        assert len(built) <= 80


class TestInferenceWithoutGraph:
    def test_predict_leaves_no_graph(self):
        cfg = bench_config()
        m = PolicyModel(cfg, seed=0)
        seen = []
        forward = m.forward
        m.forward = lambda *a, **k: seen.append(forward(*a, **k)) or seen[-1]
        m.predict(*rand_batch(cfg, b=1))
        assert len(seen) == 1
        assert seen[0]._parents == () and not seen[0].requires_grad

    def test_training_step_after_predict_unchanged(self):
        cfg = bench_config()
        batch = rand_batch(cfg, b=4, seed=1)
        pad = np.ones((4, cfg.context_window))
        plain = PolicyModel(cfg, seed=2)
        after = PolicyModel(cfg, seed=2)
        after.predict(*rand_batch(cfg, b=1, seed=9))
        y_p, g_p = loss_and_grads(plain, batch, pad)
        y_a, g_a = loss_and_grads(after, batch, pad)
        np.testing.assert_array_equal(y_p, y_a)
        for name in g_p:
            np.testing.assert_array_equal(g_p[name], g_a[name], err_msg=name)


class TestCheckpointV1:
    def test_fixture_is_version_1(self):
        with np.load(V1_CHECKPOINT) as z:
            meta = json.loads(bytes(z["__meta__"]).decode())
            assert meta["version"] == 1 and "param::enc0_W" in z.files
        assert CHECKPOINT_VERSION == 2

    def test_v1_checkpoint_reproduces_its_logits(self):
        m, stats, extra = load_checkpoint(V1_CHECKPOINT)
        probe = extra["probe"]
        logits = m.forward(probe["returns"], np.array(probe["states"]), probe["actions"],
                           np.array(probe["timesteps"]), pad_mask=np.array(probe["pad_mask"]))
        np.testing.assert_allclose(logits.data, np.array(probe["logits"]), rtol=0, atol=1e-6)
        assert stats is not None

    def test_initial_parameters_unchanged_by_stacking(self):
        """A seed draws its random numbers in the v1 order."""
        loaded, _, extra = load_checkpoint(V1_CHECKPOINT)
        fresh = PolicyModel(loaded.config, seed=extra["seed"])
        assert list(fresh.params) == list(loaded.params)
        for name, p in fresh.params.items():
            assert p.data.dtype == loaded.params[name].data.dtype, name
            assert p.data.tobytes() == loaded.params[name].data.tobytes(), name
            assert p.data.flags.c_contiguous, name

    def test_v1_resaves_as_current_version(self, tmp_path):
        m, stats, extra = load_checkpoint(V1_CHECKPOINT)
        path = tmp_path / "v2.npz"
        save_checkpoint(m, path, feature_stats=stats, extra=extra)
        with np.load(path) as z:
            assert json.loads(bytes(z["__meta__"]).decode())["version"] == CHECKPOINT_VERSION
            assert "param::embed_W" in z.files and "param::enc0_W" not in z.files
        m2, _, _ = load_checkpoint(path)
        for name, p in m.params.items():
            np.testing.assert_array_equal(p.data, m2.params[name].data)

    def test_unknown_version_rejected(self, tmp_path):
        m = PolicyModel(small_config(), seed=0)
        path = tmp_path / "v9.npz"
        save_checkpoint(m, path)
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        meta["version"] = 9
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="version 9"):
            load_checkpoint(path)
