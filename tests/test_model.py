"""Policy model tests: shapes, token layout, causality, LoRA, checkpoints,
the fused state encoder, inference without a graph and the plain-numpy
inference policy."""

import json

import numpy as np
import pytest

from aqmlab import tensor as T
from aqmlab import model as model_mod
from aqmlab.features import ACTION_COUNT, CONV_FEATURES, STATE_DIM, STATE_FEATURES
from aqmlab.model import (
    CHECKPOINT_VERSION, CONV_WIDTH, TOKENS_PER_STEP, CheckpointError, InferencePolicy,
    ModelConfig, PolicyModel, load_checkpoint, save_checkpoint,
)
from aqmlab.pool import ExperiencePool, Trajectory
from aqmlab.tensor import Tensor
from aqmlab.training import WindowDataset
from helpers import block_diagonal_tokens


def small_config(**over):
    base = dict(feature_dim=4, embed_size=16, n_layers=2, n_heads=2,
                context_window=6, dtype="float64")
    base.update(over)
    return ModelConfig(**base)


def rand_batch(cfg, b=3, w=None, seed=0):
    """A random batch (returns, states, actions) of b windows of w steps."""
    w = w or cfg.context_window
    rng = np.random.default_rng(seed)
    R = rng.normal(size=(b, w))
    S = rng.normal(size=(b, w, STATE_DIM))
    A = rng.integers(0, ACTION_COUNT, size=(b, w)).astype(float)
    return R, S, A


class TestShapes:
    def test_forward_logits_shape(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A = rand_batch(cfg)
        out = m.forward(R, S, A)
        assert out.shape == (3, cfg.context_window, ACTION_COUNT)

    def test_sequence_has_ten_tokens_per_step(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A = rand_batch(cfg, w=4)
        x, raw = m.build_sequence(R, S, A)
        assert x.shape == (3, 4 * TOKENS_PER_STEP, cfg.embed_size)
        assert raw.shape == x.shape
        assert TOKENS_PER_STEP == 10  # return + 8 state features + action

    def test_shorter_window_accepted(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A = rand_batch(cfg, w=2)
        assert m.forward(R, S, A).shape == (3, 2, 3)

    def test_forward_count_increments(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A = rand_batch(cfg)
        n0 = m.forward_count
        m.forward(R, S, A)
        m.forward(R, S, A)
        assert m.forward_count == n0 + 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(embed_size=15)  # not divisible by heads
        with pytest.raises(ValueError):
            small_config(context_window=0)
        for field, value in (("feature_dim", 0), ("embed_size", 0), ("n_heads", 0),
                             ("n_heads", -2), ("n_layers", -1)):
            with pytest.raises(ValueError, match=f"{field} must be >= "):
                small_config(**{field: value})
        with pytest.raises(ValueError, match="dtype must be a floating type"):
            small_config(dtype="int32")
        assert small_config(n_layers=0).n_layers == 0

    def test_predict_returns_the_newest_logits(self):
        """predict is the forward pass's newest step, bit for bit."""
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A = rand_batch(cfg)
        logits = m.predict(R, S, A)
        want = m.forward(R, S, A).data[:, -1]
        assert logits.shape == (3, 3) and logits.dtype == want.dtype
        assert logits.tobytes() == want.tobytes()


class TestNoPositionInput:
    """The model has no position input: a window's logits depend on its
    contents alone, not on where in its trajectory it lies."""

    @pytest.mark.parametrize("n_layers", [0, 1, 2])
    def test_same_window_at_two_offsets_gives_the_same_logits(self, n_layers):
        """One trajectory holds the same w steps at steps 0..w-1 and at
        30..29+w.  `WindowDataset.gather` gives the two windows timesteps 30
        apart, and both `PolicyModel.forward` (passed those timesteps) and
        `InferencePolicy.logits` give them the same newest logits, bit for
        bit."""
        cfg = bench_config(n_layers=n_layers)
        m, w = perturbed_model(cfg), cfg.context_window
        rng = np.random.default_rng(4)
        returns, states = rng.normal(size=40), rng.normal(size=(40, STATE_DIM))
        actions = rng.integers(0, ACTION_COUNT, size=40)
        for column in (returns, states, actions):
            column[30:30 + w] = column[:w]
        pool = ExperiencePool(trajectories=[Trajectory(np.ones(40), states, actions, returns)])
        R, S, A, _, ts, mask = WindowDataset(pool, w).gather([(0, w - 1), (0, 29 + w)])
        assert (ts[1] - ts[0] == 30).all() and (mask > 0).all()
        forward = [m.forward(R[i:i + 1], S[i:i + 1], A[i:i + 1], ts[i:i + 1]).data[0, -1]
                   for i in range(2)]
        assert forward[0].tobytes() == forward[1].tobytes()
        policy = InferencePolicy(m)
        snapshot = [policy.logits(R[i], S[i], A[i, :-1]) for i in range(2)]
        assert snapshot[0].tobytes() == snapshot[1].tobytes()
        np.testing.assert_allclose(snapshot[0], forward[0], rtol=0, atol=1e-5)

    @pytest.mark.parametrize("seed", [0, 5, 7])
    def test_no_token_of_a_zero_input_is_a_zero_row(self, seed):
        """With no time row added, a token whose input is 0 (action 0, a
        zero-variance feature, a zero return) is its type's bias alone; drawn,
        not zero, its centred mean square stays far above LN_EPS, so the
        pre-LN does not scale its gradient by 1/sqrt(LN_EPS)."""
        m = PolicyModel(ModelConfig(), seed=seed)
        tokens = model_mod.token_sequence(m.params, np.zeros((1, 2)),
                                          np.zeros((1, 2, STATE_DIM)), np.zeros((1, 2))).data
        centred = tokens - tokens.mean(axis=-1, keepdims=True)
        assert (np.square(centred).mean(axis=-1) > 10 * T.LN_EPS).all()

    def test_the_cli_default_model_has_no_time_table(self):
        """No parameter grows with episode length: the CLI-default model has
        15,315 parameters, and LoRA at its default rank trains 3,315 of
        15,827."""
        m = PolicyModel(ModelConfig(), seed=0)
        assert sum(p.data.size for p in m.params.values()) == m.trainable_count() == 15_315
        assert not any("time" in name for name in m.params)
        m.enable_lora()
        assert (m.trainable_count(), sum(p.data.size for p in m.params.values())) == (3_315, 15_827)


class TestCausality:
    """Prediction at step t must be a function of history <= t only,
    excluding step t's own action."""

    def _logits(self, m, R, S, A):
        return m.forward(R, S, A).data

    def test_future_state_cannot_affect_past(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A = rand_batch(cfg)
        base = self._logits(m, R, S, A)
        S2 = S.copy()
        S2[:, 4:, :] += 100.0
        pert = self._logits(m, R, S2, A)
        np.testing.assert_array_equal(base[:, :4], pert[:, :4])

    def test_future_action_cannot_affect_past(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A = rand_batch(cfg)
        base = self._logits(m, R, S, A)
        A2 = A.copy()
        A2[:, 5] = (A2[:, 5] + 1) % 3
        pert = self._logits(m, R, S, A2)
        np.testing.assert_array_equal(base[:, :5], pert[:, :5])

    def test_future_return_cannot_affect_past(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A = rand_batch(cfg)
        base = self._logits(m, R, S, A)
        R2 = R.copy()
        R2[:, 3:] -= 42.0
        pert = self._logits(m, R2, S, A)
        np.testing.assert_array_equal(base[:, :3], pert[:, :3])

    def test_own_step_action_token_excluded(self):
        """The step-t prediction is read from the last state token, one
        position before the action token, so changing a_t must not move
        the step-t logits."""
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A = rand_batch(cfg)
        base = self._logits(m, R, S, A)
        A2 = A.copy()
        A2[:, -1] = (A2[:, -1] + 1) % 3
        pert = self._logits(m, R, S, A2)
        np.testing.assert_array_equal(base[:, -1], pert[:, -1])

    def test_past_state_does_affect_present(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A = rand_batch(cfg)
        base = self._logits(m, R, S, A)
        S2 = S.copy()
        S2[:, 0, :] += 5.0
        pert = self._logits(m, R, S2, A)
        assert np.abs(base[:, -1] - pert[:, -1]).max() > 0

    def test_pad_mask_keeps_logits_finite(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A = rand_batch(cfg)
        pad = np.zeros((3, cfg.context_window))
        pad[:, -2:] = 1.0  # only last two steps real
        out = m.forward(R, S, A, pad_mask=pad).data
        assert np.isfinite(out).all()

    def test_padded_history_matches_short_history(self):
        """Left-padded forward on 2 real steps == forward on just those steps."""
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A = rand_batch(cfg, b=2, w=cfg.context_window)
        w = cfg.context_window
        pad = np.zeros((2, w)); pad[:, -2:] = 1.0
        R2 = np.zeros_like(R); S2 = np.zeros_like(S); A2 = np.zeros_like(A)
        R2[:, -2:] = R[:, :2]; S2[:, -2:] = S[:, :2]; A2[:, -2:] = A[:, :2]
        full = m.forward(R2, S2, A2, pad_mask=pad).data[:, -2:]
        short = m.forward(R[:, :2], S[:, :2], A[:, :2]).data
        np.testing.assert_allclose(full, short, atol=1e-10)


class TestLora:
    def _model(self):
        m = PolicyModel(small_config(), seed=0)
        return m

    def test_b_zero_init_preserves_base_function(self):
        m = self._model()
        R, S, A = rand_batch(m.config)
        before = m.forward(R, S, A).data
        m.enable_lora(rank=2, seed=3)
        after = m.forward(R, S, A).data
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
        R, S, A = rand_batch(m.config)
        tgt = np.zeros(3 * m.config.context_window, dtype=int)
        loss = T.cross_entropy(
            m.forward(R, S, A).reshape(3 * m.config.context_window, 3), tgt)
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
        R, S, A = rand_batch(m.config)
        factored = m.forward(R, S, A).data
        merged = m.merged_model()
        out = merged.forward(R, S, A).data
        np.testing.assert_allclose(out, factored, atol=1e-12)
        assert merged.lora_rank is None

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
        R, S, A = rand_batch(m.config)
        np.testing.assert_array_equal(m.forward(R, S, A).data,
                                      m2.forward(R, S, A).data)

    def test_lora_state_round_trips(self, tmp_path):
        m = PolicyModel(small_config(), seed=2)
        m.enable_lora(rank=2, seed=4)
        path = tmp_path / "m.npz"
        save_checkpoint(m, path)
        m2, _, _ = load_checkpoint(path)
        assert m2.lora_rank == m.lora_rank == 2
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

    @pytest.mark.parametrize("name,edit", [("embed_W", lambda a: a[:5]),
                                           ("head_W", lambda a: a.astype(np.float32))])
    def test_parameter_unlike_the_config_rejected(self, tmp_path, name, edit):
        """A stored parameter whose shape or dtype the config does not build
        is named at load, not met later as an IndexError."""
        path = tmp_path / "m.npz"
        save_checkpoint(PolicyModel(small_config(), seed=2), path)
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        arrays[f"param::{name}"] = edit(arrays[f"param::{name}"])
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match=f"parameter {name} is"):
            load_checkpoint(path)

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "x.npz"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_meta_holds_no_frozen_list(self, tmp_path):
        """enable_lora freezes the backbone again at load, so the meta does
        not list the frozen parameters a second time, and it holds LoRA's
        rank once, outside the config."""
        m = PolicyModel(small_config(), seed=2)
        m.enable_lora(rank=2)
        path = tmp_path / "m.npz"
        save_checkpoint(m, path)
        meta = saved_meta(path)
        assert meta["version"] == CHECKPOINT_VERSION == 7
        assert meta["lora_rank"] == 2 and "lora_enabled" not in meta
        assert "frozen" not in meta and not {"lora_targets", "lora_rank"} & meta["config"].keys()

    def test_stored_tensor_the_meta_does_not_build_rejected(self, tmp_path):
        """A LoRA checkpoint whose meta says unwrapped is refused, naming the
        adapters, rather than loaded with its adapters discarded."""
        m = PolicyModel(small_config(), seed=2)
        m.enable_lora(rank=2)
        path = tmp_path / "m.npz"
        save_checkpoint(m, path)
        rewrite_meta(path, lora_rank=None)
        with pytest.raises(CheckpointError, match="stores blk0_attn_q_lora_A, .*does not build"):
            load_checkpoint(path)

    @pytest.mark.parametrize("rank", [0, 2.5, "2", True])
    def test_stored_lora_rank_that_is_no_positive_integer_rejected(self, tmp_path, rank):
        path = tmp_path / "m.npz"
        save_checkpoint(PolicyModel(small_config(), seed=0), path)
        rewrite_meta(path, lora_rank=rank)
        with pytest.raises(CheckpointError, match="stored LoRA rank"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
    def test_earlier_versions_rejected_with_a_retrain_hint(self, tmp_path, version):
        path = tmp_path / f"v{version}.npz"
        save_checkpoint(PolicyModel(small_config(), seed=0), path)
        rewrite_meta(path, version=version)
        with pytest.raises(CheckpointError, match=f"version-{version} checkpoint.*`aqmlab train`"):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "v9.npz"
        save_checkpoint(PolicyModel(small_config(), seed=0), path)
        rewrite_meta(path, version=9)
        with pytest.raises(CheckpointError, match="version 9"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [{"residual_flag": True}, {"conv_kernel_sizes": 5},
                                      {"n_heads": 0}],
                             ids=["unknown_key", "scalar_kernel_sizes", "zero_heads"])
    def test_config_that_builds_no_model_rejected(self, tmp_path, edit):
        """A stored config ModelConfig cannot take is a CheckpointError, not a
        raw TypeError."""
        path = tmp_path / "m.npz"
        save_checkpoint(PolicyModel(small_config(), seed=0), path)
        rewrite_meta(path, config={**saved_meta(path)["config"], **edit})
        with pytest.raises(CheckpointError, match="stored model config"):
            load_checkpoint(path)

    def test_meta_that_is_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "m.npz"
        save_checkpoint(PolicyModel(small_config(), seed=0), path)
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        arrays["__meta__"] = np.frombuffer(b"[3]", dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("lora", [False, True])
    def test_load_and_merge_draw_nothing(self, tmp_path, monkeypatch, lora):
        """Every parameter a load or a merge builds is replaced, so neither
        draws initial values."""
        m = PolicyModel(small_config(), seed=2)
        if lora:
            m.enable_lora(rank=2, seed=4)
        path = tmp_path / "m.npz"
        save_checkpoint(m, path)

        def no_draw(*args):
            raise AssertionError("drew initial values")
        # a seeded model's every draw comes from the generator it makes
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded = load_checkpoint(path)[0]
        assert loaded.parameter_digest() == m.parameter_digest()
        assert loaded.merged_model().parameter_digest() == m.merged_model().parameter_digest()
        with pytest.raises(AssertionError, match="drew"):
            PolicyModel(small_config(), seed=2)


def saved_meta(path):
    with np.load(path) as z:
        return json.loads(bytes(z["__meta__"]).decode())


def rewrite_meta(path, **fields):
    """Rewrite a saved checkpoint with the given meta fields replaced."""
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    meta = {**json.loads(bytes(arrays["__meta__"]).decode()), **fields}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


# parameter_digest() of untrained seeded models: a seed must keep its initial
# values.  Checkpoint v7 dropped the time table's draw and draws the token
# biases (embed_b, b_return, b_action) at std 0.02 where v6 made them zero,
# each in its v6 place; the other tensors are drawn in the v6 order.
GOLDEN_PARAMETER_DIGESTS = {
    "cli_default/0": "e90844ccdb55b5dbb209479cbe12ff330dfea8ace3222b8848b8a6f21222a8d2",
    "cli_default/5": "b97abc0cfeddeeccb4697241b74cf0da8cbc84b4d8f02bd712e4631460343ee6",
    "cli_default/7": "55ae4764de06e71cf94eb78c2164e02d37e50ca60d4ddb290e2035948ada4245",
    "small_float64/0": "927bdd6ec2b204f3fb679f04fa7a0f696f2169204c3ad948716b6a1d7f08e7af",
    "small_float64/5": "6e96362e390c8abcbfb11908ed4b84c7fc583f5dc5c671c67284454b1820abaa",
    "small_float64/7": "97d56e200587eeb997f4bbfa5ea44ecc4aab995882338753b8e3f746e4b4c7e8",
}

GOLDEN_CONFIGS = {
    "cli_default": {},
    "small_float64": dict(feature_dim=4, embed_size=16, n_layers=2, n_heads=2,
                          context_window=6, dtype="float64"),
}


class TestSeededInit:
    @pytest.mark.parametrize("key", sorted(GOLDEN_PARAMETER_DIGESTS))
    def test_parameter_digest_golden(self, key):
        name, seed = key.split("/")
        m = PolicyModel(ModelConfig(**GOLDEN_CONFIGS[name]), seed=int(seed))
        assert m.parameter_digest() == GOLDEN_PARAMETER_DIGESTS[key]
        assert all(p.data.flags.c_contiguous for p in m.params.values())


def bench_config(**over):
    """The CLI default model (one layer, embed 32, window 8)."""
    base = dict(feature_dim=8, embed_size=32, n_layers=1, n_heads=2, context_window=8)
    base.update(over)
    return ModelConfig(**base)


def reference_encode_state(model, states, absorbed=None):
    """The per-feature encoder the fused one replaced, built from the stacked
    parameters: a linear map per scalar feature, one causal T.conv1d of width
    CONV_WIDTH per temporal feature, then a linear embedding per feature.
    The encoders have a bias where `absorbed` (name -> Tensor) holds one,
    enc_scalar_b or enc_conv_b (`absorbed_tensors`)."""
    cfg, p = model.config, model.params
    absorbed = absorbed or {}
    states = np.asarray(states, dtype=cfg.np_dtype)
    b, w, _ = states.shape
    fd, d = cfg.feature_dim, cfg.embed_size

    def row(name, r):
        return T.select_positions(p[name], [r], axis=0)

    def bias(name, r):
        if name in absorbed:
            return T.select_positions(absorbed[name], [r], axis=0).reshape(fd)

    outs, si, ci = [], 0, 0
    for i, name in enumerate(STATE_FEATURES):
        col = Tensor(states[:, :, i:i + 1])
        if name in CONV_FEATURES:
            kernel = row("enc_conv_K", ci).transpose(2, 0, 1)            # [fd, 1, CONV_WIDTH]
            feat = T.conv1d(col.reshape(b, 1, w), kernel, bias("enc_conv_b", ci),
                            padding="causal").transpose(0, 2, 1)
            ci += 1
        else:
            feat = T.linear(col, row("enc_scalar_W", si), bias("enc_scalar_b", si))
            si += 1
        outs.append(T.linear(feat, row("embed_W", i).reshape(fd, d), row("embed_b", i).reshape(d)))
    return T.concat([o.reshape(b, w, 1, d) for o in outs], axis=2)


def reference_build_sequence(model, R, S, A, absorbed=None):
    """build_sequence composed node by node from `reference_encode_state`
    (given `absorbed`): the return and action encoders and a concat."""
    cfg, p = model.config, model.params
    dt = cfg.np_dtype
    b, w = np.shape(R)
    r_emb = T.linear(Tensor(np.asarray(R, dtype=dt)[:, :, None]), p["W_return"], p["b_return"])
    a_emb = T.linear(Tensor(np.asarray(A, dtype=dt)[:, :, None]), p["W_action"], p["b_action"])
    tokens = T.concat([r_emb.reshape(b, w, 1, -1), reference_encode_state(model, S, absorbed),
                       a_emb.reshape(b, w, 1, -1)], axis=2)
    tokens = tokens.reshape(b, w * TOKENS_PER_STEP, cfg.embed_size)
    return T.layer_norm(tokens, p["pre_ln_g"], p["pre_ln_b"]), tokens


# Case ids of the float32 and float64 cases.  The conv features are a
# constant now, but the ids keep the `None` (the default feature set) of the
# earlier parametrisation over feature sets, so the case names stay stable.
DEFAULT_FEATURES_DTYPES = pytest.mark.parametrize(
    "dtype,tol", [("float32", 1e-5), ("float64", 1e-12)],
    ids=["None-float32-1e-05", "None-float64-1e-12"])


def loss_and_grads(model, batch, pad):
    R, S, A = batch
    T.zero_grads(model.params.values())
    logits = model.forward(R, S, A, pad_mask=pad)
    b, w, c = logits.shape
    tgt = np.arange(b * w) % c
    T.cross_entropy(logits.reshape(b * w, c), tgt).backward()
    return logits.data, {n: p.grad for n, p in model.params.items()}


class TestFusedEncoder:
    @DEFAULT_FEATURES_DTYPES
    def test_matches_per_feature_reference(self, dtype, tol):
        cfg = bench_config(dtype=dtype)
        fused, ref = PolicyModel(cfg, seed=4), PolicyModel(cfg, seed=4)
        ref.build_sequence = lambda *args: reference_build_sequence(ref, *args)
        batch = rand_batch(cfg, b=3, seed=5)
        pad = np.ones((3, cfg.context_window))
        pad[1, :3] = 0.0
        y_f, g_f = loss_and_grads(fused, batch, pad)
        y_r, g_r = loss_and_grads(ref, batch, pad)
        np.testing.assert_allclose(y_f, y_r, rtol=0, atol=tol)
        for name in g_r:
            if g_r[name] is None:   # the key bias, whose true gradient is 0
                assert g_f[name] is None, name
                continue
            np.testing.assert_allclose(g_f[name], g_r[name], rtol=0, atol=tol, err_msg=name)

    def test_stacked_parameter_shapes(self):
        cfg = bench_config()
        m = PolicyModel(cfg, seed=0)
        fd, d, nc = cfg.feature_dim, cfg.embed_size, len(CONV_FEATURES)
        shapes = {n: p.shape for n, p in m.params.items() if n.startswith(("enc", "embed"))}
        assert shapes == {"enc_scalar_W": (8 - nc, fd), "enc_conv_K": (nc, CONV_WIDTH, fd),
                          "embed_W": (8, fd, d), "embed_b": (8, d)}

    @pytest.mark.parametrize("b", [1, 32])
    def test_graph_size_per_forward(self, b, monkeypatch):
        cfg = bench_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A = rand_batch(cfg, b=b)
        built = []
        init = Tensor.__init__

        def counting_init(obj, *args, **kwargs):
            built.append(1)
            init(obj, *args, **kwargs)
        monkeypatch.setattr(Tensor, "__init__", counting_init)
        m.forward(R, S, A, pad_mask=np.ones((b, cfg.context_window)))
        assert len(built) <= 11


class TestTokenOp:
    """`token_sequence`, the one node that builds every step's 10 tokens:
    float64 central differences for each stored tensor it reads."""

    def _case(self):
        cfg = small_config()
        m = perturbed_model(cfg, lora=False)
        R, S, A = rand_batch(cfg, b=2, w=4, seed=2)
        w = np.random.default_rng(3).normal(size=(2, 4 * TOKENS_PER_STEP, cfg.embed_size))
        return m, lambda: (model_mod.token_sequence(m.params, R, S, A) * Tensor(w)).sum()

    @pytest.mark.parametrize("name", model_mod._TOKEN_PARAMS)
    def test_grad_check(self, name):
        m, loss = self._case()
        assert T.grad_check(loss, [m.params[name]], eps=1e-6, max_coords=200) < 1e-7


class TestTokenKernel:
    """`fold_token_conv`'s per-token-type kernels, run as one batched
    product over channel-major taps, give the tokens of the block-diagonal
    product of `helpers.block_diagonal_tokens`."""

    @pytest.mark.parametrize("dtype,tol", [("float64", 1e-12), ("float32", 1e-5)])
    def test_matches_the_block_diagonal_product(self, dtype, tol):
        cfg = bench_config(dtype=dtype)
        m = perturbed_model(cfg, lora=False)
        R, S, A = rand_batch(cfg, b=4, seed=6)
        # left-padded windows, as the trainer builds them: zero inputs first
        for row, pad in enumerate((0, 1, 3, cfg.context_window - 1)):
            R[row, :pad], S[row, :pad], A[row, :pad] = 0.0, 0.0, 0.0
        dt = cfg.np_dtype
        R, S, A = (np.asarray(a, dtype=dt) for a in (R, S, A))
        got = model_mod.token_sequence(m.params, R, S, A).data
        want = block_diagonal_tokens({n: p.data for n, p in m.params.items()}, R, S, A)
        assert got.dtype == dt and got.shape == (4, cfg.context_window * TOKENS_PER_STEP,
                                                 cfg.embed_size)
        np.testing.assert_allclose(got, want.reshape(got.shape), rtol=0, atol=tol)

    def test_kernel_shapes(self):
        cfg = bench_config()
        K, b = model_mod.fold_token_conv({n: p.data for n, p in PolicyModel(cfg).params.items()})
        assert K.shape == (TOKENS_PER_STEP, CONV_WIDTH, cfg.embed_size)
        assert b.shape == (TOKENS_PER_STEP, cfg.embed_size)
        # the return and the action are width-1 maps: only the newest tap is set
        assert not K[[0, -1], :-1].any() and K[[0, -1], -1].all()


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


class TestCachedMasks:
    def test_cached_bias_gives_bit_identical_logits(self, monkeypatch):
        """Cached causal bias and diagonal change nothing: with and without a
        pad mask, logits equal those from freshly built arrays bit for bit."""
        cfg = small_config()
        m = PolicyModel(cfg, seed=1)
        R, S, A = rand_batch(cfg, b=3)
        pad = np.ones((3, cfg.context_window))
        pad[1, :2] = 0.0
        cached = [m.forward(R, S, A).data, m.forward(R, S, A, pad_mask=pad).data]
        monkeypatch.setattr(model_mod, "_mask_arrays", lambda n, dtype: (
            T.causal_mask_bias(n, dtype=dtype), np.eye(n, dtype=bool)))
        fresh = [m.forward(R, S, A).data, m.forward(R, S, A, pad_mask=pad).data]
        for a, b in zip(cached, fresh):
            assert a.tobytes() == b.tobytes()

    def test_cached_arrays_reject_writes(self):
        from aqmlab.model import _mask_arrays
        n = 4 * TOKENS_PER_STEP
        bias, diag = _mask_arrays(n, np.dtype("float32"))
        assert _mask_arrays(n, np.dtype("float32"))[0] is bias
        np.testing.assert_array_equal(bias, T.causal_mask_bias(n, dtype=np.float32))
        np.testing.assert_array_equal(diag, np.eye(n, dtype=bool))
        with pytest.raises(ValueError):
            bias[0, 1] = 0.0
        with pytest.raises(ValueError):
            diag[0, 1] = True


def full_rows_logits(model, R, S, A, pad_mask):
    """The forward pass with every block over all 10*w tokens: the residual
    is added to the whole sequence, then the head rows are selected."""
    cfg, p = model.config, model.params
    w = S.shape[1]
    n = w * TOKENS_PER_STEP
    x, raw_tokens = model.build_sequence(R, S, A)
    keep = np.repeat(pad_mask, TOKENS_PER_STEP, axis=1)
    key_block = np.where(keep[:, None, :] > 0, 0.0, -1e9).astype(cfg.np_dtype)
    bias = T.causal_mask_bias(n, dtype=cfg.np_dtype)[None, None] + key_block[:, None]
    bias = np.where(np.eye(n, dtype=bool)[None, None], np.maximum(bias, -1e8), bias)
    for l in range(cfg.n_layers):
        x = model._attention_block(x, l, bias)
    x = x + raw_tokens
    sel = T.select_positions(x, np.arange(w) * TOKENS_PER_STEP + TOKENS_PER_STEP - 2)
    return T.linear(sel, p["head_W"], p["head_b"])


def residual_case_id(n_layers):
    """Case id of an n_layers value.  The residual read-out is the only one
    now, but the ids keep the `residual` field (True) of the earlier
    parametrisation over both read-outs, so the case names stay stable."""
    return f"{n_layers}-True"


class TestHeadRowsOnly:
    """The last block computes only the query rows the head reads; logits and
    gradients must match running it over every token.  Not bit for bit: a
    GEMM over fewer rows may be blocked differently by another BLAS."""

    @pytest.mark.parametrize("dtype,tol", [("float32", 1e-6), ("float64", 1e-12)])
    @pytest.mark.parametrize("lora", [False, True])
    @pytest.mark.parametrize("n_layers", [0, 1, 2, 3], ids=residual_case_id)
    def test_matches_full_rows_reference(self, n_layers, lora, dtype, tol):
        cfg = bench_config(n_layers=n_layers, dtype=dtype)
        pruned, ref = PolicyModel(cfg, seed=3), PolicyModel(cfg, seed=3)
        if lora:
            for m in (pruned, ref):
                m.enable_lora(rank=2, seed=5)
                for name in m.lora_param_names():
                    if name.endswith("_lora_B"):
                        m.params[name].data += np.random.default_rng(6).normal(
                            0.0, 0.05, m.params[name].shape).astype(cfg.np_dtype)
        ref.forward = lambda R, S, A, pad_mask: full_rows_logits(ref, R, S, A, pad_mask)
        batch = rand_batch(cfg, b=4, seed=7)
        pad = np.ones((4, cfg.context_window))
        pad[1, :3] = 0.0
        pad[2, :-1] = 0.0   # one real step
        y_p, g_p = loss_and_grads(pruned, batch, pad)
        y_r, g_r = loss_and_grads(ref, batch, pad)
        assert y_p.shape == (4, cfg.context_window, 3)
        np.testing.assert_allclose(y_p, y_r, rtol=0, atol=tol)
        grad_tol = 1e-5 if dtype == "float32" else 1e-12
        for name, g in g_r.items():
            if g is None:
                assert g_p[name] is None, name
                continue
            assert np.abs(g_p[name] - g).max() <= grad_tol * np.abs(g).max(), name


def reference_attention_block(model, x, l, mask_bias, rows=None, absorbed=None):
    """The block composed op by op, the reference for `folded_attention`:
    T.layer_norm, a T.linear per projection (plus x @ A @ B where LoRA wraps
    it), keys and values of every token, T.attention over the query `rows`,
    then LN2 and the FFN.  The layer norms have a gain and a shift, and the
    value a bias, where `absorbed` (name -> Tensor) holds them
    (`absorbed_tensors`)."""
    p = {**model.params, **(absorbed or {})}

    def proj(t, name):
        out = T.linear(t, p[f"{name}_W"], p.get(f"{name}_b"))   # a key has no bias
        if f"{name}_lora_A" in p:
            out = out + (t @ p[f"{name}_lora_A"]) @ p[f"{name}_lora_B"]
        return out

    ln = T.layer_norm(x, p.get(f"blk{l}_ln1_g"), p.get(f"blk{l}_ln1_b"))
    k, v = proj(ln, f"blk{l}_attn_k"), proj(ln, f"blk{l}_attn_v")
    if rows is not None:
        x, ln = T.select_positions(x, rows), T.select_positions(ln, rows)
    att = T.attention(proj(ln, f"blk{l}_attn_q"), k, v, mask_bias=mask_bias,
                      heads=model.config.n_heads)
    x = x + proj(att, f"blk{l}_attn_o")
    ln2 = T.layer_norm(x, p.get(f"blk{l}_ln2_g"), p.get(f"blk{l}_ln2_b"))
    hdn = T.linear(ln2, p[f"blk{l}_ffn_W1"], p[f"blk{l}_ffn_b1"]).relu()
    return x + T.linear(hdn, p[f"blk{l}_ffn_W2"], p[f"blk{l}_ffn_b2"])


_NODE_READS = [(False, name) for name in model_mod._ATTENTION_PARAMS + ("input",)] + [
    (True, name) for name in model_mod._ATTENTION_PARAMS + tuple(
        f"attn_{w}_lora_{f}" for w in model_mod.LORA_TARGETS for f in "AB") + ("input",)]


class TestFoldedAttention:
    """`folded_attention`, each block's attention and its residual as one
    node through the fold the snapshot runs, against the block composed op
    by op, and by float64 central differences."""

    @pytest.mark.parametrize("dtype,tol", [("float32", 1e-5), ("float64", 1e-12)])
    @pytest.mark.parametrize("lora", [False, True])
    @pytest.mark.parametrize("n_heads", [2, 4])
    @pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
    def test_matches_reference_block(self, n_layers, n_heads, lora, dtype, tol):
        """Logits and every gradient, on left-padded windows whose padded
        rows the loss also reads."""
        cfg = bench_config(n_layers=n_layers, n_heads=n_heads, dtype=dtype)
        folded, ref = perturbed_model(cfg, lora=lora), perturbed_model(cfg, lora=lora)
        ref._attention_block = lambda x, l, bias, rows=None: reference_attention_block(
            ref, x, l, bias, rows)
        R, S, A, pad = padded_batch(cfg)
        y_f, g_f = loss_and_grads(folded, (R, S, A), pad)
        y_r, g_r = loss_and_grads(ref, (R, S, A), pad)
        np.testing.assert_allclose(y_f, y_r, rtol=0, atol=tol)
        for name, g in g_r.items():
            if g is None:
                assert g_f[name] is None, name
            else:
                assert np.abs(g_f[name] - g).max() <= tol * np.abs(g).max(), name

    @pytest.mark.parametrize("head_rows", [False, True], ids=["all-rows", "head-rows"])
    @pytest.mark.parametrize("lora,name", _NODE_READS, ids=[
        f"{'lora' if lora else 'base'}-{name}" for lora, name in _NODE_READS])
    def test_grad_check(self, lora, name, head_rows):
        """Each stored tensor the node reads, LoRA's frozen base included,
        and the block input, under a bias that blocks padded keys."""
        cfg = small_config(context_window=4)
        m = perturbed_model(cfg, lora=lora)
        for t in m.params.values():
            t.requires_grad = True
        rng = np.random.default_rng(8)
        n, d = 4 * TOKENS_PER_STEP, cfg.embed_size
        x = Tensor(rng.normal(size=(2, n, d)), requires_grad=True)
        pad = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
        rows = np.arange(4) * TOKENS_PER_STEP + TOKENS_PER_STEP - 2 if head_rows else None
        bias = model_mod._attention_bias(pad, n, cfg.np_dtype, rows=rows)
        w = Tensor(rng.normal(size=(2, n if rows is None else 4, d)))

        def loss():
            return (model_mod.folded_attention(x, m.params, 1, cfg.n_heads, bias, rows) * w).sum()
        target = x if name == "input" else m.params[f"blk1_{name}"]
        assert T.grad_check(loss, [target], eps=1e-6, max_coords=96) < 1e-7

    def test_a_block_stores_no_key_bias(self):
        """Softmax would cancel a key bias, so a block stores its 10 tensors
        without one, and the node reads every attention tensor it stores."""
        m = PolicyModel(bench_config(n_layers=2), seed=0)
        for l in range(2):
            names = {n[len(f"blk{l}_"):] for n in m.params if n.startswith(f"blk{l}_")}
            assert len(names) == 10 and "attn_k_b" not in names
            assert {n for n in names if n.startswith("attn")} == set(
                model_mod._ATTENTION_PARAMS)

    def test_snapshot_runs_the_shared_fold(self):
        """The snapshot's QK, bQK, OV and bVO are `fold_attention` of the
        stored tensors with LoRA merged, bit for bit in float64: training
        and the closed loop attend through one fold."""
        cfg = bench_config(n_layers=2, n_heads=4, dtype="float64")
        m = perturbed_model(cfg)
        policy = InferencePolicy(m)
        p = {name: t.data for name, t in m.params.items()}
        p.update(m.merge_lora())
        for l, blk in enumerate(policy._blocks):
            for got, want in zip(blk[:4], model_mod.fold_attention(p, l, cfg.n_heads)):
                assert got.dtype == want.dtype == np.float64
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def perturbed_model(cfg, seed=3, lora=True):
    """A model whose every parameter is moved off its initial value: biases,
    layer-norm gains and shifts, and (with LoRA on) the B matrices all start
    at 0 or 1, where folding them in wrongly would go unseen."""
    m = PolicyModel(cfg, seed=seed)
    if lora:
        m.enable_lora(rank=2, seed=5)
    rng = np.random.default_rng(6)
    for p in m.params.values():
        p.data = p.data + rng.normal(0.0, 0.05, p.shape).astype(cfg.np_dtype)
    return m


def padded_batch(cfg, seed=7):
    """A b=3 batch left-padded as `WindowDataset.gather` pads: the full
    window, one with 3 padded steps and one with a single real step; a
    padded step is a zero input with mask 0."""
    R, S, A = rand_batch(cfg, b=3, seed=seed)
    pad = np.ones((3, cfg.context_window))
    pad[1, :3] = 0.0
    pad[2, :-1] = 0.0   # one real step
    return R * pad, S * pad[:, :, None], A * pad, pad


class TestLeftPadding:
    """Padded steps are zero inputs whose keys are blocked, so a padded
    window's newest logits are those of its real steps alone: the closed
    loop's snapshot rests on this."""

    @pytest.mark.parametrize("dtype,tol", [("float32", 1e-5), ("float64", 1e-12)])
    @pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
    def test_newest_logits_are_the_real_steps_alone(self, n_layers, dtype, tol):
        model = perturbed_model(bench_config(n_layers=n_layers, dtype=dtype))
        R, S, A, pad = padded_batch(model.config)
        padded = model.predict(R, S, A, pad_mask=pad)
        for i, want in enumerate(padded):
            real = pad[i] > 0
            alone = model.predict(R[i:i + 1, real], S[i:i + 1, real], A[i:i + 1, real])[0]
            np.testing.assert_allclose(alone, want, rtol=0, atol=tol)


# the tensors of a block that a checkpoint-v6 model absorbs
ABSORBED_BLOCK_TENSORS = ("ln1_g", "ln1_b", "attn_v_b", "ln2_g", "ln2_b")


def absorbed_tensors(cfg, seed=11):
    """Random values, as Tensors, of the seven tensor kinds a checkpoint-v6
    model stores none of: the scalar and conv encoders' biases, and per
    block ln1's and ln2's gain (near 1) and shift and the value bias."""
    rng = np.random.default_rng(seed)
    d, fd = cfg.embed_size, cfg.feature_dim
    shapes = {"enc_scalar_b": (model_mod._SCALAR_IDX.size, fd),
              "enc_conv_b": (model_mod._CONV_IDX.size, fd)}
    for l in range(cfg.n_layers):
        shapes.update({f"blk{l}_{name}": (d,) for name in ABSORBED_BLOCK_TENSORS})
    return {name: Tensor(float(name.endswith("_g")) + rng.normal(0.0, 0.3, shape))
            for name, shape in shapes.items()}


# each term by which a stored tensor absorbs one of `absorbed_tensors`
ABSORPTIONS = ("embed_b<-enc_scalar_b", "embed_b<-enc_conv_b", "W_q<-ln1_g", "W_k<-ln1_g",
               "W_v<-ln1_g", "b_q<-ln1_b", "b_o<-ln1_b", "b_o<-attn_v_b", "W1<-ln2_g", "b1<-ln2_b")


def absorb(model, absorbed, skip=()):
    """Fold the tensors `absorbed` into the stored tensors of `model` by
    every term of ABSORPTIONS but those in `skip`, so that it computes what
    the op-by-op references compute with them:
    - an encoder bias b of state feature i adds b·embed_W[i] to embed_b[i];
    - ln1's gain g scales the rows of W_q, W_k and W_v (LoRA's A too);
    - ln1's shift β adds β·W_q to b_q and β·W_v·W_o to b_o (β·W_k would
      add a constant to a query's scores, which softmax cancels);
    - the value bias b_v adds b_v·W_o to b_o, as a query's weights sum to 1;
    - ln2's gain scales W1's rows and its shift adds β·W1 to b1.
    The wrapped matrices read as W + A @ B."""
    p = model.params
    a = {name: t.data for name, t in absorbed.items()}

    def fold(term, name, delta):
        if term not in skip:
            p[name].data = p[name].data + delta

    E = p["embed_W"].data
    for kind, idx in (("scalar", model_mod._SCALAR_IDX), ("conv", model_mod._CONV_IDX)):
        delta = np.zeros_like(p["embed_b"].data)
        delta[idx] = np.einsum("jf,jfd->jd", a[f"enc_{kind}_b"], E[idx])
        fold(f"embed_b<-enc_{kind}_b", "embed_b", delta)
    merged = {**{n: t.data for n, t in p.items()}, **model.merge_lora()}
    for l in range(model.config.n_layers):
        g1, beta1, b_v, g2, beta2 = (a[f"blk{l}_{name}"] for name in ABSORBED_BLOCK_TENSORS)
        Wv, Wo, W1 = (merged[f"blk{l}_{name}"] for name in ("attn_v_W", "attn_o_W", "ffn_W1"))
        fold("b_q<-ln1_b", f"blk{l}_attn_q_b", beta1 @ merged[f"blk{l}_attn_q_W"])
        fold("b_o<-ln1_b", f"blk{l}_attn_o_b", beta1 @ Wv @ Wo)
        fold("b_o<-attn_v_b", f"blk{l}_attn_o_b", b_v @ Wo)
        fold("b1<-ln2_b", f"blk{l}_ffn_b1", beta2 @ W1)
        fold("W1<-ln2_g", f"blk{l}_ffn_W1", (g2[:, None] - 1.0) * W1)
        for w in ("q", "k", "v"):
            for name in (f"blk{l}_attn_{w}_W", f"blk{l}_attn_{w}_lora_A"):
                if name in p:
                    fold(f"W_{w}<-ln1_g", name, (g1[:, None] - 1.0) * p[name].data)


class TestAbsorbedTensors:
    """Since checkpoint v6 a model stores no layer-norm tensor in its blocks
    and no value or encoder bias: folding random values of them into the
    tensors it stores gives the logits of the op-by-op references that
    apply them, and dropping any one term of the fold does not."""

    @staticmethod
    def _logits(n_layers, lora, skip=()):
        cfg = bench_config(n_layers=n_layers, dtype="float64")
        ref, folded = perturbed_model(cfg, lora=lora), perturbed_model(cfg, lora=lora)
        absorbed = absorbed_tensors(cfg)
        absorb(folded, absorbed, skip)
        ref.build_sequence = lambda R, S, A: reference_build_sequence(ref, R, S, A, absorbed)
        ref._attention_block = lambda x, l, bias, rows=None: reference_attention_block(
            ref, x, l, bias, rows, absorbed)
        R, S, A, pad = padded_batch(cfg)
        with T.no_grad():
            return (folded.forward(R, S, A, pad_mask=pad).data,
                    ref.forward(R, S, A, pad_mask=pad).data)

    @pytest.mark.parametrize("lora", [False, True])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_folded_model_matches_the_references(self, n_layers, lora):
        got, want = self._logits(n_layers, lora)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("term", ABSORPTIONS)
    def test_every_term_is_needed(self, term):
        got, want = self._logits(2, True, skip=(term,))
        assert np.abs(got - want).max() > 1e-6


def assert_policy_matches_predict(model, tol, seed=7):
    """InferencePolicy.logits of each window of `padded_batch`, passed its
    real steps alone, against PolicyModel.predict of the padded batch."""
    policy = InferencePolicy(model)
    R, S, A, pad = padded_batch(model.config, seed=seed)
    for i, want in enumerate(model.predict(R, S, A, pad_mask=pad)):
        real = pad[i] > 0
        got = policy.logits(R[i, real], S[i, real], A[i, real][:-1])
        assert got.dtype == want.dtype and got.shape == (3,)
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)


class TestInferencePolicy:
    """The plain-numpy snapshot the closed loop runs must give the logits of
    PolicyModel.predict, within rounding of its folded, merged weights."""

    @pytest.mark.parametrize("dtype,tol", [("float32", 1e-5), ("float64", 1e-12)])
    @pytest.mark.parametrize("lora", [False, True])
    @pytest.mark.parametrize("n_layers", [0, 1, 2, 3], ids=residual_case_id)
    def test_matches_predict(self, n_layers, lora, dtype, tol):
        cfg = bench_config(n_layers=n_layers, dtype=dtype)
        assert_policy_matches_predict(perturbed_model(cfg, lora=lora), tol)

    @DEFAULT_FEATURES_DTYPES
    def test_matches_predict_for_every_conv_feature_set(self, dtype, tol):
        cfg = bench_config(dtype=dtype, n_layers=2)
        assert_policy_matches_predict(perturbed_model(cfg, seed=4), tol)

    def test_other_kernel_sizes_and_heads(self):
        cfg = small_config(n_heads=4, n_layers=2)
        assert_policy_matches_predict(perturbed_model(cfg), 1e-12)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_every_array_read_only_in_the_model_dtype(self, dtype):
        """Every array the snapshot holds, the folded QK/OV matrices
        included, is frozen and in the model dtype."""
        cfg = bench_config(dtype=dtype, n_layers=2)
        policy = InferencePolicy(perturbed_model(cfg))
        arrays = []

        def collect(v):
            if isinstance(v, np.ndarray):
                arrays.append(v)
            elif isinstance(v, (tuple, list)):
                for item in v:
                    collect(item)
        for v in vars(policy).values():
            collect(v)
        # the composed token kernels and their bias, the read-out's kernel and
        # bias means, the pre-LN's gain, shift and centred shift, the head
        # pair, the centring matrix and the two mean columns, and per block
        # QK, bQK, VO, bVO, W1, b1, W2, b2
        assert len(arrays) == 12 + 8 * cfg.n_layers
        d, h = cfg.embed_size, cfg.n_heads
        assert [a.shape for a in policy._blocks[0][:4]] == [(d, h * d), (h * d,), (h * d, d), (d,)]
        for a in arrays:
            assert a.dtype == cfg.np_dtype and not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0.0

    def test_token_conv_is_the_shared_fold(self):
        """The snapshot's token kernels and their bias are
        `fold_token_conv`'s K and b composed with the centring C and with
        diag(g)·C (g the pre-LN gain), and its read-out reads the head row's
        K and b as row means, bit for bit in float64: training and the
        closed loop encode tokens with one fold."""
        cfg = bench_config(dtype="float64")
        m = perturbed_model(cfg)
        policy = InferencePolicy(m)
        p = {n: t.data for n, t in m.params.items()}
        K, b = model_mod.fold_token_conv(p)
        d, head_row = cfg.embed_size, TOKENS_PER_STEP - 2
        C = np.eye(d) - 1.0 / d
        fold = np.concatenate([C, C @ (p["pre_ln_g"][:, None] * C)], axis=1)   # raw -> [r | u]
        want = {"_token_K": K @ fold, "_token_b": b @ fold}
        for name, array in want.items():
            got = getattr(policy, name)
            assert got.dtype == array.dtype == np.float64 and got.shape == array.shape
            assert got.tobytes() == np.ascontiguousarray(array).tobytes(), name
        assert policy._token_K.shape == (TOKENS_PER_STEP, CONV_WIDTH, 2 * d)
        k_mean, b_mean = policy._readout
        assert k_mean.tobytes() == K[head_row].mean(axis=1).tobytes()
        assert b_mean.tobytes() == b[head_row].mean(keepdims=True).tobytes()

    def test_one_layer_decision_normalises_no_rows(self, monkeypatch):
        """The fold leaves a one-layer decision no centring product: it calls
        `_normalize` zero times, where a deeper model normalises its earlier
        blocks' outputs twice each, for their ln2 and the next block's ln1."""
        calls = []
        normalize = InferencePolicy._normalize

        def counting(self, x):
            calls.append(x.shape)
            return normalize(self, x)
        monkeypatch.setattr(InferencePolicy, "_normalize", counting)
        for n_layers in (0, 1, 2, 3):
            cfg = bench_config(n_layers=n_layers)
            policy = InferencePolicy(perturbed_model(cfg))
            R, S, A = rand_batch(cfg, b=1)
            calls.clear()
            policy.logits(R[0], S[0], A[0, :-1])
            assert len(calls) == 2 * max(n_layers - 1, 0), n_layers

    def test_builds_no_tensor(self, monkeypatch):
        cfg = bench_config()
        policy = InferencePolicy(perturbed_model(cfg))
        built = []
        init = Tensor.__init__

        def counting_init(obj, *args, **kwargs):
            built.append(1)
            init(obj, *args, **kwargs)
        monkeypatch.setattr(Tensor, "__init__", counting_init)
        R, S, A = rand_batch(cfg, b=1)
        policy.logits(R[0, 5:], S[0, 5:], A[0, 5:-1])   # 3 real steps
        policy.logits(R[0], S[0], A[0, :-1])
        assert built == []

    def test_snapshot_leaves_model_untouched(self):
        cfg = bench_config()
        m = perturbed_model(cfg)
        digest = m.parameter_digest()
        trainable = {n: p.requires_grad for n, p in m.params.items()}
        batch = rand_batch(cfg, b=2)
        before = m.predict(*batch).copy()
        policy = InferencePolicy(m)
        assert m.parameter_digest() == digest
        assert {n: p.requires_grad for n, p in m.params.items()} == trainable
        for d, b in zip(m.predict(*batch), before):
            assert d.tobytes() == b.tobytes()
        # a read-only snapshot: later training does not reach it
        R, S, A = batch
        windows = [(R[i], S[i], A[i, :-1]) for i in range(2)]
        got = [policy.logits(*window) for window in windows]
        for p in m.params.values():
            p.data = p.data + 1.0
        for window, g in zip(windows, got):
            assert policy.logits(*window).tobytes() == g.tobytes()
        with pytest.raises(ValueError):
            policy._head[0][0, 0] = 0.0

    def test_interface(self):
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        policy = InferencePolicy(m)
        assert policy.config == m.config and policy.forward_count == 0
        R, S, A = rand_batch(cfg, b=1)
        R, S, A, w = R[0], S[0], A[0], cfg.context_window
        out = policy.logits(R, S, A[:-1])
        policy.logits(R[-2:], S[-2:], A[-2:-1])
        assert policy.forward_count == 2 and m.forward_count == 0
        assert out.shape == (3,) and out.dtype == cfg.np_dtype
        # a scalar return is that return at every step
        assert policy.logits(0.5, S, A[:-1]).tobytes() == \
            policy.logits(np.full(w, 0.5), S, A[:-1]).tobytes()
        for bad in [(R, S[:, :-1], A[:-1]),    # states not [n, 8]
                    (R, S, A),                 # n actions, not n - 1
                    (R[1:], S, A[:-1]),        # returns not [n]
                    (R[:0], S[:0], A[:0]),     # no step
                    (np.zeros(w + 1), np.zeros((w + 1, STATE_DIM)), np.zeros(w))]:
            with pytest.raises(T.TensorError):
                policy.logits(*bad)
