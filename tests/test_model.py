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
    CHECKPOINT_VERSION, CONV_WIDTH, ROWS_PER_STEP, TOKENS_PER_STEP, CheckpointError,
    InferencePolicy, ModelConfig, PolicyModel, load_checkpoint, save_checkpoint,
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
        first block's ln1 does not scale its gradient by 1/sqrt(LN_EPS).
        So do the block rows of a zero step, whose state row is state_b."""
        m = PolicyModel(ModelConfig(), seed=seed)
        zeros = np.zeros((1, 2)), np.zeros((1, 2, STATE_DIM)), np.zeros((1, 2))
        for rows in (m.build_sequence(*zeros)[0].data, m._rows(*zeros).data):
            centred = rows - rows.mean(axis=-1, keepdims=True)
            assert (np.square(centred).mean(axis=-1) > 10 * T.LN_EPS).all()

    def test_the_cli_default_model_has_no_time_table(self):
        """No parameter grows with episode length: the CLI-default model has
        13,867 parameters, and LoRA at its default rank trains 1,867 of
        14,379."""
        m = PolicyModel(ModelConfig(), seed=0)
        assert sum(p.data.size for p in m.params.values()) == m.trainable_count() == 13_867
        assert not any("time" in name for name in m.params)
        m.enable_lora()
        assert (m.trainable_count(), sum(p.data.size for p in m.params.values())) == (1_867, 14_379)


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
        """The step-t prediction is read from the state row, one position
        before the action row, so changing a_t must not move the step-t
        logits."""
        cfg = small_config()
        m = PolicyModel(cfg, seed=0)
        R, S, A = rand_batch(cfg)
        base = self._logits(m, R, S, A)
        A2 = A.copy()
        A2[:, -1] = (A2[:, -1] + 1) % 3
        pert = self._logits(m, R, S, A2)
        np.testing.assert_array_equal(base[:, -1], pert[:, -1])

    @pytest.mark.parametrize("t", range(6))
    def test_step_t_action_reaches_only_later_steps(self, t):
        """Changing step t's action leaves the logits of steps <= t bit for
        bit, and moves every later step's logits."""
        cfg = small_config()
        m = perturbed_model(cfg)
        R, S, A = rand_batch(cfg)
        A2 = A.copy()
        A2[:, t] = (A2[:, t] + 1) % 3
        base, pert = self._logits(m, R, S, A), self._logits(m, R, S, A2)
        np.testing.assert_array_equal(base[:, :t + 1], pert[:, :t + 1])
        assert (np.abs(base[:, t + 1:] - pert[:, t + 1:]).max(axis=-1) > 0).all()

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

    @pytest.mark.parametrize("name,edit", [("conv_embed_W", lambda a: a[:2]),
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
        assert meta["version"] == CHECKPOINT_VERSION == 10
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

    # a v9 file stores the state encoder v10 replaced; a v8 file stores v9's
    # tensors, but its blocks saw 10 rows per step
    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8, 9])
    def test_earlier_versions_rejected_with_a_retrain_hint(self, tmp_path, version):
        path = tmp_path / f"v{version}.npz"
        save_checkpoint(PolicyModel(small_config(), seed=0), path)
        rewrite_meta(path, version=version)
        with pytest.raises(CheckpointError, match=f"version-{version} checkpoint.*`aqmlab train`"):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        version = CHECKPOINT_VERSION + 1
        path = tmp_path / f"v{version}.npz"
        save_checkpoint(PolicyModel(small_config(), seed=0), path)
        rewrite_meta(path, version=version)
        with pytest.raises(CheckpointError, match=f"version {version}"):
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
# values.  Checkpoint v10 draws scalar_K, enc_conv_K, conv_embed_W and
# state_b in the places of v9's enc_scalar_W, enc_conv_K, embed_W and
# embed_b, then the other tensors in v9's order; re-pinned once the
# op-by-op reference forward wrote GOLDEN_LLM_EVERY's .klog bytes.
GOLDEN_PARAMETER_DIGESTS = {
    "cli_default/0": "52ec453c523bcfe88053b99d049c8da4a2e92a148fb77a40f648092960550e99",
    "cli_default/5": "47874068db72c1ee5aea083946a384852677cc5c66dff590938eff9fe3d141ce",
    "cli_default/7": "c4898c9d7a213eecb56220289457b41e7efd34f8c78ef4a5966acb06c308acaa",
    "small_float64/0": "dd8f7c8dbf06e7d35ee56625386aca6040dd81c9444727f74dbc5d4dcdbb31ec",
    "small_float64/5": "f9ae2cd92810f855accc736737eb63d34d37c938015f1743915d6ef713c3d5c1",
    "small_float64/7": "1b0b6837936e41b97ef92db4d0ca9ae07e4318f47e7da238e6160728b6af2578",
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
    parameters: a linear map into d per scalar feature, and per temporal
    feature one causal T.conv1d of width CONV_WIDTH into feature_dim, then a
    linear embedding; every state token adds state_b.  Where `absorbed`
    (name -> Tensor, `absorbed_tensors`) holds them, the convs have a bias,
    enc_conv_b, and each state token a bias of its own, token_b."""
    cfg, p = model.config, model.params
    absorbed = absorbed or {}
    states = np.asarray(states, dtype=cfg.np_dtype)
    b, w, _ = states.shape
    fd, d = cfg.feature_dim, cfg.embed_size

    def row(name, r):
        return T.select_positions(p[name], [r], axis=0)

    def bias(name, r, size):
        if name in absorbed:
            return T.select_positions(absorbed[name], [r], axis=0).reshape(size)

    outs, si, ci = [], 0, 0
    for i, name in enumerate(STATE_FEATURES):
        col = Tensor(states[:, :, i:i + 1])
        if name in CONV_FEATURES:
            kernel = row("enc_conv_K", ci).transpose(2, 0, 1)            # [fd, 1, CONV_WIDTH]
            feat = T.conv1d(col.reshape(b, 1, w), kernel, bias("enc_conv_b", ci, fd),
                            padding="causal").transpose(0, 2, 1)
            out = T.linear(feat, row("conv_embed_W", ci).reshape(fd, d), p["state_b"])
            ci += 1
        else:
            out = T.linear(col, row("scalar_K", si), p["state_b"])
            si += 1
        token_b = bias("token_b", i, d)
        outs.append(out if token_b is None else out + token_b)
    return T.concat([o.reshape(b, w, 1, d) for o in outs], axis=2)


def reference_build_sequence(model, R, S, A, absorbed=None):
    """build_sequence's tokens [b, w, 10, d] composed node by node from
    `reference_encode_state` (given `absorbed`): the return and action
    encoders and a concat."""
    p, dt = model.params, model.config.np_dtype
    b, w = np.shape(R)
    r_emb = T.linear(Tensor(np.asarray(R, dtype=dt)[:, :, None]), p["W_return"], p["b_return"])
    a_emb = T.linear(Tensor(np.asarray(A, dtype=dt)[:, :, None]), p["W_action"], p["b_action"])
    return T.concat([r_emb.reshape(b, w, 1, -1), reference_encode_state(model, S, absorbed),
                     a_emb.reshape(b, w, 1, -1)], axis=2)


def reference_rows(model, R, S, A, absorbed=None):
    """`step_rows` composed node by node, the reference a model's `_rows`
    is replaced with: per step of `reference_build_sequence`'s tokens, the
    return token, the mean of the 8 state tokens and the action token."""
    b, w = np.shape(R)
    tokens = reference_build_sequence(model, R, S, A, absorbed)
    rows = T.concat([T.select_positions(tokens, [0], axis=2),
                     T.select_positions(tokens, np.arange(1, 1 + STATE_DIM), axis=2).mean(
                         axis=2, keepdims=True),
                     T.select_positions(tokens, [TOKENS_PER_STEP - 1], axis=2)], axis=2)
    return rows.reshape(b, w * ROWS_PER_STEP, model.config.embed_size)


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
        ref._rows = lambda *args: reference_rows(ref, *args)
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
        shapes = {n: p.shape for n, p in m.params.items()
                  if not n.startswith(("blk", "head", "W_", "b_"))}
        assert shapes == {"scalar_K": (8 - nc, d), "enc_conv_K": (nc, CONV_WIDTH, fd),
                          "conv_embed_W": (nc, fd, d), "state_b": (d,)}

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
        assert len(built) <= 10


class TestTokenOp:
    """`step_rows`, the one node that builds every step's 3 block rows:
    float64 central differences for each stored tensor it reads."""

    def _case(self):
        cfg = small_config()
        m = perturbed_model(cfg, lora=False)
        R, S, A = rand_batch(cfg, b=2, w=4, seed=2)
        w = np.random.default_rng(3).normal(size=(2, 4 * ROWS_PER_STEP, cfg.embed_size))
        return m, lambda: (model_mod.step_rows(m.params, R, S, A) * Tensor(w)).sum()

    @pytest.mark.parametrize("name", model_mod._TOKEN_PARAMS)
    def test_grad_check(self, name):
        m, loss = self._case()
        assert T.grad_check(loss, [m.params[name]], eps=1e-6, max_coords=200) < 1e-7


class TestTokenKernel:
    """`fold_token_conv`'s per-token-type kernels, run by `build_sequence`
    over each channel's taps, give the tokens of the block-diagonal product
    of `helpers.block_diagonal_tokens`."""

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
        got = m.build_sequence(R, S, A)[0].data
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


class TestStepRows:
    """`step_rows`, the node that builds the first block's input: per step
    [return, mean of the 8 state tokens, action], by the snapshot's
    product."""

    def test_state_row_is_the_mean_of_the_8_state_tokens(self):
        """The rows are `build_sequence`'s per-metric tokens, the 8 state
        tokens of a step averaged into one row."""
        cfg = bench_config(dtype="float64")
        m = perturbed_model(cfg, lora=False)
        R, S, A = rand_batch(cfg, b=3, seed=4)
        rows = model_mod.step_rows(m.params, R, S, A).data
        b, w, d = 3, cfg.context_window, cfg.embed_size
        assert rows.shape == (b, w * ROWS_PER_STEP, d) and ROWS_PER_STEP == 3
        tok = m.build_sequence(R, S, A)[0].data.reshape(b, w, TOKENS_PER_STEP, d)
        rows = rows.reshape(b, w, ROWS_PER_STEP, d)
        assert rows[:, :, 0].tobytes() == tok[:, :, 0].copy().tobytes()
        assert rows[:, :, 2].tobytes() == tok[:, :, 9].copy().tobytes()
        np.testing.assert_allclose(rows[:, :, 1], tok[:, :, 1:9].mean(axis=2), rtol=0, atol=1e-12)

    def test_a_window_gives_the_snapshot_rows(self):
        """For one window, the node's rows are the snapshot's taps @ _token_K
        + _token_b: training and the closed loop build them by one kernel."""
        cfg = bench_config(dtype="float64")
        m = perturbed_model(cfg)
        policy = InferencePolicy(m)
        R, S, A = rand_batch(cfg, b=1, seed=8)
        rows = model_mod.step_rows(m.params, R, S, A).data
        taps = model_mod._taps(R, S, A, np.float64)
        want = taps @ policy._token_K + policy._token_b
        np.testing.assert_allclose(rows, want.reshape(rows.shape), rtol=0, atol=1e-12)


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
    """The forward pass with every block over all 3*w block rows: the
    residual is added to every row, then the state rows are selected."""
    cfg, p = model.config, model.params
    w = S.shape[1]
    n = w * ROWS_PER_STEP
    x = raw_rows = model._rows(R, S, A)
    keep = np.repeat(pad_mask, ROWS_PER_STEP, axis=1)
    key_block = np.where(keep[:, None, :] > 0, 0.0, -1e9).astype(cfg.np_dtype)
    bias = T.causal_mask_bias(n, dtype=cfg.np_dtype)[None, None] + key_block[:, None]
    bias = np.where(np.eye(n, dtype=bool)[None, None], np.maximum(bias, -1e8), bias)
    for l in range(cfg.n_layers):
        x = model._attention_block(x, l, bias)
    x = x + raw_rows
    sel = T.select_positions(x, np.arange(w) * ROWS_PER_STEP + 1)
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
        n, d = 4 * ROWS_PER_STEP, cfg.embed_size
        x = Tensor(rng.normal(size=(2, n, d)), requires_grad=True)
        pad = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
        rows = np.arange(4) * ROWS_PER_STEP + 1 if head_rows else None
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


def reference_logits(model, R, S, A, pad_mask=None):
    """Every step's logits [b, w, 3], the forward composed op by op with no
    graph kept: `build_sequence`'s 10 tokens per step, then per step the
    rows [return, plain numpy mean of the 8 state tokens, action], a causal
    bias that also blocks padded steps' keys, each block as
    `reference_attention_block` (T.layer_norm, T.attention, the FFN) over
    every row, the residual read-out and the head on each state row."""
    cfg, p = model.config, model.params
    b, w = np.shape(R)
    with T.no_grad():
        tok = model.build_sequence(R, S, A)[0].data.reshape(b, w, 10, cfg.embed_size)
        rows = np.stack([tok[:, :, 0], tok[:, :, 1:9].mean(axis=2), tok[:, :, 9]], axis=2)
        rows = rows.reshape(b, 3 * w, cfg.embed_size)
        bias = T.causal_mask_bias(3 * w, dtype=cfg.np_dtype)
        if pad_mask is not None:
            blocked = np.repeat(np.asarray(pad_mask) == 0, 3, axis=1)[:, None, None, :]
            bias = np.where(blocked & ~np.eye(3 * w, dtype=bool), -1e9, bias)
        x = Tensor(rows)
        for l in range(cfg.n_layers):
            x = reference_attention_block(model, x, l, bias)
        x = T.select_positions(x + Tensor(rows), np.arange(w) * 3 + 1)
        return T.linear(x, p["head_W"], p["head_b"]).data


class TestReferenceForward:
    """`forward` and the snapshot against `reference_logits`, in float64:
    the blocks see 3 rows per step, the state row the mean of the step's 8
    per-metric tokens, and the head reads the state row."""

    @pytest.mark.parametrize("padded", [False, True], ids=["full", "padded"])
    @pytest.mark.parametrize("lora", [False, True])
    @pytest.mark.parametrize("n_layers", [0, 1, 2])
    def test_forward_and_snapshot_match_the_reference(self, n_layers, lora, padded):
        cfg = bench_config(n_layers=n_layers, dtype="float64")
        m = perturbed_model(cfg, lora=lora)
        if padded:
            R, S, A, pad = padded_batch(cfg)
        else:
            (R, S, A), pad = rand_batch(cfg, b=3, seed=7), None
        want = reference_logits(m, R, S, A, pad)
        np.testing.assert_allclose(m.forward(R, S, A, pad_mask=pad).data, want, rtol=0, atol=1e-12)
        policy = InferencePolicy(m)
        for i in range(3):
            real = slice(None) if pad is None else pad[i] > 0
            got = policy.logits(R[i, real], S[i, real], A[i, real][:-1])
            np.testing.assert_allclose(got, want[i, -1], rtol=0, atol=1e-12)


# the tensors of a block that a checkpoint-v6 model absorbs
ABSORBED_BLOCK_TENSORS = ("ln1_g", "ln1_b", "attn_v_b", "ln2_g", "ln2_b")


def absorbed_tensors(cfg, seed=11):
    """Random values, as Tensors, of the seven tensor kinds a checkpoint-v10
    model stores none of: a bias per state token and per conv encoder, and
    per block ln1's and ln2's gain (near 1) and shift and the value bias."""
    rng = np.random.default_rng(seed)
    d, fd = cfg.embed_size, cfg.feature_dim
    shapes = {"token_b": (STATE_DIM, d), "enc_conv_b": (model_mod._CONV_IDX.size, fd)}
    for l in range(cfg.n_layers):
        shapes.update({f"blk{l}_{name}": (d,) for name in ABSORBED_BLOCK_TENSORS})
    return {name: Tensor(float(name.endswith("_g")) + rng.normal(0.0, 0.3, shape))
            for name, shape in shapes.items()}


# each term by which a stored tensor absorbs one of `absorbed_tensors`
ABSORPTIONS = ("state_b<-token_b", "state_b<-enc_conv_b", "W_q<-ln1_g", "W_k<-ln1_g",
               "W_v<-ln1_g", "b_q<-ln1_b", "b_o<-ln1_b", "b_o<-attn_v_b", "W1<-ln2_g", "b1<-ln2_b")


def absorb(model, absorbed, skip=()):
    """Fold the tensors `absorbed` into the stored tensors of `model` by
    every term of ABSORPTIONS but those in `skip`, so that it computes what
    the op-by-op references compute with them:
    - the blocks see the mean of a step's 8 state tokens, so the state
      tokens' biases add their mean to state_b, and a conv bias c of
      temporal feature j, which adds c·conv_embed_W[j] to its token, adds
      that over 8;
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

    fold("state_b<-token_b", "state_b", a["token_b"].mean(axis=0))
    fold("state_b<-enc_conv_b", "state_b",
         np.einsum("jf,jfd->d", a["enc_conv_b"], p["conv_embed_W"].data) / STATE_DIM)
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
    and no value or encoder bias, and since v10 one bias for all 8 state
    tokens: folding random values of them into the
    tensors it stores gives the logits of the op-by-op references that
    apply them, and dropping any one term of the fold does not."""

    @staticmethod
    def _logits(n_layers, lora, skip=()):
        cfg = bench_config(n_layers=n_layers, dtype="float64")
        ref, folded = perturbed_model(cfg, lora=lora), perturbed_model(cfg, lora=lora)
        absorbed = absorbed_tensors(cfg)
        absorb(folded, absorbed, skip)
        ref._rows = lambda R, S, A: reference_rows(ref, R, S, A, absorbed)
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
        # the token kernels and their bias, the head pair, the centring
        # matrix and the mean column, and per block QK, bQK, VO, bVO, W1, b1,
        # W2, b2
        assert len(arrays) == 6 + 8 * cfg.n_layers
        d, h = cfg.embed_size, cfg.n_heads
        assert [a.shape for a in policy._blocks[0][:4]] == [(d, h * d), (h * d,), (h * d, d), (d,)]
        for a in arrays:
            assert a.dtype == cfg.np_dtype and not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0.0

    def test_token_conv_is_the_shared_fold(self):
        """The snapshot's token kernel and its bias are `fold_step_rows` of
        `fold_token_conv`'s K and b, bit for bit in float64: the kernel
        `step_rows` builds training's rows with."""
        cfg = bench_config(dtype="float64")
        m = perturbed_model(cfg)
        policy = InferencePolicy(m)
        K, b = model_mod.fold_step_rows(*model_mod.fold_token_conv(
            {n: t.data for n, t in m.params.items()}))
        want = {"_token_K": K, "_token_b": b}
        for name, array in want.items():
            got = getattr(policy, name)
            assert got.dtype == array.dtype == np.float64 and got.shape == array.shape
            assert got.tobytes() == np.ascontiguousarray(array).tobytes(), name
        assert policy._token_K.shape == (TOKENS_PER_STEP * CONV_WIDTH,
                                         ROWS_PER_STEP * cfg.embed_size)

    def test_each_block_normalises_its_input_once(self, monkeypatch):
        """Each block normalises its input with one `_normalize` call, and
        only an earlier block of a deeper model calls it once more, for its
        ln2: the last block's ln2 runs on its one row as a vector."""
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
            assert len(calls) == max(2 * n_layers - 1, 0), n_layers

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
