"""Return-conditioned causal transformer policy over AQM decision windows.

Per timestep the token layout is [return, state_1..state_8, action] (10
tokens); scalar features go through per-feature linear encoders, time-series
features through a multi-kernel causal conv path; learned time embeddings are
added to all tokens of a step.  Each feature has its own encoder weights,
stored stacked along a feature axis so that a few contractions encode all 8
features at once.  A causal transformer backbone feeds a 3-way action head
read at the last state token of each step.  Attention Q/V projections can be
LoRA-wrapped (frozen base, trainable low-rank delta).
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import zipfile
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .features import ACTION_COUNT, DEFAULT_CONV_FEATURES, STATE_DIM, STATE_FEATURES
from .tensor import Tensor

CHECKPOINT_VERSION = 2   # v1 stored the encoder per feature (enc{i}_*, embed{i}_*)
TOKENS_PER_STEP = 1 + STATE_DIM + 1   # return, 8 state features, action


class CheckpointError(RuntimeError):
    pass


@dataclass
class ModelConfig:
    state_dim: int = STATE_DIM
    action_count: int = ACTION_COUNT
    feature_dim: int = 32
    embed_size: int = 128
    n_layers: int = 4
    n_heads: int = 4
    context_window: int = 20
    max_timestep: int = 4096
    conv_kernel_sizes: tuple = (3, 5, 7)
    lora_rank: int = 4
    lora_targets: tuple = ("attn_q", "attn_v")
    residual_flag: bool = True
    conv_features: tuple = DEFAULT_CONV_FEATURES
    dtype: str = "float32"

    def __post_init__(self):
        if self.embed_size % self.n_heads:
            raise ValueError("embed_size must be divisible by n_heads")
        if self.context_window < 1:
            raise ValueError("context_window must be >= 1")
        if self.action_count != ACTION_COUNT:
            raise ValueError("action_count must be 3")
        unknown = set(self.conv_features) - set(STATE_FEATURES)
        if unknown:
            raise ValueError(f"unknown conv features: {unknown}")

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    def scalar_feature_mask(self):
        return [name not in self.conv_features for name in STATE_FEATURES]


@dataclass
class ActionDistribution:
    logits: np.ndarray
    probabilities: np.ndarray

    @property
    def action(self) -> int:
        # ties break toward the lowest action index (argmax does exactly that)
        return int(np.argmax(self.probabilities))


def _draw(rng, shape, scale, dtype):
    return rng.normal(0.0, scale, size=shape).astype(dtype)


def _init(rng, shape, scale, dtype):
    return Tensor(_draw(rng, shape, scale, dtype), requires_grad=True)


def _zeros(shape, dtype):
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def _stack_encoder(per_feature, config):
    """Stacked encoder arrays from the per-feature ones of checkpoint v1.

    Scalar feature j (in STATE_FEATURES order among the scalar ones) is row j
    of enc_scalar_*; conv feature c is row c of enc_conv{k}_* and enc_proj_*,
    with each v1 kernel [fd, 1, k] stored as [k, fd]; embed_* keeps all 8.
    """
    mask = config.scalar_feature_mask()
    scalar = [i for i in range(config.state_dim) if mask[i]]
    conv = [i for i in range(config.state_dim) if not mask[i]]

    def stack(fmt, rows, view=lambda a: a):
        # C order, as every other parameter: the transposed kernel views
        # would otherwise stack into a Fortran-ordered array
        return np.ascontiguousarray(np.stack([view(per_feature[fmt.format(i)]) for i in rows]))

    out = {}
    if scalar:
        out["enc_scalar_W"] = stack("enc{}_W", scalar, lambda a: a[0])
        out["enc_scalar_b"] = stack("enc{}_b", scalar)
    if conv:
        for k in config.conv_kernel_sizes:
            out[f"enc_conv{k}_K"] = stack(f"enc{{}}_convk{k}_K", conv, lambda a: a[:, 0, :].T)
            out[f"enc_conv{k}_b"] = stack(f"enc{{}}_convk{k}_b", conv)
        out["enc_proj_W"] = stack("enc{}_proj_W", conv)
        out["enc_proj_b"] = stack("enc{}_proj_b", conv)
    out["embed_W"] = stack("embed{}_W", range(config.state_dim))
    out["embed_b"] = stack("embed{}_b", range(config.state_dim))
    return out


@functools.lru_cache(maxsize=None)
def _mask_arrays(n, dtype):
    """The causal bias [n, n] and the diagonal [n, n] of an n-token sequence,
    built once per (n, dtype) and read-only, since every forward shares them."""
    bias = T.causal_mask_bias(n, dtype=dtype)
    diag = np.eye(n, dtype=bool)
    bias.flags.writeable = diag.flags.writeable = False
    return bias, diag


class PolicyModel:
    """Holds all parameters plus the forward pass; single-inference only."""

    def __init__(self, config: ModelConfig, seed=0):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self.lora_enabled = False
        self.forward_count = 0
        rng = np.random.default_rng(seed)
        dt = config.np_dtype
        d, fd = config.embed_size, config.feature_dim
        scalar_mask = np.array(config.scalar_feature_mask(), dtype=bool)
        self._scalar_idx = np.flatnonzero(scalar_mask)
        self._conv_idx = np.flatnonzero(~scalar_mask)
        # encode_state computes the scalar group, then the conv group; this
        # puts the concatenation back into STATE_FEATURES order
        self._feature_order = np.argsort(np.concatenate([self._scalar_idx, self._conv_idx]))

        def add(name, t):
            self.params[name] = t
            return t

        # drawn per feature in v1 order, so a seed gives the same initial
        # values as the per-feature layout did
        per_feature = {}
        for i, name in enumerate(STATE_FEATURES):
            if scalar_mask[i]:
                per_feature[f"enc{i}_W"] = _draw(rng, (1, fd), 0.5, dt)
                per_feature[f"enc{i}_b"] = np.zeros(fd, dtype=dt)
            else:
                for k in config.conv_kernel_sizes:
                    per_feature[f"enc{i}_convk{k}_K"] = _draw(rng, (fd, 1, k), 0.5 / math.sqrt(k), dt)
                    per_feature[f"enc{i}_convk{k}_b"] = np.zeros(fd, dtype=dt)
                nk = len(config.conv_kernel_sizes)
                per_feature[f"enc{i}_proj_W"] = _draw(rng, (nk * fd, fd), 1.0 / math.sqrt(nk * fd), dt)
                per_feature[f"enc{i}_proj_b"] = np.zeros(fd, dtype=dt)
            per_feature[f"embed{i}_W"] = _draw(rng, (fd, d), 1.0 / math.sqrt(fd), dt)
            per_feature[f"embed{i}_b"] = np.zeros(d, dtype=dt)
        for name, arr in _stack_encoder(per_feature, config).items():
            add(name, Tensor(arr, requires_grad=True))

        add("W_return", _init(rng, (1, d), 0.5, dt))
        add("b_return", _zeros((d,), dt))
        add("W_action", _init(rng, (1, d), 0.5, dt))
        add("b_action", _zeros((d,), dt))
        add("W_time", _zeros((config.max_timestep + 1, d), dt))
        self.params["W_time"].data += rng.normal(0, 0.02, self.params["W_time"].shape).astype(dt)

        add("pre_ln_g", Tensor(np.ones(d, dtype=dt), requires_grad=True))
        add("pre_ln_b", _zeros((d,), dt))

        s = 1.0 / math.sqrt(d)
        for l in range(config.n_layers):
            add(f"blk{l}_ln1_g", Tensor(np.ones(d, dtype=dt), requires_grad=True))
            add(f"blk{l}_ln1_b", _zeros((d,), dt))
            for w in ("q", "k", "v", "o"):
                add(f"blk{l}_attn_{w}_W", _init(rng, (d, d), s, dt))
                add(f"blk{l}_attn_{w}_b", _zeros((d,), dt))
            add(f"blk{l}_ln2_g", Tensor(np.ones(d, dtype=dt), requires_grad=True))
            add(f"blk{l}_ln2_b", _zeros((d,), dt))
            add(f"blk{l}_ffn_W1", _init(rng, (d, 4 * d), s, dt))
            add(f"blk{l}_ffn_b1", _zeros((4 * d,), dt))
            add(f"blk{l}_ffn_W2", _init(rng, (4 * d, d), 1.0 / math.sqrt(4 * d), dt))
            add(f"blk{l}_ffn_b2", _zeros((d,), dt))

        add("head_W", _init(rng, (d, config.action_count), s, dt))
        add("head_b", _zeros((config.action_count,), dt))

    # ------------------------------------------------------------------ LoRA

    def lora_param_names(self):
        return [n for n in self.params if "_lora_" in n]

    def wrapped_base_names(self):
        out = []
        if self.lora_enabled:
            for l in range(self.config.n_layers):
                for tgt in self.config.lora_targets:
                    w = tgt.split("_")[1]
                    out.append(f"blk{l}_attn_{w}_W")
        return out

    def enable_lora(self, rank=None, seed=1):
        """Freeze every backbone matrix; add trainable A (random) / B (zero).

        With B zero-initialized the wrapped model is exactly the base model.
        Encoders, embeddings, layer norms and the head stay trainable.
        """
        if self.lora_enabled:
            raise ValueError("LoRA already enabled")
        rank = rank if rank is not None else self.config.lora_rank
        if rank < 1:
            raise ValueError("lora rank must be >= 1")
        cfg = self.config
        rng = np.random.default_rng(seed)
        dt = cfg.np_dtype
        self.lora_enabled = True
        self.config = dataclasses.replace(cfg, lora_rank=rank)
        for l in range(cfg.n_layers):
            for name in list(self.params):
                if name.startswith(f"blk{l}_"):
                    self.params[name].requires_grad = False
            for tgt in cfg.lora_targets:
                w = tgt.split("_")[1]
                base = self.params[f"blk{l}_attn_{w}_W"]
                d_in, d_out = base.shape
                if rank >= min(d_in, d_out):
                    import warnings
                    warnings.warn(f"LoRA rank {rank} >= min{(d_in, d_out)}; not low-rank")
                self.params[f"blk{l}_attn_{w}_lora_A"] = _init(rng, (d_in, rank), 0.01, dt)
                self.params[f"blk{l}_attn_{w}_lora_B"] = _zeros((rank, d_out), dt)

    def _proj(self, x, name):
        """Linear through `name`_W/`name`_b, with LoRA delta when wrapped."""
        W, b = self.params[f"{name}_W"], self.params[f"{name}_b"]
        out = T.linear(x, W, b)
        a_name = f"{name}_lora_A"
        if a_name in self.params:
            out = out + (x @ self.params[a_name]) @ self.params[f"{name}_lora_B"]
        return out

    def merge_lora(self):
        """Dense W0 + A@B for every wrapped matrix, keyed by base name."""
        merged = {}
        for name in self.wrapped_base_names():
            stem = name[: -len("_W")]
            W0 = self.params[name].data
            A = self.params[f"{stem}_lora_A"].data
            B = self.params[f"{stem}_lora_B"].data
            merged[name] = W0 + A @ B
        return merged

    def merged_model(self):
        """A LoRA-free copy whose base matrices absorb the trained deltas."""
        clone = PolicyModel(dataclasses.replace(self.config), seed=0)
        merged = self.merge_lora()
        for name, p in self.params.items():
            if "_lora_" in name:
                continue
            clone.params[name].data = merged.get(name, p.data).copy()
        return clone

    # -------------------------------------------------------------- trainable

    def trainable_params(self):
        return [p for p in self.params.values() if p.requires_grad]

    def trainable_count(self):
        return sum(p.data.size for p in self.trainable_params())

    def parameter_digest(self, names=None):
        import hashlib
        h = hashlib.sha256()
        for name in sorted(names or self.params):
            h.update(name.encode())
            h.update(self.params[name].data.tobytes())
        return h.hexdigest()

    # ---------------------------------------------------------------- forward

    def encode_state(self, states):
        """states: [batch, w, 8] array -> embeddings [batch, w, 8, d].

        Feature i of the third axis is STATE_FEATURES[i].
        """
        cfg, p = self.config, self.params
        states = np.asarray(states, dtype=cfg.np_dtype)
        if states.ndim != 3 or states.shape[2] != cfg.state_dim:
            raise T.TensorError(f"encode_state expects [batch, w, {cfg.state_dim}], got {states.shape}")
        groups = []
        if self._scalar_idx.size:
            x = Tensor(states[:, :, self._scalar_idx, None])           # [b, w, ns, 1]
            groups.append(x * p["enc_scalar_W"] + p["enc_scalar_b"])  # [b, w, ns, fd]
        if self._conv_idx.size:
            kmax = max(cfg.conv_kernel_sizes)
            # causal padding: the window-axis conv must not let future steps
            # leak into earlier positions.  One pad to the widest kernel; a
            # kernel of size k reads the last k taps of each window.
            xpad = np.pad(states[:, :, self._conv_idx], ((0, 0), (kmax - 1, 0), (0, 0)))
            win = np.lib.stride_tricks.sliding_window_view(xpad, kmax, axis=1)  # [b, w, nc, kmax]
            convs = [T.einsum("bwck,ckf->bwcf", Tensor(win[..., kmax - k:]), p[f"enc_conv{k}_K"])
                     + p[f"enc_conv{k}_b"] for k in cfg.conv_kernel_sizes]
            cat = T.concat(convs, axis=3)                                # [b, w, nc, nk*fd]
            groups.append(T.einsum("bwcj,cjf->bwcf", cat, p["enc_proj_W"]) + p["enc_proj_b"])
        feat = T.select_positions(T.concat(groups, axis=2), self._feature_order, axis=2)
        return T.einsum("bwif,ifd->bwid", feat, p["embed_W"]) + p["embed_b"]   # [b, w, 8, d]

    def build_sequence(self, returns, states, actions, timesteps):
        """Interleave [R, s1..s8, a] per step, add time embeddings, pre-LN.

        returns/actions: [batch, w]; states: [batch, w, 8]; timesteps:
        int [batch, w].  Output: [batch, 10*w, d] plus the pre-LN embedding
        (used for the residual read-out).
        """
        cfg = self.config
        dt = cfg.np_dtype
        returns = np.asarray(returns, dtype=dt)
        actions = np.asarray(actions, dtype=dt)
        timesteps = np.asarray(timesteps, dtype=np.int64)
        b, w = returns.shape
        if w != timesteps.shape[1] or states.shape[1] != w:
            raise T.TensorError("window length mismatch across modalities")

        p = self.params
        # a 1-wide linear map is one product per output, so a broadcast
        # multiply gives the same values
        r_emb = Tensor(returns[:, :, None, None]) * p["W_return"] + p["b_return"]  # [b, w, 1, d]
        a_emb = Tensor(actions[:, :, None, None]) * p["W_action"] + p["b_action"]
        s_emb = self.encode_state(states)                                          # [b, w, 8, d]
        t_emb = T.embedding(p["W_time"], np.clip(timesteps, 0, cfg.max_timestep)[:, :, None])
        tokens = T.concat([r_emb, s_emb, a_emb], axis=2) + t_emb                   # [b, w, 10, d]
        tokens = tokens.reshape(b, w * TOKENS_PER_STEP, cfg.embed_size)
        normed = T.layer_norm(tokens, self.params["pre_ln_g"], self.params["pre_ln_b"])
        return normed, tokens

    def _attention_block(self, x, l, mask_bias, rows=None):
        """Pre-LN causal self-attention and FFN, each with its residual.

        With `rows`, only those query positions are computed: keys and values
        still read every token, and the block returns [b, len(rows), d].
        """
        cfg = self.config
        b, n, d = x.shape
        h, dk = cfg.n_heads, d // cfg.n_heads

        def split(t):
            return t.reshape(b, t.shape[1], h, dk).transpose(0, 2, 1, 3)   # [b, h, m, dk]

        ln = T.layer_norm(x, self.params[f"blk{l}_ln1_g"], self.params[f"blk{l}_ln1_b"])
        k = split(self._proj(ln, f"blk{l}_attn_k"))
        v = split(self._proj(ln, f"blk{l}_attn_v"))
        if rows is not None:
            # each kept query row keeps its own bias row, so masking is exact
            x, ln = T.select_positions(x, rows), T.select_positions(ln, rows)
            mask_bias = mask_bias[..., rows, :]
        q = split(self._proj(ln, f"blk{l}_attn_q"))
        att = T.attention(q, k, v, mask_bias=mask_bias)           # [b, h, m, dk]
        att = att.transpose(0, 2, 1, 3).reshape(x.shape)
        x = x + self._proj(att, f"blk{l}_attn_o")

        ln2 = T.layer_norm(x, self.params[f"blk{l}_ln2_g"], self.params[f"blk{l}_ln2_b"])
        hdn = T.linear(ln2, self.params[f"blk{l}_ffn_W1"], self.params[f"blk{l}_ffn_b1"]).relu()
        return x + T.linear(hdn, self.params[f"blk{l}_ffn_W2"], self.params[f"blk{l}_ffn_b2"])

    def forward(self, returns, states, actions, timesteps, pad_mask=None):
        """One inference pass -> per-step action logits [batch, w, 3].

        pad_mask: [batch, w] with 1 for real steps, 0 for left padding;
        padded tokens are blocked from attention and excluded by the trainer.
        The head reads one token per step, so the last block computes only
        those rows.
        """
        cfg = self.config
        self.forward_count += 1
        states = np.asarray(states, dtype=cfg.np_dtype)
        b, w = states.shape[0], states.shape[1]
        n = w * TOKENS_PER_STEP

        x, raw_tokens = self.build_sequence(returns, states, actions, timesteps)
        bias, diag = _mask_arrays(n, cfg.np_dtype)
        if pad_mask is not None:
            pad_mask = np.asarray(pad_mask)
            token_keep = np.repeat(pad_mask, TOKENS_PER_STEP, axis=1)  # [b, n]
            key_block = np.where(token_keep[:, None, :] > 0, 0.0, -1e9).astype(cfg.np_dtype)
            bias = bias[None, None, :, :] + key_block[:, None, :, :]
            # keep self-attention open on padded rows so softmax stays defined
            bias = np.where(diag[None, None], np.maximum(bias, -1e8), bias)
        # last state token of step t precedes the action token by one position
        positions = np.arange(w) * TOKENS_PER_STEP + (TOKENS_PER_STEP - 2)
        for l in range(cfg.n_layers - 1):
            x = self._attention_block(x, l, bias)
        if cfg.n_layers:
            x = self._attention_block(x, cfg.n_layers - 1, bias, rows=positions)   # [b, w, d]
        else:
            x = T.select_positions(x, positions)
        if cfg.residual_flag:
            x = x + T.select_positions(raw_tokens, positions)
        return T.linear(x, self.params["head_W"], self.params["head_b"])

    def action_distributions(self, logits):
        z = logits.data.astype(np.float64)
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        probs = e / e.sum(axis=-1, keepdims=True)
        return logits.data, probs

    def predict(self, returns, states, actions, timesteps, pad_mask=None):
        """ActionDistribution for the newest step of each window (no graph kept)."""
        with T.no_grad():
            logits = self.forward(returns, states, actions, timesteps, pad_mask)
        raw, probs = self.action_distributions(logits)
        return [ActionDistribution(raw[i, -1], probs[i, -1]) for i in range(raw.shape[0])]


# --------------------------------------------------------------- checkpointing


def save_checkpoint(model: PolicyModel, path, feature_stats=None, extra=None):
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": {**dataclasses.asdict(model.config),
                   "conv_kernel_sizes": list(model.config.conv_kernel_sizes),
                   "lora_targets": list(model.config.lora_targets),
                   "conv_features": list(model.config.conv_features)},
        "lora_enabled": model.lora_enabled,
        "frozen": sorted(n for n, p in model.params.items() if not p.requires_grad),
        "feature_stats": feature_stats,
        "extra": extra or {},
    }
    arrays = {f"param::{n}": p.data for n, p in model.params.items()}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path):
    """Returns (model, feature_stats, extra); bit-exact parameter round trip."""
    try:
        with np.load(path, allow_pickle=False) as z:
            meta = json.loads(bytes(z["__meta__"]).decode())
            version = meta.get("version")
            if version not in (1, CHECKPOINT_VERSION):
                raise CheckpointError(f"unsupported checkpoint version {version}")
            cfg_d = meta["config"]
            cfg = ModelConfig(**{**cfg_d,
                                 "conv_kernel_sizes": tuple(cfg_d["conv_kernel_sizes"]),
                                 "lora_targets": tuple(cfg_d["lora_targets"]),
                                 "conv_features": tuple(cfg_d["conv_features"])})
            model = PolicyModel(cfg, seed=0)
            if meta["lora_enabled"]:
                model.enable_lora(rank=cfg.lora_rank)
            saved = {key[len("param::"):]: z[key] for key in z.files if key.startswith("param::")}
            if version == 1:
                saved.update(_stack_encoder(saved, cfg))
            for name in model.params:
                if name not in saved:
                    raise CheckpointError(f"missing parameter {name}")
                model.params[name].data = saved[name]
            for name in meta["frozen"]:
                model.params[name].requires_grad = False
    except (OSError, ValueError, KeyError, json.JSONDecodeError,
            io.UnsupportedOperation, zipfile.BadZipFile) as e:
        if isinstance(e, CheckpointError):
            raise
        raise CheckpointError(f"corrupt checkpoint {path}: {e}") from e
    return model, meta.get("feature_stats"), meta.get("extra", {})
