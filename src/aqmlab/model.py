"""Return-conditioned causal transformer policy over AQM decision windows.

Per timestep the token layout is [return, state_1..state_8, action] (10
tokens); each scalar feature is x times its own row of `scalar_K` [d], and
each temporal feature (CONV_FEATURES) goes through its own causal conv of
width CONV_WIDTH over the window into feature_dim, then through its own
embedding `conv_embed_W`.  A scalar feature has no feature_dim factor,
since a [1, fd] @ [fd, d] product spans every [d] row, but a conv's
[CONV_WIDTH, fd] @ [fd, d] kernel has rank at most fd.  No
encoder has a nonlinearity, so one function, `fold_token_conv`, folds the
stored encoder tensors into one causal conv kernel per token type,
[10, CONV_WIDTH, d]; `build_sequence` gives these per-metric tokens, each
channel's taps times its kernel, as a view with no graph.  The model has
no position input: a token's place shows only through the causal mask and
the causal conv taps (Haviv et al., "Transformer Language Models without
Positional Encodings Still Learn Positional Information", 2022), so a
window's logits do not depend on where in its trajectory it lies.

The blocks see one state row per step, the mean of its 8 per-metric state
tokens, so a step gives them [return, mean state, action] (ROWS_PER_STEP =
3 rows, as Decision Transformer's [R, s, a]; Chen et al., 2021), and a
window of 8 steps is 24 rows, not 80.  The mean adds no parameter, and
`fold_step_rows` folds it with the token kernels into one kernel
[10·CONV_WIDTH, 3d] over a step's taps, by which both forms of the model
build a step's 3 rows in one product.  A causal transformer backbone
feeds a 3-way action head read at each step's state row, which sees the
step's return and state but not its action.  `enable_lora` wraps the
attention Q/V projections (frozen base, trainable low-rank delta); the
model keeps the adapters' rank, `PolicyModel.lora_rank` (None when
unwrapped), and a checkpoint stores it in its meta.

Each head of a block's attention folds into a query-key and a value-output
matrix, by one function, `fold_attention`, so a block scores its query rows
straight against the normalised tokens and forms no key or value; both
forms of the model attend through it.

The model stores no tensor that another one absorbs exactly (Elhage et al.,
"A Mathematical Framework for Transformer Circuits", 2021).  A block's two
layer norms have no gain or shift: ln1's normalised tokens reach only
W_q, W_k and W_v, whose rows a gain would rescale; its shift would add
to the query bias, to every key (a constant per query row, which softmax
cancels, as it cancels a key bias) and, through the values, to the output
bias.  A query's weights sum to 1, so a value bias would reach the output
bias unchanged, and ln2's gain and shift fold into the FFN's first
projection.  So a block stores 10 tensors, and only q and o have a bias.
An encoder bias, or a bias per state token, would only add to `state_b`,
the one bias of every state token: the blocks see the tokens' mean.  The
tokens enter the first block as they are, with no layer norm of their
own: a Pre-LN transformer normalises inside each residual branch (Xiong
et al., "On Layer Normalization in the Transformer Architecture", 2020),
so ln1 already normalises the first block's tokens, as GPT-2 puts no
layer norm on its embeddings.

PolicyModel is the trainable form: its forward pass builds a Tensor graph, in
which the block rows are one node (`step_rows`, through that kernel) and
each block's attention and its residual another (`folded_attention`), and
its `predict` is the reference for inference.  InferencePolicy is a
read-only plain-numpy snapshot of a PolicyModel for closed-loop decisions:
the folds are computed once, in float64, with LoRA deltas merged.  Its
one entry, `logits`, takes a single window as its real steps alone, with
no padding and no mask, and computes only the newest step's head row.
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
from .features import ACTION_COUNT, CONV_FEATURES, STATE_DIM, STATE_FEATURES
from .tensor import Tensor

CHECKPOINT_VERSION = 10   # 10 stores the state encoder as the tensors that reach the blocks
TOKENS_PER_STEP = 1 + STATE_DIM + 1   # return, 8 state features, action
ROWS_PER_STEP = 3   # the rows a step gives the blocks: return, mean state, action
_HEAD_ROW = 1   # a step's state row, the row the head reads
LORA_TARGETS = ("q", "v")   # the attention projections that enable_lora wraps
LORA_RANK = 4   # the rank enable_lora and `aqmlab train --lora-rank` default to
CONV_WIDTH = 7   # taps of each temporal feature's causal conv

_is_conv = np.isin(STATE_FEATURES, CONV_FEATURES)
_SCALAR_IDX, _CONV_IDX = np.flatnonzero(~_is_conv), np.flatnonzero(_is_conv)
# the stored tensors the token encoders read, in `step_rows`' order
_TOKEN_PARAMS = ("W_return", "b_return", "scalar_K", "enc_conv_K", "conv_embed_W", "state_b",
                 "W_action", "b_action")


class CheckpointError(RuntimeError):
    pass


@dataclass
class ModelConfig:
    feature_dim: int = 8
    embed_size: int = 32
    n_layers: int = 1
    n_heads: int = 2
    context_window: int = 8
    dtype: str = "float32"

    def __post_init__(self):
        for name, low in (("feature_dim", 1), ("embed_size", 1), ("n_heads", 1), ("n_layers", 0),
                          ("context_window", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.embed_size % self.n_heads:
            raise ValueError("embed_size must be divisible by n_heads")
        if np.dtype(self.dtype).kind != "f":
            raise ValueError(f"dtype must be a floating type, got {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)


def _init(rng, shape, scale, dtype):
    """A trainable normal(0, scale) parameter; with no rng, one of unset
    values, for a caller that replaces them."""
    data = (np.empty(shape, dtype=dtype) if rng is None
            else rng.normal(0.0, scale, size=shape).astype(dtype))
    return Tensor(data, requires_grad=True)


def _zeros(shape, dtype):
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


@functools.lru_cache(maxsize=None)
def _mask_arrays(n, dtype):
    """The causal bias [n, n] and the diagonal [n, n] of an n-token sequence,
    built once per (n, dtype) and read-only, since every forward shares them."""
    bias = T.causal_mask_bias(n, dtype=dtype)
    diag = np.eye(n, dtype=bool)
    bias.flags.writeable = diag.flags.writeable = False
    return bias, diag


def _attention_bias(pad_mask, n, dtype, rows=None):
    """Additive attention bias of the query `rows` (default: all n) over the
    first n of a window's block rows (ROWS_PER_STEP per step): the cached
    causal rows [len(rows), n] alone, or [batch, 1, len(rows), n] that also
    blocks the keys of the steps `pad_mask` ([batch, w], 0 for padding)
    marks as padding."""
    bias, diag = _mask_arrays(n, dtype)
    if rows is not None:
        bias = bias[rows]
    if pad_mask is None:
        return bias
    pad_mask = np.asarray(pad_mask)
    if (pad_mask > 0).all():
        return bias
    if rows is not None:
        diag = diag[rows]
    token_keep = np.repeat(pad_mask, ROWS_PER_STEP, axis=1)[:, :n]  # [b, n]
    key_block = np.where(token_keep[:, None, :] > 0, 0.0, -1e9).astype(dtype)
    bias = bias[None, None, :, :] + key_block[:, None, :, :]
    # keep self-attention open on padded rows so softmax stays defined
    return np.maximum(bias, -1e8, out=bias, where=diag)


def fold_token_conv(p):
    """The token encoders of the stored tensors `p` (name -> array) folded
    into one causal conv per token type: (K [10, CONV_WIDTH, d], b [10, d]),
    computed in the arrays' dtype.

    Token c of a step reads input channel c of [R, s1..s8, a].  No encoder
    has a nonlinearity or a bias, so a temporal feature's taps and then its
    embedding are one kernel, enc_conv_K @ conv_embed_W [CONV_WIDTH, d];
    a scalar feature, the return and the action are the width-1 case x*W,
    a kernel whose only non-zero tap is the newest (scalar_K's row for a
    scalar feature).  Every state token's bias is state_b.  Token c of a
    step is its channel-c taps [CONV_WIDTH] times K[c], plus b[c].
    """
    S = p["scalar_K"]
    d = S.shape[1]
    K = np.zeros((TOKENS_PER_STEP, CONV_WIDTH, d), dtype=S.dtype)
    B = np.empty((TOKENS_PER_STEP, d), dtype=S.dtype)
    K[0, -1], B[0] = p["W_return"][0], p["b_return"]
    K[-1, -1], B[-1] = p["W_action"][0], p["b_action"]
    K[1 + _SCALAR_IDX, -1] = S
    K[1 + _CONV_IDX] = p["enc_conv_K"] @ p["conv_embed_W"]
    B[1:-1] = p["state_b"]
    return K, B


@functools.lru_cache(maxsize=16)   # one entry per batch size seen, each 560·b·w bytes
def _tap_index(b, w):
    """[b*w, 10*CONV_WIDTH]: the flat positions in a [10, b, w + CONV_WIDTH
    - 1] input, with CONV_WIDTH - 1 leading zeros, of each step's taps in
    step-major order, channel c's at c·CONV_WIDTH (`fold_step_rows`' rows):
    step i reads i..i + CONV_WIDTH - 1; cached, read-only."""
    span = w + CONV_WIDTH - 1
    steps = (np.arange(b)[:, None] * span + np.arange(w)).reshape(b * w, 1, 1)
    channels = np.arange(TOKENS_PER_STEP)[:, None] * (b * span) + np.arange(CONV_WIDTH)
    index = (steps + channels).reshape(b * w, TOKENS_PER_STEP * CONV_WIDTH)
    index.flags.writeable = False
    return index


def _taps(returns, states, actions, dtype):
    """The step-major taps [b*w, 10*CONV_WIDTH] of the channels [R,
    s1..s8, a] (returns broadcast to [b, w], states [b, w, 8], actions to
    [b, w] or to the first w - 1 steps, the newest then 0), each channel
    after CONV_WIDTH - 1 zeros, so step i's taps are its causal window."""
    b, w = states.shape[:2]
    inputs = np.zeros((TOKENS_PER_STEP, b, w + CONV_WIDTH - 1), dtype=dtype)
    inputs[0, :, CONV_WIDTH - 1:] = returns
    inputs[1:-1, :, CONV_WIDTH - 1:] = states.transpose(2, 0, 1)
    inputs[-1, :, CONV_WIDTH - 1:CONV_WIDTH - 1 + np.shape(actions)[-1]] = actions
    return inputs.ravel()[_tap_index(b, w)]


def step_rows(p, returns, states, actions):
    """The block rows [b, w*3, d], per step [return, mean state, action],
    as one node: the taps of `_taps` times the kernel K3, plus the bias b3,
    that `fold_step_rows(*fold_token_conv(p))` folds from the Tensors `p`
    (name -> Tensor), the snapshot's product at any batch size.

    The backward is one product too, dK3 = tapsᵀ g and db3 = Σ g.  The
    two folds' transposes take them to each token type's kernel and bias,
    the return and action blocks as they are and the state block divided
    by 8, which map back to the stored encoder tensors.
    """
    arrays = {name: p[name].data for name in _TOKEN_PARAMS}
    K3, b3 = fold_step_rows(*fold_token_conv(arrays))
    b, w = returns.shape
    taps = _taps(returns, states, actions, K3.dtype)
    out = taps @ K3
    out += b3
    parents = tuple(p[name] for name in _TOKEN_PARAMS)

    def bwd(g):
        g = g.reshape(b * w, -1)
        dK3 = (taps.T @ g).reshape(TOKENS_PER_STEP, CONV_WIDTH, ROWS_PER_STEP, -1)
        db3 = (np.ones(b * w, dtype=g.dtype) @ g).reshape(ROWS_PER_STEP, -1)
        dK = dK3[1:-1, :, 1] / STATE_DIM   # the state kernels' gradient [8, CONV_WIDTH, d]
        dKc = dK[_CONV_IDX]
        grads = {
            "W_return": dK3[0, -1, 0][None], "b_return": db3[0],
            "W_action": dK3[-1, -1, 2][None], "b_action": db3[2],
            "scalar_K": dK[_SCALAR_IDX, -1], "state_b": db3[1],
            "enc_conv_K": dKc @ arrays["conv_embed_W"].transpose(0, 2, 1),
            "conv_embed_W": arrays["enc_conv_K"].transpose(0, 2, 1) @ dKc,
        }
        for name in _TOKEN_PARAMS:
            if p[name].requires_grad:
                p[name]._accum(grads[name])

    return Tensor(out.reshape(b, w * ROWS_PER_STEP, -1), _parents=parents, _backward=bwd)


def fold_step_rows(K, B):
    """`fold_token_conv`'s K [10, CONV_WIDTH, d] and b [10, d] folded with
    the mean of a step's 8 state tokens into one kernel over its taps in
    step-major order (`_taps`: channel c's CONV_WIDTH taps at c·CONV_WIDTH),
    computed in their dtype:
    (K3 [10·CONV_WIDTH, 3d], b3 [3d]).  Column block 0 is the return kernel,
    block 1 the state kernels divided by 8 and block 2 the action kernel; b3
    is [b[0] | the mean of b[1:9] | b[9]].  A step's taps times K3, plus
    b3, are its 3 block rows."""
    d = K.shape[2]
    K3 = np.zeros((TOKENS_PER_STEP, CONV_WIDTH, ROWS_PER_STEP, d), dtype=K.dtype)
    K3[0, :, 0], K3[-1, :, 2] = K[0], K[-1]
    K3[1:-1, :, 1] = K[1:-1] / STATE_DIM
    b3 = np.stack([B[0], B[1:-1].mean(axis=0), B[-1]])
    return K3.reshape(TOKENS_PER_STEP * CONV_WIDTH, ROWS_PER_STEP * d), b3.reshape(-1)


# the stored tensors of block l's attention, which `folded_attention` reads
_ATTENTION_PARAMS = ("attn_q_W", "attn_q_b", "attn_k_W", "attn_v_W", "attn_o_W", "attn_o_b")


def _head_maps(p, l, n_heads):
    """Block l's attention maps per head h, from the stored arrays `p` (name
    -> array, LoRA deltas merged): the query map Aq = W_q,h/√dk [h, d, dk]
    and its bias cq = b_q,h/√dk [h, 1, dk], the key map Ak = W_k,h and the
    value map Av = W_v,h [h, d, dk], and W_o's rows [h, dk, d]."""
    Wq, Wk, Wv, Wo = (p[f"blk{l}_attn_{w}_W"] for w in ("q", "k", "v", "o"))
    d = Wq.shape[0]
    dk = d // n_heads
    scale = 1.0 / math.sqrt(dk)

    def heads(W):   # [d, h*dk] -> [h, d, dk]: head h's columns
        return W.reshape(d, n_heads, dk).transpose(1, 0, 2)

    return (heads(Wq * scale), (p[f"blk{l}_attn_q_b"] * scale).reshape(n_heads, 1, dk),
            heads(Wk), heads(Wv), Wo.reshape(n_heads, dk, d))


def _fold_heads(maps):
    """`fold_attention`'s QK, bQK and OV from the head maps of `_head_maps`."""
    Aq, cq, Ak, Av, Wo = maps
    d = Aq.shape[1]
    KT = Ak.transpose(0, 2, 1)
    return ((Aq @ KT).transpose(1, 0, 2).reshape(d, -1), (cq @ KT).reshape(-1),
            (Av @ Wo).reshape(-1, d))


def fold_attention(p, l, n_heads):
    """Block l's attention of the stored arrays `p` (name -> array, LoRA
    deltas merged into their base matrices) folded per head h into a
    query-key and a value-output matrix (Elhage et al., "A Mathematical
    Framework for Transformer Circuits", 2021), computed in the arrays'
    dtype: (QK [d, h·d], bQK [h·d], OV [h·d, d], bVO [d]).

    With xhat the normalised tokens, head h scores query row i against
    token j as (xhat_i QK_h + bQK_h) · xhat_j, where
    QK_h = Aq_h Ak_hᵀ and bQK_h = cq_h Ak_hᵀ (`_head_maps`), and adds
    (its weights · xhat) OV_h, OV_h = Av_h W_o,h, plus bVO = b_o to the
    residual.  No key or value bias is lost: a key bias would add one
    constant to all of a query's scores, which softmax removes, and a
    query's weights sum to 1, so a value bias would reach the residual as
    a constant, which b_o spans.  Head h's block is columns h·d..(h+1)·d of
    QK and rows h·d..(h+1)·d of OV.
    """
    return (*_fold_heads(_head_maps(p, l, n_heads)), p[f"blk{l}_attn_o_b"])


def folded_attention(x, p, l, n_heads, mask_bias, rows=None):
    """Block l's causal self-attention and its residual, as one node
    through `fold_attention`: [b, m, d] for the m query `rows` of the block
    input x [b, n, d] (default: all n), under the additive `mask_bias`,
    [m, n] or [b, 1, m, n].  `p` is name -> Tensor; with LoRA on, each
    wrapped matrix is read as W + A @ B.

    x is normalised over every token, each query row is scored per head
    against the normalised tokens, and the tokens are averaged with the
    weights, so no key or value is formed.  A (row, head) pair is one row
    of the batched products, so the head split and merge are reshapes.
    The backward maps the gradients of QK, bQK, OV and bVO back to the q
    and o weights and biases, W_k, W_v and the LoRA factors, and through
    the normalisation to x.
    """
    names = [f"blk{l}_{name}" for name in _ATTENTION_PARAMS]
    arrays = {name: p[name].data for name in names}
    lora = {}
    for w in LORA_TARGETS:
        stem = f"blk{l}_attn_{w}"
        if f"{stem}_lora_A" in p:
            lora[stem] = p[f"{stem}_lora_A"], p[f"{stem}_lora_B"]
            arrays[f"{stem}_W"] = arrays[f"{stem}_W"] + lora[stem][0].data @ lora[stem][1].data
    maps = _head_maps(arrays, l, n_heads)
    QK, bQK, OV = _fold_heads(maps)

    xhat, inv = T.normalize(x.data)
    b, n, d = xhat.shape
    sel = slice(None) if rows is None else rows
    xq, res = xhat[:, sel], x.data[:, sel]
    m, h = xq.shape[1], n_heads
    xq = xq.reshape(b * m, d)
    xT = np.ascontiguousarray(xhat.transpose(0, 2, 1))   # both score products read it
    q = (xq @ QK + bQK).reshape(b, m * h, d)      # row (i, head) of window b
    s = (q @ xT).reshape(b, m, h, n)
    bias = np.asarray(mask_bias, dtype=s.dtype)
    s += (bias[:, 0] if bias.ndim == 4 else bias)[..., None, :]
    s -= s.max(axis=-1, keepdims=True)
    P = np.exp(s, out=s)
    P /= P.sum(axis=-1, keepdims=True)
    P = P.reshape(b, m * h, n)                    # the attention weights
    z = (P @ xhat).reshape(b * m, h * d)          # per head, weights · xhat
    out = z @ OV
    out += arrays[f"blk{l}_attn_o_b"]
    out += res.reshape(b * m, d)
    parents = [x] + [p[name] for name in names] + [t for pair in lora.values() for t in pair]

    def bwd(g):
        g2 = g.reshape(b * m, d)
        dz = (g2 @ OV.T).reshape(b, m * h, d)
        dS = dz @ xT
        dS -= (dS * P).sum(axis=-1, keepdims=True)
        dS *= P                                   # the score gradient [b, m*h, n]
        dq = (dS @ xhat).reshape(b * m, h * d)
        if x.requires_grad:
            dxhat = P.transpose(0, 2, 1) @ dz + dS.transpose(0, 2, 1) @ q   # [b, n, d]
            dxhat[:, sel] += (dq @ QK.T).reshape(b, m, d)
            dx = T.normalize_grad(dxhat, xhat, inv)   # in place: dxhat is spent
            dx[:, sel] += g
            x._accum(dx)
        if any(t.requires_grad for t in parents[1:]):
            ones = np.ones(b * m, dtype=g2.dtype)
            grads = _unfold_attention_grads(l, maps, xq.T @ dq, ones @ dq, z.T @ g2, ones @ g2)
            for stem, (A, B) in lora.items():
                dW = grads[f"{stem}_W"]
                A._accum(dW @ B.data.T)
                B._accum(A.data.T @ dW)
            for name in names:
                p[name]._accum(grads[name])

    return Tensor(out.reshape(b, m, d), _parents=tuple(parents), _backward=bwd)


def _unfold_attention_grads(l, maps, dQK, dbQK, dOV, dbVO):
    """The gradients of block l's stored attention tensors (name -> array,
    the wrapped matrices' as those of W + A @ B) from those of the folds
    QK, bQK, OV and bVO, through the head maps `maps` of `_head_maps`."""
    Aq, cq, Ak, Av, Wo = maps
    h, d, dk = Aq.shape
    scale = 1.0 / math.sqrt(dk)
    dQK = dQK.reshape(d, h, d).transpose(1, 0, 2)   # [h, d, d]
    dbQK = dbQK.reshape(h, 1, d)
    dOV = dOV.reshape(h, d, d)

    def merged(a):   # [h, d, dk] -> [d, h*dk], `_head_maps`' heads undone
        return a.transpose(1, 0, 2).reshape(d, h * dk)

    return {
        f"blk{l}_attn_q_W": merged(dQK @ Ak) * scale,
        f"blk{l}_attn_q_b": (dbQK @ Ak).reshape(-1) * scale,
        f"blk{l}_attn_k_W": merged(dQK.transpose(0, 2, 1) @ Aq + dbQK.transpose(0, 2, 1) @ cq),
        f"blk{l}_attn_v_W": merged(dOV @ Wo.transpose(0, 2, 1)),
        f"blk{l}_attn_o_W": (Av.transpose(0, 2, 1) @ dOV).reshape(h * dk, d),
        f"blk{l}_attn_o_b": dbVO,
    }


class PolicyModel:
    """Holds all parameters plus the forward pass; single-inference only."""

    def __init__(self, config: ModelConfig, seed=0):
        self._build(config, np.random.default_rng(seed))

    @classmethod
    def _undrawn(cls, config: ModelConfig, lora_rank=None):
        """A model of config's parameter shapes, LoRA-wrapped at `lora_rank`
        unless it is None, that draws nothing: the values a seed would draw
        are left unset, for a caller that replaces them."""
        model = cls.__new__(cls)
        model._build(config, None)
        if lora_rank is not None:
            model._enable_lora(lora_rank, None)
        return model

    def _build(self, config, rng):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self.lora_rank = None   # the adapters' rank once enable_lora wraps the model
        self.forward_count = 0
        dt = config.np_dtype
        d, fd = config.embed_size, config.feature_dim
        ns, nc = _SCALAR_IDX.size, _CONV_IDX.size

        def add(name, t):
            self.params[name] = t
            return t

        add("scalar_K", _init(rng, (ns, d), 0.5, dt))
        add("enc_conv_K", _init(rng, (nc, CONV_WIDTH, fd), 0.5 / math.sqrt(CONV_WIDTH), dt))
        add("conv_embed_W", _init(rng, (nc, fd, d), 1.0 / math.sqrt(fd), dt))
        # the token biases are drawn, not zero: a token whose input is 0 (an
        # action 0, a zero-variance feature) is then no exact-zero row, which
        # the first block's ln1 backward would scale by 1/sqrt(LN_EPS)
        add("state_b", _init(rng, (d,), 0.02, dt))
        add("W_return", _init(rng, (1, d), 0.5, dt))
        add("b_return", _init(rng, (d,), 0.02, dt))
        add("W_action", _init(rng, (1, d), 0.5, dt))
        add("b_action", _init(rng, (d,), 0.02, dt))

        s = 1.0 / math.sqrt(d)
        for l in range(config.n_layers):   # no layer-norm tensor, no k or v bias (module doc)
            for w in ("q", "k", "v", "o"):
                add(f"blk{l}_attn_{w}_W", _init(rng, (d, d), s, dt))
                if w in ("q", "o"):
                    add(f"blk{l}_attn_{w}_b", _zeros((d,), dt))
            add(f"blk{l}_ffn_W1", _init(rng, (d, 4 * d), s, dt))
            add(f"blk{l}_ffn_b1", _zeros((4 * d,), dt))
            add(f"blk{l}_ffn_W2", _init(rng, (4 * d, d), 1.0 / math.sqrt(4 * d), dt))
            add(f"blk{l}_ffn_b2", _zeros((d,), dt))

        add("head_W", _init(rng, (d, ACTION_COUNT), s, dt))
        add("head_b", _zeros((ACTION_COUNT,), dt))

    # ------------------------------------------------------------------ LoRA

    def lora_param_names(self):
        return [n for n in self.params if "_lora_" in n]

    def enable_lora(self, rank=LORA_RANK, seed=1):
        """Wrap each LORA_TARGETS matrix with trainable A (random) / B
        (zero) factors of `rank`, and freeze every block tensor.

        With B zero-initialized the wrapped model is exactly the base model.
        Besides the adapters, only the encoders, the embeddings and the head
        train.
        """
        self._enable_lora(rank, np.random.default_rng(seed))

    def _enable_lora(self, rank, rng):
        if self.lora_rank is not None:
            raise ValueError("LoRA already enabled")
        if rank < 1:
            raise ValueError("lora rank must be >= 1")
        cfg = self.config
        dt = cfg.np_dtype
        self.lora_rank = rank
        for l in range(cfg.n_layers):
            for name in list(self.params):
                if name.startswith(f"blk{l}_"):
                    self.params[name].requires_grad = False
            for w in LORA_TARGETS:
                base = self.params[f"blk{l}_attn_{w}_W"]
                d_in, d_out = base.shape
                if rank >= min(d_in, d_out):
                    import warnings
                    warnings.warn(f"LoRA rank {rank} >= min{(d_in, d_out)}; not low-rank")
                self.params[f"blk{l}_attn_{w}_lora_A"] = _init(rng, (d_in, rank), 0.01, dt)
                self.params[f"blk{l}_attn_{w}_lora_B"] = _zeros((rank, d_out), dt)

    def merge_lora(self):
        """Dense W0 + A@B for every wrapped matrix, keyed by base name."""
        merged = {}
        if self.lora_rank is not None:
            for l in range(self.config.n_layers):
                for w in LORA_TARGETS:
                    stem = f"blk{l}_attn_{w}"
                    A = self.params[f"{stem}_lora_A"].data
                    B = self.params[f"{stem}_lora_B"].data
                    merged[f"{stem}_W"] = self.params[f"{stem}_W"].data + A @ B
        return merged

    def merged_model(self):
        """A LoRA-free copy whose base matrices absorb the trained deltas."""
        clone = PolicyModel._undrawn(self.config)
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

    def _window(self, returns, states, actions):
        """returns/actions [batch, w] and states [batch, w, 8] in the model
        dtype, or TensorError."""
        dt = self.config.np_dtype
        returns, states, actions = (np.asarray(a, dtype=dt) for a in (returns, states, actions))
        b, w = returns.shape
        if states.shape != (b, w, STATE_DIM) or actions.shape != (b, w):
            raise T.TensorError("window length mismatch across modalities")
        return returns, states, actions

    def _rows(self, returns, states, actions):
        """The first block's input, `step_rows` of the stored tensors: the
        one call by which `forward` builds its rows."""
        return step_rows(self.params, *self._window(returns, states, actions))

    def encode_state(self, states):
        """states: [batch, w, 8] array -> embeddings [batch, w, 8, d]: the
        state tokens of `build_sequence`.

        Feature i of the third axis is STATE_FEATURES[i].
        """
        states = np.asarray(states, dtype=self.config.np_dtype)
        if states.ndim != 3 or states.shape[2] != STATE_DIM:
            raise T.TensorError(f"encode_state expects [batch, w, {STATE_DIM}], got {states.shape}")
        b, w, _ = states.shape
        zeros = np.zeros((b, w))
        tokens = self.build_sequence(zeros, states, zeros)[0].data
        return Tensor(tokens.reshape(b, w, TOKENS_PER_STEP, -1)[:, :, 1:-1])

    def build_sequence(self, returns, states, actions):
        """Interleave [R, s1..s8, a] per step: the per-metric view.

        returns/actions: [batch, w]; states: [batch, w, 8].  Output: the
        paper's per-metric tokens [batch, 10*w, d], twice, as a Tensor with
        no graph: channel c's taps of `_taps` times `fold_token_conv`'s
        kernel c, plus its bias.  `forward` does not build them: its rows
        (`step_rows`) fold the mean of the 8 state tokens into the kernel.
        """
        returns, states, actions = self._window(returns, states, actions)
        K, B = fold_token_conv({name: self.params[name].data for name in _TOKEN_PARAMS})
        b, w = returns.shape
        taps = _taps(returns, states, actions, K.dtype).reshape(b * w, TOKENS_PER_STEP, -1)
        tokens = (taps.transpose(1, 0, 2) @ K).transpose(1, 0, 2) + B
        tokens = Tensor(tokens.reshape(b, w * TOKENS_PER_STEP, -1))
        return tokens, tokens

    def _attention_block(self, x, l, mask_bias, rows=None):
        """Causal self-attention and FFN, each on its normalised input and
        with its residual; the attention and its residual are one node,
        `folded_attention`.

        With `rows`, only those query positions are computed, and `mask_bias`
        holds only their bias rows: they still score every token, and the
        block returns [b, len(rows), d].
        """
        x = folded_attention(x, self.params, l, self.config.n_heads, mask_bias, rows)
        ln2 = T.layer_norm(x)
        hdn = T.linear(ln2, self.params[f"blk{l}_ffn_W1"], self.params[f"blk{l}_ffn_b1"]).relu()
        return x + T.linear(hdn, self.params[f"blk{l}_ffn_W2"], self.params[f"blk{l}_ffn_b2"])

    # `timesteps` stays for perfbench's call; ROADMAP item 1 (the benchmark change) drops it
    def forward(self, returns, states, actions, timesteps=None, pad_mask=None):
        """One inference pass -> per-step action logits [batch, w, 3].

        `timesteps` is ignored: the model has no position input.
        pad_mask: [batch, w] with 1 for real steps, 0 for left padding;
        padded steps' rows are blocked from attention and excluded by the trainer.
        The blocks see `step_rows`, 3 rows per step, [return, mean state,
        action].  The head reads each step's state row, so the last block
        computes only those rows, and only their bias rows are built; the
        full bias is built only for the earlier blocks of a deeper model.
        """
        cfg = self.config
        self.forward_count += 1
        x = raw_rows = self._rows(returns, states, actions)
        n = x.shape[1]
        positions = np.arange(n // ROWS_PER_STEP) * ROWS_PER_STEP + _HEAD_ROW
        if cfg.n_layers > 1:
            bias = _attention_bias(pad_mask, n, cfg.np_dtype)
            for l in range(cfg.n_layers - 1):
                x = self._attention_block(x, l, bias)
        if cfg.n_layers:
            x = self._attention_block(x, cfg.n_layers - 1,
                                      _attention_bias(pad_mask, n, cfg.np_dtype, rows=positions),
                                      rows=positions)   # [b, w, d]
        else:
            x = T.select_positions(x, positions)
        x = x + T.select_positions(raw_rows, positions)
        return T.linear(x, self.params["head_W"], self.params["head_b"])

    def predict(self, returns, states, actions, pad_mask=None):
        """The newest step's logits [batch, 3] of each window, in the model
        dtype, with no graph kept: for one window, what
        `InferencePolicy.logits` returns."""
        with T.no_grad():
            return self.forward(returns, states, actions, pad_mask=pad_mask).data[:, -1]


class InferencePolicy:
    """A read-only snapshot of a PolicyModel that computes, in plain numpy,
    the newest step's logits of one window, for the closed loop's decisions.

    Built once, in float64 and stored in the model dtype:
    - the token encoders fold into one causal conv kernel
      [CONV_WIDTH, d] per token type, by `fold_token_conv`, and those
      kernels fold with the mean of the 8 state tokens into one
      [10·CONV_WIDTH, 3d] kernel over a step's taps (`fold_step_rows`),
      the kernel the trainable model's `step_rows` builds at every
      forward;
    - LoRA deltas are merged into their base matrices (`merge_lora`);
    - each attention head folds, with the attention scale, into a
      query-key and a value-output matrix, by `fold_attention`, the fold
      the trainable model's attention node runs at every forward.

    `logits` takes one window as its real steps alone, n <= context_window
    of them, and returns the newest step's head row.  Left padding is
    dropped rather than masked: a padded step is a zero input whose keys
    are blocked, so a left-padded window's newest logits are those of its
    real steps alone.  The pass builds no Tensor.  The step-major taps
    [n, 10·CONV_WIDTH] of `_taps`, which `step_rows` reads too, times the
    folded kernel give the 3n block rows in one product; the newest action
    row comes after the head row and so is dropped.

    The 3n - 1 rows up to the head row are the first block's input, and the
    last of them, the newest state row, is the read-out's raw row.  Each
    block normalises its
    input's rows through the [d, d] centring matrix, scores its query rows
    straight against the normalised tokens and averages those tokens with
    the weights, so it forms no key and no value.  The last block computes
    one query row per head, which sees every token, so it needs no mask,
    and it runs its ln2, FFN and the head on that row as vectors; only the
    earlier blocks of a deeper model compute every row, under the cached
    causal bias.  Later changes to the model do not reach the snapshot.
    """

    def __init__(self, model: PolicyModel):
        cfg = self.config = model.config
        self.forward_count = 0
        dt, d = cfg.np_dtype, cfg.embed_size
        p = {name: t.data.astype(np.float64) for name, t in model.params.items()}
        p.update((name, W.astype(np.float64)) for name, W in model.merge_lora().items())
        blocks = [(*fold_attention(p, l, cfg.n_heads),
                   *(p[f"blk{l}_ffn_{name}"] for name in ("W1", "b1", "W2", "b2")))
                  for l in range(cfg.n_layers)]

        def frozen(a):
            a = np.ascontiguousarray(a, dtype=dt)
            a.flags.writeable = False
            return a

        self._token_K, self._token_b = map(frozen, fold_step_rows(*fold_token_conv(p)))
        self._blocks = [tuple(map(frozen, blk)) for blk in blocks]
        self._head = frozen(p["head_W"]), frozen(p["head_b"])
        # x @ centre subtracts each row's mean; xc² @ mean_of is its variance
        self._centre = frozen(np.eye(d) - 1.0 / d)
        self._mean_of = frozen(np.full((d, 1), 1.0 / d))

    def _normalize(self, x):
        """Each row of x standardised over its last axis, as T.normalize's
        first output, through the centring matrix: fewer calls on few rows."""
        xc = x @ self._centre
        return xc / np.sqrt(np.square(xc) @ self._mean_of + T.LN_EPS)

    def _block(self, x, xhat, blk, last):
        """Causal self-attention and FFN, each with its residual, of
        the block input x [m, d] whose normalised tokens are xhat [m, d];
        with `last`, x is its newest row alone [d], the one query row, and
        the block returns that row ([d])."""
        QK, bQK, OV, bVO, W1, b1, W2, b2 = blk
        m, d = xhat.shape
        h = self.config.n_heads
        if last:
            s = (xhat[-1] @ QK + bQK).reshape(h, d) @ xhat.T              # [h, m]
        else:
            s = (xhat @ QK + bQK).reshape(m, h, d).transpose(1, 0, 2) @ xhat.T   # [h, m, m]
            s += _mask_arrays(m, x.dtype)[0]
        s -= np.maximum.reduce(s, axis=-1, keepdims=True)
        e = np.exp(s, out=s)
        att = (e @ xhat) / np.add.reduce(e, axis=-1, keepdims=True)   # per head, weights · xhat
        if last:
            x = x + att.reshape(h * d) @ OV + bVO
            xc = x - x @ self._mean_of
            xhat = xc / math.sqrt(xc @ xc / d + T.LN_EPS)
        else:
            x = x + att.transpose(1, 0, 2).reshape(m, h * d) @ OV + bVO
            xhat = self._normalize(x)
        return x + np.maximum(xhat @ W1 + b1, 0.0) @ W2 + b2

    def logits(self, returns, states, actions):
        """The newest step's logits [3], in the model dtype, of a window of
        n <= context_window real steps, as `PolicyModel.predict` gives them
        for the window left-padded to any length.

        returns: the return channel, a scalar or [n]; states: [n, 8];
        actions: the n - 1 earlier steps' actions (the newest step's action
        token comes after the head row, so it has none).
        """
        cfg = self.config
        d = cfg.embed_size
        self.forward_count += 1
        states = np.asarray(states)
        actions = np.asarray(actions, dtype=cfg.np_dtype)
        n = len(states) if states.ndim == 2 else 0
        if states.shape != (n, STATE_DIM) or not 1 <= n <= cfg.context_window \
                or actions.shape != (n - 1,) or np.ndim(returns) and np.shape(returns) != (n,):
            raise T.TensorError(f"a window of 1..{cfg.context_window} steps takes returns [n] or "
                                f"a scalar, states [n, {STATE_DIM}] and n - 1 actions")
        # the newest step's action, left 0, feeds only its action row, which is dropped
        taps = _taps(returns, states[None], actions, self._token_K.dtype)
        # the block input, up to the newest state row, which is the read-out's raw row
        x = (taps @ self._token_K + self._token_b).reshape(n * ROWS_PER_STEP, d)[:-1]
        raw = x[-1]
        if not self._blocks:
            x = raw
        for l, blk in enumerate(self._blocks):
            last = l == cfg.n_layers - 1
            xhat = self._normalize(x)
            x = self._block(x[-1] if last else x, xhat, blk, last)
        W, c = self._head
        return (x + raw) @ W + c


# --------------------------------------------------------------- checkpointing


def save_checkpoint(model: PolicyModel, path, feature_stats=None, extra=None):
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(model.config),
        # loading wraps LoRA again, which freezes what it froze before saving
        "lora_rank": model.lora_rank,
        "feature_stats": feature_stats,
        "extra": extra or {},
    }
    arrays = {f"param::{n}": p.data for n, p in model.params.items()}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _stored_config(cfg_d):
    """The ModelConfig a checkpoint's meta describes, or CheckpointError."""
    try:
        return ModelConfig(**cfg_d)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"the stored model config does not build a model: {e}") from e


def load_checkpoint(path):
    """Returns (model, feature_stats, extra); bit-exact parameter round trip."""
    try:
        with np.load(path, allow_pickle=False) as z:
            meta = json.loads(bytes(z["__meta__"]).decode())
            if not isinstance(meta, dict):
                raise CheckpointError(f"corrupt checkpoint {path}: its meta is not a JSON object")
            version = meta.get("version")
            if type(version) is int and version < CHECKPOINT_VERSION:
                raise CheckpointError(f"{path} is a version-{version} checkpoint, a layout this "
                                      f"release no longer reads; retrain it with `aqmlab train`")
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(f"unsupported checkpoint version {version}")
            cfg = _stored_config(meta["config"])
            rank = meta["lora_rank"]
            if rank is not None and (type(rank) is not int or rank < 1):
                raise CheckpointError(f"the stored LoRA rank {rank!r} is not a positive integer")
            model = PolicyModel._undrawn(cfg, lora_rank=rank)
            saved = {key[len("param::"):]: z[key] for key in z.files if key.startswith("param::")}
            unbuilt = sorted(saved.keys() - model.params.keys())
            if unbuilt:
                raise CheckpointError(f"{path} stores {', '.join(unbuilt)}, which its meta "
                                      f"does not build")
            for name, param in model.params.items():
                if name not in saved:
                    raise CheckpointError(f"missing parameter {name}")
                got, want = saved[name], param.data
                if got.shape != want.shape or got.dtype != want.dtype:
                    raise CheckpointError(
                        f"parameter {name} is {got.dtype}{list(got.shape)}, but the stored "
                        f"config builds {want.dtype}{list(want.shape)}")
                param.data = got
    except (OSError, ValueError, KeyError, io.UnsupportedOperation, zipfile.BadZipFile) as e:
        raise CheckpointError(f"corrupt checkpoint {path}: {e}") from e
    return model, meta.get("feature_stats"), meta.get("extra", {})
