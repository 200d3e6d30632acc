"""Helpers that several test modules share."""

import json

import numpy as np

from aqmlab.features import CONV_FEATURES, STATE_FEATURES
from aqmlab.model import CONV_WIDTH, TOKENS_PER_STEP


def all_steps(pool):
    """Every step of an ExperiencePool, trajectory by trajectory, as the
    `Step` views its trajectories yield."""
    for traj in pool.trajectories:
        yield from traj


def block_diagonal_tokens(p, returns, states, actions):
    """Every step's 10 tokens [b, w, 10, d] from the stored encoder tensors
    `p` (name -> array), without time rows, computed in their dtype as one
    product: each step's tap-major causal window over the channels
    [R, s1..s8, a] ([CONV_WIDTH * 10], left zeros) times a block-diagonal
    [CONV_WIDTH * 10, 10 * d] matrix whose block c is token c's kernel.

    The kernels are built per feature from the encoders: a temporal
    feature's conv times its embedding, and the width-1 maps of the scalar
    features, the return and the action at the newest tap."""
    E = p["embed_W"]
    d = E.shape[2]
    kernels = np.zeros((TOKENS_PER_STEP, CONV_WIDTH, d), dtype=E.dtype)
    biases = np.zeros((TOKENS_PER_STEP, d), dtype=E.dtype)
    kernels[0, -1], biases[0] = p["W_return"][0], p["b_return"]
    kernels[-1, -1], biases[-1] = p["W_action"][0], p["b_action"]
    conv = [name for name in STATE_FEATURES if name in CONV_FEATURES]
    scalar = [name for name in STATE_FEATURES if name not in CONV_FEATURES]
    for i, name in enumerate(STATE_FEATURES):
        if name in CONV_FEATURES:
            j = conv.index(name)
            kernels[1 + i] = p["enc_conv_K"][j] @ E[i]
        else:
            j = scalar.index(name)
            kernels[1 + i, -1] = p["enc_scalar_W"][j] @ E[i]
        biases[1 + i] = p["embed_b"][i]
    W = np.zeros((CONV_WIDTH, TOKENS_PER_STEP, TOKENS_PER_STEP, d), dtype=E.dtype)
    for c in range(TOKENS_PER_STEP):
        W[:, c, c] = kernels[c]
    b, w = np.shape(returns)
    inputs = np.zeros((b, w + CONV_WIDTH - 1, TOKENS_PER_STEP), dtype=E.dtype)
    inputs[:, CONV_WIDTH - 1:, 0] = returns
    inputs[:, CONV_WIDTH - 1:, 1:-1] = states
    inputs[:, CONV_WIDTH - 1:, -1] = actions
    taps = np.stack([inputs[:, m:m + w] for m in range(CONV_WIDTH)], axis=2)   # [b, w, taps, 10]
    out = taps.reshape(b * w, -1) @ W.reshape(CONV_WIDTH * TOKENS_PER_STEP, -1) + biases.reshape(-1)
    return out.reshape(b, w, TOKENS_PER_STEP, d)


# A saved pool's edits that `ExperiencePool.load` must refuse: the array's
# name, the entry, its new value from the old, and the PoolError's text; an
# edit of "meta" maps the decoded JSON header to a new one.
CORRUPT_POOL_EDITS = [
    ("t1_returns", 5, lambda v: v + 1.0, "trajectory 1 step 5: stored return"),
    ("t0_states", (3, 2), lambda v: np.nan, "trajectory 0 step 3: non-finite state"),
    ("meta", None, lambda m: {k: v for k, v in m.items() if k != "gamma"},
     "has no numeric gamma in its meta, but None"),
    ("meta", None, lambda m: {**m, "gamma": str(m["gamma"])},
     "has no numeric gamma in its meta, but '0."),
]
CORRUPT_POOL_IDS = ["edited-return", "nan-state", "no-gamma", "string-gamma"]


def corrupt_pool_file(src, dst, name, index, edit):
    """Copy the pool file `src` to `dst` with one entry of array `name`
    replaced by edit(old value), or its meta by edit(old meta)."""
    with np.load(src) as z:
        arrays = {k: z[k] for k in z.files}
    if name == "meta":
        meta = edit(json.loads(arrays["meta"].tobytes()))
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    else:
        arrays[name][index] = edit(arrays[name][index])
    with open(dst, "wb") as fh:
        np.savez(fh, **arrays)
    return dst
