"""Minimal dense-tensor math with reverse-mode automatic differentiation.

Just enough machinery for the policy network: linear maps, 1D convolution,
layer normalization, softmax, attention, cross-entropy and a clipped-SGD
optimizer.  Inside `no_grad()` ops record no graph, which is how inference
runs.

Arrays are numpy, stored in the model dtype (float32 by default).  The hot
ops are shaped for BLAS: `linear` is one 2-D GEMM forward and two in its
backward (input and weight gradients) plus one bias reduction; `@` with a 2-D
weight folds the batch axes into that GEMM.  The fused nodes with a
backward of their own are the ones the train step runs: `linear`,
`layer_norm` and `cross_entropy` here, and the model's `token_sequence`
and `folded_attention`.  `conv1d` and `attention` are compositions of the
grad-checked primitives, the references the model's tests compare its
nodes with.  Layer normalization runs in the model dtype (`normalize`);
float64 is kept only where a reduction needs it:
`Tensor.sum`, the cross-entropy log-sum-exp and the optimizer's global
gradient norm.  A backward computes no gradient for an operand with
requires_grad False, such as an attention mask or an input batch.
"""

from __future__ import annotations

import contextlib
import contextvars
import math

import numpy as np

LN_EPS = 1e-5   # the layer-norm epsilon: the default of normalize and layer_norm


class TensorError(ValueError):
    pass


def _as_array(x, dtype=None):
    a = np.asarray(x)
    if dtype is not None:
        a = a.astype(dtype, copy=False)
    elif a.dtype.kind != "f":
        a = a.astype(np.float32)
    return a


_GRAD_ENABLED = contextvars.ContextVar("aqmlab_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Run ops without recording the graph: results keep no parents and no
    backward function, so nothing from the forward pass outlives its use.

    Restores the previous mode on exit (exceptions included) and nests.
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def _sum_rows(a):
    """Sum of the rows of 2-D `a`, as one BLAS matrix-vector product: several
    times faster than numpy's axis-0 reduction when rows are short."""
    return np.ones(a.shape[0], dtype=a.dtype) @ a


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    if grad.shape[grad.ndim - len(shape):] == shape:
        # a trailing-shape operand (a bias): one sum over the folded leading axes
        return _sum_rows(grad.reshape(-1, math.prod(shape))).reshape(shape)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A dense array node in a dynamically recorded computation graph.

    requires_grad on an op result means "some trainable leaf feeds it";
    backward prunes subtrees where it is False.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None, _parents=(), _backward=None):
        self.data = _as_array(data, dtype)
        self.grad = None
        if _parents and not _GRAD_ENABLED.get():
            _parents, _backward = (), None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    # ------------------------------------------------------------------ graph

    def backward(self):
        if self.data.size != 1:
            raise TensorError(f"backward() needs a scalar loss, got shape {self.shape}")
        # Iterative depth-first post-order, in the order a recursive visit of
        # _parents would take.  A recursive closure would sit in a reference
        # cycle with `topo`, and so keep the whole graph alive until the
        # cyclic collector ran.
        topo, seen, stack = [], set(), [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
            elif id(node) not in seen:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((p, False) for p in reversed(node._parents) if id(p) not in seen)
        for node in topo:
            if node._backward is not None:  # leaves keep accumulating across calls
                node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # every consumer ran before this node, so its gradient is spent
                node.grad = None

    def _accum(self, g):
        if not self.requires_grad:
            return
        g = g.astype(self.data.dtype, copy=False)
        if self.grad is None:
            # keep a fresh array, or a reshape of a whole one; copy a slice or
            # a broadcast, which would pin a larger array or repeat entries
            whole = g.base is None or (g.flags.c_contiguous and g.size == g.base.size)
            self.grad = g if whole else g.copy()
        else:
            self.grad = self.grad + g

    # -------------------------------------------------------------- operators

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)
        out_data = self.data + other.data

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.data.shape))

        return Tensor(out_data, _parents=(self, other), _backward=bwd)

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)
        out_data = self.data * other.data

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.data.shape))

        return Tensor(out_data, _parents=(self, other), _backward=bwd)

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)
        return self + (-other)

    __radd__ = __add__
    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, Tensor):
            other = Tensor(other, dtype=self.data.dtype)
        a, b = self.data, other.data
        if a.ndim >= 2 and b.ndim == 2:
            # a 2-D weight: fold the batch axes into one GEMM
            return linear(self, other)
        out_data = a @ b

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape))

        return Tensor(out_data, _parents=(self, other), _backward=bwd)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src_shape = self.data.shape
        out_data = self.data.reshape(shape)

        def bwd(g):
            self._accum(g.reshape(src_shape))

        return Tensor(out_data, _parents=(self,), _backward=bwd)

    def transpose(self, *axes):
        inv = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def bwd(g):
            self._accum(g.transpose(inv))

        return Tensor(out_data, _parents=(self,), _backward=bwd)

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64)
        out_data = out_data.astype(self.data.dtype)

        def bwd(g):
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            self._accum(np.broadcast_to(gg, self.data.shape))

        return Tensor(out_data, _parents=(self,), _backward=bwd)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def relu(self):
        mask = self.data > 0
        out_data = self.data * mask

        def bwd(g):
            self._accum(g * mask)

        return Tensor(out_data, _parents=(self,), _backward=bwd)

    def tanh(self):
        out_data = np.tanh(self.data)

        def bwd(g):
            self._accum(g * (1.0 - out_data * out_data))

        return Tensor(out_data, _parents=(self,), _backward=bwd)


def concat(tensors, axis):
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accum(g[tuple(idx)])

    return Tensor(out_data, _parents=tuple(tensors), _backward=bwd)


def select_positions(x, positions, axis=1):
    """x.take(positions, axis) with gradient scatter-add (positions: int array).

    Unique positions scatter by plain assignment; repeated ones (also as a
    negative and a positive index) sum through np.add.at.
    """
    positions = np.asarray(positions, dtype=np.int64)
    index = (slice(None),) * axis + (positions,)
    out_data = x.data[index]   # raises on an out-of-range position
    wrapped = positions % max(1, x.data.shape[axis])
    unique = len(set(wrapped.ravel().tolist())) == positions.size

    def bwd(g):
        gx = np.zeros_like(x.data)
        if unique:
            gx[index] = g
        else:
            np.add.at(gx, index, g)
        x._accum(gx)

    return Tensor(out_data, _parents=(x,), _backward=bwd)


def linear(x, W, b=None):
    """x:[*,in] @ W:[in,out] (+ b:[out]) as one node.

    The leading axes of x fold into the rows of one 2-D GEMM, so the weight
    gradient is a single GEMM too and the bias gradient one column sum.
    """
    if W.ndim != 2 or x.ndim < 1 or x.shape[-1] != W.shape[0] or (
            b is not None and b.shape != W.shape[1:]):
        raise TensorError(f"linear shape mismatch: x {x.shape} vs W {W.shape}"
                          + ("" if b is None else f", b {b.shape}"))
    x2 = x.data.reshape(-1, W.shape[0])
    out_data = x2 @ W.data
    if b is not None:
        out_data += b.data
    out_shape = x.shape[:-1] + W.shape[1:]

    def bwd(g):
        g2 = g.reshape(-1, W.shape[1])
        if x.requires_grad:
            x._accum((g2 @ W.data.T).reshape(x.shape))
        if W.requires_grad:
            W._accum(x2.T @ g2)
        if b is not None and b.requires_grad:
            b._accum(_sum_rows(g2))

    parents = (x, W) if b is None else (x, W, b)
    return Tensor(out_data.reshape(out_shape), _parents=parents, _backward=bwd)


def softmax(x, axis=-1):
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        x._accum(out_data * (g - dot))

    return Tensor(out_data, _parents=(x,), _backward=bwd)


def normalize(x, eps=LN_EPS):
    """Array x standardized over its last axis in x's dtype: (x - mean) /
    sqrt(var + eps) and 1 / sqrt(var + eps), the second with a trailing axis
    of 1.  The mean is the corrected two-pass one (Chan, Golub & LeVeque,
    1983): centring on the residual's own mean removes the first mean's
    rounding error, so a mean far above the spread costs no accuracy.
    """
    if eps <= 0:
        raise TensorError("layer_norm eps must be > 0")
    d = x.shape[-1]
    mean_of = np.full((d, 1), 1.0 / d, dtype=x.dtype)   # x @ mean_of: the row means
    x2 = x.reshape(-1, d)
    xc = x2 - x2 @ mean_of
    xc -= xc @ mean_of
    inv = 1.0 / np.sqrt(np.square(xc) @ mean_of + eps)      # [rows, 1]
    xc *= inv
    return xc.reshape(x.shape), inv.reshape(x.shape[:-1] + (1,))


def normalize_grad(dxhat, xhat, inv):
    """The gradient of `normalize`'s input from dxhat, that of its output
    xhat, and its inv: (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) *
    inv over the last axis, computed in place in dxhat where its layout
    allows and returned."""
    d = dxhat.shape[-1]
    g2, xh = dxhat.reshape(-1, d), xhat.reshape(-1, d)
    mean_of = np.full((d, 1), 1.0 / d, dtype=dxhat.dtype)
    prod = g2 * xh
    np.multiply(xh, prod @ mean_of, out=prod)   # xhat * mean(dxhat * xhat)
    g2 -= g2 @ mean_of
    g2 -= prod
    g2 *= inv.reshape(-1, 1)
    return g2.reshape(dxhat.shape)


def layer_norm(x, gamma=None, beta=None, eps=LN_EPS):
    """Normalize over the last axis, then scale by gamma and shift by beta,
    each optional: without either the output is the normalised x."""
    xhat, inv = normalize(x.data, eps)
    out_data = xhat if gamma is None else xhat * gamma.data
    if beta is not None:
        out_data = out_data + beta.data

    def bwd(g):
        g2, xh = g.reshape(-1, g.shape[-1]), xhat.reshape(-1, g.shape[-1])
        if x.requires_grad:
            # normalize_grad writes into its first argument, and g may be
            # another node's gradient too
            x._accum(normalize_grad(g.copy() if gamma is None else g * gamma.data, xhat, inv))
        if gamma is not None and gamma.requires_grad:
            gamma._accum(_sum_rows(g2 * xh))
        if beta is not None and beta.requires_grad:
            beta._accum(_sum_rows(g2))

    parents = tuple(t for t in (x, gamma, beta) if t is not None)
    return Tensor(out_data, _parents=parents, _backward=bwd)


def conv1d(x, K, b=None, padding="same"):
    """Length-preserving 1D convolution, composed of `concat`,
    `select_positions` and `linear`.

    x: [batch, in_ch, length], K: [out_ch, in_ch, k], b: [out_ch].
    padding="same" centers the kernel; "causal" left-pads k-1 so output
    position t depends only on inputs <= t.  The zero-padded input's k taps
    of each position are gathered as [batch, in_ch, length, k], so the
    overlapping taps sum their gradients through the gather's backward.
    """
    if x.ndim != 3 or K.ndim != 3 or x.shape[1] != K.shape[1]:
        raise TensorError(f"conv1d shape mismatch: x {x.shape} vs K {K.shape}")
    n, c, length = x.shape
    out_ch, _, k = K.shape
    if padding == "same":
        pad_l, pad_r = (k - 1) // 2, k // 2
    elif padding == "causal":
        pad_l, pad_r = k - 1, 0
    else:
        raise TensorError(f"unknown padding mode {padding!r}")
    xpad = concat([Tensor(np.zeros((n, c, pad_l), dtype=x.data.dtype)), x,
                   Tensor(np.zeros((n, c, pad_r), dtype=x.data.dtype))], axis=2)
    taps = select_positions(xpad, np.arange(length)[:, None] + np.arange(k), axis=2)
    rows = taps.transpose(0, 2, 1, 3).reshape(n, length, c * k)
    return linear(rows, K.reshape(out_ch, c * k).transpose(1, 0), b).transpose(0, 2, 1)


def cross_entropy(logits, targets, weights=None):
    """Mean negative log-likelihood over rows; optional per-row weights.

    logits: [n, C], targets: int [n] in [0, C).  `weights` (e.g. a padding
    mask) rescales rows; the mean is taken over the total weight.
    """
    targets = np.asarray(targets, dtype=np.int64)
    n, c = logits.shape
    if targets.shape != (n,):
        raise TensorError(f"cross_entropy target shape {targets.shape} != ({n},)")
    if targets.min() < 0 or targets.max() >= c:
        raise TensorError(f"cross_entropy target out of range [0,{c})")
    z = logits.data.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    logp = z[np.arange(n), targets] - lse
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise TensorError(f"cross_entropy weight shape {w.shape} != ({n},)")
    total_w = w.sum()
    if total_w <= 0:
        raise TensorError("cross_entropy: total weight is zero")
    out_data = np.asarray(-(logp * w).sum() / total_w, dtype=logits.data.dtype)

    def bwd(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(n), targets] -= 1.0
        glogits = p * (w / total_w)[:, None] * float(g)
        logits._accum(glogits.astype(logits.data.dtype))

    return Tensor(out_data, _parents=(logits,), _backward=bwd)


def attention(q, k, v, mask_bias=None, heads=None):
    """Scaled dot-product attention, softmax(q kᵀ / sqrt(d_k) + mask_bias) v,
    composed of `@`, `softmax` and the elementwise ops.

    Per-head operands are [.., n, d_k], and the output is [.., m, d_k] for m
    query rows.  With `heads`, q, k and v are instead [b, m, heads*d_k]
    projections, split into heads by a reshape and a transpose, and the
    output is merged back to [b, m, heads*d_k].  `mask_bias` is an additive
    array (0 for allowed, large negative for blocked) broadcastable to the
    score shape [.., m, n].
    """
    def split(t):   # [b, m, heads*d_k] -> [b, heads, m, d_k]
        if heads is None:
            return t
        return t.reshape(t.shape[0], t.shape[1], heads, -1).transpose(0, 2, 1, 3)

    Q, K, V = split(q), split(k), split(v)
    d_k = Q.shape[-1]
    if d_k == 0:
        raise TensorError("attention: d_k must be > 0")
    s = (Q @ K.transpose(*range(K.ndim - 2), K.ndim - 1, K.ndim - 2)) * (1.0 / math.sqrt(d_k))
    if mask_bias is not None:
        s = s + mask_bias
    out = softmax(s) @ V
    if heads is None:
        return out
    return out.transpose(0, 2, 1, 3).reshape(out.shape[0], out.shape[2], -1)


def causal_mask_bias(n, dtype=np.float32, neg=-1e9):
    """Additive bias [n, n]: position i attends to j <= i."""
    bias = np.zeros((n, n), dtype=dtype)
    bias[np.triu_indices(n, k=1)] = neg
    return bias


# ------------------------------------------------------------------ optimizer


class OptimizerFault(RuntimeError):
    pass


def global_grad_norm(params):
    """L2 norm over every gradient of `params`, accumulated in float64: inf or
    nan when any gradient entry is."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            g = p.grad.reshape(-1).astype(np.float64)
            total += float(np.dot(g, g))
    return math.sqrt(total)


def sgd_step(params, lr, clip_norm=None):
    """Clip by global norm, then plain SGD on `params` (trainable only).

    Tensors without requires_grad are never touched.  A non-finite global
    norm raises OptimizerFault before any parameter changes.  Parameters are
    updated in place; gradients are only read, because one gradient array can
    be shared by two leaves (`__add__` hands both the same one).  Returns the
    pre-clip global gradient norm.
    """
    if lr < 0:
        raise TensorError("lr must be >= 0")
    trainable = [p for p in params if p.requires_grad and p.grad is not None]
    norm = global_grad_norm(trainable)
    if not math.isfinite(norm):
        raise OptimizerFault("non-finite gradient; step aborted")
    scale = 1.0
    if clip_norm is not None and clip_norm > 0 and norm > clip_norm:
        scale = clip_norm / norm
    for p in trainable:
        p.data -= (lr * scale) * p.grad
    return norm


def zero_grads(params):
    for p in params:
        p.grad = None


# ----------------------------------------------------------------- grad check


def grad_check(f, params, eps=1e-4, max_coords=64, rng=None):
    """Compare analytic gradients of scalar f() against central differences.

    Returns the max relative error over (sampled) coordinates of `params`.
    """
    rng = rng or np.random.default_rng(0)
    for p in params:
        p.grad = None
    loss = f()
    loss.backward()
    analytic = {id(p): (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for p in params}
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        n = flat.size
        coords = np.arange(n) if n <= max_coords else rng.choice(n, size=max_coords, replace=False)
        ga = analytic[id(p)].reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f().data)
            flat[i] = orig - eps
            fm = float(f().data)
            flat[i] = orig
            num = (fp - fm) / (2.0 * eps)
            denom = max(1.0, abs(num), abs(ga[i]))
            worst = max(worst, abs(num - ga[i]) / denom)
    return worst
