"""Unit tests for the numpy autodiff core."""

import gc
import weakref

import numpy as np
import pytest

from aqmlab import model as model_mod
from aqmlab import tensor as T
from aqmlab.model import ModelConfig, PolicyModel
from aqmlab.tensor import Tensor


def rand(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestBasics:
    def test_add_mul_matmul_shapes(self):
        a = Tensor(rand(3, 4), requires_grad=True)
        b = Tensor(rand(4, 5), requires_grad=True)
        out = (a @ b) * 2.0 + 1.0
        assert out.shape == (3, 5)

    def test_backward_needs_scalar(self):
        a = Tensor(rand(3, 4), requires_grad=True)
        with pytest.raises(T.TensorError):
            (a * 2.0).backward()

    def test_broadcast_add_grad(self):
        a = Tensor(rand(3, 4), requires_grad=True)
        b = Tensor(rand(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_leaf_grads_accumulate_across_backward(self):
        a = Tensor(np.ones(3), requires_grad=True)
        (a * 2.0).sum().backward()
        (a * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full(3, 4.0))

    def test_constant_branches_get_no_grad(self):
        a = Tensor(rand(3), requires_grad=True)
        c = Tensor(rand(3))  # constant input
        (a * c).sum().backward()
        assert c.grad is None

    def test_backward_frees_interior_grads(self):
        a = Tensor(rand(3), requires_grad=True)
        h = a * 2.0
        loss = h.tanh().sum()
        loss.backward()
        assert h.grad is None and loss.grad is None
        np.testing.assert_allclose(a.grad, 2.0 * (1.0 - np.tanh(2.0 * a.data) ** 2))

    def test_graph_freed_without_cyclic_collector(self):
        """After backward, dropping the loss frees the graph by reference
        counting alone; a graph kept for the cyclic collector piles up
        between its (rare) full collections."""
        gc.disable()
        try:
            a = Tensor(rand(3), requires_grad=True)
            h = a * 2.0
            interior = weakref.ref(h.data)
            loss = h.tanh().sum()
            loss.backward()
            del h, loss
            assert interior() is None
        finally:
            gc.enable()

    def test_shared_node_grad_sums_both_paths(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        (a * 3.0 + a * 4.0).sum().backward()
        np.testing.assert_allclose(a.grad, [7.0])


class TestGradChecks:
    """Central-difference checks for every differentiable op."""

    def test_linear(self):
        x = Tensor(rand(4, 6), requires_grad=True)
        W = Tensor(rand(6, 3, seed=1), requires_grad=True)
        b = Tensor(rand(3, seed=2), requires_grad=True)
        w = rand(4, 3, seed=3)
        err = T.grad_check(lambda: (T.linear(x, W, b) * Tensor(w)).sum(),
                           [x, W, b], eps=1e-6)
        assert err < 1e-6

    @pytest.mark.parametrize("x_shape", [(4, 6), (2, 3, 6)])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("frozen_W", [False, True])
    def test_linear_fused(self, x_shape, bias, frozen_W):
        """One node for x @ W + b on 2-D and 3-D x; a frozen W gets no
        gradient while x and b still get theirs."""
        x = Tensor(rand(*x_shape), requires_grad=True)
        W = Tensor(rand(6, 3, seed=1), requires_grad=not frozen_W)
        b = Tensor(rand(3, seed=2), requires_grad=True) if bias else None
        out = T.linear(x, W, b)
        want = x.data @ W.data + (b.data if bias else 0.0)
        np.testing.assert_allclose(out.data, want, rtol=1e-12)
        assert out._parents == ((x, W, b) if bias else (x, W))
        w = rand(*out.shape, seed=3)
        params = [x] + ([] if frozen_W else [W]) + ([b] if bias else [])
        err = T.grad_check(lambda: (T.linear(x, W, b) * Tensor(w)).sum(), params, eps=1e-6)
        assert err < 1e-6
        assert (W.grad is None) == frozen_W

    def test_linear_rejects_mismatched_shapes(self):
        x, W = Tensor(rand(2, 6)), Tensor(rand(6, 3))
        for args in [(Tensor(rand(2, 5)), W), (x, Tensor(rand(6))), (x, W, Tensor(rand(4)))]:
            with pytest.raises(T.TensorError):
                T.linear(*args)

    def test_matmul_2d_weight(self):
        """x [b, n, k] @ W [k, m]: the same values and gradients as
        per-batch products."""
        a = Tensor(rand(3, 4, 5), requires_grad=True)
        W = Tensor(rand(5, 2, seed=1), requires_grad=True)
        w = rand(3, 4, 2, seed=2)
        out = a @ W
        np.testing.assert_allclose(out.data, np.stack([m @ W.data for m in a.data]), rtol=1e-12)
        err = T.grad_check(lambda: ((a @ W) * Tensor(w)).sum(), [a, W], eps=1e-6)
        assert err < 1e-6
        np.testing.assert_allclose(W.grad, np.einsum("bnk,bnm->km", a.data, w), rtol=1e-12)

    def test_matmul_batched(self):
        a = Tensor(rand(2, 3, 4), requires_grad=True)
        b = Tensor(rand(2, 4, 5, seed=1), requires_grad=True)
        w = rand(2, 3, 5, seed=2)
        err = T.grad_check(lambda: ((a @ b) * Tensor(w)).sum(), [a, b], eps=1e-6)
        assert err < 1e-5

    def test_softmax(self):
        x = Tensor(rand(5, 7), requires_grad=True)
        w = rand(5, 7, seed=1)
        err = T.grad_check(lambda: (T.softmax(x) * Tensor(w)).sum(), [x], eps=1e-6)
        assert err < 1e-3

    def test_layer_norm(self):
        x = Tensor(rand(3, 8), requires_grad=True)
        g = Tensor(1.0 + 0.1 * rand(8, seed=1), requires_grad=True)
        b = Tensor(rand(8, seed=2), requires_grad=True)
        w = rand(3, 8, seed=3)
        err = T.grad_check(lambda: (T.layer_norm(x, g, b) * Tensor(w)).sum(),
                           [x, g, b], eps=1e-6)
        assert err < 1e-3

    def test_layer_norm_without_gain_or_shift(self):
        """Without gamma and beta the output is `normalize`'s, the node's
        only parent is x, and its backward leaves the upstream gradient
        intact: here `+ x` hands x the same array the layer norm gets."""
        x = Tensor(rand(3, 8), requires_grad=True)
        w = rand(3, 8, seed=3)
        out = T.layer_norm(x)
        assert out._parents == (x,)
        np.testing.assert_array_equal(out.data, T.normalize(x.data)[0])
        err = T.grad_check(lambda: ((T.layer_norm(x) + x) * Tensor(w)).sum(), [x], eps=1e-6)
        assert err < 1e-7

    @pytest.mark.parametrize("padding", ["same", "causal"])
    def test_conv1d(self, padding):
        x = Tensor(rand(2, 3, 9), requires_grad=True)     # [b, in_ch, len]
        K = Tensor(rand(4, 3, 5, seed=1), requires_grad=True)  # [out, in, k]
        b = Tensor(rand(4, seed=2), requires_grad=True)
        w = rand(2, 4, 9, seed=3)
        err = T.grad_check(
            lambda: (T.conv1d(x, K, b, padding=padding) * Tensor(w)).sum(),
            [x, K, b], eps=1e-6)
        assert err < 1e-3

    def test_attention(self):
        q = Tensor(rand(2, 2, 6, 4), requires_grad=True)
        k = Tensor(rand(2, 2, 6, 4, seed=1), requires_grad=True)
        v = Tensor(rand(2, 2, 6, 4, seed=2), requires_grad=True)
        w = rand(2, 2, 6, 4, seed=3)
        mask = T.causal_mask_bias(6)
        err = T.grad_check(
            lambda: (T.attention(q, k, v, mask_bias=mask) * Tensor(w)).sum(),
            [q, k, v], eps=1e-6)
        assert err < 1e-3

    def test_attention_heads(self):
        """The one-node attention on [b, m, heads*d_k] projections, 2 heads:
        a left-pad bias that blocks the first two keys of one window, and a
        query subset (rows 3, 5, 6) of the 7 keys."""
        rows = np.array([3, 5, 6])
        q = Tensor(rand(2, 3, 8), requires_grad=True)
        k = Tensor(rand(2, 7, 8, seed=1), requires_grad=True)
        v = Tensor(rand(2, 7, 8, seed=2), requires_grad=True)
        w = rand(2, 3, 8, seed=3)
        bias = np.broadcast_to(T.causal_mask_bias(7, dtype=np.float64), (2, 1, 7, 7)).copy()
        bias[1, :, :, :2] -= 1e9
        bias = bias[..., rows, :]
        err = T.grad_check(lambda: (T.attention(q, k, v, mask_bias=bias, heads=2) * Tensor(w)).sum(),
                           [q, k, v], eps=1e-6)
        assert err < 1e-6
        # per head, the same values as the per-head form of the op
        def split(t):
            return Tensor(t.data.reshape(2, -1, 2, 4).transpose(0, 2, 1, 3))
        per_head = T.attention(split(q), split(k), split(v), mask_bias=bias).data
        np.testing.assert_allclose(T.attention(q, k, v, mask_bias=bias, heads=2).data,
                                   per_head.transpose(0, 2, 1, 3).reshape(2, 3, 8), rtol=0, atol=1e-15)

    def test_cross_entropy(self):
        x = Tensor(rand(6, 3), requires_grad=True)
        tgt = np.array([0, 1, 2, 0, 1, 2])
        err = T.grad_check(lambda: T.cross_entropy(x, tgt), [x], eps=1e-6)
        assert err < 1e-3

    def test_embedding(self):
        tab = Tensor(rand(5, 4), requires_grad=True)
        idx = np.array([[0, 2, 2], [4, 0, 1]])
        w = rand(2, 3, 4, seed=1)
        err = T.grad_check(lambda: (T.select_positions(tab, idx, axis=0) * Tensor(w)).sum(),
                           [tab], eps=1e-6)
        assert err < 1e-3

    def test_relu_tanh_mean(self):
        x = Tensor(rand(4, 4) + 0.3, requires_grad=True)
        err = T.grad_check(lambda: (x.relu() + x.tanh()).mean(), [x], eps=1e-6)
        assert err < 1e-3

    def test_select_positions(self):
        """Unique positions scatter by assignment; repeated ones (-1 and 7
        name the same row) must sum their gradients."""
        for positions in ([1, 5], [5, 1, 7], [1, 5, 1], [-1, 7, 2]):
            positions = np.array(positions)
            x = Tensor(rand(2, 8, 3), requires_grad=True)
            w = rand(2, positions.size, 3, seed=1)
            err = T.grad_check(
                lambda: (T.select_positions(x, positions) * Tensor(w)).sum(),
                [x], eps=1e-6)
            assert err < 1e-3, positions
            want = np.zeros_like(x.data)
            np.add.at(want, (slice(None), positions), w)
            np.testing.assert_array_equal(x.grad, want, err_msg=str(positions))


class TestFloat32Paths:
    """The float32 model paths against float64 references."""

    @staticmethod
    def layer_norm64(x, g, b, eps=1e-5):
        mu = x.mean(axis=-1, keepdims=True)
        return g * (x - mu) / np.sqrt(((x - mu) ** 2).mean(axis=-1, keepdims=True) + eps) + b

    @pytest.mark.parametrize("shape", [(7, 32), (3, 20, 32), (2, 5, 8)])
    def test_layer_norm_matches_float64(self, shape):
        d = shape[-1]
        x64 = rand(*shape) * 5 + 3
        g64, b64 = 1.0 + 0.3 * rand(d, seed=1), rand(d, seed=2)
        w = rand(*shape, seed=3)
        x, g, b = (Tensor(a.astype(np.float32), requires_grad=True) for a in (x64, g64, b64))
        out = T.layer_norm(x, g, b)
        assert out.data.dtype == np.float32
        want = self.layer_norm64(x64, g64, b64)
        # float32 rounding of the inputs and the output, at |out| up to ~5
        np.testing.assert_allclose(out.data, want, rtol=0, atol=2e-5)
        (out * Tensor(w.astype(np.float32))).sum().backward()
        # the float64 op matches the reference exactly, and its gradients
        # are the reference for the float32 ones
        x2, g2, b2 = (Tensor(a, requires_grad=True) for a in (x64, g64, b64))
        out64 = T.layer_norm(x2, g2, b2)
        np.testing.assert_allclose(out64.data, want, rtol=1e-12, atol=1e-12)
        (out64 * Tensor(w)).sum().backward()
        for lo, hi in ((x, x2), (g, g2), (b, b2)):
            assert lo.grad.dtype == np.float32
            np.testing.assert_allclose(lo.grad, hi.grad, rtol=1e-4, atol=1e-4)

    def test_normalize_is_float64_reduced(self):
        """A mean 1e4 times the spread: float32 reductions would lose it."""
        x64 = 1e4 + rand(5, 64)
        xhat, inv = T.normalize(x64.astype(np.float32))
        ref = x64.astype(np.float32).astype(np.float64)
        mu, var = ref.mean(axis=-1, keepdims=True), ref.var(axis=-1, keepdims=True)
        np.testing.assert_allclose(xhat, (ref - mu) / np.sqrt(var + 1e-5), atol=1e-5)
        np.testing.assert_allclose(inv, 1.0 / np.sqrt(var + 1e-5), rtol=1e-6)
        assert xhat.dtype == inv.dtype == np.float32 and inv.shape == (5, 1)

    def test_normalize_keeps_a_mean_a_million_times_the_spread(self):
        """float32 rows with a mean 1e6 times their spread: the corrected
        two-pass mean loses nothing to the first mean's rounding, so x̂ and
        1/sqrt(var + eps) match float64 on the same float32 input."""
        x = (1e6 + rand(6, 32)).astype(np.float32)
        ref = x.astype(np.float64)
        mu, var = ref.mean(axis=-1, keepdims=True), ref.var(axis=-1, keepdims=True)
        assert (mu / np.sqrt(var) > 5e5).all()
        xhat, inv = T.normalize(x)
        assert xhat.dtype == inv.dtype == np.float32
        np.testing.assert_allclose(xhat, (ref - mu) / np.sqrt(var + 1e-5), rtol=0, atol=1e-5)
        np.testing.assert_allclose(inv, 1.0 / np.sqrt(var + 1e-5), rtol=1e-5)

    def test_normalize_grad_returns_the_gradient_for_a_strided_dxhat(self):
        """A dxhat whose reshape must copy (a transposed view) gets the same
        gradient as a contiguous one."""
        xhat, inv = T.normalize(rand(4, 6, 8))
        dxhat = rand(4, 6, 8, seed=1)
        want = T.normalize_grad(dxhat.copy(), xhat, inv)
        strided = np.ascontiguousarray(dxhat.transpose(1, 0, 2)).transpose(1, 0, 2)
        assert not strided.flags.c_contiguous
        np.testing.assert_allclose(T.normalize_grad(strided, xhat, inv), want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(want, (dxhat - dxhat.mean(-1, keepdims=True) - xhat * (
            dxhat * xhat).mean(-1, keepdims=True)) * inv, rtol=0, atol=1e-12)


class TestConstantOperands:
    def test_no_gradient_is_built_for_a_constant(self, monkeypatch):
        """A backward never hands a gradient to an operand with requires_grad
        False (a mask, an input batch, a frozen weight), so it never computes
        one."""
        accumulated = []
        accum = Tensor._accum

        def recording(self, g):
            accumulated.append(self)
            accum(self, g)

        monkeypatch.setattr(Tensor, "_accum", recording)
        x = Tensor(rand(2, 5, 4), requires_grad=True)
        W = Tensor(rand(4, 4, seed=1), requires_grad=True)
        consts = {
            "batch": Tensor(rand(2, 5, 4, seed=2)),
            "mask": Tensor(rand(5, 4, seed=3)),
            "frozen_W": Tensor(rand(4, 4, seed=4)),
            "frozen_g": Tensor(np.ones(4)),
            "frozen_b": Tensor(np.zeros(4)),
            "table": Tensor(rand(9, 4, seed=5)),
            "kernel": Tensor(rand(4, 4, 3, seed=6)),
        }
        c = consts
        h = (x + c["mask"]) * c["batch"] + c["batch"] * x           # __add__, __mul__ both ways
        h = h @ W + c["batch"] @ W + x @ c["frozen_W"]             # 2-D weights
        h = T.linear(c["batch"], W, c["frozen_b"]) + T.linear(h, c["frozen_W"])
        h = T.layer_norm(h, c["frozen_g"], c["frozen_b"])
        h = h + T.select_positions(c["table"], np.array([[1, 2, 3, 4, 5]] * 2), axis=0)
        h = h + T.conv1d(c["batch"].transpose(0, 2, 1), c["kernel"], padding="causal").transpose(0, 2, 1)
        # the one-node attention at 2 heads, its keys a constant
        h = h + T.attention(h, c["batch"], h, mask_bias=T.causal_mask_bias(5), heads=2)
        # the token op on frozen encoder weights; only the return encoder trains
        enc = PolicyModel(ModelConfig(feature_dim=2, embed_size=4, dtype="float64"),
                          seed=7).params
        frozen = [name for name in model_mod._TOKEN_PARAMS if name != "W_return"]
        consts.update((name, enc[name]) for name in frozen)
        for name in frozen:
            enc[name].requires_grad = False
        steps = np.zeros((2, 1))
        tokens = model_mod.token_sequence(enc, steps + 1.0, rand(2, 1, 8, seed=8), steps)
        h = h + T.select_positions(tokens, np.arange(5))
        h = h + T.concat([T.select_positions(h, np.arange(2), axis=2),
                          T.select_positions(c["batch"], np.arange(2), axis=2)], axis=2)
        h.sum().backward()
        touched = {id(t) for t in accumulated}
        assert not [name for name, t in consts.items() if id(t) in touched]
        assert x.grad is not None and W.grad is not None and enc["W_return"].grad is not None
        assert all(t.grad is None for t in consts.values())


class TestNoGrad:
    def test_ops_record_no_graph(self):
        a = Tensor(rand(3), requires_grad=True)
        with T.no_grad():
            out = (a * 2.0 + 1.0).tanh()
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
        assert (a * 2.0).requires_grad  # recording again after the block

    def test_nests_and_restores_after_exception(self):
        a = Tensor(rand(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            with T.no_grad():
                with T.no_grad():
                    pass
                assert not (a * 1.0).requires_grad  # the inner exit keeps it off
                raise RuntimeError("boom")
        out = a * 1.0
        assert out.requires_grad and out._parents[0] is a


class TestOpSemantics:
    def test_softmax_rows_sum_to_one(self):
        p = T.softmax(Tensor(rand(4, 9) * 10)).data
        np.testing.assert_allclose(p.sum(axis=-1), np.ones(4), atol=1e-6)
        assert (p >= 0).all()

    def test_softmax_extreme_logits_stable(self):
        p = T.softmax(Tensor(np.array([[1e4, 0.0, -1e4]]))).data
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p[0, 0], 1.0, atol=1e-6)

    def test_layer_norm_output_standardized(self):
        x = Tensor(rand(6, 32) * 7 + 3)
        y = T.layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32))).data
        np.testing.assert_allclose(y.mean(axis=-1), 0, atol=1e-5)
        np.testing.assert_allclose(y.std(axis=-1), 1, atol=1e-3)

    @pytest.mark.parametrize("bias", [False, True], ids=["no-bias", "bias"])
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("padding", ["same", "causal"])
    def test_conv1d_values(self, padding, width, bias):
        """Against an einsum over the zero-padded sliding windows: "same"
        pads (width - 1) // 2 on the left, "causal" width - 1."""
        x, K = rand(2, 3, 9), rand(4, 3, width, seed=1)
        b = rand(4, seed=2) if bias else None
        left = width - 1 if padding == "causal" else (width - 1) // 2
        xpad = np.pad(x, ((0, 0), (0, 0), (left, width - 1 - left)))
        win = np.lib.stride_tricks.sliding_window_view(xpad, width, axis=2)   # [b, c, len, k]
        want = np.einsum("bclk,ock->bol", win, K) + (0.0 if b is None else b[:, None])
        got = T.conv1d(Tensor(x), Tensor(K), None if b is None else Tensor(b), padding=padding)
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("heads", [None, 2], ids=["per-head", "heads=2"])
    def test_attention_values(self, heads):
        """Against softmax(Q Kᵀ / sqrt(d_k) + bias) V per head, under a
        [b, 1, m, n] bias that blocks two keys of one window; with `heads`,
        on the heads' [b, m, heads*d_k] merge."""
        q, k, v = rand(2, 2, 3, 4), rand(2, 2, 5, 4, seed=1), rand(2, 2, 5, 4, seed=2)
        bias = rand(2, 1, 3, 5, seed=3)
        bias[1, :, :, :2] -= 1e9
        s = q @ k.swapaxes(-1, -2) / np.sqrt(4) + bias
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True) @ v

        def merge(a):   # [b, heads, m, d_k] -> [b, m, heads*d_k]
            return a.transpose(0, 2, 1, 3).reshape(2, a.shape[2], 8)
        if heads is None:
            got = T.attention(Tensor(q), Tensor(k), Tensor(v), mask_bias=bias).data
        else:
            got = T.attention(Tensor(merge(q)), Tensor(merge(k)), Tensor(merge(v)),
                              mask_bias=bias, heads=heads).data
            want = merge(want)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_conv1d_and_attention_refuse_bad_operands(self):
        with pytest.raises(T.TensorError, match="conv1d shape mismatch"):
            T.conv1d(Tensor(rand(1, 2, 5)), Tensor(rand(3, 4, 3)))
        with pytest.raises(T.TensorError, match="unknown padding mode"):
            T.conv1d(Tensor(rand(1, 2, 5)), Tensor(rand(3, 2, 3)), padding="valid")
        empty = Tensor(np.zeros((1, 3, 0)))
        with pytest.raises(T.TensorError, match="d_k must be > 0"):
            T.attention(empty, empty, empty)

    def test_conv1d_same_length_preserved(self):
        x = Tensor(rand(1, 2, 11))
        K = Tensor(rand(5, 2, 3, seed=1))
        assert T.conv1d(x, K, padding="same").shape == (1, 5, 11)

    def test_conv1d_causal_no_future_leak(self):
        x1 = rand(1, 2, 10)
        x2 = x1.copy()
        x2[0, :, 7:] += 100.0  # perturb the future
        K = Tensor(rand(4, 2, 3, seed=1))
        y1 = T.conv1d(Tensor(x1), K, padding="causal").data
        y2 = T.conv1d(Tensor(x2), K, padding="causal").data
        np.testing.assert_array_equal(y1[0, :, :7], y2[0, :, :7])

    def test_causal_mask_blocks_future(self):
        q = Tensor(rand(1, 1, 5, 4))
        k = Tensor(rand(1, 1, 5, 4, seed=1))
        v1 = rand(1, 1, 5, 4, seed=2)
        v2 = v1.copy()
        v2[0, 0, 4] += 50.0  # change the last value vector only
        mask = T.causal_mask_bias(5)
        o1 = T.attention(q, k, Tensor(v1), mask_bias=mask).data
        o2 = T.attention(q, k, Tensor(v2), mask_bias=mask).data
        np.testing.assert_array_equal(o1[0, 0, :4], o2[0, 0, :4])

    def test_cross_entropy_uniform_logits(self):
        loss = T.cross_entropy(Tensor(np.zeros((10, 3))), np.zeros(10, dtype=int))
        np.testing.assert_allclose(float(loss.data), np.log(3.0), rtol=1e-6)

    def test_cross_entropy_weights(self):
        logits = Tensor(rand(4, 3))
        tgt = np.array([0, 1, 2, 0])
        w = np.array([1.0, 0.0, 0.0, 1.0])
        full = T.cross_entropy(logits, tgt, weights=w)
        sub = T.cross_entropy(Tensor(logits.data[[0, 3]]), tgt[[0, 3]])
        np.testing.assert_allclose(float(full.data), float(sub.data), rtol=1e-6)


class TestOptimizer:
    def _param(self, val, requires_grad=True):
        p = Tensor(np.array(val, dtype=np.float64), requires_grad=requires_grad)
        return p

    def test_sgd_step_basic(self):
        p = self._param([1.0, 2.0])
        p.grad = np.array([0.1, -0.1])
        T.sgd_step([p], lr=0.5, clip_norm=10.0)
        np.testing.assert_allclose(p.data, [0.95, 2.05])

    def test_global_norm_clipping(self):
        p = self._param([0.0, 0.0])
        p.grad = np.array([3.0, 4.0])  # norm 5
        pre = T.sgd_step([p], lr=1.0, clip_norm=1.0)
        assert pre == pytest.approx(5.0)
        np.testing.assert_allclose(p.data, [-0.6, -0.8])

    def test_clip_noop_under_threshold(self):
        p = self._param([0.0])
        p.grad = np.array([0.5])
        T.sgd_step([p], lr=1.0, clip_norm=1.0)
        np.testing.assert_allclose(p.data, [-0.5])

    def test_frozen_param_untouched(self):
        p = self._param([1.0], requires_grad=False)
        p.grad = np.array([9.0])
        T.sgd_step([p], lr=1.0, clip_norm=1.0)
        np.testing.assert_allclose(p.data, [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_grad_raises(self, bad):
        """Raised before any update: every parameter, including those whose
        own gradient is finite, keeps its values."""
        ok, p = self._param([1.0, 2.0]), self._param([1.0])
        ok.grad, p.grad = np.array([0.5, 0.5]), np.array([bad])
        for clip in (1.0, None):
            with pytest.raises(T.OptimizerFault):
                T.sgd_step([ok, p], lr=0.1, clip_norm=clip)
            np.testing.assert_array_equal(ok.data, [1.0, 2.0])
            np.testing.assert_array_equal(p.data, [1.0])

    def test_float32_gradient_norm_accumulates_in_float64(self):
        g = np.full(1 << 20, 1e-3, dtype=np.float32)
        p = Tensor(np.zeros_like(g), requires_grad=True)
        p.grad = g
        assert T.global_grad_norm([p]) == pytest.approx(
            np.sqrt(g.size * float(np.float32(1e-3)) ** 2), rel=1e-12)

    def test_shared_gradient_array_updates_each_leaf_once(self):
        """__add__ hands both leaves the same gradient array; the clipped step
        moves each leaf by it exactly once and leaves it unchanged."""
        a, b = self._param([1.0, -1.0]), self._param([2.0, 0.5])
        c = Tensor(np.array([30.0, 40.0]))
        ((a + b) * c).sum().backward()
        assert a.grad is b.grad
        g = a.grad.copy()
        norm = T.sgd_step([a, b], lr=0.5, clip_norm=1.0)
        assert norm == pytest.approx(np.sqrt(2) * 50.0)
        step = 0.5 * g / norm
        np.testing.assert_allclose(a.data, [1.0, -1.0] - step, rtol=1e-15)
        np.testing.assert_allclose(b.data, [2.0, 0.5] - step, rtol=1e-15)
        np.testing.assert_array_equal(a.grad, g)

    def test_accumulation_matches_large_batch(self):
        """Two half-batch backwards == one full-batch backward, step for step."""
        rng = np.random.default_rng(7)
        X = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, 8)

        def loss_of(W, rows):
            logits = Tensor(X[rows]) @ W
            return T.cross_entropy(logits, y[rows])

        Wa = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        Wb = Tensor(Wa.data.copy(), requires_grad=True)

        (loss_of(Wa, slice(0, 8)) * 1.0).backward()
        (loss_of(Wb, slice(0, 4)) * 0.5).backward()
        (loss_of(Wb, slice(4, 8)) * 0.5).backward()
        np.testing.assert_allclose(Wa.grad, Wb.grad, atol=1e-5)

        T.sgd_step([Wa], lr=0.3, clip_norm=1.0)
        T.sgd_step([Wb], lr=0.3, clip_norm=1.0)
        np.testing.assert_allclose(Wa.data, Wb.data, atol=1e-5)

    def test_zero_grads(self):
        p = self._param([1.0])
        p.grad = np.array([2.0])
        T.zero_grads([p])
        assert p.grad is None
