import numpy as np
import pytest
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

from fusionscreen import autodiff
from fusionscreen.autodiff import (
    GraphError,
    LEAKY_SLOPE,
    SELU_ALPHA,
    SELU_LAMBDA,
    ShapeError,
    ValueGraph,
    gradient_check,
)


def scalar_graph(w0=1.5, x0=2.0):
    g = ValueGraph()
    w = g.parameter(np.array([[w0]]), "w")
    x = g.input(np.array([[x0]]), "x")
    y = g.apply("matmul", [x, w])
    sq = g.apply("mul", [y, y])
    loss = g.apply("mse-loss", [sq, g.input(np.zeros((1, 1)))])
    return g, w, loss


class TestTape:
    def test_scalar_chain_rule(self):
        # loss = (w*x)^4, d/dw = 4 x^4 w^3
        g, w, loss = scalar_graph(1.5, 2.0)
        grads = g.backward(loss)
        expected = 4 * 2.0 ** 4 * 1.5 ** 3
        assert grads[w][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_forward_replay_matches(self):
        g, _, loss = scalar_graph()
        before = g.value(loss).copy()
        g.forward()
        assert np.array_equal(before, g.value(loss))

    def test_unknown_op_rejected(self):
        g = ValueGraph()
        x = g.input(np.ones(3))
        with pytest.raises(GraphError):
            g.apply("does-not-exist", [x])

    def test_invalid_node_id_rejected(self):
        g = ValueGraph()
        g.input(np.ones(3))
        with pytest.raises(GraphError):
            g.apply("relu", [41])

    def test_non_finite_leaf_rejected(self):
        g = ValueGraph()
        with pytest.raises(GraphError):
            g.input(np.array([1.0, np.inf]))

    def test_backward_needs_scalar_loss(self):
        g = ValueGraph()
        x = g.parameter(np.ones(4))
        y = g.apply("relu", [x])
        with pytest.raises(GraphError):
            g.backward(y)

    def test_unreached_parameter_gets_zero_grad(self):
        g = ValueGraph()
        used = g.parameter(np.array([2.0]))
        unused = g.parameter(np.array([5.0]))
        loss = g.apply("mse-loss", [used, g.input(np.array([0.0]))])
        grads = g.backward(loss)
        assert np.array_equal(grads[unused], np.zeros(1))


class TestOps:
    def test_dense_matches_matmul_plus_bias(self, rng):
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=5)
        g = ValueGraph()
        out = g.apply("dense", [g.input(x), g.parameter(w), g.parameter(b)])
        assert np.allclose(g.value(out), x @ w + b)

    def test_dense_shape_error(self):
        g = ValueGraph()
        with pytest.raises(ShapeError):
            g.apply("dense", [g.input(np.ones((2, 3))),
                              g.parameter(np.ones((4, 5))),
                              g.parameter(np.ones(5))])

    def test_conv3d_matches_nested_loops(self, rng):
        x = rng.normal(size=(1, 2, 4, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3, 3))
        b = rng.normal(size=3)
        g = ValueGraph()
        out = g.value(g.apply("conv3d", [g.input(x), g.parameter(w),
                                         g.parameter(b)]))
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))
        ref = np.zeros((1, 3, 4, 4, 4))
        for o in range(3):
            for d in range(4):
                for h in range(4):
                    for wi in range(4):
                        patch = xp[0, :, d:d + 3, h:h + 3, wi:wi + 3]
                        ref[0, o, d, h, wi] = (patch * w[o]).sum() + b[o]
        assert np.allclose(out, ref, atol=1e-12)

    def test_conv3d_preserves_extent(self, rng):
        for k in (3, 5):
            x = rng.normal(size=(2, 1, 8, 8, 8))
            w = rng.normal(size=(4, 1, k, k, k))
            g = ValueGraph()
            out = g.apply("conv3d", [g.input(x), g.parameter(w),
                                     g.parameter(np.zeros(4))])
            assert g.value(out).shape == (2, 4, 8, 8, 8)

    def test_maxpool_matches_naive(self, rng):
        x = rng.normal(size=(2, 3, 4, 4, 4))
        g = ValueGraph()
        out = g.value(g.apply("max-pool3d", [g.input(x)], {"size": 2}))
        ref = np.zeros((2, 3, 2, 2, 2))
        for b in range(2):
            for c in range(3):
                for d in range(2):
                    for h in range(2):
                        for w in range(2):
                            ref[b, c, d, h, w] = x[b, c, 2 * d:2 * d + 2,
                                                   2 * h:2 * h + 2,
                                                   2 * w:2 * w + 2].max()
        assert np.array_equal(out, ref)

    def test_maxpool_rejects_indivisible_extent(self):
        g = ValueGraph()
        with pytest.raises(ShapeError):
            g.apply("max-pool3d", [g.input(np.ones((1, 1, 5, 5, 5)))],
                    {"size": 2})

    def test_activation_values(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        g = ValueGraph()
        xn = g.input(x)
        relu = g.value(g.apply("relu", [xn]))
        leaky = g.value(g.apply("leaky-relu", [xn]))
        selu = g.value(g.apply("selu", [xn]))
        assert np.array_equal(relu, np.maximum(x, 0))
        assert np.allclose(leaky, np.where(x > 0, x, LEAKY_SLOPE * x))
        assert np.allclose(
            selu, SELU_LAMBDA * np.where(x > 0, x, SELU_ALPHA * np.expm1(x)))

    def test_selu_constants(self):
        assert SELU_ALPHA == pytest.approx(1.6732632, abs=1e-6)
        assert SELU_LAMBDA == pytest.approx(1.0507010, abs=1e-6)

    def test_sigmoid_tanh(self, rng):
        x = rng.normal(size=7)
        g = ValueGraph()
        xn = g.input(x)
        assert np.allclose(g.value(g.apply("sigmoid", [xn])),
                           1.0 / (1.0 + np.exp(-x)))
        assert np.allclose(g.value(g.apply("tanh", [xn])), np.tanh(x))

    def test_batch_norm_train_normalizes(self, rng):
        x = rng.normal(3.0, 2.0, size=(64, 5))
        g = ValueGraph(training=True)
        out = g.value(g.apply("batch-norm",
                              [g.input(x), g.parameter(np.ones(5)),
                               g.parameter(np.zeros(5))]))
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(out.var(axis=0), 1.0, atol=1e-3)

    def test_batch_norm_eval_uses_running_stats(self, rng):
        x = rng.normal(size=(16, 3))
        state = {"mean": np.array([1.0, 2.0, 3.0]), "var": np.ones(3)}
        g = ValueGraph(training=False)
        out = g.value(g.apply("batch-norm",
                              [g.input(x), g.parameter(np.ones(3)),
                               g.parameter(np.zeros(3))],
                              {"state": state}))
        assert np.allclose(out, (x - state["mean"]) / np.sqrt(1 + 1e-5))

    def test_dropout_eval_is_identity(self, rng):
        x = rng.normal(size=(8, 8))
        g = ValueGraph(training=False)
        out = g.value(g.apply("dropout", [g.input(x)], {"rate": 0.5}))
        assert np.array_equal(out, x)

    def test_dropout_train_inverted_scaling(self):
        x = np.ones((2000,))
        g = ValueGraph(seed=3, training=True)
        out = g.value(g.apply("dropout", [g.input(x)], {"rate": 0.25}))
        kept = out[out > 0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert abs(len(kept) / 2000 - 0.75) < 0.05

    def test_dropout_rate_validated(self):
        g = ValueGraph(training=True)
        with pytest.raises(ShapeError):
            g.apply("dropout", [g.input(np.ones(3))], {"rate": 1.0})

    def test_concat_backward_splits(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 4))
        g = ValueGraph()
        pa, pb = g.parameter(a), g.parameter(b)
        cat = g.apply("concat", [pa, pb], {"axis": -1})
        loss = g.apply("mse-loss", [cat, g.input(np.zeros((2, 7)))])
        grads = g.backward(loss)
        assert grads[pa].shape == a.shape
        assert grads[pb].shape == b.shape
        assert np.allclose(grads[pa], 2 * a / 14)

    def test_mean_is_arithmetic(self, rng):
        vals = [rng.normal(size=4) for _ in range(3)]
        g = ValueGraph()
        out = g.value(g.apply("arithmetic-mean", [g.input(v) for v in vals]))
        assert np.allclose(out, np.mean(vals, axis=0))

    def test_mse_value(self):
        g = ValueGraph()
        loss = g.apply("mse-loss", [g.input(np.array([1.0, 3.0])),
                                    g.input(np.array([0.0, 1.0]))])
        assert g.value(loss) == pytest.approx(2.5)

    def test_neighbor_sum_sparse(self, rng):
        m = sp.random(6, 6, density=0.4, random_state=0, format="csr")
        h = rng.normal(size=(6, 3))
        g = ValueGraph()
        hp = g.parameter(h)
        out = g.apply("neighbor-sum", [hp], {"matrix": m})
        assert np.allclose(g.value(out), m @ h)
        loss = g.apply("mse-loss", [out, g.input(np.zeros((6, 3)))])
        grads = g.backward(loss)
        expected = m.T @ (2 * (m @ h) / 18)
        assert np.allclose(grads[hp], expected)

    def test_flatten_reshape_roundtrip(self, rng):
        x = rng.normal(size=(2, 3, 4))
        g = ValueGraph()
        xp = g.parameter(x)
        flat = g.apply("flatten", [xp])
        assert g.value(flat).shape == (2, 12)
        back = g.apply("reshape", [flat], {"shape": (2, 3, 4)})
        assert np.array_equal(g.value(back), x)


class TestGradientCheck:
    def build_mlp(self, seed, activation="relu"):
        rng = np.random.default_rng(seed)
        g = ValueGraph()
        x = g.input(rng.normal(size=(4, 6)))
        h = g.apply("dense", [x, g.parameter(rng.normal(size=(6, 5)) * 0.5),
                              g.parameter(rng.normal(size=5) * 0.1)])
        h = g.apply(activation, [h])
        out = g.apply("dense", [h, g.parameter(rng.normal(size=(5, 1)) * 0.5),
                                g.parameter(rng.normal(size=1) * 0.1)])
        loss = g.apply("mse-loss", [out, g.input(rng.normal(size=(4, 1)))])
        return g, loss

    @pytest.mark.parametrize("activation", ["relu", "leaky-relu", "selu",
                                            "sigmoid", "tanh"])
    def test_mlp_gradients(self, activation):
        g, loss = self.build_mlp(7, activation)
        assert gradient_check(g, loss, 1e-5) < 1e-6

    def test_conv_pool_gradients(self, rng):
        g = ValueGraph()
        x = g.input(rng.normal(size=(2, 1, 4, 4, 4)))
        h = g.apply("conv3d", [x, g.parameter(rng.normal(size=(2, 1, 3, 3, 3)) * 0.3),
                               g.parameter(rng.normal(size=2) * 0.1)])
        h = g.apply("tanh", [h])
        h = g.apply("max-pool3d", [h], {"size": 2})
        h = g.apply("flatten", [h])
        out = g.apply("dense", [h, g.parameter(rng.normal(size=(16, 1)) * 0.3),
                                g.parameter(rng.normal(size=1))])
        loss = g.apply("mse-loss", [out, g.input(rng.normal(size=(2, 1)))])
        assert gradient_check(g, loss, 1e-5) < 1e-6

    def test_rejects_nondeterministic_forward(self, rng):
        g = ValueGraph(training=True)
        x = g.parameter(rng.normal(size=(8, 8)))
        h = g.apply("dropout", [x], {"rate": 0.5})
        loss = g.apply("mse-loss", [h, g.input(np.zeros((8, 8)))])
        with pytest.raises(GraphError):
            gradient_check(g, loss)

    def test_rejects_bad_epsilon(self):
        g, loss = self.build_mlp(0)
        with pytest.raises(GraphError):
            gradient_check(g, loss, 0.0)


def naive_conv3d(x, w, b):
    """Same-padded stride-1 correlation by nested loops over positions."""
    k = w.shape[2]
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p), (p, p)))
    nb, _, d, h, wd = x.shape
    out = np.zeros((nb, w.shape[0], d, h, wd))
    for z in range(d):
        for y in range(h):
            for v in range(wd):
                patch = xp[:, :, z:z + k, y:y + k, v:v + k]
                out[:, :, z, y, v] = np.tensordot(patch, w, ([1, 2, 3, 4],
                                                             [1, 2, 3, 4]))
    return out + b[None, :, None, None, None]


def naive_conv3d_grads(x, w, g):
    """dW and dX of the correlation above for output gradient g."""
    k = w.shape[2]
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p), (p, p)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    _, _, d, h, wd = x.shape
    for z in range(d):
        for y in range(h):
            for v in range(wd):
                gv = g[:, :, z, y, v]                       # [B, O]
                patch = xp[:, :, z:z + k, y:y + k, v:v + k]  # [B, C, k, k, k]
                gw += np.tensordot(gv, patch, ([0], [0]))
                gxp[:, :, z:z + k, y:y + k, v:v + k] += np.tensordot(
                    gv, w, ([1], [0]))
    return gw, gxp[:, :, p:p + d, p:p + h, p:p + wd]


# (x shape, kernel shape, tile bytes): tiles of two samples out of three,
# depth slabs of one sample (with a short last slab), and the default size.
TILINGS = [
    ((3, 2, 4, 4, 4), (3, 2, 3, 3, 3), 2 * 64 * 54 * 8),
    ((2, 2, 5, 4, 4), (4, 2, 5, 5, 5), 2 * 16 * 250 * 8),
    ((2, 3, 6, 6, 6), (2, 3, 3, 3, 3), None),
]
# A box with odd, unequal sides.  BLAS handles its matrix edges in another
# summation order than the einsum's, so it is compared with loops only.
ODD_TILING = ((2, 2, 5, 3, 4), (4, 2, 5, 5, 5), 2 * 12 * 250 * 8)


class TestTiledConv:
    @pytest.mark.parametrize("xs,ws,tile", TILINGS + [ODD_TILING])
    def test_forward_and_gradients_match_loops(self, xs, ws, tile, rng,
                                               monkeypatch):
        if tile is not None:
            monkeypatch.setattr(autodiff, "_TILE_BYTES", tile)
        x, w, b = rng.normal(size=xs), rng.normal(size=ws), rng.normal(size=ws[0])
        g = ValueGraph()
        xn, wn, bn = g.parameter(x), g.parameter(w), g.parameter(b)
        out = g.apply("conv3d", [xn, wn, bn])
        target = rng.normal(size=g.value(out).shape)
        loss = g.apply("mse-loss", [out, g.input(target)])
        grads = g.backward(loss)
        assert np.allclose(g.value(out), naive_conv3d(x, w, b), atol=1e-12)
        gout = 2.0 * (g.value(out) - target) / target.size
        gw, gx = naive_conv3d_grads(x, w, gout)
        assert np.allclose(grads[wn], gw, rtol=1e-12, atol=1e-14)
        assert np.allclose(grads[xn], gx, rtol=1e-12, atol=1e-14)
        assert np.allclose(grads[bn], gout.sum(axis=(0, 2, 3, 4)))

    @pytest.mark.parametrize("xs,ws,tile", TILINGS)
    def test_forward_bitwise_equals_einsum(self, xs, ws, tile, rng,
                                           monkeypatch):
        if tile is not None:
            monkeypatch.setattr(autodiff, "_TILE_BYTES", tile)
        x, w, b = rng.normal(size=xs), rng.normal(size=ws), rng.normal(size=ws[0])
        g = ValueGraph()
        out = g.value(g.apply("conv3d", [g.input(x), g.parameter(w),
                                         g.parameter(b)]))
        k = ws[2]
        p = k // 2
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p), (p, p)))
        win = sliding_window_view(xp, (k, k, k), axis=(2, 3, 4))
        ref = np.einsum("bcdhwijk,ocijk->bodhw", win, w, optimize=True)
        assert np.array_equal(out, ref + b[None, :, None, None, None])

    def test_no_gradient_for_input_leaf(self, rng, monkeypatch):
        calls = []
        correlate = autodiff._correlate

        def counting(x, w):
            calls.append(x.shape)
            return correlate(x, w)

        monkeypatch.setattr(autodiff, "_correlate", counting)
        g = ValueGraph()
        x = g.input(rng.normal(size=(2, 2, 4, 4, 4)))
        w = g.parameter(rng.normal(size=(3, 2, 3, 3, 3)))
        b = g.parameter(rng.normal(size=3))
        frozen = g.apply("relu", [x])
        out = g.apply("conv3d", [frozen, w, b])
        loss = g.apply("mse-loss", [out, g.input(np.zeros((2, 3, 4, 4, 4)))])
        assert not g.nodes[x].requires_grad
        assert not g.nodes[frozen].requires_grad
        assert g.nodes[out].requires_grad
        assert g.nodes[out].needs == (False, True, True)
        calls.clear()
        grads = g.backward(loss)
        assert calls == []                  # no dX pass
        assert grads[w].shape == (3, 2, 3, 3, 3)

    def test_loss_without_parameters_gets_no_gradients(self, rng):
        g = ValueGraph()
        x = g.input(rng.normal(size=(2, 3)))
        loss = g.apply("mse-loss", [g.apply("tanh", [x]),
                                    g.input(np.zeros((2, 3)))])
        assert g.backward(loss) == {}

    def test_gradient_check_stacked_convs_from_leaf(self, rng, monkeypatch):
        # depth slabs for the first conv, two-sample tiles for the second
        monkeypatch.setattr(autodiff, "_TILE_BYTES", 2 * 64 * 54 * 8)
        g = ValueGraph()
        x = g.input(rng.normal(size=(3, 1, 4, 4, 4)))
        h = g.apply("conv3d", [x, g.parameter(rng.normal(size=(2, 1, 5, 5, 5)) * 0.2),
                               g.parameter(rng.normal(size=2) * 0.1)])
        h = g.apply("tanh", [h])
        h = g.apply("conv3d", [h, g.parameter(rng.normal(size=(2, 2, 3, 3, 3)) * 0.3),
                               g.parameter(rng.normal(size=2) * 0.1)])
        h = g.apply("tanh", [h])
        h = g.apply("max-pool3d", [h], {"size": 2})
        h = g.apply("flatten", [h])
        out = g.apply("dense", [h, g.parameter(rng.normal(size=(16, 1)) * 0.3),
                                g.parameter(rng.normal(size=1))])
        loss = g.apply("mse-loss", [out, g.input(rng.normal(size=(3, 1)))])
        assert gradient_check(g, loss, 1e-5) < 1e-4
