import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from fusionscreen import autodiff
from fusionscreen.autodiff import (
    GraphError,
    LEAKY_SLOPE,
    SELU_ALPHA,
    SELU_LAMBDA,
    ShapeError,
    TapeStructure,
    ValueGraph,
    gradient_check,
)


def scalar_graph(w0=1.5, x0=2.0):
    g = ValueGraph()
    w = g.parameter(np.array([[w0]]))
    x = g.input(np.array([[x0]]))
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

    def test_training_inference_graph_rejected(self):
        with pytest.raises(GraphError):
            ValueGraph(training=True, inference=True)

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

    @pytest.mark.parametrize("training,rate", [(False, 0.5), (True, 0.0)])
    def test_identity_dropout_returns_its_input(self, training, rate, rng):
        g = ValueGraph(training=training)
        x = g.input(rng.normal(size=(4, 3)))
        assert g.value(g.apply("dropout", [x], {"rate": rate})) is g.value(x)

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

    def test_rejects_train_mode_batch_norm_untouched(self, rng):
        g = ValueGraph(training=True)
        x = g.input(rng.normal(size=(6, 3)))
        bn = g.apply("batch-norm", [x, g.parameter(np.ones(3)),
                                    g.parameter(np.zeros(3))])
        loss = g.apply("mse-loss", [bn, g.input(rng.normal(size=(6, 3)))])
        state = g.nodes[bn].attrs["state"]
        before = (state["mean"].copy(), state["var"].copy())
        with pytest.raises(GraphError, match="batch-norm"):
            gradient_check(g, loss)
        assert np.array_equal(state["mean"], before[0])
        assert np.array_equal(state["var"], before[1])

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


def atom_grid(rng, shape, atoms, spread=None):
    """[B,C,D,H,W] grids of unit atoms, each added to one cell as
    ``voxelize`` does; ``spread`` (in cells) scatters them around the centre
    and clips those outside to boundary cells."""
    b, c, box = shape[0], shape[1], np.array(shape[2:])
    x = np.zeros(shape)
    for i in range(b):
        if spread is None:
            cells = rng.integers(0, box, size=(atoms, 3))
        else:
            cells = np.clip(np.floor(rng.normal(box / 2, spread, (atoms, 3))),
                            0, box - 1).astype(int)
        chans = rng.integers(0, c, size=atoms)
        np.add.at(x[i], (chans, *cells.T), 1.0)
    return x


def sparse_conv(x, w, b):
    # in an inference graph, a conv over an input leaf takes the scatter path
    g = ValueGraph(inference=True)
    return g.value(g.apply("conv3d", [g.input(x), g.parameter(w),
                                      g.parameter(b)]))


def relative_error(a, ref):
    return float(np.max(np.abs(a - ref)) / np.max(np.abs(ref)))


class TestScatterConv:
    """The scatter forward of conv3d against the dense one."""

    @pytest.mark.parametrize("xs,ws,atoms", [
        ((4, 8, 16, 16, 16), (32, 8, 5, 5, 5), 57),    # paper size
        ((6, 2, 8, 8, 8), (4, 2, 3, 3, 3), 37),        # criterion-3 size
    ])
    def test_matches_dense_correlation(self, xs, ws, atoms, rng):
        x = atom_grid(rng, xs, atoms)
        w, b = rng.normal(size=ws), rng.normal(size=ws[0])
        ref = autodiff._correlate(x, w) + b[None, :, None, None, None]
        assert relative_error(sparse_conv(x, w, b), ref) < 1e-12

    def test_atoms_clipped_to_boundary_cells(self, rng):
        x = atom_grid(rng, (3, 4, 8, 8, 8), 60, spread=6.0)
        edge = np.zeros(8, bool)
        edge[[0, -1]] = True
        assert x[:, :, edge].sum() > 20             # many on the faces
        w, b = rng.normal(size=(5, 4, 5, 5, 5)), rng.normal(size=5)
        ref = autodiff._correlate(x, w) + b[None, :, None, None, None]
        assert relative_error(sparse_conv(x, w, b), ref) < 1e-12

    def test_cell_holding_two_atoms(self, rng):
        x = atom_grid(rng, (2, 2, 8, 8, 8), 10)
        x[1, 1, 3, 4, 5] = 2.0
        w, b = rng.normal(size=(3, 2, 3, 3, 3)), rng.normal(size=3)
        ref = autodiff._correlate(x, w) + b[None, :, None, None, None]
        assert relative_error(sparse_conv(x, w, b), ref) < 1e-12

    def test_empty_grid_gives_the_bias(self, rng):
        w, b = rng.normal(size=(3, 2, 3, 3, 3)), rng.normal(size=3)
        out = sparse_conv(np.zeros((2, 2, 4, 4, 4)), w, b)
        assert out.tobytes() == np.broadcast_to(
            b[None, :, None, None, None], out.shape).tobytes()

    def test_dense_grid_tiles_within_budget(self, rng, monkeypatch):
        # the dense first sample splits into depth slabs, the sparse ones
        # share tiles; each tile's entries and product rows fit the budget
        monkeypatch.setattr(autodiff, "_TILE_BYTES", 250_000)
        x = atom_grid(rng, (6, 2, 6, 5, 4), 4)
        x[0] = rng.normal(size=x.shape[1:])
        w, b = rng.normal(size=(48, 2, 3, 3, 3)), rng.normal(size=48)
        built = []
        csr = sp.csr_matrix
        monkeypatch.setattr(sp, "csr_matrix",
                            lambda *a, **kw: built.append(csr(*a, **kw))
                            or built[-1])
        out = sparse_conv(x, w, b)
        ref = autodiff._correlate(x, w) + b[None, :, None, None, None]
        assert relative_error(out, ref) < 1e-12
        sample = 6 * 5 * 4
        rows = [m.shape[0] for m in built]
        assert sum(rows) == 6 * sample
        assert min(rows) < sample < max(rows)
        for m in built:
            assert (m.nnz * autodiff._SCATTER_ENTRY_BYTES
                    + m.shape[0] * 48 * 8) <= autodiff._TILE_BYTES

    @pytest.mark.parametrize("tile", [None, 250_000])
    def test_sample_output_independent_of_batch(self, tile, rng, monkeypatch):
        if tile is not None:
            monkeypatch.setattr(autodiff, "_TILE_BYTES", tile)
        x = atom_grid(rng, (5, 2, 6, 5, 4), 12)
        x[2] = rng.normal(size=x.shape[1:])
        w, b = rng.normal(size=(3, 2, 3, 3, 3)), rng.normal(size=3)
        batched = sparse_conv(x, w, b)
        for i in range(len(x)):
            assert sparse_conv(x[i:i + 1], w, b)[0].tobytes() == \
                batched[i].tobytes()


def stacked_conv(x, w, b):
    # in an inference graph, a conv over a parameter takes the stacked path
    g = ValueGraph(inference=True)
    return g.value(g.apply("conv3d", [g.parameter(x), g.parameter(w),
                                      g.parameter(b)]))


# (x shape, output channels): the dense convolutions of the paper-size and
# the criterion-3 voxel heads
STACKED_SHAPES = [
    ((2, 32, 16, 16, 16), 32), ((2, 32, 8, 8, 8), 64), ((2, 64, 8, 8, 8), 64),
    ((6, 2, 8, 8, 8), 4), ((6, 4, 8, 8, 8), 4), ((6, 4, 4, 4, 4), 8),
    ((6, 8, 4, 4, 4), 8),
]


class TestStackedConv:
    """The stacked forward of conv3d against the dense one."""

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("xs,o", STACKED_SHAPES)
    def test_matches_dense_correlation(self, xs, o, k, rng):
        x = np.maximum(rng.normal(size=xs), 0.0)
        w, b = rng.normal(size=(o, xs[1], k, k, k)), rng.normal(size=o)
        ref = autodiff._correlate(x, w) + b[None, :, None, None, None]
        assert relative_error(stacked_conv(x, w, b), ref) < 1e-12

    @pytest.mark.parametrize("xs,ws", [((3, 4, 6, 5, 4), (3, 4, 3, 3, 3)),
                                       ((2, 2, 3, 2, 5), (4, 2, 5, 5, 5))])
    def test_zero_input_gives_the_bias(self, xs, ws, rng):
        w, b = rng.normal(size=ws), rng.normal(size=ws[0])
        out = stacked_conv(np.zeros(xs), w, b)
        assert out.tobytes() == np.broadcast_to(
            b[None, :, None, None, None], out.shape).tobytes()

    @pytest.mark.parametrize("tile", [None, 3 * 120 * 60 * 8, 20_000])
    @pytest.mark.parametrize("xs,ws", [((5, 2, 6, 5, 4), (3, 2, 3, 3, 3)),
                                       ((4, 3, 5, 3, 4), (4, 3, 5, 5, 5))])
    def test_sample_output_independent_of_batch(self, xs, ws, tile, rng,
                                                monkeypatch):
        # odd boxes: a sample's columns do not fill whole BLAS panels
        if tile is not None:
            monkeypatch.setattr(autodiff, "_TILE_BYTES", tile)
        x, w, b = rng.normal(size=xs), rng.normal(size=ws), rng.normal(size=ws[0])
        batched = stacked_conv(x, w, b)
        ref = autodiff._correlate(x, w) + b[None, :, None, None, None]
        assert relative_error(batched, ref) < 1e-12
        for i in range(len(x)):
            assert stacked_conv(x[i:i + 1], w, b)[0].tobytes() == \
                batched[i].tobytes()

    # 2 x 6 x 5 x 4 inputs with 3 outputs, k=3: 2*9 column rows and 3*3
    # product rows, so 27 doubles per input position and 20 per plane
    @pytest.mark.parametrize("tile,tiles", [
        (3 * 6 * 20 * 27 * 8, [(0, 3, 0, 6), (3, 4, 0, 6)]),
        # slabs of two output planes read up to four input planes
        (4 * 20 * 27 * 8, [(i, i + 1, z, z + 2) for i in range(4)
                           for z in (0, 2, 4)]),
    ])
    def test_tiles_fit_the_budget(self, tile, tiles, rng, monkeypatch):
        monkeypatch.setattr(autodiff, "_TILE_BYTES", tile)
        xs = (4, 2, 6, 5, 4)
        assert list(autodiff._tiles(np.full((4, 6), 20 * 27 * 8), 2)) == tiles
        for b0, b1, z0, z1 in tiles:
            planes = min(6, z1 + 1) - max(0, z0 - 1)
            assert (b1 - b0) * planes * 20 * 27 * 8 <= tile
        x, w, b = (rng.normal(size=xs), rng.normal(size=(3, 2, 3, 3, 3)),
                   rng.normal(size=3))
        ref = autodiff._correlate(x, w) + b[None, :, None, None, None]
        assert relative_error(stacked_conv(x, w, b), ref) < 1e-12

    def test_backward_is_the_dense_one(self, rng):
        x, w, b = (rng.normal(size=(3, 2, 4, 4, 4)),
                   rng.normal(size=(3, 2, 3, 3, 3)), rng.normal(size=3))
        gout = rng.normal(size=(3, 3, 4, 4, 4))
        grads = []
        for inference in (False, True):
            g = ValueGraph(inference=inference)
            out = g.apply("conv3d", [g.parameter(x), g.parameter(w),
                                     g.parameter(b)])
            grads.append([v.tobytes() for v in autodiff._OPS["conv3d"][1](
                g.nodes[out], [x, w, b], gout)])
        assert grads[0] == grads[1]

    def test_gradient_check_conv_pool_tape(self, rng):
        # the first conv takes the scatter path, the second the stacked one
        g = ValueGraph(inference=True)
        x = g.input(rng.normal(size=(2, 2, 4, 4, 4)))
        h = g.apply("conv3d", [x, g.parameter(rng.normal(size=(3, 2, 3, 3, 3)) * 0.3),
                               g.parameter(rng.normal(size=3) * 0.1)])
        h = g.apply("tanh", [h])
        h = g.apply("max-pool3d", [h], {"size": 2})
        h = g.apply("conv3d", [h, g.parameter(rng.normal(size=(2, 3, 3, 3, 3)) * 0.3),
                               g.parameter(rng.normal(size=2) * 0.1)])
        h = g.apply("flatten", [h])
        out = g.apply("dense", [h, g.parameter(rng.normal(size=(16, 1)) * 0.3),
                                g.parameter(rng.normal(size=1))])
        loss = g.apply("mse-loss", [out, g.input(rng.normal(size=(2, 1)))])
        assert gradient_check(g, loss, 1e-5) < 1e-4


class TestConvRouting:
    """conv3d takes its forward path from the graph's mode and its input."""

    @pytest.mark.parametrize("source,inference,kernel", [
        ("input", False, "_correlate"),
        ("parameter", False, "_correlate"),
        ("op", False, "_correlate"),
        ("input", True, "_scatter_correlate"),
        ("parameter", True, "_stacked_correlate"),
        ("op", True, "_stacked_correlate"),
    ])
    def test_forward_path(self, source, inference, kernel, rng, monkeypatch):
        calls = []
        for name in ("_correlate", "_scatter_correlate", "_stacked_correlate"):
            monkeypatch.setattr(autodiff, name,
                                lambda x, w, name=name, f=getattr(autodiff, name):
                                calls.append(name) or f(x, w))
        g = ValueGraph(inference=inference)
        x = {"input": g.input, "parameter": g.parameter,
             "op": lambda v: g.apply("relu", [g.parameter(v)])}[source](
                 rng.normal(size=(2, 2, 4, 4, 4)))
        out = g.apply("conv3d", [x, g.parameter(rng.normal(size=(3, 2, 3, 3, 3))),
                                 g.parameter(rng.normal(size=3))])
        assert calls == [kernel]
        calls.clear()
        g.backward(g.apply("mse-loss", [out, g.input(np.zeros((2, 3, 4, 4, 4)))]))
        # backward stays dense: an input gradient only where x needs one
        assert calls == ([] if source == "input" else ["_correlate"])


def formula_im2col_tiles(shape, k, budget):
    """The dense im2col's tiles ``(b0, b1, s0, s1)`` by the formula it used
    before its kernels shared one planner: ``nb`` whole samples per tile,
    or slabs of ``nd`` depth planes of one sample."""
    b, c, d, h, w = shape
    plane = h * w
    positions = max(plane, budget // (c * k ** 3 * 8))
    if d * plane <= positions:
        nb, nd = positions // (d * plane), d
    else:
        nb, nd = 1, positions // plane
    return [(b0, min(b0 + nb, b), d0 * plane, min(d0 + nd, d) * plane)
            for b0 in range(0, b, nb) for d0 in range(0, d, nd)]


class TestTilePlanner:
    """``_tiles``, which plans the tiles of all three conv3d kernels."""

    @settings(max_examples=400, deadline=None)
    @given(cost=hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                      max_side=8),
                           elements=st.integers(0, 4000)),
           halo=st.integers(0, 4), budget=st.integers(1, 20_000))
    def test_tiles_cover_fit_and_are_maximal(self, cost, halo, budget):
        b, d = cost.shape
        with mock.patch.object(autodiff, "_TILE_BYTES", budget):
            tiles = list(autodiff._tiles(cost, halo))
        # every (sample, plane) once, in order
        assert [(i, z) for b0, b1, d0, d1 in tiles
                for i in range(b0, b1) for z in range(d0, d1)] == \
            [(i, z) for i in range(b) for z in range(d)]
        for b0, b1, d0, d1 in tiles:
            if cost[b0].sum() <= budget:
                # a run of whole samples that the next sample would overflow
                assert (d0, d1) == (0, d)
                assert cost[b0:b1].sum() <= budget
                assert b1 == b or cost[b0:b1 + 1].sum() > budget
            else:
                # a slab of a sample that exceeds the budget alone, leaving
                # room for halo planes; only a single plane may overflow
                assert b1 == b0 + 1
                room = budget - halo * cost[b0].max()
                assert d1 - d0 == 1 or cost[b0, d0:d1].sum() <= room
                assert d1 == d or cost[b0, d0:d1 + 1].sum() > room

    # (B, C, O, D, k): the convolutions of a criterion-3 training step and
    # of a paper-size two-pose fine-tune.  Forward and weight gradient tile
    # the C-channel input, the input gradient the O-channel output gradient.
    @pytest.mark.parametrize("b,c,o,d,k", [
        (128, 2, 4, 8, 3), (128, 4, 4, 8, 3), (128, 4, 8, 4, 3),
        (128, 8, 8, 4, 3),
        (2, 8, 32, 16, 5), (2, 32, 32, 16, 3), (2, 32, 64, 8, 3),
        (2, 64, 64, 8, 3),
    ])
    def test_im2col_tiles_keep_their_gemm_shapes(self, b, c, o, d, k):
        for channels in (c, o):
            shape = (b, channels, d, d, d)
            got = [t[:4] for t in autodiff._im2col_tiles(np.zeros(shape), k)]
            assert got == formula_im2col_tiles(shape, k, autodiff._TILE_BYTES)


def argmax_maxpool(x, s, g):
    """The argmax max-pool: output and input gradient for output gradient
    ``g``."""
    b, c, d, h, w = x.shape
    r = x.reshape(b, c, d // s, s, h // s, s, w // s, s)
    r = r.transpose(0, 1, 2, 4, 6, 3, 5, 7).reshape(
        b, c, d // s, h // s, w // s, s ** 3)
    idx = r.argmax(axis=-1)
    out = np.take_along_axis(r, idx[..., None], axis=-1)[..., 0]
    flat = np.zeros((b, c, d // s, h // s, w // s, s ** 3))
    np.put_along_axis(flat, idx[..., None], g[..., None], axis=-1)
    gx = (flat.reshape(b, c, d // s, h // s, w // s, s, s, s)
          .transpose(0, 1, 2, 5, 3, 6, 4, 7).reshape(b, c, d, h, w))
    return out, gx


class TestMaxPool:
    """The running-maximum max-pool against the argmax one, bitwise."""

    @pytest.mark.parametrize("s,xs", [(2, (3, 4, 8, 6, 4)), (3, (2, 3, 6, 3, 9)),
                                      (4, (2, 2, 4, 8, 4))])
    @pytest.mark.parametrize("kind", ["relu", "equal", "signed-zeros",
                                      "normal"])
    def test_bitwise_equals_argmax_pool(self, kind, s, xs, rng):
        if kind == "relu":
            # most windows tie at zero
            x = np.maximum(rng.normal(-0.8, 1.0, size=xs), 0.0)
        elif kind == "equal":
            x = np.full(xs, 0.5)
            x[:, :, :s] = rng.integers(-2, 2, size=x[:, :, :s].shape)
        elif kind == "signed-zeros":
            x = rng.choice([0.0, -0.0, -1.0], size=xs)
        else:
            x = rng.normal(size=xs)
        g = ValueGraph()
        out = g.apply("max-pool3d", [g.parameter(x)], {"size": s})
        gout = rng.normal(size=g.value(out).shape)
        ref_out, ref_gx = argmax_maxpool(x, s, gout)
        assert g.value(out).tobytes() == ref_out.tobytes()
        (gx,) = autodiff._OPS["max-pool3d"][1](g.nodes[out], [x], gout)
        assert gx.tobytes() == ref_gx.tobytes()

    def test_gradient_check_relu_conv_pool_tape(self, rng):
        g = ValueGraph()
        x = g.input(rng.normal(size=(2, 1, 4, 4, 4)))
        h = g.apply("conv3d", [x, g.parameter(rng.normal(size=(3, 1, 3, 3, 3)) * 0.3),
                               g.parameter(rng.normal(size=3) * 0.1)])
        h = g.apply("relu", [h])
        h = g.apply("max-pool3d", [h], {"size": 2})
        h = g.apply("flatten", [h])
        out = g.apply("dense", [h, g.parameter(rng.normal(size=(24, 1)) * 0.3),
                                g.parameter(rng.normal(size=1))])
        loss = g.apply("mse-loss", [out, g.input(rng.normal(size=(2, 1)))])
        assert gradient_check(g, loss, 1e-5) < 1e-4


class TestMemoryLifetime:
    """Intermediate gradients die during backward; rewritten kernels give
    the same bits as the expressions they replaced."""

    def probe_graph(self, rng, probes):
        g = ValueGraph()
        w = g.parameter(rng.normal(size=(4, 3)))
        b = g.parameter(rng.normal(size=3))
        h = g.apply("dense", [g.input(rng.normal(size=(5, 4))), w, b])
        for op in probes:
            h = g.apply(op, [h])
        loss = g.apply("mse-loss", [h, g.input(np.zeros((5, 3)))])
        return g, loss

    def test_backward_frees_intermediate_gradients(self, rng, monkeypatch):
        received = []  # a weakref to the gradient each probe backward got
        alive = []     # per probe call: how many earlier ones were alive

        def fwd(node, vals, graph):
            return vals[0] * 1.0

        def bwd(node, vals, g):
            alive.append(sum(r() is not None for r in received))
            received.append(weakref.ref(g))
            return [g * 1.0]

        monkeypatch.setitem(autodiff._OPS, "probe", (fwd, bwd))
        probes = ["probe", "tanh", "probe", "probe", "sigmoid", "probe"]
        g, loss = self.probe_graph(np.random.default_rng(1), probes)
        grads = g.backward(loss)
        assert alive == [0, 0, 0, 0]
        assert [r() for r in received] == [None] * 4
        # every parameter gradient survives, equal to the probe-free tape's
        ref, ref_loss = self.probe_graph(
            np.random.default_rng(1), [p for p in probes if p != "probe"])
        want = ref.backward(ref_loss)
        assert sorted(grads) == [p.nid for p in g.parameters]
        for nid, ref_nid in zip(sorted(grads), sorted(want)):
            assert np.array_equal(grads[nid], want[ref_nid])

    @staticmethod
    def branching_tape(g, x):
        """A tape with a fan-out, a value read twice and one read never;
        returns its output node."""
        h = g.apply("relu", [g.input(x)])
        u = g.apply("tanh", [h])
        g.apply("sigmoid", [h])
        return g.apply("mul", [u, g.apply("elementwise-add", [u, h])])

    def test_free_at_last_use_keeps_values_until_the_next_apply(self, rng):
        x = rng.normal(size=(3, 4))
        ref = ValueGraph()
        out = self.branching_tape(ref, x)
        structure = TapeStructure()
        g = ValueGraph()
        g.free_at_last_use(structure, self.branching_tape(structure, x))
        apply = g.apply
        alive = []  # after each apply: the op nodes that hold a value

        def recording(op_kind, inputs, attrs=None):
            nid = apply(op_kind, inputs, attrs)
            alive.append([n.nid for n in g.nodes
                          if n.op != "leaf" and n.value is not None])
            return nid

        g.apply = recording
        assert self.branching_tape(g, x) == out
        # relu=1 is read last by the add (4), tanh=2 by the mul (5); the
        # unread sigmoid (3) lives until the next apply
        assert alive == [[1], [1, 2], [1, 2, 3], [1, 2, 4], [2, 4, 5]]
        g.collect()
        assert [n.nid for n in g.nodes if n.value is not None] == [0, 5]
        assert g.value(out).tobytes() == ref.value(out).tobytes()

    def test_a_tape_that_departs_from_its_structure_raises(self, rng):
        x = rng.normal(size=(3, 4))
        structure = TapeStructure()
        g = ValueGraph()
        g.free_at_last_use(structure, self.branching_tape(structure, x))
        h = g.apply("relu", [g.input(x)])
        with pytest.raises(GraphError, match="departs"):
            g.apply("sigmoid", [h])
        with pytest.raises(GraphError, match="before the tape is built"):
            g.free_at_last_use(structure, 5)

    @pytest.mark.parametrize("op", ["sigmoid", "tanh"])
    def test_backward_from_stored_output_bitwise(self, op, rng):
        x = rng.normal(size=(6, 5)) * 4.0
        gout = rng.normal(size=(6, 5))
        g = ValueGraph()
        y = g.apply(op, [g.parameter(x)])
        (gx,) = autodiff._OPS[op][1](g.nodes[y], [x], gout)
        if op == "sigmoid":
            f = lambda v: 0.5 * (1.0 + np.tanh(0.5 * v))
            ref = gout * (f(x) * (1.0 - f(x)))
        else:
            ref = gout * (1.0 - np.tanh(x) ** 2)
        assert gx.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("shape", [(1,), (5,), (7, 1), (6, 16),
                                       (2, 3, 4, 4, 4)])
    def test_elementwise_add_bitwise_equals_stacked_sum(self, n, shape, rng):
        vals = [rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, shape)
                for _ in range(n)]
        g = ValueGraph()
        out = g.value(g.apply("elementwise-add", [g.input(v) for v in vals]))
        ref = np.sum(vals, axis=0)
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("xs", [(3,), (7, 3), (2, 5, 3)])
    def test_dense_bitwise_equals_matmul_plus_bias(self, xs, rng):
        x, w, b = rng.normal(size=xs), rng.normal(size=(3, 6)), rng.normal(size=6)
        g = ValueGraph()
        out = g.value(g.apply("dense", [g.input(x), g.parameter(w),
                                        g.parameter(b)]))
        assert out.tobytes() == (x @ w + b).tobytes()

    @pytest.mark.parametrize("xs,ws,tile", TILINGS)
    def test_conv3d_bitwise_equals_correlation_plus_bias(self, xs, ws, tile,
                                                         rng, monkeypatch):
        if tile is not None:
            monkeypatch.setattr(autodiff, "_TILE_BYTES", tile)
        x, w, b = rng.normal(size=xs), rng.normal(size=ws), rng.normal(size=ws[0])
        g = ValueGraph()
        out = g.value(g.apply("conv3d", [g.input(x), g.parameter(w),
                                         g.parameter(b)]))
        ref = autodiff._correlate(x, w) + b[None, :, None, None, None]
        assert out.tobytes() == ref.tobytes()
