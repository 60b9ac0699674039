"""Minimal reverse-mode differentiation engine over dense float64 arrays.

A :class:`ValueGraph` is an eager tape: ``apply`` runs the op immediately and
records it, ``backward`` walks the tape in reverse, and ``forward`` replays the
whole tape (used by the finite-difference checker).  Everything is 64-bit
NumPy.

A node requires a gradient when it is a trainable leaf or when any of its
inputs requires one.  ``backward`` computes only those gradients: an input
leaf such as the voxel grid, and every node that depends on inputs alone,
gets none, so the first convolution never computes its input gradient.

conv3d is a same-padded, stride-1 correlation computed tile by tile: each
tile is a channel-major im2col block ``[C*k^3, positions]`` covering whole
samples, or depth slabs of one sample when a sample does not fit, and one
GEMM per sample writes its output straight into place.  The forward pass,
the input gradient (the flipped, channel-swapped kernel applied to tiles of
the output gradient) and the weight gradient (summed tile by tile) share
the tiling.  A tile holds at most :data:`_TILE_BYTES`, or one depth slice
of one sample if that is larger, where a whole-batch column matrix reaches
hundreds of MB at paper size.  The size was chosen by measurement with
minor page faults in view: glibc raises its mmap threshold to the size of
the largest mapped block freed, and trims the heap top beyond twice that,
so tile buffers of 16 MB and less left the other temporaries of a 56-pose
criterion-3 prediction to be mapped and faulted afresh on some or all runs
(over 200x the faults, about 30% slower).  24 MB stays below glibc's 32 MB
cap on that threshold, so the buffer itself is reused from the heap.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "GraphError",
    "ShapeError",
    "Node",
    "ValueGraph",
    "gradient_check",
    "SELU_ALPHA",
    "SELU_LAMBDA",
    "LEAKY_SLOPE",
]

SELU_ALPHA = 1.6732632423543772
SELU_LAMBDA = 1.0507009873554805
LEAKY_SLOPE = 0.01

# Bytes of one conv3d im2col tile; see the module docstring.
_TILE_BYTES = 24 * 2 ** 20


class GraphError(ValueError):
    """Invalid graph construction or use (unknown op, bad precondition)."""


class ShapeError(GraphError):
    """Input shapes incompatible with the requested op."""


def _as_array(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise GraphError("non-finite values in array")
    return a


class Node:
    __slots__ = ("nid", "op", "inputs", "value", "attrs", "trainable", "name",
                 "ctx", "needs")

    def __init__(self, nid, op, inputs, value, attrs, trainable=False, name=None,
                 needs=()):
        self.nid = nid
        self.op = op
        self.inputs = inputs
        self.value = value
        self.attrs = attrs or {}
        self.trainable = trainable
        self.name = name
        self.ctx: dict[str, Any] = {}
        # per input: does that input require a gradient?
        self.needs = needs

    @property
    def requires_grad(self) -> bool:
        return self.trainable or any(self.needs)


# Each op: forward(node, input_values, graph) -> np.ndarray
#          backward(node, input_values, grad_out) -> list of grads (None for
#          inputs that receive no gradient).  Backward may return None for an
#          input whose ``node.needs`` entry is False; any gradient it returns
#          for such an input is dropped.
_OPS: dict[str, tuple[Callable, Callable]] = {}


def _op(name):
    def deco(pair_builder):
        _OPS[name] = pair_builder()
        return pair_builder

    return deco


class ValueGraph:
    """Ordered tape of operation records with trainable leaf parameters."""

    def __init__(self, seed: int = 0, training: bool = False):
        self.nodes: list[Node] = []
        self.training = training
        self.rng = np.random.default_rng(seed)

    # -- leaves ---------------------------------------------------------
    def input(self, value, name: str | None = None) -> int:
        return self._add("leaf", [], _as_array(value), {}, False, name)

    def parameter(self, value, name: str | None = None) -> int:
        return self._add("leaf", [], _as_array(value), {}, True, name)

    def _add(self, op, inputs, value, attrs, trainable, name) -> int:
        needs = tuple(self.nodes[i].requires_grad for i in inputs)
        node = Node(len(self.nodes), op, list(inputs), value, attrs, trainable,
                    name, needs)
        self.nodes.append(node)
        return node.nid

    def value(self, nid: int) -> np.ndarray:
        return self.nodes[nid].value

    @property
    def parameters(self) -> list[Node]:
        return [n for n in self.nodes if n.trainable]

    # -- op application -------------------------------------------------
    def apply(self, op_kind: str, inputs, attrs: dict | None = None) -> int:
        if op_kind not in _OPS:
            raise GraphError(f"unknown op kind {op_kind!r}")
        inputs = [inputs] if isinstance(inputs, int) else list(inputs)
        for i in inputs:
            if not (0 <= i < len(self.nodes)):
                raise GraphError(f"{op_kind}: invalid input node id {i}")
        nid = self._add(op_kind, inputs, None, dict(attrs or {}), False, None)
        node = self.nodes[nid]
        fwd, _ = _OPS[op_kind]
        node.value = fwd(node, [self.nodes[i].value for i in inputs], self)
        return nid

    def forward(self) -> None:
        """Replay every recorded op in tape order (leaves keep their values)."""
        for node in self.nodes:
            if node.op == "leaf":
                continue
            fwd, _ = _OPS[node.op]
            node.value = fwd(node, [self.nodes[i].value for i in node.inputs], self)

    # -- reverse pass ----------------------------------------------------
    def backward(self, loss_node: int) -> dict[int, np.ndarray]:
        loss = self.nodes[loss_node]
        if loss.value.size != 1:
            raise GraphError(
                f"backward requires a scalar loss, got shape {loss.value.shape}"
            )
        grads: dict[int, np.ndarray] = {}
        if loss.requires_grad:
            grads[loss_node] = np.ones_like(loss.value)
        for node in reversed(self.nodes[: loss_node + 1]):
            g = grads.get(node.nid)
            if g is None or node.op == "leaf":
                continue
            _, bwd = _OPS[node.op]
            in_grads = bwd(node, [self.nodes[i].value for i in node.inputs], g)
            for i, need, ig in zip(node.inputs, node.needs, in_grads):
                if not need or ig is None:
                    continue
                if i in grads:
                    grads[i] = grads[i] + ig
                else:
                    grads[i] = ig
        out = {}
        for p in self.parameters:
            out[p.nid] = grads.get(p.nid, np.zeros_like(p.value))
        return out


# ---------------------------------------------------------------------------
# op definitions
# ---------------------------------------------------------------------------

def _check(cond, op, msg):
    if not cond:
        raise ShapeError(f"{op}: {msg}")


@_op("dense")
def _dense():
    def fwd(node, vals, graph):
        _check(len(vals) == 3, "dense", "expects (x, W, b)")
        x, w, b = vals
        _check(w.ndim == 2, "dense", f"weight must be 2-d, got {w.shape}")
        _check(
            x.shape[-1] == w.shape[0],
            "dense",
            f"input {x.shape} incompatible with weight {w.shape}",
        )
        _check(b.shape == (w.shape[1],), "dense", f"bias {b.shape} vs weight {w.shape}")
        return x @ w + b

    def bwd(node, vals, g):
        x, w, _ = vals
        gx = g @ w.T
        if x.ndim == 1:
            gw = np.outer(x, g)
            gb = g
        else:
            gw = x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            gb = g.reshape(-1, g.shape[-1]).sum(axis=0)
        return [gx, gw, gb]

    return fwd, bwd


@_op("matmul")
def _matmul():
    def fwd(node, vals, graph):
        _check(len(vals) == 2, "matmul", "expects (a, b)")
        a, b = vals
        _check(
            a.shape[-1] == b.shape[0],
            "matmul",
            f"shapes {a.shape} and {b.shape} do not align",
        )
        return a @ b

    def bwd(node, vals, g):
        a, b = vals
        return [g @ b.T, a.T @ g]

    return fwd, bwd


def _im2col_tiles(x, k):
    """Channel-major im2col tiles of ``x`` [B,C,D,H,W], same-padded for a
    cubic kernel of side ``k``.

    Yields ``(b0, b1, s0, s1, cols)``: ``cols`` [C*k^3, b1-b0, s1-s0] holds
    the receptive fields of samples b0:b1 at flattened output positions
    s0:s1, with rows ordered (c, i, j, k) like a reshaped kernel.  A tile
    covers whole samples, or whole depth slices of one sample.  Every tile
    lives in one buffer, so each must be used before the next is drawn.
    """
    b, c, d, h, w = x.shape
    p = k // 2
    rows = c * k ** 3
    plane = h * w
    positions = max(plane, _TILE_BYTES // (rows * x.itemsize))
    if d * plane <= positions:
        nb, nd = positions // (d * plane), d
    else:
        nb, nd = 1, positions // plane
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p), (p, p)))
    win = sliding_window_view(xp, (k, k, k), axis=(2, 3, 4))  # [B,C,D,H,W,k,k,k]
    buf = np.empty(rows * min(nb, b) * nd * plane)
    for b0 in range(0, b, nb):
        b1 = min(b0 + nb, b)
        for d0 in range(0, d, nd):
            d1 = min(d0 + nd, d)
            cols = buf[: rows * (b1 - b0) * (d1 - d0) * plane].reshape(
                c, k, k, k, b1 - b0, d1 - d0, h, w)
            np.copyto(cols, win[b0:b1, :, d0:d1].transpose(1, 5, 6, 7, 0, 2, 3, 4))
            yield b0, b1, d0 * plane, d1 * plane, cols.reshape(
                rows, b1 - b0, (d1 - d0) * plane)


def _correlate(x, w):
    """Same-padded stride-1 correlation of ``x`` [B,C,D,H,W] with ``w``
    [O,C,k,k,k]: out[b,o] = sum over c and the window of w[o,c] * x[b,c]."""
    o = w.shape[0]
    out = np.empty((x.shape[0], o) + x.shape[2:])
    flat = out.reshape(x.shape[0], o, -1)
    kernel = w.reshape(o, -1)
    for b0, b1, s0, s1, cols in _im2col_tiles(x, w.shape[2]):
        np.matmul(kernel, cols.transpose(1, 0, 2), out=flat[b0:b1, :, s0:s1])
    return out


@_op("conv3d")
def _conv3d():
    # Cubic kernel, stride 1, zero padding k//2: spatial extent is preserved.
    def fwd(node, vals, graph):
        _check(len(vals) == 3, "conv3d", "expects (x, W, b)")
        x, w, b = vals
        _check(x.ndim == 5, "conv3d", f"input must be [B,C,D,H,W], got {x.shape}")
        _check(
            w.ndim == 5 and w.shape[2] == w.shape[3] == w.shape[4],
            "conv3d",
            f"kernel must be [O,C,k,k,k], got {w.shape}",
        )
        _check(
            x.shape[1] == w.shape[1],
            "conv3d",
            f"input channels {x.shape} vs kernel {w.shape}",
        )
        _check(b.shape == (w.shape[0],), "conv3d", f"bias {b.shape} vs kernel {w.shape}")
        return _correlate(x, w) + b[None, :, None, None, None]

    def bwd(node, vals, g):
        x, w, _ = vals
        o, k = w.shape[0], w.shape[2]
        gflat = g.reshape(g.shape[0], o, -1)
        gw = np.zeros((o, x.shape[1] * k ** 3))
        for b0, b1, s0, s1, cols in _im2col_tiles(x, k):
            gt = gflat[b0:b1, :, s0:s1].transpose(1, 0, 2).reshape(o, -1)
            gw += gt @ cols.reshape(cols.shape[0], -1).T
        gb = g.sum(axis=(0, 2, 3, 4))
        gx = None
        if node.needs[0]:
            # dx is the same-padded correlation of g with the flipped kernel,
            # its channel axes swapped.
            gx = _correlate(g, w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4))
        return [gx, gw.reshape(w.shape), gb]

    return fwd, bwd


@_op("max-pool3d")
def _maxpool3d():
    def fwd(node, vals, graph):
        (x,) = vals
        s = int(node.attrs.get("size", 2))
        _check(x.ndim == 5, "max-pool3d", f"input must be [B,C,D,H,W], got {x.shape}")
        _check(
            all(d % s == 0 for d in x.shape[2:]),
            "max-pool3d",
            f"extent {x.shape[2:]} not divisible by pool size {s}",
        )
        b, c, d, h, w = x.shape
        r = x.reshape(b, c, d // s, s, h // s, s, w // s, s)
        r = r.transpose(0, 1, 2, 4, 6, 3, 5, 7).reshape(
            b, c, d // s, h // s, w // s, s ** 3
        )
        idx = r.argmax(axis=-1)
        node.ctx["idx"] = idx
        return np.take_along_axis(r, idx[..., None], axis=-1)[..., 0]

    def bwd(node, vals, g):
        (x,) = vals
        s = int(node.attrs.get("size", 2))
        b, c, d, h, w = x.shape
        flat = np.zeros((b, c, d // s, h // s, w // s, s ** 3))
        np.put_along_axis(flat, node.ctx["idx"][..., None], g[..., None], axis=-1)
        gx = (
            flat.reshape(b, c, d // s, h // s, w // s, s, s, s)
            .transpose(0, 1, 2, 5, 3, 6, 4, 7)
            .reshape(b, c, d, h, w)
        )
        return [gx]

    return fwd, bwd


def _unary(f, df):
    def fwd(node, vals, graph):
        _check(len(vals) == 1, node.op, "expects one input")
        return f(vals[0])

    def bwd(node, vals, g):
        return [g * df(vals[0])]

    return fwd, bwd


@_op("relu")
def _relu():
    return _unary(lambda x: np.maximum(x, 0.0), lambda x: (x > 0).astype(np.float64))


@_op("leaky-relu")
def _leaky_relu():
    return _unary(
        lambda x: np.where(x > 0, x, LEAKY_SLOPE * x),
        lambda x: np.where(x > 0, 1.0, LEAKY_SLOPE),
    )


@_op("selu")
def _selu():
    def f(x):
        return SELU_LAMBDA * np.where(x > 0, x, SELU_ALPHA * np.expm1(x))

    def df(x):
        return SELU_LAMBDA * np.where(x > 0, 1.0, SELU_ALPHA * np.exp(x))

    return _unary(f, df)


@_op("sigmoid")
def _sigmoid():
    def f(x):
        return 0.5 * (1.0 + np.tanh(0.5 * x))

    return _unary(f, lambda x: f(x) * (1.0 - f(x)))


@_op("tanh")
def _tanh():
    return _unary(np.tanh, lambda x: 1.0 - np.tanh(x) ** 2)


@_op("batch-norm")
def _batch_norm():
    # Normalizes over all axes except axis 1 (channel/feature).  Train mode
    # uses batch statistics and updates the running stats stored in attrs;
    # eval mode uses running statistics only.
    def fwd(node, vals, graph):
        _check(len(vals) == 3, "batch-norm", "expects (x, gamma, beta)")
        x, gamma, beta = vals
        _check(x.ndim >= 2, "batch-norm", f"input must be batched, got {x.shape}")
        c = x.shape[1]
        _check(
            gamma.shape == (c,) and beta.shape == (c,),
            "batch-norm",
            f"gamma/beta must have shape ({c},)",
        )
        eps = float(node.attrs.get("eps", 1e-5))
        axes = tuple(i for i in range(x.ndim) if i != 1)
        shape = tuple(c if i == 1 else 1 for i in range(x.ndim))
        state = node.attrs.setdefault(
            "state", {"mean": np.zeros(c), "var": np.ones(c)}
        )
        if graph.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            momentum = float(node.attrs.get("momentum", 0.1))
            state["mean"] = (1 - momentum) * state["mean"] + momentum * mean
            state["var"] = (1 - momentum) * state["var"] + momentum * var
        else:
            mean, var = state["mean"], state["var"]
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (x - mean.reshape(shape)) * inv.reshape(shape)
        node.ctx.update(xhat=xhat, inv=inv, axes=axes, shape=shape,
                        train=graph.training)
        return gamma.reshape(shape) * xhat + beta.reshape(shape)

    def bwd(node, vals, g):
        x, gamma, _ = vals
        xhat = node.ctx["xhat"]
        inv = node.ctx["inv"]
        axes = node.ctx["axes"]
        shape = node.ctx["shape"]
        ggamma = (g * xhat).sum(axis=axes)
        gbeta = g.sum(axis=axes)
        gxhat = g * gamma.reshape(shape)
        if node.ctx["train"]:
            n = x.size // x.shape[1]
            gx = (
                inv.reshape(shape)
                / n
                * (
                    n * gxhat
                    - gxhat.sum(axis=axes).reshape(shape)
                    - xhat * (gxhat * xhat).sum(axis=axes).reshape(shape)
                )
            )
        else:
            gx = gxhat * inv.reshape(shape)
        return [gx, ggamma, gbeta]

    return fwd, bwd


@_op("dropout")
def _dropout():
    # Inverted scaling: eval mode is the identity.
    def fwd(node, vals, graph):
        (x,) = vals
        rate = float(node.attrs.get("rate", 0.0))
        _check(0.0 <= rate < 1.0, "dropout", f"rate {rate} outside [0,1)")
        if not graph.training or rate == 0.0:
            node.ctx["mask"] = None
            return x.copy()
        mask = (graph.rng.random(x.shape) >= rate) / (1.0 - rate)
        node.ctx["mask"] = mask
        return x * mask

    def bwd(node, vals, g):
        mask = node.ctx["mask"]
        return [g if mask is None else g * mask]

    return fwd, bwd


@_op("concat")
def _concat():
    def fwd(node, vals, graph):
        _check(len(vals) >= 2, "concat", "expects two or more inputs")
        axis = int(node.attrs.get("axis", -1))
        node.ctx["splits"] = [v.shape[axis] for v in vals]
        try:
            return np.concatenate(vals, axis=axis)
        except ValueError as e:
            raise ShapeError(f"concat: {e}") from None

    def bwd(node, vals, g):
        axis = int(node.attrs.get("axis", -1))
        offs = np.cumsum(node.ctx["splits"])[:-1]
        return list(np.split(g, offs, axis=axis))

    return fwd, bwd


def _nary_same_shape(opname, vals):
    _check(len(vals) >= 2, opname, "expects two or more inputs")
    s = vals[0].shape
    _check(
        all(v.shape == s for v in vals),
        opname,
        f"shapes differ: {[v.shape for v in vals]}",
    )


@_op("elementwise-add")
def _add():
    def fwd(node, vals, graph):
        _nary_same_shape("elementwise-add", vals)
        return np.sum(vals, axis=0)

    def bwd(node, vals, g):
        return [g] * len(vals)

    return fwd, bwd


@_op("sub")
def _sub():
    def fwd(node, vals, graph):
        _check(len(vals) == 2, "sub", "expects (a, b)")
        _nary_same_shape("sub", vals)
        return vals[0] - vals[1]

    def bwd(node, vals, g):
        return [g, -g]

    return fwd, bwd


@_op("mul")
def _mul():
    def fwd(node, vals, graph):
        _check(len(vals) == 2, "mul", "expects (a, b)")
        _nary_same_shape("mul", vals)
        return vals[0] * vals[1]

    def bwd(node, vals, g):
        return [g * vals[1], g * vals[0]]

    return fwd, bwd


@_op("scale")
def _scale():
    def fwd(node, vals, graph):
        _check(len(vals) == 1, "scale", "expects one input")
        return float(node.attrs.get("factor", 1.0)) * vals[0] + float(
            node.attrs.get("shift", 0.0)
        )

    def bwd(node, vals, g):
        return [float(node.attrs.get("factor", 1.0)) * g]

    return fwd, bwd


@_op("arithmetic-mean")
def _mean():
    def fwd(node, vals, graph):
        _nary_same_shape("arithmetic-mean", vals)
        return np.mean(vals, axis=0)

    def bwd(node, vals, g):
        return [g / len(vals)] * len(vals)

    return fwd, bwd


@_op("mse-loss")
def _mse():
    def fwd(node, vals, graph):
        _check(len(vals) == 2, "mse-loss", "expects (pred, target)")
        p, t = vals
        _check(p.shape == t.shape, "mse-loss", f"pred {p.shape} vs target {t.shape}")
        return np.array(np.mean((p - t) ** 2))

    def bwd(node, vals, g):
        p, t = vals
        d = 2.0 * (p - t) / p.size
        return [g * d, -g * d]

    return fwd, bwd


@_op("neighbor-sum")
def _neighbor_sum():
    # Aggregates node states with a constant (sparse) matrix: forward M @ h,
    # backward M.T @ g.  The matrix lives in attrs, not on the tape.
    def fwd(node, vals, graph):
        (h,) = vals
        m = node.attrs["matrix"]
        _check(
            m.shape[1] == h.shape[0],
            "neighbor-sum",
            f"matrix {m.shape} vs states {h.shape}",
        )
        return np.asarray(m @ h)

    def bwd(node, vals, g):
        return [np.asarray(node.attrs["matrix"].T @ g)]

    return fwd, bwd


@_op("flatten")
def _flatten():
    def fwd(node, vals, graph):
        (x,) = vals
        return x.reshape(x.shape[0], -1)

    def bwd(node, vals, g):
        return [g.reshape(vals[0].shape)]

    return fwd, bwd


@_op("reshape")
def _reshape():
    def fwd(node, vals, graph):
        (x,) = vals
        return x.reshape(tuple(node.attrs["shape"]))

    def bwd(node, vals, g):
        return [g.reshape(vals[0].shape)]

    return fwd, bwd


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------

def gradient_check(graph: ValueGraph, loss_node: int, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Requires a deterministic forward: two replays must agree bitwise.  Active
    dropout or train-mode batch-norm therefore gets rejected.
    """
    if epsilon <= 0:
        raise GraphError("epsilon must be positive")
    graph.forward()
    first = graph.nodes[loss_node].value.copy()
    graph.forward()
    if not np.array_equal(first, graph.nodes[loss_node].value):
        raise GraphError("non-deterministic forward pass; disable dropout/train-mode "
                         "batch-norm before gradient checking")
    analytic = graph.backward(loss_node)

    # replay only nodes downstream of the perturbed parameter
    children: dict[int, list[int]] = {}
    for node in graph.nodes:
        for i in node.inputs:
            children.setdefault(i, []).append(node.nid)

    def downstream(nid: int) -> list[int]:
        seen = {nid}
        stack = [nid]
        while stack:
            for c in children.get(stack.pop(), ()):
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        seen.discard(nid)
        return sorted(seen)

    def replay(nids: list[int]) -> float:
        for nid in nids:
            node = graph.nodes[nid]
            fwd, _ = _OPS[node.op]
            node.value = fwd(node, [graph.nodes[i].value for i in node.inputs],
                             graph)
        return float(graph.nodes[loss_node].value)

    worst = 0.0
    for p in graph.parameters:
        affected = downstream(p.nid)
        flat = p.value.ravel()
        ga = analytic[p.nid].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            hi = replay(affected)
            flat[i] = orig - epsilon
            lo = replay(affected)
            flat[i] = orig
            replay(affected)
            num = (hi - lo) / (2.0 * epsilon)
            err = abs(ga[i] - num) / max(1.0, abs(num))
            worst = max(worst, err)
    return worst
