"""Minimal reverse-mode differentiation engine over dense float64 arrays.

A :class:`ValueGraph` is an eager tape: ``apply`` runs the op immediately and
records it, ``backward`` walks the tape in reverse, and ``forward`` replays the
whole tape (used by the finite-difference checker).  Everything is 64-bit
NumPy.

A node requires a gradient when it is a trainable leaf or when any of its
inputs requires one.  ``backward`` computes only those gradients: an input
leaf such as the voxel grid, and every node that depends on inputs alone,
gets none, so the first convolution never computes its input gradient.

Memory lifetime.  ``backward`` drops each intermediate gradient as soon as
its node's backward has run, so only parameter gradients survive the call,
and op kernels allocate only their output (biases are added in place,
``elementwise-add`` sums without stacking its inputs, and ``sigmoid`` and
``tanh`` differentiate from their stored output).  ``models._fit`` keeps one
step's tape alive until the next step's tape is built.  Together these keep
glibc from trimming the heap between training steps and faulting it back
in: a 2-epoch criterion-3 ``models.train`` call on 1,700 complexes took about
650k minor page faults before them and about 26k (on a first call) after.

A tape keeps every value until it dies, except a graph given a plan by
``free_at_last_use``: that one drops each op's value (and its ``ctx``) once
the ``apply`` of its last consumer has returned, at the start of the next
``apply`` or at ``collect``, so a wrapper around ``apply`` can still read the
inputs of the call it wrapped.  The plan comes from a :class:`TapeStructure`,
which records a builder's ops without running them.  Only ``models``'
``predict_batch`` tapes free; training, validation, ``gradient_check`` and
any other tape keep all their values, since ``backward`` and ``forward``
need them.  A paper-size 56-pose ``predict_batch`` grew a fresh process by
153 MB where keeping every value grew it by 426 MB, and took 6.5-10k minor
faults per later call against 33-37k; an 8-pose one, 0 against about 3,500.

conv3d is a same-padded, stride-1 correlation computed tile by tile: each
tile is a channel-major im2col block ``[C*k^3, positions]`` covering whole
samples, or depth slabs of one sample when a sample does not fit, and one
GEMM per sample writes its output straight into place.  The forward pass,
the input gradient (the flipped, channel-swapped kernel applied to tiles of
the output gradient) and the weight gradient (summed tile by tile) share
the tiling.  A tile holds at most :data:`_TILE_BYTES`, or one depth slice
of one sample if that is larger, where a whole-batch column matrix reaches
hundreds of MB at paper size.

One planner, ``_tiles``, plans the tiles of all three conv3d kernels (the
dense one above and the two forward paths below).  Each kernel passes the
bytes that each sample's depth plane takes in its tile, and gets runs of
whole samples within :data:`_TILE_BYTES`, or depth slabs of one sample that
exceeds it alone, at least one plane each.  A slab can leave room for a
halo, the planes its kernel reads beyond it.

Each dense or stacked conv3d call allocates one tile buffer and frees it
on return.  The dense path's holds up to :data:`_TILE_BYTES` (21-25 MB at
the paper and criterion-3 sizes); the stacked path's, below, never less,
whatever its tiles need.  The size was chosen by
measurement with minor page faults in view: glibc raises its mmap threshold
to the size of the largest mapped block freed, and trims the heap top
beyond twice that.  A buffer of about 24 MB freed on every call keeps the
threshold above the buffer and every other temporary of a prediction or a
training step, so all of them are reused from the heap: a 56-pose
criterion-3 ``predict_batch`` takes 0-8 minor faults per call after
warm-up, and a paper-size 8-pose one about 3,000 (0 since prediction tapes
free at last use).  Smaller buffers let the
temporaries be mapped and faulted afresh on every call: with 16 MB tiles,
over 200x the faults and about 30% slower; a stacked buffer sized to each
call's need, about 3,900 faults per criterion-3 call and 5,100 per
paper-size one; one buffer kept per thread and never freed, about 7,500
and 9,500, at about 1.5x the criterion-3 call time.  24 MB stays below glibc's
32 MB cap on the threshold.

Two conv3d forward paths serve inference graphs only (``models`` builds
them for ``predict_batch``): there a conv over a leaf made by ``input`` (the
voxel grid) takes the scatter path, and any other the stacked one.  Training
and validation keep the dense path, since the golden training histories pin
their losses bitwise.  Both paths sum in another order than the dense GEMM,
so values agree with it to about 1e-15 relative, not bitwise, but each
sample's output is still independent of the rest of the batch.  Backward
stays dense on both: the dense input is on the tape.

- The scatter path (``_scatter_correlate``) computes the forward from the
  input's nonzero cells: a paper-size voxel grid fills about 57 of its
  32,768 cells, and the dense im2col would multiply the rest by zero.  Its
  im2col is a CSR matrix built from ``np.nonzero(x)``, multiplied by the
  reshaped kernel in one scipy product per tile.  A plane's cost is its
  sparse entries and dense product rows, so a sample's cost follows its
  nonzero cells.
- The stacked path (``_stacked_correlate``) builds the im2col over (channel,
  kernel row, kernel column) only, k^2 copies of the input where the dense
  path makes k^3, and multiplies it by the kernel stacked over its depth
  taps, ``[k*O, C*k^2]``, one GEMM per sample; each output plane then sums
  its k taps' rows from the neighbouring input planes.  A plane's cost is
  its column and product blocks, and a slab of output planes leaves room
  for the 2*(k//2) input planes it reads beyond it; all tiles share one
  buffer.

max-pool3d takes the running maximum over the strided views of its window
cells, and its backward finds each window's first maximum again from the
stored output in one reverse scan over the same views, each matching cell
overwriting the index a later one wrote, so neither copies its input into
window-last order.  Ties go to the first cell in window order, as argmax
picks it: values and gradients are bitwise those of an argmax pool.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "GraphError",
    "ShapeError",
    "Node",
    "ValueGraph",
    "TapeStructure",
    "gradient_check",
    "SELU_ALPHA",
    "SELU_LAMBDA",
    "LEAKY_SLOPE",
]

SELU_ALPHA = 1.6732632423543772
SELU_LAMBDA = 1.0507009873554805
LEAKY_SLOPE = 0.01
_BN_EPS = 1e-5  # batch-norm variance floor
_BN_MOMENTUM = 0.1  # batch-norm running-statistics update rate

# Bytes of one conv3d im2col tile; see the module docstring.
_TILE_BYTES = 24 * 2 ** 20
# About the bytes one sparse im2col entry takes while its tile is built:
# int64 positions and indices, their masked copies and the CSR matrix.
_SCATTER_ENTRY_BYTES = 96


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
    __slots__ = ("nid", "op", "inputs", "value", "attrs", "trainable", "ctx",
                 "needs")

    def __init__(self, nid, op, inputs, value, attrs, trainable=False,
                 needs=()):
        self.nid = nid
        self.op = op
        self.inputs = inputs
        self.value = value
        self.attrs = attrs or {}
        self.trainable = trainable
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
    """Ordered tape of operation records with trainable leaf parameters, in
    ``training`` mode, ``inference`` mode (module docstring) or neither."""

    def __init__(self, seed: int = 0, training: bool = False,
                 inference: bool = False):
        if training and inference:
            raise GraphError("a graph is either a training or an inference "
                             "graph, not both")
        self.nodes: list[Node] = []
        self.training = training
        self.inference = inference
        self.rng = np.random.default_rng(seed)
        # set by ``free_at_last_use``: the tape to come, and per op node the
        # nodes whose values die once its ``apply`` has returned
        self._structure: list[tuple[str, list[int]]] | None = None
        self._dies_after: dict[int, list[int]] = {}
        self._dead: list[int] = []

    # -- leaves ---------------------------------------------------------
    def input(self, value) -> int:
        return self._add("leaf", [], _as_array(value), {}, False)

    def parameter(self, value) -> int:
        return self._add("leaf", [], _as_array(value), {}, True)

    def _add(self, op, inputs, value, attrs, trainable) -> int:
        nid = len(self.nodes)
        if self._structure is not None and (
                nid >= len(self._structure)
                or self._structure[nid] != (op, list(inputs))):
            raise GraphError(f"node {nid} ({op}) departs from the tape "
                             f"structure its frees were planned on")
        needs = tuple(self.nodes[i].requires_grad for i in inputs)
        node = Node(nid, op, list(inputs), value, attrs, trainable, needs)
        self.nodes.append(node)
        return node.nid

    def value(self, nid: int) -> np.ndarray:
        return self.nodes[nid].value

    @property
    def parameters(self) -> list[Node]:
        return [n for n in self.nodes if n.trainable]

    # -- op application -------------------------------------------------
    def apply(self, op_kind: str, inputs, attrs: dict | None = None) -> int:
        self.collect()
        if op_kind not in _OPS:
            raise GraphError(f"unknown op kind {op_kind!r}")
        inputs = [inputs] if isinstance(inputs, int) else list(inputs)
        for i in inputs:
            if not (0 <= i < len(self.nodes)):
                raise GraphError(f"{op_kind}: invalid input node id {i}")
        nid = self._add(op_kind, inputs, None, dict(attrs or {}), False)
        self._run(self.nodes[nid])
        self._dead = self._dies_after.get(nid, [])
        return nid

    def free_at_last_use(self, structure: "TapeStructure", keep: int) -> None:
        """Makes this graph, still empty, drop each op node's value once the
        ``apply`` of its last consumer has returned: at the start of the next
        ``apply``, or at ``collect``.  ``structure`` recorded the tape that
        is to be built on this graph; a node that departs from it raises
        :class:`GraphError`.  Leaves and the ``keep`` node keep their
        values.  The tape has no ``backward`` or ``forward`` afterwards."""
        if self.nodes:
            raise GraphError("frees must be planned before the tape is built")
        last = {}
        for nid, (op, inputs) in enumerate(structure.nodes):
            if op != "leaf":
                last[nid] = nid  # a value no op reads dies after its own
                for i in inputs:
                    if structure.nodes[i][0] != "leaf":
                        last[i] = nid
        last.pop(keep, None)
        self._structure = structure.nodes
        self._dies_after = {}
        for nid, at in last.items():
            self._dies_after.setdefault(at, []).append(nid)

    def collect(self) -> None:
        """Drops the values (and op contexts) that ``free_at_last_use``
        planned to die at the last ``apply``."""
        for i in self._dead:
            node = self.nodes[i]
            node.value = None
            node.ctx.clear()
        self._dead = []

    def forward(self) -> None:
        """Replay every recorded op in tape order (leaves keep their values)."""
        for node in self.nodes:
            if node.op != "leaf":
                self._run(node)

    def _run(self, node: Node) -> None:
        """(Re)computes one op node's value from its inputs' values."""
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
            if node.op == "leaf":
                continue
            # popped: an intermediate gradient dies once its node is done
            g = grads.pop(node.nid, None)
            if g is None:
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


class TapeStructure:
    """Records the ops a tape builder applies, without running them, for
    :meth:`ValueGraph.free_at_last_use`.

    It offers the builder an eval graph's ``input``, ``parameter`` and
    ``apply``; ``nodes`` holds ``(op, input ids)`` per node, ``"leaf"`` for
    a leaf.  The builder must not read values, or the attributes of an op
    (no op runs, so none is set).
    """

    training = False

    def __init__(self):
        self.nodes: list[tuple[str, list[int]]] = []

    def input(self, value) -> int:
        self.nodes.append(("leaf", []))
        return len(self.nodes) - 1

    parameter = input

    def apply(self, op_kind: str, inputs, attrs: dict | None = None) -> int:
        inputs = [inputs] if isinstance(inputs, int) else list(inputs)
        self.nodes.append((op_kind, inputs))
        return len(self.nodes) - 1


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
        out = x @ w
        out += b
        return out

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


def _tiles(cost, halo=0):
    """Tiles ``(b0, b1, d0, d1)`` of a conv3d kernel for ``cost`` [B, D],
    the bytes each sample's depth plane takes in a tile: runs of whole
    samples within :data:`_TILE_BYTES`, or depth slabs of one sample that
    exceeds it alone (at least one plane each).  A slab leaves room for
    ``halo`` more planes of its sample, each at its largest plane cost: the
    planes its kernel reads beyond it."""
    per_sample = cost.sum(axis=1)
    b0 = 0
    while b0 < len(per_sample):
        if per_sample[b0] <= _TILE_BYTES:
            b1 = _fill(per_sample, b0, _TILE_BYTES)
            yield b0, b1, 0, cost.shape[1]
        else:
            b1, d0 = b0 + 1, 0
            budget = _TILE_BYTES - halo * cost[b0].max()
            while d0 < cost.shape[1]:
                d1 = _fill(cost[b0], d0, budget)
                yield b0, b1, d0, d1
                d0 = d1
        b0 = b1


def _fill(cost, i, budget):
    """End of the longest run ``cost[i:j]`` within ``budget``, one element
    at least."""
    total = np.cumsum(cost[i:])
    return i + max(1, int(np.searchsorted(total, budget, side="right")))


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
    tiles = list(_tiles(np.full((b, d), rows * plane * x.itemsize)))
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p), (p, p)))
    win = sliding_window_view(xp, (k, k, k), axis=(2, 3, 4))  # [B,C,D,H,W,k,k,k]
    most = max(((b1 - b0) * (d1 - d0) for b0, b1, d0, d1 in tiles), default=0)
    buf = np.empty(rows * most * plane)
    for b0, b1, d0, d1 in tiles:
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


def _scatter_correlate(x, w):
    """``_correlate`` summed over the nonzero cells of ``x`` only.

    Each tile's im2col is a CSR matrix [positions, C*k^3] built from
    ``np.nonzero(x)``: every nonzero cell lands once per kernel offset whose
    output position lies in the box.  One sparse-dense product with the
    reshaped kernel gives the tile's output channels-last.  Output rows sum
    in ascending column order, whatever the tile, so a sample's values do
    not depend on the rest of the batch.
    """
    b, c, d, h, wd = x.shape
    o, k = w.shape[0], w.shape[2]
    p = k // 2
    taps = k ** 3
    kernel = np.ascontiguousarray(w.reshape(o, -1).T)       # [C*k^3, O]
    # per kernel offset (i, j, l), in kernel row order: output minus input
    # position along each axis
    shift = [p - a.ravel() for a in np.indices((k, k, k))]
    nz = np.nonzero(x)
    vals = x[nz]
    nb, nc, nzz, ny, nx = nz
    starts = np.searchsorted(nb, np.arange(b + 1))
    # Bytes of each sample's output depth planes in a tile: the planes'
    # sparse entries (at most k^2 per nonzero cell in the k input planes
    # that reach the plane) and their dense channels-last product rows.
    per_plane = np.bincount(nb * d + nzz, minlength=b * d).reshape(b, d)
    window = np.cumsum(np.pad(per_plane, ((0, 0), (p + 1, p))), axis=1)
    cost = ((window[:, k:] - window[:, :-k]) * (k * k * _SCATTER_ENTRY_BYTES)
            + h * wd * o * x.itemsize)
    out = np.empty((b, o, d, h, wd))
    for b0, b1, d0, d1 in _tiles(cost):
        sel = slice(starts[b0], starts[b1])
        tb, tc, tz, ty, tx, tv = (a[sel] for a in (nb, nc, nzz, ny, nx, vals))
        if d1 - d0 < d:
            near = (tz >= d0 - p) & (tz < d1 + p)
            tb, tc, tz, ty, tx, tv = (a[near] for a in (tb, tc, tz, ty, tx, tv))
        oz = tz[:, None] + shift[0]
        oy = ty[:, None] + shift[1]
        ox = tx[:, None] + shift[2]
        keep = ((oz >= d0) & (oz < d1) & (oy >= 0) & (oy < h)
                & (ox >= 0) & (ox < wd))
        rows = (((tb - b0)[:, None] * (d1 - d0) + oz - d0) * h + oy) * wd + ox
        cols = tc[:, None] * taps + np.arange(taps)
        im2col = sp.csr_matrix(
            (np.broadcast_to(tv[:, None], keep.shape)[keep],
             (rows[keep], cols[keep])),
            shape=((b1 - b0) * (d1 - d0) * h * wd, c * taps))
        out[b0:b1, :, d0:d1] = (im2col @ kernel).reshape(
            b1 - b0, d1 - d0, h, wd, o).transpose(0, 4, 1, 2, 3)
    return out


def _stacked_correlate(x, w):
    """``_correlate`` through the kernel stacked over its depth taps.

    Each tile's im2col covers only the (channel, kernel row, kernel column)
    offsets, ``[C*k^2, positions]`` over the input planes its outputs
    reach: k^2 copies of the input, not k^3.  One GEMM per sample against
    the kernel stacked over its depth taps, ``[k*O, C*k^2]``, gives the
    product of every depth tap; output plane z then sums tap i's rows at
    input plane z + i - k//2, the centre tap first.  A sample's GEMM and
    sums do not depend on the rest of the batch, so neither do its values.
    """
    b, c, d, h, wd = x.shape
    o, k = w.shape[0], w.shape[2]
    p = k // 2
    rows = c * k * k
    kernel = w.transpose(2, 0, 1, 3, 4).reshape(k * o, rows)
    out = np.empty((b, o, d, h, wd))
    buf = np.empty(0)
    plane = (rows + k * o) * h * wd * x.itemsize
    for b0, b1, z0, z1 in _tiles(np.full((b, d), plane), 2 * p):
        a, e = max(0, z0 - p), min(d, z1 + p)
        n, m = b1 - b0, (e - a) * h * wd
        if buf.size < (rows + k * o) * n * m:
            # at least a full tile's bytes; see the module docstring
            buf = np.empty(max((rows + k * o) * n * m, _TILE_BYTES // 8))
        cols = buf[: rows * n * m].reshape(c, k, k, n, e - a, h, wd)
        _fill_planes(cols, x[b0:b1, :, a:e].transpose(1, 0, 2, 3, 4), p)
        prod = buf[rows * n * m:(rows + k * o) * n * m].reshape(n, k * o, m)
        np.matmul(kernel, cols.reshape(rows, n, m).transpose(1, 0, 2), out=prod)
        prod = prod.reshape(n, k, o, e - a, h, wd)
        dst = out[b0:b1, :, z0:z1]
        np.copyto(dst, prod[:, p, :, z0 - a:z1 - a])
        for i in range(k):
            # output plane z reads input plane z + i - p
            lo, hi = max(z0, a + p - i), min(z1, e + p - i)
            if i != p and lo < hi:
                dst[:, :, lo - z0:hi - z0] += prod[:, i, :, lo + i - p - a:
                                                   hi + i - p - a]
    return out


def _fill_planes(cols, src, p):
    """Writes ``cols`` [C, k, k, ...planes, H, W] with ``src`` [C, ...planes,
    H, W] shifted by each (kernel row, kernel column) offset, zero where the
    offset reaches outside the plane."""
    k = cols.shape[1]
    h, w = src.shape[-2:]
    for j in range(k):
        y0 = min(h, max(0, p - j))
        y1 = max(y0, min(h, h + p - j))
        for l in range(k):
            x0 = min(w, max(0, p - l))
            x1 = max(x0, min(w, w + p - l))
            dst = cols[:, j, l]
            dst[..., :y0, :] = 0.0
            dst[..., y1:, :] = 0.0
            dst[..., y0:y1, :x0] = 0.0
            dst[..., y0:y1, x1:] = 0.0
            dst[..., y0:y1, x0:x1] = src[..., y0 + j - p:y1 + j - p,
                                         x0 + l - p:x1 + l - p]


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
        correlate = _correlate
        if graph.inference:
            src = graph.nodes[node.inputs[0]]
            correlate = (_scatter_correlate
                         if src.op == "leaf" and not src.trainable
                         else _stacked_correlate)
        out = correlate(x, w)
        out += b[None, :, None, None, None]
        return out

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
    # Ties go to the first cell in window order (depth, row, column), as
    # argmax would pick it; backward finds that cell again from the output.
    def fwd(node, vals, graph):
        (x,) = vals
        s = int(node.attrs.get("size", 2))
        _check(x.ndim == 5, "max-pool3d", f"input must be [B,C,D,H,W], got {x.shape}")
        _check(
            all(d % s == 0 for d in x.shape[2:]),
            "max-pool3d",
            f"extent {x.shape[2:]} not divisible by pool size {s}",
        )
        cells = _window_cells(x, s)
        out = cells[0][1].copy()
        for _, cell in cells[1:]:
            # np.maximum returns its second operand, the earlier cell, when
            # the two are equal; only a zero's sign tells them apart
            np.maximum(cell, out, out=out)
        return out

    def bwd(node, vals, g):
        (x,) = vals
        s = int(node.attrs.get("size", 2))
        gx = np.zeros(x.shape)
        gx.ravel()[_first_max(x, node.value, s)] = g
        return [gx]

    return fwd, bwd


def _window_cells(x, s):
    """``(offset, view)`` per cell of the size-``s`` pooling windows of
    ``x`` [B,C,D,H,W], in window order: ``view`` [B,C,D/s,H/s,W/s] holds
    that cell of every window, ``offset`` its flat distance in ``x`` from
    the window's first cell."""
    b, c, d, h, w = x.shape
    r = x.reshape(b, c, d // s, s, h // s, s, w // s, s)
    return [((i * h + j) * w + l, r[:, :, :, i, :, j, :, l])
            for i in range(s) for j in range(s) for l in range(s)]


def _first_max(x, out, s):
    """Flat index into ``x`` of the first cell of each pooling window that
    equals its maximum ``out``; cells run last to first, so an earlier
    cell's match overwrites a later one's."""
    b, c, d, h, w = x.shape
    first = np.zeros(out.shape, np.intp)
    for offset, cell in reversed(_window_cells(x, s)):
        np.copyto(first, offset, where=cell == out)
    first += (np.arange(b * c).reshape(b, c, 1, 1, 1) * (d * h * w)
              + np.arange(0, d, s).reshape(-1, 1, 1) * (h * w)
              + np.arange(0, h, s).reshape(-1, 1) * w + np.arange(0, w, s))
    return first


def _unary(f, df):
    # df(x, y) is the derivative at input x with output y = f(x)
    def fwd(node, vals, graph):
        _check(len(vals) == 1, node.op, "expects one input")
        return f(vals[0])

    def bwd(node, vals, g):
        return [g * df(vals[0], node.value)]

    return fwd, bwd


@_op("relu")
def _relu():
    return _unary(lambda x: np.maximum(x, 0.0),
                  lambda x, y: (x > 0).astype(np.float64))


@_op("leaky-relu")
def _leaky_relu():
    return _unary(
        lambda x: np.where(x > 0, x, LEAKY_SLOPE * x),
        lambda x, y: np.where(x > 0, 1.0, LEAKY_SLOPE),
    )


@_op("selu")
def _selu():
    def f(x):
        return SELU_LAMBDA * np.where(x > 0, x, SELU_ALPHA * np.expm1(x))

    def df(x, y):
        return SELU_LAMBDA * np.where(x > 0, 1.0, SELU_ALPHA * np.exp(x))

    return _unary(f, df)


@_op("sigmoid")
def _sigmoid():
    return _unary(lambda x: 0.5 * (1.0 + np.tanh(0.5 * x)),
                  lambda x, y: y * (1.0 - y))


@_op("tanh")
def _tanh():
    return _unary(np.tanh, lambda x, y: 1.0 - y ** 2)


@_op("batch-norm")
def _batch_norm():
    # Normalizes over all axes except axis 1 (channel/feature).  Train mode
    # uses batch statistics and updates the running stats stored in attrs;
    # eval mode uses running statistics only.  The mode is the graph's unless
    # the node's ``training`` attr sets it (a frozen layer in a training tape).
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
        axes = tuple(i for i in range(x.ndim) if i != 1)
        shape = tuple(c if i == 1 else 1 for i in range(x.ndim))
        state = node.attrs.setdefault(
            "state", {"mean": np.zeros(c), "var": np.ones(c)}
        )
        train = node.attrs.get("training", graph.training)
        if train:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            state["mean"] = (1 - _BN_MOMENTUM) * state["mean"] + _BN_MOMENTUM * mean
            state["var"] = (1 - _BN_MOMENTUM) * state["var"] + _BN_MOMENTUM * var
        else:
            mean, var = state["mean"], state["var"]
        inv = 1.0 / np.sqrt(var + _BN_EPS)
        xhat = (x - mean.reshape(shape)) * inv.reshape(shape)
        node.ctx.update(xhat=xhat, inv=inv, axes=axes, shape=shape,
                        train=train)
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
            return x
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
        # summed left to right in place, as np.sum(vals, axis=0) sums a stack
        out = vals[0] + vals[1]
        for v in vals[2:]:
            out += v
        return out

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


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------

def gradient_check(graph: ValueGraph, loss_node: int, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Requires a deterministic forward: two replays must agree bitwise.  Active
    dropout therefore gets rejected, and train-mode batch-norm is rejected
    before any replay can move its running stats.
    """
    if epsilon <= 0:
        raise GraphError("epsilon must be positive")
    if graph.training and any(n.op == "batch-norm" for n in graph.nodes):
        raise GraphError("train-mode batch-norm; build the tape in eval mode "
                         "before gradient checking")
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
            graph._run(graph.nodes[nid])
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
