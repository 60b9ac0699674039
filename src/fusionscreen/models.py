"""Scoring heads and fusion strategies.

Two heads score a protein-ligand complex: a 3-D convolutional head over the
voxelized representation and a gated message-passing head over the spatial
graph.  Three ways to combine them:

* late     -- unweighted mean of the two scalar predictions
* mid      -- trainable fusion layers over the two latent vectors, heads frozen
* coherent -- same architecture, gradients flow into both heads

Parameters are plain ``dict[str, np.ndarray]``; every forward pass builds a
fresh :class:`~fusionscreen.autodiff.ValueGraph` tape.  ``train`` and
``train_head`` share one minibatch loop, which restores the best-validation
parameters together with the batch-norm running statistics of that epoch.
``FusionModel.save``/``load`` and ``save_head``/``load_head`` share one
checkpoint writer and reader: params, those statistics and the config, tagged
with the model kind, which the reader checks.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field, asdict

import numpy as np
import scipy.sparse as sp

from .autodiff import GraphError, TapeStructure, ValueGraph
from .checkpoint import save_checkpoint, load_checkpoint
from .complexes import (ComplexGraph, GridConfig, SyntheticComplex, VoxelGrid,
                        build_graph, rotate_augment, voxelize)
from .optim import Optimizer, OptimizerConfig

logger = logging.getLogger(__name__)

AUGMENT_PROBABILITY = 0.1  # per-axis chance of a 90-degree rotation
_EVAL_CHUNK = 256  # items per eval tape in ``_eval_mse``
_BN_PREFIX = "bn_state/"  # checkpoint names of batch-norm running statistics

_ACTIVATIONS = ("relu", "leaky-relu", "selu")


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VoxelHeadConfig:
    grid_extent: int = 16
    in_channels: int = 8
    conv_filters_1: int = 32
    conv_filters_2: int = 64
    dense_nodes: int = 128
    residual_1: bool = False
    residual_2: bool = True
    batch_norm: bool = False
    dropout_early: float = 0.25
    dropout_mid: float = 0.125
    kernel_1: int = 5
    kernel_2: int = 3

    @property
    def flat_width(self) -> int:
        # two 2x pools
        side = self.grid_extent // 4
        return self.conv_filters_2 * side ** 3

    @property
    def latent_width(self) -> int:
        return self.dense_nodes // 2


@dataclass(frozen=True)
class GraphHeadConfig:
    c_elem: int = 4
    k_cov: int = 6
    k_noncov: int = 3
    gather_width_cov: int = 24
    gather_width_noncov: int = 128
    cov_thresh: float = 2.24
    noncov_thresh: float = 5.22

    def __post_init__(self):
        for k in (self.k_cov, self.k_noncov):
            if not 2 <= k <= 8:
                raise ValueError(f"message-passing steps must be in [2, 8], got {k}")

    @property
    def feature_width(self) -> int:
        return self.c_elem + 4

    @property
    def dense_widths(self) -> tuple[int, int]:
        # gather width reduced by 1.5, then by 2, both floored
        w1 = int(self.gather_width_noncov / 1.5)
        return w1, w1 // 2

    @property
    def latent_width(self) -> int:
        return self.gather_width_noncov


@dataclass(frozen=True)
class FusionConfig:
    mode: str = "coherent"  # late | mid | coherent
    n_fusion_layers: int = 4
    model_specific_layers: bool = False
    residual_fusion: bool = False
    activation: str = "selu"
    dropout_early: float = 0.0
    dropout_mid: float = 0.0
    dropout_late: float = 0.0
    fusion_dense_nodes: int = 64
    pre_trained: bool = False
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    batch_size: int = 48
    epochs: int = 18

    def __post_init__(self):
        if self.mode not in ("late", "mid", "coherent"):
            raise ValueError(f"unknown fusion mode {self.mode!r}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.mode != "late" and not 3 <= self.n_fusion_layers <= 5:
            raise ValueError("n_fusion_layers must be 3, 4, or 5")


def table_mid_fusion_config(**overrides) -> FusionConfig:
    """Published Mid-level Fusion end state."""
    base = dict(mode="mid", n_fusion_layers=5, model_specific_layers=True,
                residual_fusion=True, activation="selu", dropout_early=0.251,
                dropout_mid=0.125, dropout_late=0.0, batch_size=1, epochs=64,
                optimizer=OptimizerConfig("adam", 4.03e-4))
    base.update(overrides)
    return FusionConfig(**base)


def table_coherent_fusion_config(**overrides) -> FusionConfig:
    """Published Coherent Fusion end state."""
    base = dict(mode="coherent", n_fusion_layers=4, model_specific_layers=False,
                residual_fusion=False, activation="selu", dropout_early=0.386,
                dropout_mid=0.247, dropout_late=0.055, batch_size=48, epochs=18,
                pre_trained=True, optimizer=OptimizerConfig("adam", 1.08e-4))
    base.update(overrides)
    return FusionConfig(**base)


# ---------------------------------------------------------------------------
# parameter initialization (scaled uniform fan-in)
# ---------------------------------------------------------------------------

def _init(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def init_voxel_params(cfg: VoxelHeadConfig, rng) -> dict[str, np.ndarray]:
    k1, k2 = cfg.kernel_1, cfg.kernel_2
    c, f1, f2 = cfg.in_channels, cfg.conv_filters_1, cfg.conv_filters_2
    p = {
        "conv1_w": _init(rng, c * k1 ** 3, (f1, c, k1, k1, k1)),
        "conv1_b": _init(rng, c * k1 ** 3, f1),
        "conv2_w": _init(rng, f1 * k2 ** 3, (f1, f1, k2, k2, k2)),
        "conv2_b": _init(rng, f1 * k2 ** 3, f1),
        "conv3_w": _init(rng, f1 * k2 ** 3, (f2, f1, k2, k2, k2)),
        "conv3_b": _init(rng, f1 * k2 ** 3, f2),
        "conv4_w": _init(rng, f2 * k2 ** 3, (f2, f2, k2, k2, k2)),
        "conv4_b": _init(rng, f2 * k2 ** 3, f2),
        "dense1_w": _init(rng, cfg.flat_width, (cfg.flat_width, cfg.dense_nodes)),
        "dense1_b": _init(rng, cfg.flat_width, cfg.dense_nodes),
        "dense2_w": _init(rng, cfg.dense_nodes, (cfg.dense_nodes, cfg.latent_width)),
        "dense2_b": _init(rng, cfg.dense_nodes, cfg.latent_width),
        "out_w": _init(rng, cfg.latent_width, (cfg.latent_width, 1)),
        "out_b": _init(rng, cfg.latent_width, 1),
    }
    if cfg.batch_norm:
        p["bn1_gamma"], p["bn1_beta"] = np.ones(f1), np.zeros(f1)
        p["bn2_gamma"], p["bn2_beta"] = np.ones(f2), np.zeros(f2)
    return p


def init_graph_params(cfg: GraphHeadConfig, rng) -> dict[str, np.ndarray]:
    d, gn = cfg.gather_width_cov, cfg.gather_width_noncov
    p = {
        "embed_w": _init(rng, cfg.feature_width, (cfg.feature_width, d)),
        "embed_b": _init(rng, cfg.feature_width, d),
        "gather_gate_w": _init(rng, d, (d, gn)),
        "gather_gate_b": _init(rng, d, gn),
        "gather_feat_w": _init(rng, d, (d, gn)),
        "gather_feat_b": _init(rng, d, gn),
    }
    for phase in ("cov", "noncov"):
        p[f"{phase}_msg_w"] = _init(rng, d, (d, d))
        for gate in ("z", "r", "h"):
            p[f"{phase}_w{gate}"] = _init(rng, d, (d, d))
            p[f"{phase}_u{gate}"] = _init(rng, d, (d, d))
            p[f"{phase}_b{gate}"] = _init(rng, d, d)
    w1, w2 = cfg.dense_widths
    p["dense1_w"] = _init(rng, gn, (gn, w1))
    p["dense1_b"] = _init(rng, gn, w1)
    p["dense2_w"] = _init(rng, w1, (w1, w2))
    p["dense2_b"] = _init(rng, w1, w2)
    p["out_w"] = _init(rng, w2, (w2, 1))
    p["out_b"] = _init(rng, w2, 1)
    return p


def init_fusion_params(cfg: FusionConfig, latent_g: int, latent_v: int,
                       rng) -> dict[str, np.ndarray]:
    if cfg.mode == "late":
        return {}
    p = {}
    width = latent_g + latent_v
    if cfg.model_specific_layers:
        p["ms_graph_w"] = _init(rng, latent_g, (latent_g, latent_g))
        p["ms_graph_b"] = _init(rng, latent_g, latent_g)
        p["ms_voxel_w"] = _init(rng, latent_v, (latent_v, latent_v))
        p["ms_voxel_b"] = _init(rng, latent_v, latent_v)
        width *= 2
    fd = cfg.fusion_dense_nodes
    widths = [width] + [fd] * (cfg.n_fusion_layers - 1) + [1]
    for i in range(cfg.n_fusion_layers):
        p[f"fuse{i}_w"] = _init(rng, widths[i], (widths[i], widths[i + 1]))
        p[f"fuse{i}_b"] = _init(rng, widths[i], widths[i + 1])
    return p


# ---------------------------------------------------------------------------
# batch assembly
# ---------------------------------------------------------------------------

@dataclass
class GraphBatch:
    features: np.ndarray       # [n_total, F]
    adj_cov: sp.spmatrix
    adj_noncov: sp.spmatrix
    pool: sp.spmatrix          # [n_graphs, n_total], rows sum to 1


def batch_graphs(graphs: list[ComplexGraph]) -> GraphBatch:
    offsets = np.cumsum([0] + [g.n_nodes for g in graphs])
    n_total = int(offsets[-1])
    feats = np.vstack([g.node_features for g in graphs])

    def adjacency(edge_lists):
        rows, cols = [], []
        for g, off in zip(graphs, offsets[:-1]):
            e = edge_lists(g)
            if len(e):
                rows.extend((e[:, 0] + off).tolist())
                cols.extend((e[:, 1] + off).tolist())
        rows, cols = np.asarray(rows + cols), np.asarray(cols + rows)
        data = np.ones(len(rows))
        return sp.csr_matrix((data, (rows, cols)), shape=(n_total, n_total))

    pr, pc, pd = [], [], []
    for i, (g, off) in enumerate(zip(graphs, offsets[:-1])):
        pr.extend([i] * g.n_nodes)
        pc.extend(range(off, off + g.n_nodes))
        pd.extend([1.0 / g.n_nodes] * g.n_nodes)
    pool = sp.csr_matrix((pd, (pr, pc)), shape=(len(graphs), n_total))
    return GraphBatch(feats, adjacency(lambda g: g.covalent_edges),
                      adjacency(lambda g: g.noncovalent_edges), pool)


# ---------------------------------------------------------------------------
# tape builders
# ---------------------------------------------------------------------------

class _Tape:
    """Thin helper binding a param dict onto a ValueGraph as (frozen) leaves."""

    def __init__(self, graph: ValueGraph):
        self.graph = graph
        self.pnodes: dict[str, int] = {}

    def bind(self, params: dict[str, np.ndarray], prefix: str, trainable: bool):
        for name, arr in params.items():
            full = f"{prefix}/{name}"
            self.pnodes[full] = (self.graph.parameter(arr) if trainable
                                 else self.graph.input(arr))

    def p(self, name: str) -> int:
        return self.pnodes[name]


def _voxel_tape(tape: _Tape, cfg: VoxelHeadConfig, x_nid: int,
                bn_state: dict, frozen: bool = False) -> tuple[int, int]:
    """Returns (prediction node [B,1], latent node [B, latent_width]).

    Dropout runs in a training tape only.  A ``frozen`` head's batch-norm
    runs on, and keeps, the running statistics in ``bn_state`` even in a
    training tape.
    """
    g = tape.graph
    p = lambda n: tape.p(f"voxel/{n}")
    bn_training = g.training and not frozen
    use_bn = cfg.batch_norm
    if use_bn and bn_training and g.nodes[x_nid].value.shape[0] < 2:
        # batch statistics are undefined for a single sample
        logger.warning("batch size < 2: batch normalization disabled")
        use_bn = False

    def bn(nid, idx, width):
        # The node reads, and in training updates, the running statistics
        # in bn_state; they are created here, not by the op, so that a tape
        # that runs no op (a TapeStructure) leaves the same state.
        state = bn_state.setdefault(f"bn{idx}", {"mean": np.zeros(width),
                                                 "var": np.ones(width)})
        return g.apply("batch-norm",
                       [nid, p(f"bn{idx}_gamma"), p(f"bn{idx}_beta")],
                       {"training": bn_training, "state": state})

    def conv(nid, idx):
        return g.apply("relu", g.apply(
            "conv3d", [nid, p(f"conv{idx}_w"), p(f"conv{idx}_b")]))

    h1 = conv(x_nid, 1)
    if use_bn:
        h1 = bn(h1, 1, cfg.conv_filters_1)
    h2 = conv(h1, 2)
    if cfg.residual_1:
        h2 = g.apply("elementwise-add", [h2, h1])
    h2 = g.apply("max-pool3d", [h2], {"size": 2})
    h3 = conv(h2, 3)
    if use_bn:
        h3 = bn(h3, 2, cfg.conv_filters_2)
    h4 = conv(h3, 4)
    if cfg.residual_2:
        h4 = g.apply("elementwise-add", [h4, h3])
    h4 = g.apply("max-pool3d", [h4], {"size": 2})
    flat = g.apply("flatten", [h4])
    d1 = g.apply("relu", g.apply("dense", [flat, p("dense1_w"), p("dense1_b")]))
    if g.training:
        d1 = g.apply("dropout", [d1], {"rate": cfg.dropout_early})
    d2 = g.apply("relu", g.apply("dense", [d1, p("dense2_w"), p("dense2_b")]))
    if g.training:
        d2 = g.apply("dropout", [d2], {"rate": cfg.dropout_mid})
    pred = g.apply("dense", [d2, p("out_w"), p("out_b")])
    return pred, d2


def _gru_phase(tape: _Tape, phase: str, h: int, adj) -> int:
    g = tape.graph
    p = lambda n: tape.p(f"graph/{phase}_{n}")
    m = g.apply("neighbor-sum", [g.apply("matmul", [h, p("msg_w")])],
                {"matrix": adj})
    z = g.apply("sigmoid", g.apply("elementwise-add", [
        g.apply("dense", [m, p("wz"), p("bz")]), g.apply("matmul", [h, p("uz")])]))
    r = g.apply("sigmoid", g.apply("elementwise-add", [
        g.apply("dense", [m, p("wr"), p("br")]), g.apply("matmul", [h, p("ur")])]))
    hh = g.apply("tanh", g.apply("elementwise-add", [
        g.apply("dense", [m, p("wh"), p("bh")]),
        g.apply("matmul", [g.apply("mul", [r, h]), p("uh")])]))
    # h' = (1 - z) * h + z * hh, written as h + z * (hh - h)
    return g.apply("elementwise-add",
                   [h, g.apply("mul", [z, g.apply("sub", [hh, h])])])


def _graph_tape(tape: _Tape, cfg: GraphHeadConfig,
                batch: GraphBatch) -> tuple[int, int]:
    """Returns (prediction node [B,1], latent node [B, gather_width_noncov])."""
    g = tape.graph
    p = lambda n: tape.p(f"graph/{n}")
    feats = g.input(batch.features)
    h = g.apply("tanh", g.apply("dense", [feats, p("embed_w"), p("embed_b")]))
    for _ in range(cfg.k_cov):
        h = _gru_phase(tape, "cov", h, batch.adj_cov)
    for _ in range(cfg.k_noncov):
        h = _gru_phase(tape, "noncov", h, batch.adj_noncov)
    gates = g.apply("sigmoid",
                    g.apply("dense", [h, p("gather_gate_w"), p("gather_gate_b")]))
    vals = g.apply("tanh",
                   g.apply("dense", [h, p("gather_feat_w"), p("gather_feat_b")]))
    latent = g.apply("neighbor-sum", [g.apply("mul", [gates, vals])],
                     {"matrix": batch.pool})
    d1 = g.apply("relu", g.apply("dense", [latent, p("dense1_w"), p("dense1_b")]))
    d2 = g.apply("relu", g.apply("dense", [d1, p("dense2_w"), p("dense2_b")]))
    pred = g.apply("dense", [d2, p("out_w"), p("out_b")])
    return pred, latent


def _fusion_tape(tape: _Tape, cfg: FusionConfig, latent_g: int,
                 latent_v: int) -> int:
    g = tape.graph
    p = lambda n: tape.p(f"fusion/{n}")
    act = cfg.activation
    parts = [latent_g, latent_v]
    if cfg.model_specific_layers:
        parts.append(g.apply(act, g.apply(
            "dense", [latent_g, p("ms_graph_w"), p("ms_graph_b")])))
        parts.append(g.apply(act, g.apply(
            "dense", [latent_v, p("ms_voxel_w"), p("ms_voxel_b")])))
    h = g.apply("concat", parts, {"axis": -1})
    n = cfg.n_fusion_layers
    rates = [cfg.dropout_early] + [cfg.dropout_mid] * (n - 3) + [cfg.dropout_late]
    prev = None
    for i in range(n - 1):
        h = g.apply(act, g.apply("dense", [h, p(f"fuse{i}_w"), p(f"fuse{i}_b")]))
        if cfg.residual_fusion and prev is not None:
            h = g.apply("elementwise-add", [h, prev])
        prev = h
        if g.training and rates[i] > 0:
            h = g.apply("dropout", [h], {"rate": rates[i]})
    return g.apply("dense", [h, p(f"fuse{n - 1}_w"), p(f"fuse{n - 1}_b")])


def late_fusion_predict(p_voxel, p_graph):
    """Unweighted arithmetic mean of the two head predictions."""
    p_voxel, p_graph = np.asarray(p_voxel, dtype=np.float64), np.asarray(
        p_graph, dtype=np.float64)
    if not (np.all(np.isfinite(p_voxel)) and np.all(np.isfinite(p_graph))):
        raise ValueError("late fusion requires finite head predictions")
    return (p_voxel + p_graph) / 2.0


# ---------------------------------------------------------------------------
# model containers
# ---------------------------------------------------------------------------

class FusionModel:
    """Two head parameter sets plus fusion layers and a fusion-mode tag."""

    def __init__(self, voxel_cfg: VoxelHeadConfig, graph_cfg: GraphHeadConfig,
                 fusion_cfg: FusionConfig, seed: int = 0,
                 heads_pretrained: bool = False):
        rng = np.random.default_rng(seed)
        self.voxel_cfg = voxel_cfg
        self.graph_cfg = graph_cfg
        self.fusion_cfg = fusion_cfg
        self.voxel_params = init_voxel_params(voxel_cfg, rng)
        self.graph_params = init_graph_params(graph_cfg, rng)
        self.fusion_params = init_fusion_params(
            fusion_cfg, graph_cfg.latent_width, voxel_cfg.latent_width, rng)
        self.bn_state: dict = {}
        self.heads_pretrained = heads_pretrained
        self.seed = seed

    # -- construction from head checkpoints -----------------------------
    @classmethod
    def from_heads(cls, voxel_params, voxel_cfg, graph_params, graph_cfg,
                   fusion_cfg, voxel_bn_state, seed=0):
        """``voxel_bn_state``: the head's batch-norm statistics (empty without
        batch norm), as ``train_head`` and ``load_head`` return them."""
        model = cls(voxel_cfg, graph_cfg, fusion_cfg, seed=seed,
                    heads_pretrained=True)
        model.voxel_params = {k: v.copy() for k, v in voxel_params.items()}
        model.graph_params = {k: v.copy() for k, v in graph_params.items()}
        model.bn_state = copy.deepcopy(voxel_bn_state)
        return model

    # -- tape construction ----------------------------------------------
    def build_tape(self, vox_batch: np.ndarray, graph_batch: GraphBatch,
                   training: bool = False, labels: np.ndarray | None = None,
                   seed: int = 0, freeze_heads: bool = False):
        """Builds the full forward tape, which keeps every value.

        Returns (graph, pred_node, loss_node_or_None, name->nid map).
        """
        if self.fusion_cfg.mode == "late":
            raise GraphError("late fusion has no joint tape; average the heads")
        g = ValueGraph(seed=seed, training=training)
        pred, pnodes = self._tape_on(g, vox_batch, graph_batch, freeze_heads)
        return g, pred, _mse_loss(g, pred, labels), pnodes

    def _tape_on(self, g, vox_batch, graph_batch,
                 freeze_heads: bool = False) -> tuple[int, dict]:
        """Builds the mid or coherent forward tape on ``g``; returns
        (prediction node, name->nid map)."""
        tape = _Tape(g)
        tape.bind(self.voxel_params, "voxel", not freeze_heads)
        tape.bind(self.graph_params, "graph", not freeze_heads)
        tape.bind(self.fusion_params, "fusion", True)
        _, lat_v = _voxel_tape(tape, self.voxel_cfg, g.input(vox_batch),
                               self.bn_state, freeze_heads)
        _, lat_g = _graph_tape(tape, self.graph_cfg, graph_batch)
        return _fusion_tape(tape, self.fusion_cfg, lat_g, lat_v), tape.pnodes

    # -- prediction ------------------------------------------------------
    def predict_batch(self, items):
        """Scores (VoxelGrid, ComplexGraph) pairs in eval mode.

        Returns (predictions, errors): predictions is a list aligned with the
        input (None for failed items); errors is a list of (index, reason).
        Malformed items never abort the batch.  Each tape is an inference
        graph (see ``autodiff``): the first convolution sums over occupied
        voxels only and the others run one GEMM per sample over their
        kernels' stacked depth taps, so a score can differ in the last bits
        from the dense path that training and validation take.  Each tape
        also frees every value at its last use (``_predict``).
        """
        preds: list[float | None] = [None] * len(items)
        errors: list[tuple[int, str]] = []
        valid = []
        for i, item in enumerate(items):
            reason = self._validate_item(item)
            if reason is None:
                valid.append(i)
            else:
                errors.append((i, reason))
        if not valid:
            return preds, errors
        vox = np.stack([items[i][0].occupancy for i in valid])
        graphs = [items[i][1] for i in valid]
        gb = batch_graphs(graphs)
        if self.fusion_cfg.mode == "late":
            scores = late_fusion_predict(
                _predict(lambda g: _head_on(g, "voxel", self.voxel_params,
                                            self.voxel_cfg, vox, False,
                                            self.bn_state)[0]),
                _predict(lambda g: _head_on(g, "graph", self.graph_params,
                                            self.graph_cfg, gb, False, {})[0]))
        else:
            scores = _predict(lambda g: self._tape_on(g, vox, gb)[0])
        for i, s in zip(valid, scores):
            preds[i] = float(s)
        return preds, errors

    def _validate_item(self, item) -> str | None:
        try:
            grid, graph = item
        except (TypeError, ValueError):
            return "item is not a (VoxelGrid, ComplexGraph) pair"
        if not isinstance(grid, VoxelGrid) or not isinstance(graph, ComplexGraph):
            return "item is not a (VoxelGrid, ComplexGraph) pair"
        for what, a in (("voxel grid occupancy", grid.occupancy),
                        ("graph node_features", graph.node_features)):
            if not (isinstance(a, np.ndarray) and a.dtype.kind in "biuf"):
                return f"{what} is not a numeric array"
        want = (self.voxel_cfg.in_channels,) + (self.voxel_cfg.grid_extent,) * 3
        if grid.occupancy.shape != want:
            return f"voxel grid shape {grid.occupancy.shape} != {want}"
        if not np.all(np.isfinite(grid.occupancy)):
            return "voxel grid contains non-finite values"
        if graph.node_features.ndim != 2 or \
                graph.node_features.shape[1] != self.graph_cfg.feature_width:
            return (f"graph feature width "
                    f"{graph.node_features.shape} != {self.graph_cfg.feature_width}")
        if not np.all(np.isfinite(graph.node_features)):
            return "graph features contain non-finite values"
        n = graph.n_nodes
        if n == 0:
            return "graph has no nodes"
        for name in ("covalent_edges", "noncovalent_edges"):
            # batch_graphs offsets edges into one adjacency, so an index
            # outside the graph would link it to another pose's nodes
            e = getattr(graph, name)
            if not (isinstance(e, np.ndarray) and e.ndim == 2
                    and e.shape[1] == 2 and e.dtype.kind in "iu"):
                return f"graph {name} is not an integer [e, 2] array"
            # one pass: a negative index wraps to a large unsigned one
            if e.size and e.astype(np.uint64).max() >= n:
                return f"graph {name} index outside [0, {n})"
        return None

    # -- parameter bookkeeping -------------------------------------------
    def _param_groups(self) -> dict[str, dict[str, np.ndarray]]:
        return {"voxel": self.voxel_params, "graph": self.graph_params,
                "fusion": self.fusion_params}

    def all_params(self) -> dict[str, np.ndarray]:
        return {f"{prefix}/{k}": v
                for prefix, ps in self._param_groups().items()
                for k, v in ps.items()}

    def save(self, path) -> None:
        _write_state(path, "fusion", self.all_params(), self.bn_state, {
            "voxel_cfg": asdict(self.voxel_cfg),
            "graph_cfg": asdict(self.graph_cfg),
            "fusion_cfg": asdict(self.fusion_cfg),
            "seed": self.seed,
            "heads_pretrained": self.heads_pretrained,
        })

    @classmethod
    def load(cls, path) -> "FusionModel":
        params, bn_state, meta = _read_state(path, "fusion")
        fusion = dict(meta["fusion_cfg"])
        fusion["optimizer"] = OptimizerConfig(**fusion["optimizer"])
        model = cls(VoxelHeadConfig(**meta["voxel_cfg"]),
                    GraphHeadConfig(**meta["graph_cfg"]),
                    FusionConfig(**fusion), seed=meta.get("seed", 0),
                    heads_pretrained=meta.get("heads_pretrained", False))
        for full, arr in params.items():
            prefix, name = full.split("/", 1)
            model._param_groups()[prefix][name] = arr
        model.bn_state = bn_state
        return model


_HEAD_KINDS = {VoxelHeadConfig: "voxel-head", GraphHeadConfig: "graph-head"}


def _write_state(path, kind: str, params: dict, bn_state: dict,
                 meta: dict) -> None:
    """Saves params, ``bn_state/<key>/<stat>`` arrays and ``meta`` tagged
    ``{"model": kind}``: the one layout of model state on disk."""
    arrays = dict(params)
    arrays.update({f"{_BN_PREFIX}{key}/{stat}": arr
                   for key, stats in bn_state.items()
                   for stat, arr in stats.items()})
    save_checkpoint(path, arrays, None, {"model": kind, **meta})


def _read_state(path, kind: str) -> tuple[dict, dict, dict]:
    """Returns (params, bn_state, meta) of a ``_write_state`` file; raises
    ValueError naming the file when it holds another kind of model."""
    arrays, _, meta = load_checkpoint(path)
    if meta.get("model") != kind:
        raise ValueError(f"{path}: holds a {meta.get('model')!r} checkpoint, "
                         f"expected {kind!r}")
    bn_state: dict = {}
    for full in [k for k in arrays if k.startswith(_BN_PREFIX)]:
        key, stat = full[len(_BN_PREFIX):].split("/")
        bn_state.setdefault(key, {})[stat] = arrays.pop(full)
    return arrays, bn_state, meta


def save_head(path, params: dict, cfg, bn_state: dict) -> None:
    """Saves a head's params, batch-norm statistics and config; the kind
    ("voxel-head" or "graph-head") follows from the config's type."""
    _write_state(path, _HEAD_KINDS[type(cfg)], params, bn_state,
                 {"cfg": asdict(cfg)})


def load_head(path, expected_cfg) -> tuple[dict, dict]:
    """Returns (params, bn_state) of a ``save_head`` file; raises ValueError
    naming it unless it holds a head of ``expected_cfg``'s kind and config."""
    params, bn_state, meta = _read_state(path, _HEAD_KINDS[type(expected_cfg)])
    stored, want = meta["cfg"], asdict(expected_cfg)
    diff = [f"{k}={stored.get(k)!r} (expected {want.get(k)!r})"
            for k in sorted(stored.keys() | want.keys())
            if stored.get(k) != want.get(k)]
    if diff:
        raise ValueError(f"{path}: head trained with {', '.join(diff)}")
    return params, bn_state


# ---------------------------------------------------------------------------
# individual head forward + training (produces checkpoints for mid fusion)
# ---------------------------------------------------------------------------

def _head_tape(kind: str, params: dict, cfg, x, training: bool = False,
               seed: int = 0, bn_state: dict | None = None, labels=None):
    """One head's tape over ``x``, a voxel batch or a GraphBatch, which
    keeps every value.

    Returns (graph, pred_node, latent_node, loss_node_or_None, name->nid map).
    """
    g = ValueGraph(seed=seed, training=training)
    pred, lat, pnodes = _head_on(g, kind, params, cfg, x, training,
                                 {} if bn_state is None else bn_state)
    return g, pred, lat, _mse_loss(g, pred, labels), pnodes


def _head_on(g, kind: str, params: dict, cfg, x, trainable: bool,
             bn_state: dict) -> tuple[int, int, dict]:
    """Builds one head's tape on ``g``; returns (pred_node, latent_node,
    name->nid map)."""
    tape = _Tape(g)
    tape.bind(params, kind, trainable)
    if kind == "voxel":
        pred, lat = _voxel_tape(tape, cfg, g.input(x), bn_state)
    else:
        pred, lat = _graph_tape(tape, cfg, x)
    return pred, lat, tape.pnodes


def _scores(tape) -> np.ndarray:
    """Predictions [B] of a ``build_tape`` or ``_head_tape`` result."""
    return tape[0].value(tape[1])[:, 0]


def _predict(build) -> np.ndarray:
    """Predictions [B] of the tape that ``build(graph)`` builds on an
    inference graph, returning its prediction node.

    The graph frees each value once its last consumer has run, so only the
    leaves and the prediction keep theirs.  The plan comes from ``build``
    run first over a :class:`~fusionscreen.autodiff.TapeStructure`, which
    runs no kernel: a tape's structure follows from the model's configs
    alone, whatever the batch.
    """
    structure = TapeStructure()
    g = ValueGraph(inference=True)
    g.free_at_last_use(structure, build(structure))
    pred = build(g)
    g.collect()
    return g.value(pred)[:, 0]


def _mse_loss(g: ValueGraph, pred: int, labels) -> int | None:
    if labels is None:
        return None
    y = g.input(np.asarray(labels, dtype=np.float64).reshape(-1, 1))
    return g.apply("mse-loss", [pred, y])


def voxel_head_forward(params: dict, cfg: VoxelHeadConfig, grids,
                       bn_state: dict | None = None):
    """Eval-mode (predictions [B], latents [B, latent_width])."""
    g, pred, lat, _, _ = _head_tape("voxel", params, cfg,
                                    _stack_grids(grids, cfg),
                                    bn_state=bn_state)
    return g.value(pred)[:, 0], g.value(lat)


def graph_head_forward(params: dict, cfg: GraphHeadConfig, graphs):
    """Eval-mode (predictions [B], latents [B, gather_width_noncov])."""
    if isinstance(graphs, ComplexGraph):
        graphs = [graphs]
    g, pred, lat, _, _ = _head_tape("graph", params, cfg, batch_graphs(graphs))
    return g.value(pred)[:, 0], g.value(lat)


def _stack_grids(grids, cfg):
    if isinstance(grids, VoxelGrid):
        grids = [grids]
    vox = np.stack([v.occupancy for v in grids])
    want = (cfg.in_channels,) + (cfg.grid_extent,) * 3
    if vox.shape[1:] != want:
        raise GraphError(f"voxel batch shape {vox.shape[1:]} != {want}")
    return vox


# ---------------------------------------------------------------------------
# featurization + training
# ---------------------------------------------------------------------------

@dataclass
class FeaturizedItem:
    grid: VoxelGrid
    graph: ComplexGraph
    label: float


def featurize(complexes: list[SyntheticComplex], voxel_cfg: VoxelHeadConfig,
              graph_cfg: GraphHeadConfig,
              box_size: float = 16.0) -> list[FeaturizedItem]:
    grid_cfg = GridConfig(extent=voxel_cfg.grid_extent,
                          c_elem=voxel_cfg.in_channels // 2, box_size=box_size)
    out = []
    for c in complexes:
        out.append(FeaturizedItem(
            voxelize(c, grid_cfg),
            build_graph(c, graph_cfg.cov_thresh, graph_cfg.noncov_thresh,
                        graph_cfg.c_elem, box_size),
            c.label_pk,
        ))
    return out


def _eval_mse(predict, items: list[FeaturizedItem]) -> float:
    """MSE of ``predict(part)`` over chunks of :data:`_EVAL_CHUNK` items.

    Validation predicts through eval graphs, not inference ones: the golden
    training histories pin ``val_mse`` bitwise, and the inference
    convolutions of ``predict_batch`` sum in another order.
    """
    se, n = 0.0, 0
    for i in range(0, len(items), _EVAL_CHUNK):
        part = items[i:i + _EVAL_CHUNK]
        y = np.array([it.label for it in part])
        se += float(((predict(part) - y) ** 2).sum())
        n += len(part)
    return se / n


def _fit(groups, bn_state, step, predict, train_items, val_items,
         epochs: int, batch_size: int, optimizer_cfg: OptimizerConfig,
         rng) -> list[dict]:
    """The minibatch loop of ``train`` and ``train_head``; returns history.

    ``groups`` maps each tape prefix to the params dict it names, and
    ``step(part, rng)`` returns one batch's (graph, loss_node, name->nid).
    The best epoch's params and batch-norm stats are restored in place.
    """
    opt = Optimizer(optimizer_cfg)
    history, best = [], (np.inf, None)
    for epoch in range(epochs):
        order = rng.permutation(len(train_items))
        train_se = 0.0
        for lo in range(0, len(order), batch_size):
            part = [train_items[i] for i in order[lo:lo + batch_size]]
            # The previous step's tape is freed only once this one is built,
            # so the heap never shrinks between steps (see _fit_step).
            tape = step(part, rng)
            train_se += _fit_step(groups, opt, *tape) * len(part)
        tape = None
        val_mse = _eval_mse(predict, val_items)
        history.append({"epoch": epoch, "train_mse": train_se / len(order),
                        "val_mse": val_mse})
        if val_mse < best[0]:
            best = (val_mse, copy.deepcopy((groups, bn_state)))
    if best[1] is not None:
        for live, saved in zip((groups, bn_state), best[1]):
            for k, d in saved.items():
                live[k].update(d)
    return history


def _fit_step(groups, opt: Optimizer, g: ValueGraph, loss: int,
              pnodes: dict[str, int]) -> float:
    """Backward and one optimizer step over a batch's tape; returns its loss.

    The caller keeps the tape until the next one is built.  Freeing it here
    instead let glibc trim the heap top after every step, and the next step
    faulted the same pages back in: a 2-epoch criterion-3 ``train`` on 1,700
    complexes took about 650k minor page faults, against about 26k now on a
    first call in a process and almost none on later calls.
    """
    grads = g.backward(loss)
    named = {name: grads[nid] for name, nid in pnodes.items()
             if g.nodes[nid].trainable}
    current = {name: g.nodes[pnodes[name]].value for name in named}
    for full, arr in opt.step(current, named).items():
        prefix, name = full.split("/", 1)
        groups[prefix][name] = arr
    return float(g.value(loss))


def _augmented_voxels(part, aug_seed: int) -> np.ndarray:
    return np.stack([
        rotate_augment(it.grid, aug_seed + j, AUGMENT_PROBABILITY).occupancy
        for j, it in enumerate(part)])


def train(model: FusionModel, train_set, val_set, cfg: FusionConfig | None = None,
          seed: int = 0):
    """Minibatch MSE training for mid/coherent fusion.

    ``train_set``/``val_set`` are lists of FeaturizedItem.  Mid mode freezes
    both heads, the voxel head's batch-norm statistics included, and
    requires them to come from trained checkpoints; coherent
    mode trains everything.  Voxel inputs are rotation-augmented during
    training only.  Returns (model, history) where history has one (epoch,
    train_mse, val_mse) row per epoch; the best-validation parameters and
    batch-norm running statistics are restored at the end.
    """
    cfg = cfg or model.fusion_cfg
    if cfg.mode == "late":
        raise ValueError("late fusion has no trainable fusion parameters")
    if cfg.mode == "mid" and not model.heads_pretrained:
        raise ValueError("mid fusion requires trained head checkpoints")

    def step(part, rng):
        aug_seed = int(rng.integers(0, 2 ** 31 - 1))
        step_seed = int(rng.integers(0, 2 ** 31 - 1))
        g, _, loss, pnodes = model.build_tape(
            _augmented_voxels(part, aug_seed),
            batch_graphs([it.graph for it in part]), training=True,
            labels=np.array([it.label for it in part]), seed=step_seed,
            freeze_heads=cfg.mode == "mid")
        return g, loss, pnodes

    def predict(part):
        return _scores(model.build_tape(
            np.stack([it.grid.occupancy for it in part]),
            batch_graphs([it.graph for it in part])))

    history = _fit(model._param_groups(), model.bn_state, step, predict,
                   train_set, val_set, cfg.epochs, cfg.batch_size,
                   cfg.optimizer, np.random.default_rng(seed))
    return model, history


def train_head(kind: str, params: dict, cfg, train_items, val_items,
               epochs: int, batch_size: int, optimizer_cfg: OptimizerConfig,
               seed: int = 0):
    """Trains one head in isolation; returns (params, bn_state, history).

    ``kind`` is "voxel" or "graph".  ``params`` and ``bn_state`` (batch-norm
    running statistics, empty without batch norm) are the best validation
    epoch's; ``save_head`` writes them as the checkpoint mid fusion loads.
    """
    if kind not in ("voxel", "graph"):
        raise ValueError(f"unknown head kind {kind!r}")
    params = {k: v.copy() for k, v in params.items()}
    bn_state: dict = {}

    def step(part, rng):
        step_seed = int(rng.integers(0, 2 ** 31 - 1))
        if kind == "voxel":
            x = _augmented_voxels(part, int(rng.integers(0, 2 ** 31 - 1)))
        else:
            x = batch_graphs([it.graph for it in part])
        g, _, _, loss, pnodes = _head_tape(kind, params, cfg, x, True,
                                           step_seed, bn_state,
                                           [it.label for it in part])
        return g, loss, pnodes

    def predict(part):
        if kind == "voxel":
            return voxel_head_forward(params, cfg, [it.grid for it in part],
                                      bn_state=bn_state)[0]
        return graph_head_forward(params, cfg, [it.graph for it in part])[0]

    history = _fit({kind: params}, bn_state, step, predict, train_items,
                   val_items, epochs, batch_size, optimizer_cfg,
                   np.random.default_rng(seed))
    return params, bn_state, history
