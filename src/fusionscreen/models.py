"""Scoring heads and fusion strategies.

Two heads score a protein-ligand complex: a 3-D convolutional head over the
voxelized representation and a gated message-passing head over the spatial
graph.  Three ways to combine them:

* late     -- unweighted mean of the two scalar predictions
* mid      -- trainable fusion layers over the two latent vectors, heads frozen
* coherent -- same architecture, gradients flow into both heads

Parameters are plain ``dict[str, np.ndarray]``; every forward pass builds a
fresh :class:`~fusionscreen.autodiff.ValueGraph` tape.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, asdict

import numpy as np
import scipy.sparse as sp

from .autodiff import ValueGraph, GraphError
from .checkpoint import save_checkpoint, load_checkpoint
from .complexes import (ComplexGraph, GridConfig, SyntheticComplex, VoxelGrid,
                        build_graph, rotate_augment, voxelize)
from .optim import Optimizer, OptimizerConfig

logger = logging.getLogger(__name__)

AUGMENT_PROBABILITY = 0.1  # per-axis chance of a 90-degree rotation

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
            nid = (self.graph.parameter(arr, full) if trainable
                   else self.graph.input(arr, full))
            self.pnodes[full] = nid

    def p(self, name: str) -> int:
        return self.pnodes[name]


def _act(g: ValueGraph, kind: str, nid: int) -> int:
    return g.apply(kind, [nid])


def _voxel_tape(tape: _Tape, cfg: VoxelHeadConfig, x_nid: int, prefix: str,
                dropout_on: bool, bn_state: dict) -> tuple[int, int]:
    """Returns (prediction node [B,1], latent node [B, latent_width])."""
    g = tape.graph
    p = lambda n: tape.p(f"{prefix}/{n}")
    use_bn = cfg.batch_norm
    if use_bn and g.training and g.nodes[x_nid].value.shape[0] < 2:
        # batch statistics are undefined for a single sample
        logger.warning("batch size < 2: batch normalization disabled")
        use_bn = False

    def bn(nid, idx):
        return _bn_apply(g, nid, p(f"bn{idx}_gamma"), p(f"bn{idx}_beta"),
                         bn_state, f"bn{idx}")

    h1 = _act(g, "relu", g.apply("conv3d", [x_nid, p("conv1_w"), p("conv1_b")]))
    if use_bn:
        h1 = bn(h1, 1)
    h2 = _act(g, "relu", g.apply("conv3d", [h1, p("conv2_w"), p("conv2_b")]))
    if cfg.residual_1:
        h2 = g.apply("elementwise-add", [h2, h1])
    h2 = g.apply("max-pool3d", [h2], {"size": 2})
    h3 = _act(g, "relu", g.apply("conv3d", [h2, p("conv3_w"), p("conv3_b")]))
    if use_bn:
        h3 = bn(h3, 2)
    h4 = _act(g, "relu", g.apply("conv3d", [h3, p("conv4_w"), p("conv4_b")]))
    if cfg.residual_2:
        h4 = g.apply("elementwise-add", [h4, h3])
    h4 = g.apply("max-pool3d", [h4], {"size": 2})
    flat = g.apply("flatten", [h4])
    d1 = _act(g, "relu", g.apply("dense", [flat, p("dense1_w"), p("dense1_b")]))
    if dropout_on:
        d1 = g.apply("dropout", [d1], {"rate": cfg.dropout_early})
    d2 = _act(g, "relu", g.apply("dense", [d1, p("dense2_w"), p("dense2_b")]))
    if dropout_on:
        d2 = g.apply("dropout", [d2], {"rate": cfg.dropout_mid})
    pred = g.apply("dense", [d2, p("out_w"), p("out_b")])
    return pred, d2


def _bn_apply(g, nid, gamma_nid, beta_nid, bn_state, key):
    attrs = {}
    if key in bn_state:
        attrs["state"] = bn_state[key]
    out = g.apply("batch-norm", [nid, gamma_nid, beta_nid], attrs)
    bn_state[key] = g.nodes[out].attrs["state"]
    return out


def _gru_phase(tape: _Tape, prefix: str, phase: str, h: int, adj) -> int:
    g = tape.graph
    p = lambda n: tape.p(f"{prefix}/{phase}_{n}")
    m = g.apply("neighbor-sum", [g.apply("matmul", [h, p("msg_w")])],
                {"matrix": adj})
    z = _act(g, "sigmoid", g.apply("elementwise-add", [
        g.apply("dense", [m, p("wz"), p("bz")]), g.apply("matmul", [h, p("uz")])]))
    r = _act(g, "sigmoid", g.apply("elementwise-add", [
        g.apply("dense", [m, p("wr"), p("br")]), g.apply("matmul", [h, p("ur")])]))
    hh = _act(g, "tanh", g.apply("elementwise-add", [
        g.apply("dense", [m, p("wh"), p("bh")]),
        g.apply("matmul", [g.apply("mul", [r, h]), p("uh")])]))
    # h' = (1 - z) * h + z * hh, written as h + z * (hh - h)
    return g.apply("elementwise-add",
                   [h, g.apply("mul", [z, g.apply("sub", [hh, h])])])


def _graph_tape(tape: _Tape, cfg: GraphHeadConfig, batch: GraphBatch,
                prefix: str) -> tuple[int, int]:
    """Returns (prediction node [B,1], latent node [B, gather_width_noncov])."""
    g = tape.graph
    p = lambda n: tape.p(f"{prefix}/{n}")
    feats = g.input(batch.features, "graph_features")
    h = _act(g, "tanh", g.apply("dense", [feats, p("embed_w"), p("embed_b")]))
    for _ in range(cfg.k_cov):
        h = _gru_phase(tape, prefix, "cov", h, batch.adj_cov)
    for _ in range(cfg.k_noncov):
        h = _gru_phase(tape, prefix, "noncov", h, batch.adj_noncov)
    gates = _act(g, "sigmoid",
                 g.apply("dense", [h, p("gather_gate_w"), p("gather_gate_b")]))
    vals = _act(g, "tanh",
                g.apply("dense", [h, p("gather_feat_w"), p("gather_feat_b")]))
    latent = g.apply("neighbor-sum", [g.apply("mul", [gates, vals])],
                     {"matrix": batch.pool})
    d1 = _act(g, "relu", g.apply("dense", [latent, p("dense1_w"), p("dense1_b")]))
    d2 = _act(g, "relu", g.apply("dense", [d1, p("dense2_w"), p("dense2_b")]))
    pred = g.apply("dense", [d2, p("out_w"), p("out_b")])
    return pred, latent


def _fusion_tape(tape: _Tape, cfg: FusionConfig, latent_g: int, latent_v: int,
                 prefix: str, dropout_on: bool) -> int:
    g = tape.graph
    p = lambda n: tape.p(f"{prefix}/{n}")
    act = cfg.activation
    parts = [latent_g, latent_v]
    if cfg.model_specific_layers:
        parts.append(_act(g, act, g.apply(
            "dense", [latent_g, p("ms_graph_w"), p("ms_graph_b")])))
        parts.append(_act(g, act, g.apply(
            "dense", [latent_v, p("ms_voxel_w"), p("ms_voxel_b")])))
    h = g.apply("concat", parts, {"axis": -1})
    n = cfg.n_fusion_layers
    rates = [cfg.dropout_early] + [cfg.dropout_mid] * (n - 3) + [cfg.dropout_late]
    prev = None
    for i in range(n - 1):
        h = _act(g, act, g.apply("dense", [h, p(f"fuse{i}_w"), p(f"fuse{i}_b")]))
        if cfg.residual_fusion and prev is not None:
            h = g.apply("elementwise-add", [h, prev])
        prev = h
        if dropout_on and rates[i] > 0:
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
                   fusion_cfg, seed=0):
        model = cls(voxel_cfg, graph_cfg, fusion_cfg, seed=seed,
                    heads_pretrained=True)
        model.voxel_params = {k: v.copy() for k, v in voxel_params.items()}
        model.graph_params = {k: v.copy() for k, v in graph_params.items()}
        return model

    # -- tape construction ----------------------------------------------
    def build_tape(self, vox_batch: np.ndarray, graph_batch: GraphBatch,
                   training: bool = False, labels: np.ndarray | None = None,
                   seed: int = 0, freeze_heads: bool = False):
        """Builds the full forward tape.

        Returns (graph, pred_node, loss_node_or_None, name->nid map).
        """
        mode = self.fusion_cfg.mode
        if mode == "late":
            raise GraphError("late fusion has no joint tape; average the heads")
        g = ValueGraph(seed=seed, training=training)
        tape = _Tape(g)
        tape.bind(self.voxel_params, "voxel", not freeze_heads)
        tape.bind(self.graph_params, "graph", not freeze_heads)
        tape.bind(self.fusion_params, "fusion", True)
        x = g.input(vox_batch, "voxels")
        _, lat_v = _voxel_tape(tape, self.voxel_cfg, x, "voxel", training,
                               self.bn_state)
        _, lat_g = _graph_tape(tape, self.graph_cfg, graph_batch, "graph")
        pred = _fusion_tape(tape, self.fusion_cfg, lat_g, lat_v, "fusion",
                            training)
        loss = None
        if labels is not None:
            y = g.input(np.asarray(labels, dtype=np.float64).reshape(-1, 1),
                        "labels")
            loss = g.apply("mse-loss", [pred, y])
        return g, pred, loss, tape.pnodes

    # -- prediction ------------------------------------------------------
    def predict_batch(self, items, batch_seed: int = 0):
        """Scores (VoxelGrid, ComplexGraph) pairs in eval mode.

        Returns (predictions, errors): predictions is a list aligned with the
        input (None for failed items); errors is a list of (index, reason).
        Malformed items never abort the batch.
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
        gb = batch_graphs([items[i][1] for i in valid])
        if self.fusion_cfg.mode == "late":
            scores = self._late_predict(vox, gb)
        else:
            g, pred, _, _ = self.build_tape(vox, gb, training=False,
                                            seed=batch_seed)
            scores = g.value(pred)[:, 0]
        for i, s in zip(valid, scores):
            preds[i] = float(s)
        return preds, errors

    def _late_predict(self, vox, gb):
        g = ValueGraph(training=False)
        tape = _Tape(g)
        tape.bind(self.voxel_params, "voxel", False)
        tape.bind(self.graph_params, "graph", False)
        x = g.input(vox, "voxels")
        pv, _ = _voxel_tape(tape, self.voxel_cfg, x, "voxel", False,
                            self.bn_state)
        pg, _ = _graph_tape(tape, self.graph_cfg, gb, "graph")
        return late_fusion_predict(g.value(pv)[:, 0], g.value(pg)[:, 0])

    def _validate_item(self, item) -> str | None:
        try:
            grid, graph = item
        except (TypeError, ValueError):
            return "item is not a (VoxelGrid, ComplexGraph) pair"
        if not isinstance(grid, VoxelGrid) or not isinstance(graph, ComplexGraph):
            return "item is not a (VoxelGrid, ComplexGraph) pair"
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
        return None

    # -- parameter bookkeeping -------------------------------------------
    def all_params(self) -> dict[str, np.ndarray]:
        out = {}
        for prefix, ps in (("voxel", self.voxel_params),
                           ("graph", self.graph_params),
                           ("fusion", self.fusion_params)):
            for k, v in ps.items():
                out[f"{prefix}/{k}"] = v
        return out

    def set_params(self, flat: dict[str, np.ndarray]) -> None:
        for full, arr in flat.items():
            prefix, name = full.split("/", 1)
            target = {"voxel": self.voxel_params, "graph": self.graph_params,
                      "fusion": self.fusion_params}[prefix]
            target[name] = np.array(arr, dtype=np.float64)

    def save(self, path, optimizer: Optimizer | None = None) -> None:
        meta = {
            "model": "fusion",
            "voxel_cfg": asdict(self.voxel_cfg),
            "graph_cfg": asdict(self.graph_cfg),
            "fusion_cfg": _fusion_cfg_dict(self.fusion_cfg),
            "seed": self.seed,
            "heads_pretrained": self.heads_pretrained,
        }
        save_checkpoint(path, self.all_params(), optimizer, meta)

    @classmethod
    def load(cls, path) -> "FusionModel":
        params, _, meta = load_checkpoint(path)
        model = cls(VoxelHeadConfig(**meta["voxel_cfg"]),
                    GraphHeadConfig(**meta["graph_cfg"]),
                    _fusion_cfg_from_dict(meta["fusion_cfg"]),
                    seed=meta.get("seed", 0),
                    heads_pretrained=meta.get("heads_pretrained", False))
        model.set_params(params)
        return model


def _fusion_cfg_dict(cfg: FusionConfig) -> dict:
    d = asdict(cfg)
    d["optimizer"] = {"kind": cfg.optimizer.kind,
                      "learning_rate": cfg.optimizer.learning_rate,
                      "coefficients": cfg.optimizer.coefficients}
    return d


def _fusion_cfg_from_dict(d: dict) -> FusionConfig:
    d = dict(d)
    o = d.pop("optimizer")
    return FusionConfig(optimizer=OptimizerConfig(o["kind"], o["learning_rate"],
                                                  dict(o["coefficients"])), **d)


# ---------------------------------------------------------------------------
# individual head forward + training (produces checkpoints for mid fusion)
# ---------------------------------------------------------------------------

def voxel_head_forward(params: dict, cfg: VoxelHeadConfig, grids,
                       training: bool = False, seed: int = 0,
                       bn_state: dict | None = None):
    """Returns (predictions [B], latents [B, latent_width])."""
    vox = _stack_grids(grids, cfg)
    g = ValueGraph(seed=seed, training=training)
    tape = _Tape(g)
    tape.bind(params, "voxel", True)
    x = g.input(vox, "voxels")
    pred, lat = _voxel_tape(tape, cfg, x, "voxel", training,
                            bn_state if bn_state is not None else {})
    return g.value(pred)[:, 0], g.value(lat)


def graph_head_forward(params: dict, cfg: GraphHeadConfig, graphs,
                       training: bool = False, seed: int = 0):
    """Returns (predictions [B], latents [B, gather_width_noncov])."""
    if isinstance(graphs, ComplexGraph):
        graphs = [graphs]
    gb = batch_graphs(graphs)
    g = ValueGraph(seed=seed, training=training)
    tape = _Tape(g)
    tape.bind(params, "graph", True)
    pred, lat = _graph_tape(tape, cfg, gb, "graph")
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


def _eval_mse(model: FusionModel, items: list[FeaturizedItem],
              chunk: int = 256) -> float:
    se, n = 0.0, 0
    for i in range(0, len(items), chunk):
        part = items[i:i + chunk]
        vox = np.stack([it.grid.occupancy for it in part])
        gb = batch_graphs([it.graph for it in part])
        g, pred, _, _ = model.build_tape(vox, gb, training=False)
        p = g.value(pred)[:, 0]
        y = np.array([it.label for it in part])
        se += float(((p - y) ** 2).sum())
        n += len(part)
    return se / n


def train(model: FusionModel, train_set, val_set, cfg: FusionConfig | None = None,
          seed: int = 0):
    """Minibatch MSE training for mid/coherent fusion.

    ``train_set``/``val_set`` are lists of FeaturizedItem (or SyntheticComplex,
    featurized on the fly).  Mid mode freezes both heads and requires them to
    come from trained checkpoints; coherent mode trains everything.  Voxel
    inputs are rotation-augmented during training only.  Returns
    (model, history) where history has one (epoch, train_mse, val_mse) row per
    epoch; the best-validation parameters are restored at the end.
    """
    cfg = cfg or model.fusion_cfg
    if cfg.mode == "late":
        raise ValueError("late fusion has no trainable fusion parameters")
    if cfg.mode == "mid" and not model.heads_pretrained:
        raise ValueError("mid fusion requires trained head checkpoints")
    train_items = _ensure_featurized(model, train_set)
    val_items = _ensure_featurized(model, val_set)
    freeze = cfg.mode == "mid"
    batch_size = cfg.batch_size
    rng = np.random.default_rng(seed)
    opt = Optimizer(cfg.optimizer)
    history = []
    best = (np.inf, None)
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_items))
        train_se, seen = 0.0, 0
        for lo in range(0, len(order), batch_size):
            idx = order[lo:lo + batch_size]
            part = [train_items[i] for i in idx]
            aug_seed = int(rng.integers(0, 2 ** 31 - 1))
            vox = np.stack([
                rotate_augment(it.grid, aug_seed + j, AUGMENT_PROBABILITY).occupancy
                for j, it in enumerate(part)])
            gb = batch_graphs([it.graph for it in part])
            labels = np.array([it.label for it in part])
            step_seed = int(rng.integers(0, 2 ** 31 - 1))
            g, _, loss, pnodes = model.build_tape(
                vox, gb, training=True, labels=labels, seed=step_seed,
                freeze_heads=freeze)
            grads = g.backward(loss)
            named = {name: grads[nid] for name, nid in pnodes.items()
                     if g.nodes[nid].trainable}
            current = {name: g.nodes[pnodes[name]].value for name in named}
            updated = opt.step(current, named)
            model.set_params(updated)
            train_se += float(g.value(loss)) * len(part)
            seen += len(part)
        val_mse = _eval_mse(model, val_items)
        history.append({"epoch": epoch, "train_mse": train_se / seen,
                        "val_mse": val_mse})
        if val_mse < best[0]:
            best = (val_mse, {k: v.copy() for k, v in model.all_params().items()})
    if best[1] is not None:
        model.set_params(best[1])
    return model, history


def _ensure_featurized(model: FusionModel, items):
    if items and isinstance(items[0], SyntheticComplex):
        return featurize(items, model.voxel_cfg, model.graph_cfg)
    return list(items)


def train_head(kind: str, params: dict, cfg, train_items, val_items,
               epochs: int, batch_size: int, optimizer_cfg: OptimizerConfig,
               seed: int = 0, augment: bool = True):
    """Trains one head in isolation; returns (params, history).

    ``kind`` is "voxel" or "graph".  Used to produce the pre-trained head
    checkpoints that mid fusion loads.
    """
    if kind not in ("voxel", "graph"):
        raise ValueError(f"unknown head kind {kind!r}")
    rng = np.random.default_rng(seed)
    opt = Optimizer(optimizer_cfg)
    params = {k: v.copy() for k, v in params.items()}
    history = []
    best = (np.inf, None)
    bn_state: dict = {}
    for epoch in range(epochs):
        order = rng.permutation(len(train_items))
        train_se, seen = 0.0, 0
        for lo in range(0, len(order), batch_size):
            part = [train_items[i] for i in order[lo:lo + batch_size]]
            labels = np.array([it.label for it in part]).reshape(-1, 1)
            step_seed = int(rng.integers(0, 2 ** 31 - 1))
            g = ValueGraph(seed=step_seed, training=True)
            tape = _Tape(g)
            tape.bind(params, kind, True)
            if kind == "voxel":
                aug_seed = int(rng.integers(0, 2 ** 31 - 1))
                vox = np.stack([
                    (rotate_augment(it.grid, aug_seed + j, AUGMENT_PROBABILITY)
                     if augment else it.grid).occupancy
                    for j, it in enumerate(part)])
                x = g.input(vox, "voxels")
                pred, _ = _voxel_tape(tape, cfg, x, "voxel", True, bn_state)
            else:
                gb = batch_graphs([it.graph for it in part])
                pred, _ = _graph_tape(tape, cfg, gb, "graph")
            y = g.input(labels, "labels")
            loss = g.apply("mse-loss", [pred, y])
            grads = g.backward(loss)
            named = {f"{k}": grads[nid] for k, nid in tape.pnodes.items()}
            current = {k: g.nodes[nid].value for k, nid in tape.pnodes.items()}
            params_flat = opt.step(current, named)
            params = {k.split("/", 1)[1]: v for k, v in params_flat.items()}
            train_se += float(g.value(loss)) * len(part)
            seen += len(part)
        val_mse = _eval_head_mse(kind, params, cfg, val_items, bn_state)
        history.append({"epoch": epoch, "train_mse": train_se / seen,
                        "val_mse": val_mse})
        if val_mse < best[0]:
            best = (val_mse, {k: v.copy() for k, v in params.items()})
    if best[1] is not None:
        params = best[1]
    return params, history


def _eval_head_mse(kind, params, cfg, items, bn_state, chunk: int = 256) -> float:
    se, n = 0.0, 0
    for i in range(0, len(items), chunk):
        part = items[i:i + chunk]
        y = np.array([it.label for it in part])
        if kind == "voxel":
            p, _ = voxel_head_forward(params, cfg, [it.grid for it in part],
                                      training=False, bn_state=bn_state)
        else:
            p, _ = graph_head_forward(params, cfg, [it.graph for it in part],
                                      training=False)
        se += float(((p - y) ** 2).sum())
        n += len(part)
    return se / n
