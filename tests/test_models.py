import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

from fusionscreen import autodiff, complexes, models
from fusionscreen.autodiff import ValueGraph, gradient_check
from fusionscreen.checkpoint import save_checkpoint
from fusionscreen.models import (
    FusionConfig,
    FusionModel,
    GraphHeadConfig,
    VoxelHeadConfig,
    batch_graphs,
    featurize,
    graph_head_forward,
    late_fusion_predict,
    table_coherent_fusion_config,
    table_mid_fusion_config,
    train,
    train_head,
    voxel_head_forward,
)
from fusionscreen.optim import OptimizerConfig


class TestConfigs:
    def test_message_steps_bounded(self):
        for bad in (1, 9):
            with pytest.raises(ValueError):
                GraphHeadConfig(k_cov=bad)
            with pytest.raises(ValueError):
                GraphHeadConfig(k_noncov=bad)

    def test_dense_width_reduction_rule(self):
        cfg = GraphHeadConfig(gather_width_noncov=128)
        assert cfg.dense_widths == (85, 42)
        cfg = GraphHeadConfig(gather_width_noncov=24)
        assert cfg.dense_widths == (16, 8)

    def test_voxel_flat_width(self):
        cfg = VoxelHeadConfig(grid_extent=16, conv_filters_2=64)
        assert cfg.flat_width == 64 * 4 ** 3

    def test_unknown_fusion_mode_rejected(self):
        with pytest.raises(ValueError):
            FusionConfig(mode="early")

    def test_fusion_layer_count_bounded(self):
        for bad in (2, 6):
            with pytest.raises(ValueError):
                FusionConfig(mode="coherent", n_fusion_layers=bad)

    def test_late_mode_skips_layer_bound(self):
        FusionConfig(mode="late", n_fusion_layers=2)

    def test_published_mid_fusion_end_state(self):
        cfg = table_mid_fusion_config()
        assert cfg.mode == "mid"
        assert cfg.n_fusion_layers == 5
        assert cfg.model_specific_layers
        assert cfg.activation == "selu"
        assert cfg.batch_size == 1
        assert cfg.optimizer.learning_rate == pytest.approx(4.03e-4)

    def test_published_coherent_fusion_end_state(self):
        cfg = table_coherent_fusion_config()
        assert cfg.mode == "coherent"
        assert cfg.n_fusion_layers == 4
        assert not cfg.model_specific_layers
        assert cfg.batch_size == 48
        assert cfg.pre_trained
        assert cfg.dropout_early == pytest.approx(0.386)
        assert cfg.optimizer.learning_rate == pytest.approx(1.08e-4)

    def test_published_head_defaults(self):
        g = GraphHeadConfig()
        assert (g.k_noncov, g.k_cov) == (3, 6)
        assert (g.gather_width_cov, g.gather_width_noncov) == (24, 128)
        assert (g.cov_thresh, g.noncov_thresh) == (2.24, 5.22)
        v = VoxelHeadConfig()
        assert (v.conv_filters_1, v.conv_filters_2) == (32, 64)
        assert v.dense_nodes == 128
        assert (v.residual_1, v.residual_2) == (False, True)
        assert (v.kernel_1, v.kernel_2) == (5, 3)
        assert (v.dropout_early, v.dropout_mid) == (0.25, 0.125)


class TestLateFusion:
    def test_exact_arithmetic_mean(self, rng):
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert np.array_equal(late_fusion_predict(a, b), (a + b) / 2.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            late_fusion_predict(np.array([1.0, np.nan]), np.ones(2))

    def test_late_model_predicts_mean_of_heads(self, toy_voxel_cfg,
                                               toy_graph_cfg, toy_items):
        fusion = FusionConfig(mode="late")
        m = FusionModel(toy_voxel_cfg, toy_graph_cfg, fusion, seed=1)
        items = [(it.grid, it.graph) for it in toy_items[:4]]
        preds, errors = m.predict_batch(items)
        assert not errors
        pv, _ = voxel_head_forward(m.voxel_params, toy_voxel_cfg,
                                   [it.grid for it in toy_items[:4]])
        pg, _ = graph_head_forward(m.graph_params, toy_graph_cfg,
                                   [it.graph for it in toy_items[:4]])
        assert np.allclose(preds, (pv + pg) / 2.0)


# (graph field, its malformed value for the graph, the reason predict_batch
# gives, formatted with the graph's node count)
MALFORMED_GRAPHS = [
    ("covalent_edges", lambda g: np.array([[0, g.n_nodes]]),
     "graph covalent_edges index outside [0, {n})"),
    ("noncovalent_edges", lambda g: np.array([[-1, 0]]),
     "graph noncovalent_edges index outside [0, {n})"),
    ("covalent_edges", lambda g: np.array([[0.0, 1.0]]),
     "graph covalent_edges is not an integer [e, 2] array"),
    ("noncovalent_edges", lambda g: np.zeros((1, 3), dtype=np.int64),
     "graph noncovalent_edges is not an integer [e, 2] array"),
    ("covalent_edges", lambda g: [[0, 1]],
     "graph covalent_edges is not an integer [e, 2] array"),
    ("node_features", lambda g: g.node_features[:0], "graph has no nodes"),
    ("node_features", lambda g: g.node_features.tolist(),
     "graph node_features is not a numeric array"),
    ("node_features", lambda g: g.node_features.astype(object),
     "graph node_features is not a numeric array"),
]

# (malformed occupancy for the grid, the reason predict_batch gives)
MALFORMED_GRIDS = [
    (lambda v: v.occupancy.tolist(),
     "voxel grid occupancy is not a numeric array"),
    (lambda v: v.occupancy.astype(object),
     "voxel grid occupancy is not a numeric array"),
    (lambda v: v.occupancy.astype(str),
     "voxel grid occupancy is not a numeric array"),
]


def assert_bad_pose_spoils_nothing(model, items, bad, reason):
    """``bad`` at the front and at the back of ``items`` comes back in
    ``errors``, and the other scores are bitwise those of ``items`` alone."""
    good = [(it.grid, it.graph) for it in items]
    alone, _ = model.predict_batch(good)
    for at in (0, len(good)):
        preds, errors = model.predict_batch(good[:at] + [bad] + good[at:])
        assert errors == [(at, reason)]
        assert preds[at] is None
        assert [p.hex() for i, p in enumerate(preds) if i != at] == \
            [p.hex() for p in alone]


class TestForward:
    def test_deterministic_eval_forward(self, toy_model, toy_items):
        items = [(it.grid, it.graph) for it in toy_items[:3]]
        a, _ = toy_model.predict_batch(items)
        b, _ = toy_model.predict_batch(items)
        assert a == b

    def test_batch_partition_invariance(self, toy_model, toy_items):
        items = [(it.grid, it.graph) for it in toy_items[:6]]
        whole, _ = toy_model.predict_batch(items)
        singles = [toy_model.predict_batch([it])[0][0] for it in items]
        assert np.allclose(whole, singles, atol=1e-10)

    def test_graph_head_node_permutation_invariance(self, toy_graph_cfg, rng):
        c = complexes.generate_complex(
            3, complexes.GenParams(box_size=8.0, c_elem=1))
        graph = complexes.build_graph(c, c_elem=1, box_size=8.0)
        params = models.init_graph_params(toy_graph_cfg, rng)
        base, _ = graph_head_forward(params, toy_graph_cfg, graph)
        perm = np.random.default_rng(0).permutation(graph.n_nodes)
        inv = np.argsort(perm)
        permuted = complexes.ComplexGraph(
            node_features=graph.node_features[perm],
            covalent_edges=inv[graph.covalent_edges.reshape(-1)].reshape(-1, 2)
            if len(graph.covalent_edges) else graph.covalent_edges,
            noncovalent_edges=inv[graph.noncovalent_edges.reshape(-1)]
            .reshape(-1, 2)
            if len(graph.noncovalent_edges) else graph.noncovalent_edges,
            covalent_dists=graph.covalent_dists,
            noncovalent_dists=graph.noncovalent_dists,
        )
        got, _ = graph_head_forward(params, toy_graph_cfg, permuted)
        assert np.allclose(got, base, atol=1e-10)

    def test_predict_batch_isolates_malformed_items(self, toy_model,
                                                    toy_items):
        good = (toy_items[0].grid, toy_items[0].graph)
        preds, errors = toy_model.predict_batch(
            [good, "not an item", good])
        assert preds[0] is not None and preds[2] is not None
        assert preds[1] is None
        assert errors == [(1, "item is not a (VoxelGrid, ComplexGraph) pair")]
        assert preds[0] == preds[2]

    @pytest.mark.parametrize("field,value,reason", MALFORMED_GRAPHS,
                             ids=["past-end", "negative", "float",
                                  "three-columns", "list", "no-nodes",
                                  "features-list", "features-object"])
    def test_malformed_graph_does_not_spoil_its_batch(self, field, value,
                                                      reason, toy_model,
                                                      toy_items):
        graph = toy_items[0].graph
        bad = (toy_items[0].grid, replace(graph, **{field: value(graph)}))
        assert_bad_pose_spoils_nothing(toy_model, toy_items[1:3], bad,
                                       reason.format(n=graph.n_nodes))

    @pytest.mark.parametrize("value,reason", MALFORMED_GRIDS,
                             ids=["list", "object", "strings"])
    def test_malformed_grid_does_not_spoil_its_batch(self, value, reason,
                                                     toy_model, toy_items):
        grid = toy_items[0].grid
        bad = (replace(grid, occupancy=value(grid)), toy_items[0].graph)
        assert_bad_pose_spoils_nothing(toy_model, toy_items[1:3], bad, reason)

    def test_predict_batch_rejects_wrong_grid_shape(self, toy_model,
                                                    toy_items):
        bad_grid = complexes.VoxelGrid(np.zeros((2, 4, 4, 4)))
        preds, errors = toy_model.predict_batch(
            [(bad_grid, toy_items[0].graph)])
        assert preds == [None]
        assert "shape" in errors[0][1]

    def test_head_forward_shapes(self, toy_voxel_cfg, toy_graph_cfg,
                                 toy_items, rng):
        vp = models.init_voxel_params(toy_voxel_cfg, rng)
        preds, lat = voxel_head_forward(vp, toy_voxel_cfg,
                                        [it.grid for it in toy_items[:3]])
        assert preds.shape == (3,)
        assert lat.shape == (3, toy_voxel_cfg.latent_width)
        gp = models.init_graph_params(toy_graph_cfg, rng)
        preds, lat = graph_head_forward(gp, toy_graph_cfg,
                                        [it.graph for it in toy_items[:3]])
        assert preds.shape == (3,)
        assert lat.shape == (3, toy_graph_cfg.latent_width)

    def test_build_tape_rejects_late_mode(self, toy_voxel_cfg, toy_graph_cfg,
                                          toy_items):
        m = FusionModel(toy_voxel_cfg, toy_graph_cfg,
                        FusionConfig(mode="late"))
        vox = np.stack([toy_items[0].grid.occupancy])
        gb = batch_graphs([toy_items[0].graph])
        with pytest.raises(models.GraphError):
            m.build_tape(vox, gb)


def relative_error(a, ref):
    a, ref = np.asarray(a), np.asarray(ref)
    return float(np.max(np.abs(a - ref)) / np.max(np.abs(ref)))


def eval_tape_predict(model, items):
    """Scores of ``items`` through a dense eval tape, as validation takes
    them."""
    return models._scores(model.build_tape(
        np.stack([it.grid.occupancy for it in items]),
        batch_graphs([it.graph for it in items])))


# (voxel config, graph config, generator, poses) at paper size and at the
# criterion-3 size
SPARSE_SIZES = {
    "paper": (VoxelHeadConfig(), GraphHeadConfig(), complexes.GenParams(), 4),
    "criterion-3": (
        VoxelHeadConfig(grid_extent=8, in_channels=2, conv_filters_1=4,
                        conv_filters_2=8, dense_nodes=32, kernel_1=3,
                        dropout_early=0.0, dropout_mid=0.0),
        GraphHeadConfig(c_elem=1, k_cov=2, k_noncov=2, gather_width_cov=16,
                        gather_width_noncov=16),
        complexes.GenParams(box_size=16.0, c_elem=1, n_protein=(20, 40),
                            n_ligand=(5, 12), noise_sigma=0.05),
        56),
}


class TestSparseInputPrediction:
    """``predict_batch`` runs the first convolution over occupied voxels and
    the others through stacked depth taps; the dense eval tape that
    validation uses is its reference."""

    @pytest.mark.parametrize("size", sorted(SPARSE_SIZES))
    @pytest.mark.parametrize("mode", ["coherent", "mid", "late"])
    def test_predict_batch_agrees_with_dense_path(self, size, mode):
        vcfg, gcfg, gen, n = SPARSE_SIZES[size]
        items = featurize(complexes.generate_dataset(n, 3, gen), vcfg, gcfg)
        model = FusionModel(vcfg, gcfg, FusionConfig(mode=mode), seed=1)
        grids, graphs = [it.grid for it in items], [it.graph for it in items]
        preds, errors = model.predict_batch(list(zip(grids, graphs)))
        assert not errors
        if mode == "late":
            dense = late_fusion_predict(
                voxel_head_forward(model.voxel_params, vcfg, grids)[0],
                graph_head_forward(model.graph_params, gcfg, graphs)[0])
        else:
            dense = eval_tape_predict(model, items)
        assert relative_error(preds, dense) < 1e-12

    @staticmethod
    def input_shapes(kernel, mode, vcfg, gcfg, items, monkeypatch):
        """Input shapes ``autodiff.<kernel>`` sees in ``predict_batch`` and
        in a one-epoch ``train`` (``train_head`` for late) with its
        validation."""
        calls = []
        original = getattr(autodiff, kernel)

        def counting(x, w):
            calls.append(x.shape)
            return original(x, w)

        monkeypatch.setattr(autodiff, kernel, counting)
        model = FusionModel(vcfg, gcfg,
                            FusionConfig(mode=mode, n_fusion_layers=3,
                                         fusion_dense_nodes=4, epochs=1,
                                         batch_size=4), seed=0)
        model.predict_batch([(it.grid, it.graph) for it in items[:3]])
        predicted = list(calls)
        calls.clear()
        if mode == "late":
            train_head("voxel", model.voxel_params, vcfg, items[:8],
                       items[8:], epochs=1, batch_size=4,
                       optimizer_cfg=OptimizerConfig("adam", 1e-3))
        else:
            train(model, items[:8], items[8:])
        return predicted, calls

    @pytest.mark.parametrize("mode", ["coherent", "late"])
    def test_only_prediction_takes_the_scatter_path(
            self, mode, toy_voxel_cfg, toy_graph_cfg, toy_items, monkeypatch):
        assert self.input_shapes("_scatter_correlate", mode, toy_voxel_cfg,
                                 toy_graph_cfg, toy_items, monkeypatch) == \
            ([(3, 2, 8, 8, 8)], [])

    def test_flagged_tape_passes_gradient_check(self, toy_voxel_cfg,
                                                toy_graph_cfg, toy_items):
        fcfg = FusionConfig(mode="coherent", n_fusion_layers=3,
                            fusion_dense_nodes=4, activation="relu")
        model = FusionModel(toy_voxel_cfg, toy_graph_cfg, fcfg, seed=0)
        items = toy_items[:2]
        g = ValueGraph(inference=True)
        pred, _ = model._tape_on(
            g, np.stack([it.grid.occupancy for it in items]),
            batch_graphs([it.graph for it in items]))
        loss = models._mse_loss(g, pred, [it.label for it in items])
        assert gradient_check(g, loss, 1e-5) < 1e-4

    @pytest.mark.parametrize("mode", ["coherent", "late"])
    def test_only_prediction_takes_the_stacked_path(
            self, mode, toy_voxel_cfg, toy_graph_cfg, toy_items, monkeypatch):
        f1, f2 = toy_voxel_cfg.conv_filters_1, toy_voxel_cfg.conv_filters_2
        assert self.input_shapes("_stacked_correlate", mode, toy_voxel_cfg,
                                 toy_graph_cfg, toy_items, monkeypatch) == \
            ([(3, f1, 8, 8, 8), (3, f1, 4, 4, 4), (3, f2, 4, 4, 4)], [])


def record_prediction_tapes(monkeypatch):
    """Wraps ``ValueGraph.apply`` as perfbench's tracer does, reading every
    input's value shape right after each call returns.  Returns {graph:
    [(op, input shapes, bytes of non-leaf values held) per call]}."""
    tapes = {}
    original = ValueGraph.apply

    def apply(graph, op_kind, inputs, attrs=None):
        nid = original(graph, op_kind, inputs, attrs)
        shapes = tuple(graph.nodes[i].value.shape
                       for i in graph.nodes[nid].inputs)
        held = sum(n.value.nbytes for n in graph.nodes
                   if n.op != "leaf" and n.value is not None)
        tapes.setdefault(graph, []).append((op_kind, shapes, held))
        return nid

    monkeypatch.setattr(ValueGraph, "apply", apply)
    return tapes


def last_use_bound(g):
    """Peak bytes of the op values of ``g``, a tape that keeps them all, had
    each been freed as soon as its last consumer ran; plus the largest
    total of any one node's op inputs, which a free deferred to the next
    ``apply`` holds one call longer."""
    size = {n.nid: n.value.nbytes for n in g.nodes if n.op != "leaf"}
    last = {nid: nid for nid in size}
    for nid in size:
        for i in g.nodes[nid].inputs:
            if i in size:
                last[i] = nid
    peak = max(sum(size[i] for i in size
                   if i <= j and (last[i] > j or i == j)) for j in size)
    inputs = max(sum(size[i] for i in set(g.nodes[nid].inputs) if i in size)
                 for nid in size)
    return peak + inputs


class TestPredictionFreesValues:
    """``predict_batch``'s tapes free each value after its last consumer
    has run, and only after that consumer's ``apply`` has returned."""

    @staticmethod
    def reference_tapes(model, items):
        """The keep-everything inference tapes of the same batch, in the
        order ``predict_batch`` builds its own."""
        vox = np.stack([it.grid.occupancy for it in items])
        gb = batch_graphs([it.graph for it in items])
        if model.fusion_cfg.mode != "late":
            g = ValueGraph(inference=True)
            return [(g, model._tape_on(g, vox, gb)[0])]
        tapes = []
        for kind, params, cfg, x, bn_state in (
                ("voxel", model.voxel_params, model.voxel_cfg, vox,
                 model.bn_state),
                ("graph", model.graph_params, model.graph_cfg, gb, {})):
            g = ValueGraph(inference=True)
            tapes.append((g, models._head_on(g, kind, params, cfg, x, False,
                                             bn_state)[0]))
        return tapes

    @pytest.mark.parametrize("batch_norm", [False, True])
    @pytest.mark.parametrize("mode", ["coherent", "mid", "late"])
    def test_values_die_at_last_use(self, mode, batch_norm, toy_voxel_cfg,
                                    toy_graph_cfg, toy_fusion_cfg, toy_items,
                                    monkeypatch):
        model = FusionModel(replace(toy_voxel_cfg, batch_norm=batch_norm),
                            toy_graph_cfg, replace(toy_fusion_cfg, mode=mode),
                            seed=0)
        items = toy_items[:6]
        refs = self.reference_tapes(model, items)
        tapes = record_prediction_tapes(monkeypatch)
        preds, _ = model.predict_batch([(it.grid, it.graph) for it in items])
        assert len(tapes) == len(refs)
        for (g, calls), (ref, _) in zip(tapes.items(), refs):
            assert max(held for _, _, held in calls) <= last_use_bound(ref)
            assert [n.nid for n in g.nodes
                    if n.op != "leaf" and n.value is not None] == \
                [len(g.nodes) - 1]
        scores = [models._scores(ref) for ref in refs]
        expected = (late_fusion_predict(*scores) if mode == "late"
                    else scores[0])
        assert [p.hex() for p in preds] == [float(e).hex() for e in expected]

    @pytest.mark.parametrize("mode", ["coherent", "mid", "late"])
    def test_inputs_live_until_their_consumer_returns(
            self, mode, toy_voxel_cfg, toy_graph_cfg, toy_fusion_cfg,
            toy_items, monkeypatch):
        model = FusionModel(toy_voxel_cfg, toy_graph_cfg,
                            replace(toy_fusion_cfg, mode=mode), seed=0)
        items = toy_items[:3]
        refs = self.reference_tapes(model, items)
        tapes = record_prediction_tapes(monkeypatch)
        model.predict_batch([(it.grid, it.graph) for it in items])
        for (g, calls), (ref, _) in zip(tapes.items(), refs):
            assert [(op, shapes) for op, shapes, _ in calls] == \
                [(n.op, tuple(ref.nodes[i].value.shape for i in n.inputs))
                 for n in ref.nodes if n.op != "leaf"]
            # every op input the wrapper read is gone by now
            assert all(g.nodes[i].value is None for n in g.nodes[:-1]
                       for i in n.inputs if g.nodes[i].op != "leaf")


class TestPersistence:
    def test_save_load_roundtrip_bitwise(self, toy_model, toy_items,
                                         tmp_path):
        path = tmp_path / "m.npz"
        toy_model.save(path)
        loaded = FusionModel.load(path)
        for k, v in toy_model.all_params().items():
            assert np.array_equal(loaded.all_params()[k], v)
        items = [(it.grid, it.graph) for it in toy_items[:3]]
        assert toy_model.predict_batch(items)[0] == \
            loaded.predict_batch(items)[0]

    def test_save_load_roundtrips_batch_norm_state(self, toy_voxel_cfg,
                                                   toy_graph_cfg, toy_items,
                                                   tmp_path):
        cfg = FusionConfig(mode="coherent", n_fusion_layers=3,
                           fusion_dense_nodes=6,
                           optimizer=OptimizerConfig("adam", 3e-3),
                           batch_size=4, epochs=3)
        m = FusionModel(replace(toy_voxel_cfg, batch_norm=True),
                        toy_graph_cfg, cfg, seed=2)
        m, _ = train(m, toy_items[:12], toy_items[12:], cfg, seed=0)
        path = tmp_path / "bn.npz"
        m.save(path)
        loaded = FusionModel.load(path)
        items = [(it.grid, it.graph) for it in toy_items]
        expected = m.predict_batch(items)[0]
        assert loaded.predict_batch(items)[0] == expected
        assert sorted(loaded.bn_state) == sorted(m.bn_state) == ["bn1", "bn2"]
        for key, stats in m.bn_state.items():
            assert sorted(loaded.bn_state[key]) == sorted(stats)
            for stat, arr in stats.items():
                assert np.array_equal(loaded.bn_state[key][stat], arr)
        # the statistics matter: without them the predictions move
        loaded.bn_state = {}
        assert loaded.predict_batch(items)[0] != expected

    def test_loaded_configs_match(self, toy_model, tmp_path):
        path = tmp_path / "m.npz"
        toy_model.save(path)
        loaded = FusionModel.load(path)
        assert loaded.voxel_cfg == toy_model.voxel_cfg
        assert loaded.graph_cfg == toy_model.graph_cfg
        assert loaded.fusion_cfg.mode == toy_model.fusion_cfg.mode


class TestHeadCheckpoints:
    @staticmethod
    def train_bn_voxel_head(cfg, items):
        cfg = replace(cfg, batch_norm=True)
        params = models.init_voxel_params(cfg, np.random.default_rng(7))
        params, bn_state, history = train_head(
            "voxel", params, cfg, items[:12], items[12:], epochs=3,
            batch_size=5, optimizer_cfg=OptimizerConfig("adam", 3e-3),
            seed=14)
        return cfg, params, bn_state, history

    @staticmethod
    def val_mse(params, cfg, items, bn_state):
        pred = voxel_head_forward(params, cfg, [it.grid for it in items],
                                  bn_state=bn_state)[0]
        y = np.array([it.label for it in items])
        return float(((pred - y) ** 2).sum()) / len(items)

    def test_batch_norm_head_round_trip_reproduces_best_val_mse(
            self, toy_voxel_cfg, toy_items, tmp_path):
        cfg, params, bn_state, history = self.train_bn_voxel_head(
            toy_voxel_cfg, toy_items)
        path = tmp_path / "voxel_head.npz"
        models.save_head(path, params, cfg, bn_state)
        loaded, loaded_bn = models.load_head(path, cfg)
        assert sorted(loaded_bn) == ["bn1", "bn2"]
        best = min(h["val_mse"] for h in history)
        assert self.val_mse(loaded, cfg, toy_items[12:], loaded_bn) == best
        # the best epoch's statistics matter: without them the MSE moves
        assert self.val_mse(loaded, cfg, toy_items[12:], {}) != best

    def test_late_model_from_heads_uses_voxel_batch_norm_state(
            self, toy_voxel_cfg, toy_graph_cfg, toy_items):
        vcfg, vparams, bn_state, _ = self.train_bn_voxel_head(
            toy_voxel_cfg, toy_items)
        gparams = models.init_graph_params(toy_graph_cfg,
                                           np.random.default_rng(8))
        m = FusionModel.from_heads(vparams, vcfg, gparams, toy_graph_cfg,
                                   FusionConfig(mode="late"), bn_state)
        preds, errors = m.predict_batch([(it.grid, it.graph)
                                         for it in toy_items])
        assert not errors
        g = ValueGraph(inference=True)
        pred = models._head_on(
            g, "voxel", vparams, vcfg,
            np.stack([it.grid.occupancy for it in toy_items]), False,
            bn_state)[0]
        expected = late_fusion_predict(
            g.value(pred)[:, 0],
            graph_head_forward(gparams, toy_graph_cfg,
                               [it.graph for it in toy_items])[0])
        assert [p.hex() for p in preds] == [float(e).hex() for e in expected]

    def test_mid_training_keeps_frozen_head_batch_norm_state(
            self, toy_voxel_cfg, toy_graph_cfg, toy_items):
        vcfg, vparams, bn_state, _ = self.train_bn_voxel_head(
            toy_voxel_cfg, toy_items)
        gparams = models.init_graph_params(toy_graph_cfg,
                                           np.random.default_rng(8))
        cfg = FusionConfig(mode="mid", n_fusion_layers=3,
                           fusion_dense_nodes=6,
                           optimizer=OptimizerConfig("adam", 3e-3),
                           batch_size=5, epochs=2)
        m = FusionModel.from_heads(vparams, vcfg, gparams, toy_graph_cfg,
                                   cfg, bn_state)
        m, _ = train(m, toy_items[:12], toy_items[12:], cfg, seed=0)
        for k, v in vparams.items():
            assert np.array_equal(m.voxel_params[k], v)
        assert sorted(m.bn_state) == sorted(bn_state)
        for key, stats in bn_state.items():
            for stat, value in stats.items():
                assert np.array_equal(m.bn_state[key][stat], value)

    def test_head_checkpoint_without_batch_norm_arrays_loads(
            self, toy_voxel_cfg, tmp_path):
        # the layout written before heads carried batch-norm statistics
        params = models.init_voxel_params(toy_voxel_cfg,
                                          np.random.default_rng(0))
        path = tmp_path / "old_head.npz"
        save_checkpoint(path, params, None,
                        {"model": "voxel-head", "cfg": asdict(toy_voxel_cfg)})
        loaded, bn_state = models.load_head(path, toy_voxel_cfg)
        assert bn_state == {}
        assert sorted(loaded) == sorted(params)
        for k, v in params.items():
            assert np.array_equal(loaded[k], v)

    def test_load_head_rejects_other_kind_or_config(self, toy_voxel_cfg,
                                                    toy_graph_cfg, toy_model,
                                                    tmp_path):
        path = tmp_path / "graph_head.npz"
        models.save_head(path, models.init_graph_params(
            toy_graph_cfg, np.random.default_rng(0)), toy_graph_cfg, {})
        with pytest.raises(ValueError, match="graph_head.npz.*'voxel-head'"):
            models.load_head(path, toy_voxel_cfg)
        with pytest.raises(ValueError, match="graph_head.npz.*k_cov=2"):
            models.load_head(path, replace(toy_graph_cfg, k_cov=3))
        fusion = tmp_path / "fusion.npz"
        toy_model.save(fusion)
        with pytest.raises(ValueError, match="fusion.npz.*'fusion'"):
            models.load_head(fusion, toy_graph_cfg)
        with pytest.raises(ValueError, match="graph_head.npz.*'graph-head'"):
            FusionModel.load(path)


class TestTraining:
    def opt(self):
        return OptimizerConfig("adam", 3e-3)

    def test_coherent_training_decreases_loss(self, toy_model, toy_items):
        cfg = FusionConfig(mode="coherent", n_fusion_layers=3,
                           fusion_dense_nodes=6, activation="relu",
                           optimizer=self.opt(), batch_size=8, epochs=4)
        _, history = train(toy_model, toy_items[:12], toy_items[12:], cfg,
                           seed=0)
        assert len(history) == 4
        assert history[-1]["train_mse"] < history[0]["train_mse"]

    @pytest.mark.parametrize("batch_norm", [False, True])
    def test_training_restores_best_validation_params(self, toy_voxel_cfg,
                                                      toy_graph_cfg,
                                                      toy_items, batch_norm):
        # a learning rate high enough that validation turns back up, so the
        # best epoch is not the last and the restore is what is tested
        cfg = FusionConfig(mode="coherent", n_fusion_layers=3,
                           fusion_dense_nodes=6,
                           optimizer=OptimizerConfig("adam", 3e-2),
                           batch_size=4, epochs=4)
        vcfg = replace(toy_voxel_cfg, batch_norm=batch_norm)
        m = FusionModel(vcfg, toy_graph_cfg, cfg, seed=2)
        m, history = train(m, toy_items[:12], toy_items[12:], cfg, seed=0)
        val = [h["val_mse"] for h in history]
        assert int(np.argmin(val)) < len(val) - 1
        final = models._eval_mse(lambda part: eval_tape_predict(m, part),
                                 toy_items[12:])
        assert final == pytest.approx(min(val), rel=1e-9)

    def test_no_training_tape_outlives_its_use(self, toy_model, toy_items,
                                               monkeypatch):
        tapes = []        # (weakref, training) per tape built in models
        alive_at_eval = []  # training tapes alive as each eval tape is built

        class Recording(ValueGraph):
            def __init__(self, seed=0, training=False, inference=False):
                super().__init__(seed, training, inference)
                if not training:
                    alive_at_eval.append(
                        sum(t and r() is not None for r, t in tapes))
                tapes.append((weakref.ref(self), training))

        monkeypatch.setattr(models, "ValueGraph", Recording)
        cfg = FusionConfig(mode="coherent", n_fusion_layers=3,
                           fusion_dense_nodes=6, optimizer=self.opt(),
                           batch_size=5, epochs=2)
        train(toy_model, toy_items[:12], toy_items[12:], cfg, seed=0)
        assert sum(t for _, t in tapes) == 6    # 3 steps per epoch
        assert alive_at_eval == [0, 0]          # one eval tape per epoch
        assert [r() for r, _ in tapes] == [None] * len(tapes)

    def test_late_mode_training_rejected(self, toy_voxel_cfg, toy_graph_cfg,
                                         toy_items):
        m = FusionModel(toy_voxel_cfg, toy_graph_cfg,
                        FusionConfig(mode="late"))
        with pytest.raises(ValueError):
            train(m, toy_items[:8], toy_items[8:],
                  FusionConfig(mode="late"))

    def test_mid_mode_requires_pretrained_heads(self, toy_voxel_cfg,
                                                toy_graph_cfg, toy_items):
        cfg = FusionConfig(mode="mid", n_fusion_layers=3,
                           fusion_dense_nodes=6, optimizer=self.opt(),
                           batch_size=8, epochs=1)
        m = FusionModel(toy_voxel_cfg, toy_graph_cfg, cfg)
        with pytest.raises(ValueError, match="trained head"):
            train(m, toy_items[:8], toy_items[8:], cfg)

    def test_train_head_runs_both_kinds(self, toy_voxel_cfg, toy_graph_cfg,
                                        toy_items, rng):
        for kind, cfg, init in (
                ("voxel", toy_voxel_cfg, models.init_voxel_params),
                ("graph", toy_graph_cfg, models.init_graph_params)):
            params, _, history = train_head(
                kind, init(cfg, rng), cfg, toy_items[:12], toy_items[12:],
                epochs=2, batch_size=8, optimizer_cfg=self.opt(), seed=0)
            assert len(history) == 2
            assert all(np.all(np.isfinite(v)) for v in params.values())

    def test_train_head_rejects_unknown_kind(self, toy_voxel_cfg, toy_items):
        with pytest.raises(ValueError):
            train_head("fusion", {}, toy_voxel_cfg, toy_items, toy_items,
                       epochs=1, batch_size=4, optimizer_cfg=self.opt())


def test_featurize_respects_configs(toy_voxel_cfg, toy_graph_cfg,
                                    toy_gen_params):
    cxs = [complexes.generate_complex(i, toy_gen_params) for i in range(2)]
    items = featurize(cxs, toy_voxel_cfg, toy_graph_cfg, box_size=8.0)
    assert items[0].grid.occupancy.shape == (2, 8, 8, 8)
    assert items[0].graph.node_features.shape[1] == \
        toy_graph_cfg.feature_width
    assert items[0].label == cxs[0].label_pk


def test_batch_graphs_block_structure(toy_graph_cfg, toy_gen_params):
    cxs = [complexes.generate_complex(i, toy_gen_params) for i in range(3)]
    graphs = [complexes.build_graph(c, c_elem=1, box_size=8.0) for c in cxs]
    gb = batch_graphs(graphs)
    total = sum(g.n_nodes for g in graphs)
    assert gb.features.shape[0] == total
    assert gb.pool.shape == (3, total)
    # pooling rows are uniform means over each graph's nodes
    assert np.allclose(np.asarray(gb.pool.sum(axis=1)).ravel(), 1.0)
