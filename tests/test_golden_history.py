"""Per-epoch training histories and PB2 searches pinned bitwise for fixed
seeds.

The training values were recorded before ``train`` and ``train_head`` were
folded into one loop; any change to draw order, batching, the optimizer step
or the validation MSE shows up here as a changed ``float.hex`` string.  The
PB2 digests were recorded before ``run_hpo`` and ``random_search`` shared one
generation step; they pin the best trial, every generation's record and the
random-search score.  Regenerate both tables (only for an intended numerical
change) with

    PYTHONPATH=src python tests/test_golden_history.py
"""

import hashlib
import json
from dataclasses import replace

import numpy as np

from fusionscreen import complexes, models, pb2
from fusionscreen.optim import OptimizerConfig

_OPT = OptimizerConfig("adam", 3e-3)


def _toy():
    vcfg = models.VoxelHeadConfig(grid_extent=8, in_channels=2,
                                  conv_filters_1=2, conv_filters_2=2,
                                  dense_nodes=8, kernel_1=3,
                                  dropout_early=0.0, dropout_mid=0.0)
    gcfg = models.GraphHeadConfig(c_elem=1, k_cov=2, k_noncov=2,
                                  gather_width_cov=4, gather_width_noncov=4)
    gen = complexes.GenParams(box_size=8.0, c_elem=1, n_protein=(8, 12),
                              n_ligand=(3, 5), noise_sigma=0.05)
    cxs = [complexes.generate_complex(i, gen) for i in range(16)]
    items = models.featurize(cxs, vcfg, gcfg, box_size=8.0)
    return vcfg, gcfg, items[:12], items[12:]


def _fusion(mode, **kw):
    return models.FusionConfig(mode=mode, n_fusion_layers=3,
                               fusion_dense_nodes=6, optimizer=_OPT,
                               batch_size=5, epochs=3, **kw)


def _train(model, tr, va, cfg, seed):
    model, history = models.train(model, tr, va, cfg, seed=seed)
    return model.all_params(), history


def _run_coherent_dropout(vcfg, gcfg, tr, va):
    # 12 items in batches of 5: the last batch holds 2
    vcfg = replace(vcfg, dropout_early=0.25, dropout_mid=0.125)
    cfg = _fusion("coherent", dropout_early=0.3, dropout_late=0.1)
    m = models.FusionModel(vcfg, gcfg, cfg, seed=3)
    return _train(m, tr, va, cfg, seed=11)


def _run_mid_from_heads(vcfg, gcfg, tr, va):
    rng = np.random.default_rng(5)
    cfg = _fusion("mid", model_specific_layers=True, residual_fusion=False)
    m = models.FusionModel.from_heads(
        models.init_voxel_params(vcfg, rng), vcfg,
        models.init_graph_params(gcfg, rng), gcfg, cfg, {}, seed=4)
    return _train(m, tr, va, cfg, seed=12)


def _run_coherent_batch_norm(vcfg, gcfg, tr, va):
    vcfg = replace(vcfg, batch_norm=True)
    cfg = _fusion("coherent")
    m = models.FusionModel(vcfg, gcfg, cfg, seed=6)
    return _train(m, tr, va, cfg, seed=13)


def _run_head(kind, vcfg, gcfg, tr, va):
    cfg, init = ((vcfg, models.init_voxel_params) if kind == "voxel"
                 else (gcfg, models.init_graph_params))
    params = init(cfg, np.random.default_rng(7))
    params, _, history = models.train_head(kind, params, cfg, tr, va,
                                           epochs=3, batch_size=5,
                                           optimizer_cfg=_OPT, seed=14)
    return params, history


def _run_voxel_head_augment(vcfg, gcfg, tr, va):
    vcfg = replace(vcfg, dropout_early=0.25)
    return _run_head("voxel", vcfg, gcfg, tr, va)


def _run_voxel_head_batch_norm(vcfg, gcfg, tr, va):
    vcfg = replace(vcfg, batch_norm=True)
    return _run_head("voxel", vcfg, gcfg, tr, va)


def _run_graph_head(vcfg, gcfg, tr, va):
    return _run_head("graph", vcfg, gcfg, tr, va)


RUNS = {
    "coherent_dropout": _run_coherent_dropout,
    "mid_from_heads": _run_mid_from_heads,
    "coherent_batch_norm": _run_coherent_batch_norm,
    "voxel_head_augment": _run_voxel_head_augment,
    "voxel_head_batch_norm": _run_voxel_head_batch_norm,
    "graph_head": _run_graph_head,
}


def _digest(params) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name], dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def record() -> dict:
    """Per run: the returned parameters' digest and the hex history rows."""
    data = _toy()
    out = {}
    for name, run in RUNS.items():
        params, history = run(*data)
        out[name] = {"params": _digest(params),
                     "history": [(h["train_mse"].hex(), h["val_mse"].hex())
                                 for h in history]}
    return out


GOLDEN = {
    "coherent_batch_norm": {
        "params": "7f213b170435e9d0",
        "history": [
            ("0x1.a93364dbc8448p+2", "0x1.905a9606ef666p+3"),
            ("0x1.8ac38cdf3fa3dp+2", "0x1.8358014b8b3f6p+3"),
            ("0x1.72b8ad9883aa4p+2", "0x1.76b9bf48a2200p+3"),
        ],
    },
    "coherent_dropout": {
        "params": "111adf9806c09495",
        "history": [
            ("0x1.d7ed8f24c23a0p+2", "0x1.9dd8720a6ba2bp+3"),
            ("0x1.aaf531219b68fp+2", "0x1.8605e1d9a19d8p+3"),
            ("0x1.9791626bd9684p+2", "0x1.6dcd869df5312p+3"),
        ],
    },
    "graph_head": {
        "params": "470e819ee609b71d",
        "history": [
            ("0x1.a0b172fac1f90p+3", "0x1.5565021774084p+4"),
            ("0x1.98e6b4cf0a780p+3", "0x1.5051abf5274c0p+4"),
            ("0x1.91832e39cfa39p+3", "0x1.4b774744566a2p+4"),
        ],
    },
    "mid_from_heads": {
        "params": "e5aad287db2ff228",
        "history": [
            ("0x1.678b7f1b66324p+2", "0x1.5f48c3e211c6ap+3"),
            ("0x1.55e7ff1136e00p+2", "0x1.529a228d24649p+3"),
            ("0x1.4606e99cf2787p+2", "0x1.466266b0f91ccp+3"),
        ],
    },
    "voxel_head_augment": {
        "params": "90d5a579d9d25bc7",
        "history": [
            ("0x1.a8411e830823dp+2", "0x1.8fef17f932328p+3"),
            ("0x1.9d869e7ae7160p+2", "0x1.87f3c939b4f30p+3"),
            ("0x1.8d8d8483253bbp+2", "0x1.8004026811e72p+3"),
        ],
    },
    "voxel_head_batch_norm": {
        "params": "ff83a4e31b1d8334",
        "history": [
            ("0x1.00cc2cd48dd3dp+3", "0x1.91a601711ed12p+3"),
            ("0x1.a62f6bc376059p+2", "0x1.8c33857a76792p+3"),
            ("0x1.5b8bfa7228553p+2", "0x1.88b6d5337ca50p+3"),
        ],
    },
}


_PB2 = pb2.Pb2Config(population_size=6, quantile_fraction=0.5, t_ready=3)
_PB2_BUDGET = 30
PB2_SPACES = {
    "fusion": pb2.fusion_search_space,
    "log_learning_rate": lambda: pb2.HyperParamSpace((
        pb2.Dimension("learning_rate", "continuous", (1e-4, 1.0), "log"),)),
}
PB2_SEEDS = (0, 1, 2)


def _exact(v):
    """``v`` with every float as its ``float.hex`` string, for hashing."""
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, dict):
        return [[str(k), _exact(x)] for k, x in sorted(v.items(), key=str)]
    if isinstance(v, (list, tuple)):
        return [_exact(x) for x in v]
    return v


def _sha(v) -> str:
    return hashlib.sha256(json.dumps(_exact(v)).encode()).hexdigest()[:16]


def record_pb2() -> dict:
    """Per space and seed: digests of ``run_hpo``'s best trial (config,
    epoch, score history, lineage) and per-generation history, and
    ``random_search``'s score as a hex string."""
    out = {}
    for name, make in PB2_SPACES.items():
        for seed in PB2_SEEDS:
            best, history = pb2.run_hpo(make(), _PB2, _PB2_BUDGET,
                                        pb2.quadratic_trainable(), seed=seed)
            rs = pb2.random_search(make(), _PB2, _PB2_BUDGET,
                                   pb2.quadratic_trainable(), seed=seed)
            out[f"{name}/{seed}"] = {
                "best": _sha([best.config, best.epoch, best.score_history,
                              best.lineage]),
                "history": _sha(history),
                "random_search": rs.hex()}
    return out


GOLDEN_PB2 = {
    "fusion/0": {"best": "99af8850bb64c4d1",
                 "history": "df2a56f3991e8295",
                 "random_search": "0x1.2343592d0e6dcp+2"},
    "fusion/1": {"best": "ad16d230e7ba5cca",
                 "history": "1aa1dae3db264c93",
                 "random_search": "0x1.1ae211e1e091cp+1"},
    "fusion/2": {"best": "ba0dda50cd447877",
                 "history": "ccf60ab9ccc8972e",
                 "random_search": "0x1.2eb81567791adp+0"},
    "log_learning_rate/0": {"best": "b7b3f671f459d4b6",
                            "history": "3623ab17ee3d60a5",
                            "random_search": "0x1.85bcb5ff6fe9ep-4"},
    "log_learning_rate/1": {"best": "e843e19f5245fca5",
                            "history": "628655bcef633237",
                            "random_search": "0x1.b9ca26bb0dc82p-13"},
    "log_learning_rate/2": {"best": "c5258fed6515ae3d",
                            "history": "37b498be57c71b5d",
                            "random_search": "0x1.aba1afe244617p-3"},
}


def test_histories_bitwise_equal_to_golden():
    got = record()
    for name in RUNS:
        assert got[name]["history"] == GOLDEN[name]["history"], name
        assert got[name]["params"] == GOLDEN[name]["params"], name


def test_pb2_searches_bitwise_equal_to_golden():
    assert record_pb2() == GOLDEN_PB2


if __name__ == "__main__":
    import pprint

    pprint.pprint(record(), width=78)
    pprint.pprint(record_pb2(), width=78)
