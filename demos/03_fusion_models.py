"""Trains both heads on a small synthetic set, then compares late, mid, and
coherent fusion on the same holdout.  Takes about a minute."""

import numpy as np

from fusionscreen import complexes, models
from fusionscreen.models import (
    FusionConfig, FusionModel, GraphHeadConfig, VoxelHeadConfig,
)
from fusionscreen.optim import OptimizerConfig

gen = complexes.GenParams(box_size=16.0, c_elem=1, n_protein=(20, 40),
                          n_ligand=(5, 12), noise_sigma=0.05)
vcfg = VoxelHeadConfig(grid_extent=8, in_channels=2, conv_filters_1=4,
                       conv_filters_2=8, dense_nodes=32, kernel_1=3,
                       dropout_early=0.0, dropout_mid=0.0)
gcfg = GraphHeadConfig(c_elem=1, k_cov=2, k_noncov=2,
                       gather_width_cov=16, gather_width_noncov=16)
opt = OptimizerConfig("adam", 5e-3)

print("generating 600 complexes ...")
data = complexes.generate_dataset(600, 0, gen)
items = models.featurize(data, vcfg, gcfg)
train, val = complexes.quintile_split(items, 0.15, seed=0,
                                      key=lambda it: it.label,
                                      id_key=lambda it: id(it))
var = float(np.var([it.label for it in val]))


def r2(mse):
    return 1.0 - mse / var


rng = np.random.default_rng(0)
print("training the voxel head alone ...")
vparams, vbn, vh = models.train_head(
    "voxel", models.init_voxel_params(vcfg, rng), vcfg, train, val, epochs=6,
    batch_size=64, optimizer_cfg=opt, seed=0)
print(f"  voxel head val R^2 = {r2(min(h['val_mse'] for h in vh)):.3f}")

print("training the graph head alone ...")
gparams, _, gh = models.train_head(
    "graph", models.init_graph_params(gcfg, rng), gcfg, train, val, epochs=6,
    batch_size=64, optimizer_cfg=opt, seed=0)
print(f"  graph head val R^2 = {r2(min(h['val_mse'] for h in gh)):.3f}")

print("\nmid fusion (heads frozen) ...")
mid_cfg = FusionConfig(mode="mid", n_fusion_layers=3, fusion_dense_nodes=16,
                       activation="relu", optimizer=opt, batch_size=64,
                       epochs=6, dropout_early=0.0, dropout_mid=0.0)
mid = FusionModel.from_heads(vparams, vcfg, gparams, gcfg, mid_cfg, vbn)
_, hist = models.train(mid, train, val, mid_cfg, seed=0)
print(f"  mid fusion val R^2 = {r2(min(h['val_mse'] for h in hist)):.3f}")

print("late fusion (plain average of the trained heads) ...")
vox_pred, _ = models.voxel_head_forward(vparams, vcfg, [it.grid for it in val],
                                        bn_state=vbn)
gr_pred, _ = models.graph_head_forward(gparams, gcfg,
                                       [it.graph for it in val])
late = models.late_fusion_predict(vox_pred, gr_pred)
y = np.array([it.label for it in val])
print(f"  late fusion val R^2 = {r2(float(((late - y) ** 2).mean())):.3f}")

print("coherent fusion (end to end) ...")
coh_cfg = FusionConfig(mode="coherent", n_fusion_layers=3,
                       fusion_dense_nodes=16, activation="relu",
                       optimizer=opt, batch_size=64, epochs=8,
                       dropout_early=0.0, dropout_mid=0.0, dropout_late=0.0)
coh = FusionModel(vcfg, gcfg, coh_cfg, seed=0)
_, hist = models.train(coh, train, val, coh_cfg, seed=0)
print(f"  coherent fusion val R^2 = {r2(min(h['val_mse'] for h in hist)):.3f}")
