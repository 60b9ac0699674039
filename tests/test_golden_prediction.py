"""``predict_batch`` scores pinned bitwise for fixed seeds.

The digests were recorded before the prediction mode moved from ``conv3d``
node attrs onto the graph; any change to a forward kernel, the op order of a
prediction tape or the routing of its convolutions shows up here as a
changed digest of the scores' ``float.hex`` strings.  Regenerate (only for an
intended numerical change) with

    PYTHONPATH=src python tests/test_golden_prediction.py
"""

import hashlib

from fusionscreen import complexes, models

# (voxel config, graph config, generator, poses): the criterion-3 size and
# the paper size
SIZES = {
    "criterion-3": (
        models.VoxelHeadConfig(grid_extent=8, in_channels=2, conv_filters_1=4,
                               conv_filters_2=8, dense_nodes=32, kernel_1=3,
                               dropout_early=0.0, dropout_mid=0.0),
        models.GraphHeadConfig(c_elem=1, k_cov=2, k_noncov=2,
                               gather_width_cov=16, gather_width_noncov=16),
        complexes.GenParams(box_size=16.0, c_elem=1, n_protein=(20, 40),
                            n_ligand=(5, 12), noise_sigma=0.05),
        56),
    "paper": (models.VoxelHeadConfig(), models.GraphHeadConfig(),
              complexes.GenParams(), 8),
}
# the published end states, so that mid and coherent differ in layout
FUSIONS = {"coherent": models.table_coherent_fusion_config(),
           "mid": models.table_mid_fusion_config(),
           "late": models.FusionConfig(mode="late")}
BATCH = 8


def _digest(scores) -> str:
    return hashlib.sha256("\n".join(s.hex() for s in scores).encode()
                          ).hexdigest()[:16]


def record() -> dict:
    """Per size and fusion mode: the digest of the scores, in batches of
    :data:`BATCH`."""
    out = {}
    for size, (vcfg, gcfg, gen, n) in SIZES.items():
        items = [(it.grid, it.graph) for it in models.featurize(
            complexes.generate_dataset(n, 3, gen), vcfg, gcfg)]
        for mode, fcfg in FUSIONS.items():
            model = models.FusionModel(vcfg, gcfg, fcfg, seed=1)
            scores = []
            for lo in range(0, n, BATCH):
                preds, errors = model.predict_batch(items[lo:lo + BATCH])
                assert not errors
                scores += preds
            out[f"{size}/{mode}"] = _digest(scores)
    return out


GOLDEN = {
    "criterion-3/coherent": "684a7947a3f0ccfd",
    "criterion-3/late": "51f6bbdf955f72ce",
    "criterion-3/mid": "afb17e7b9dd64358",
    "paper/coherent": "39008b7daf0e5162",
    "paper/late": "101c65bb1428cf3e",
    "paper/mid": "4a16d0abc0a7b6f4",
}


def test_predictions_bitwise_equal_to_golden():
    assert record() == GOLDEN


if __name__ == "__main__":
    import pprint

    pprint.pprint(record(), width=78)
