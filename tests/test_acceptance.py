"""Acceptance suite: ten property-based and scaled-down quantitative checks.

Each test prints exactly one PASS/FAIL line with its measured quantity so the
suite reads as a checklist under ``pytest -v -s``.  Tolerances are pinned in
the assertions, not configurable.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from fusionscreen import complexes, evaluate, harness, models, pb2
from fusionscreen.autodiff import ValueGraph, gradient_check
from fusionscreen.models import FusionConfig, FusionModel, _Tape, _graph_tape, _voxel_tape
from fusionscreen.optim import OptimizerConfig

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(name, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")


def toy_voxel_cfg(seed):
    return models.VoxelHeadConfig(
        grid_extent=8, in_channels=2, conv_filters_1=1, conv_filters_2=2,
        dense_nodes=6, kernel_1=3, dropout_early=0.0, dropout_mid=0.0,
        residual_1=bool(seed % 2), residual_2=bool((seed // 2) % 2))


def toy_graph_cfg(seed):
    return models.GraphHeadConfig(
        c_elem=1, k_cov=2 + seed % 2, k_noncov=2,
        gather_width_cov=3, gather_width_noncov=4)


def toy_fusion_cfg(seed, mode):
    return FusionConfig(
        mode=mode, n_fusion_layers=3 + seed % 2, fusion_dense_nodes=5,
        activation=("relu", "selu", "leaky-relu")[seed % 3],
        model_specific_layers=bool(seed % 2),
        dropout_early=0.0, dropout_mid=0.0, dropout_late=0.0)


def toy_batch(seed, vcfg, gcfg, n=2):
    gen = complexes.GenParams(box_size=8.0, c_elem=1, n_protein=(8, 12),
                              n_ligand=(3, 5), noise_sigma=0.05)
    cxs = [complexes.generate_complex(seed * 100 + i, gen) for i in range(n)]
    items = models.featurize(cxs, vcfg, gcfg, box_size=8.0)
    vox = np.stack([it.grid.occupancy for it in items])
    gb = models.batch_graphs([it.graph for it in items])
    labels = np.array([it.label for it in items])
    return items, vox, gb, labels


def test_criterion_01_gradient_fidelity():
    """Finite-difference agreement for all four model types, 20 seeds each."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        vcfg, gcfg = toy_voxel_cfg(seed), toy_graph_cfg(seed)
        items, vox, gb, labels = toy_batch(seed, vcfg, gcfg)
        # offset keeps every toy instance away from relu/maxpool kinks,
        # where central differences are legitimately one-sided
        init_seed = seed + 4000
        rng = np.random.default_rng(init_seed)
        y = labels.reshape(-1, 1)

        # voxel head alone
        g = ValueGraph(training=False)
        tape = _Tape(g)
        tape.bind(models.init_voxel_params(vcfg, rng), "voxel", True)
        pred, _ = _voxel_tape(tape, vcfg, g.input(vox), {})
        loss = g.apply("mse-loss", [pred, g.input(y)])
        worst = max(worst, gradient_check(g, loss, 1e-5))

        # graph head alone
        g = ValueGraph(training=False)
        tape = _Tape(g)
        tape.bind(models.init_graph_params(gcfg, rng), "graph", True)
        pred, _ = _graph_tape(tape, gcfg, gb)
        loss = g.apply("mse-loss", [pred, g.input(y)])
        worst = max(worst, gradient_check(g, loss, 1e-5))

        # mid fusion (heads frozen) and coherent fusion (everything)
        for mode, freeze in (("mid", True), ("coherent", False)):
            m = FusionModel(vcfg, gcfg, toy_fusion_cfg(seed, mode),
                            seed=init_seed, heads_pretrained=True)
            g, _, loss, _ = m.build_tape(vox, gb, training=False,
                                         labels=labels, freeze_heads=freeze)
            worst = max(worst, gradient_check(g, loss, 1e-5))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 120.0
    report("criterion 1 gradient fidelity", ok,
           f"max rel error {worst:.3e} (< 1e-4), {elapsed:.1f}s (< 120s)")
    assert worst < 1e-4
    assert elapsed < 120.0


def test_criterion_02_fusion_semantics():
    """Late = exact mean; mid freezes heads bitwise; coherent moves them."""
    late_ok = mid_ok = coh_ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=8), rng.normal(size=8)
        late_ok &= np.array_equal(models.late_fusion_predict(a, b),
                                  (a + b) / 2.0)

        vcfg, gcfg = toy_voxel_cfg(seed), toy_graph_cfg(seed)
        items, _, _, _ = toy_batch(seed, vcfg, gcfg, n=8)
        opt = OptimizerConfig("adam", 1e-3)
        mid_cfg = FusionConfig(mode="mid", n_fusion_layers=3,
                               fusion_dense_nodes=5, optimizer=opt,
                               batch_size=4, epochs=2)
        m = FusionModel(vcfg, gcfg, mid_cfg, seed=seed,
                        heads_pretrained=True)
        before = {k: v.tobytes() for k, v in
                  {**{f"v/{k}": v for k, v in m.voxel_params.items()},
                   **{f"g/{k}": v for k, v in m.graph_params.items()}}.items()}
        models.train(m, items[:6], items[6:], mid_cfg, seed=seed)
        after = {k: v.tobytes() for k, v in
                 {**{f"v/{k}": v for k, v in m.voxel_params.items()},
                  **{f"g/{k}": v for k, v in m.graph_params.items()}}.items()}
        mid_ok &= before == after

        coh_cfg = FusionConfig(mode="coherent", n_fusion_layers=3,
                               fusion_dense_nodes=5, optimizer=opt,
                               batch_size=4, epochs=2)
        m2 = FusionModel(vcfg, gcfg, coh_cfg, seed=seed)
        head0 = {k: v.copy() for k, v in m2.voxel_params.items()}
        head0.update({f"g_{k}": v.copy() for k, v in m2.graph_params.items()})
        models.train(m2, items[:6], items[6:], coh_cfg, seed=seed)
        head1 = dict(m2.voxel_params)
        head1.update({f"g_{k}": v for k, v in m2.graph_params.items()})
        delta = math.sqrt(sum(float(((head1[k] - head0[k]) ** 2).sum())
                              for k in head0))
        coh_ok &= delta > 0.0
    ok = late_ok and mid_ok and coh_ok
    report("criterion 2 fusion semantics", ok,
           f"late exact mean {late_ok}, mid heads bitwise frozen {mid_ok}, "
           f"coherent heads moved {coh_ok} (10 seeds each)")
    assert late_ok and mid_ok and coh_ok


def test_criterion_03_learning_signal():
    """Coherent fusion recovers the planted label: R^2 > 0.3, 9/10 seeds."""
    t0 = time.perf_counter()
    gen = complexes.GenParams(box_size=16.0, c_elem=1, n_protein=(20, 40),
                              n_ligand=(5, 12), noise_sigma=0.05)
    vcfg = models.VoxelHeadConfig(grid_extent=8, in_channels=2,
                                  conv_filters_1=4, conv_filters_2=8,
                                  dense_nodes=32, kernel_1=3,
                                  dropout_early=0.0, dropout_mid=0.0)
    gcfg = models.GraphHeadConfig(c_elem=1, k_cov=2, k_noncov=2,
                                  gather_width_cov=16, gather_width_noncov=16)
    fcfg = FusionConfig(mode="coherent", n_fusion_layers=3,
                        fusion_dense_nodes=16, activation="relu",
                        optimizer=OptimizerConfig("adam", 5e-3),
                        batch_size=128, epochs=10)
    wins = 0
    r2s = []
    for seed in range(10):
        cxs = complexes.generate_dataset(2000, seed * 101, gen)
        items = models.featurize(cxs, vcfg, gcfg)
        tr, va = complexes.quintile_split(items, 0.15, seed=seed,
                                          key=lambda it: it.label,
                                          id_key=lambda it: id(it))
        m = FusionModel(vcfg, gcfg, fcfg, seed=seed)
        untrained_mse = models._eval_mse(
            lambda part: models._scores(m.build_tape(
                np.stack([it.grid.occupancy for it in part]),
                models.batch_graphs([it.graph for it in part]))), va)
        var = float(np.var([it.label for it in va]))
        m, history = models.train(m, tr, va, fcfg, seed=seed)
        best_mse = min(h["val_mse"] for h in history)
        r2 = 1.0 - best_mse / var
        r2s.append(r2)
        if r2 > 0.3 and best_mse < untrained_mse:
            wins += 1
    elapsed = time.perf_counter() - t0
    ok = wins >= 9 and elapsed < 600.0
    report("criterion 3 learning signal", ok,
           f"{wins}/10 seeds with R^2 > 0.3 and val MSE below untrained "
           f"(median R^2 {np.median(r2s):.2f}), {elapsed:.0f}s (< 600s)")
    assert wins >= 9
    assert elapsed < 600.0


def test_criterion_04_split_fidelity():
    """17,362 items at fraction 0.10: 1,731-1,737 held out, balanced."""
    t0 = time.perf_counter()

    class Item:
        __slots__ = ("complex_id", "label_pk")

        def __init__(self, i, v):
            self.complex_id = f"i{i:06d}"
            self.label_pk = v

    rng = np.random.default_rng(0)
    items = [Item(i, float(v))
             for i, v in enumerate(rng.normal(6, 2, size=17362))]
    train, val = complexes.quintile_split(items, 0.10, seed=0)
    order = sorted(items, key=lambda c: (c.label_pk, c.complex_id))
    pos = {c.complex_id: i for i, c in enumerate(order)}
    buckets = np.array_split(np.arange(17362), 5)
    bucket_of = {i: b for b in range(5) for i in buckets[b]}
    counts = np.zeros(5, dtype=int)
    for c in val:
        counts[bucket_of[pos[c.complex_id]]] += 1
    elapsed = time.perf_counter() - t0
    deviation = int(counts.max() - counts.min())
    ok = (1731 <= len(val) <= 1737 and deviation <= 1
          and len(train) + len(val) == 17362 and elapsed < 10.0)
    report("criterion 4 split fidelity", ok,
           f"{len(train)}/{len(val)} split, per-quintile counts "
           f"{counts.tolist()} (deviation {deviation} <= 1), {elapsed:.2f}s")
    assert 1731 <= len(val) <= 1737
    assert deviation <= 1
    assert len(train) + len(val) == 17362


def test_criterion_05_pb2_efficacy():
    """PB2 beats equal-budget random search; exploits clone bitwise."""
    space = pb2.HyperParamSpace((
        pb2.Dimension("learning_rate", "continuous", (1e-4, 1.0), "log"),
        pb2.Dimension("optimizer", "categorical", ("adam", "rmsprop")),
    ))
    cfg = pb2.Pb2Config(population_size=8, quantile_fraction=0.5, t_ready=5)
    budget = 50  # 10 perturbation intervals
    clone_ok = [True]
    clone_checks = [0]
    pb2_scores, rs_scores = [], []
    for seed in range(10):
        snapshots = {}
        inner = pb2.quadratic_trainable(optimum=1e-2, drift=0.002)

        def instrumented(trial, n):
            # a fresh clone carries its source epoch in the last lineage row
            if trial.lineage and trial.lineage[-1][0] == trial.epoch:
                epoch, src = trial.lineage[-1]
                want = snapshots.get((src, epoch))
                got = {k: v.tobytes() for k, v in trial.checkpoint.items()}
                clone_ok[0] &= want is not None and got == want
                clone_checks[0] += 1
            out = inner(trial, n)
            snapshots[(out.trial_id, out.epoch)] = {
                k: v.tobytes() for k, v in out.checkpoint.items()}
            return out

        best, _ = pb2.run_hpo(space, cfg, budget, instrumented, seed=seed)
        pb2_scores.append(best.best_score())
        rs_scores.append(pb2.random_search(
            space, cfg, budget, pb2.quadratic_trainable(optimum=1e-2,
                                                        drift=0.002),
            seed=seed))
    med_pb2 = float(np.median(pb2_scores))
    med_rs = float(np.median(rs_scores))
    ok = med_pb2 <= med_rs and clone_ok[0] and clone_checks[0] > 0
    report("criterion 5 pb2 efficacy", ok,
           f"median best score pb2 {med_pb2:.4g} <= random {med_rs:.4g} "
           f"over 10 paired seeds, {clone_checks[0]} exploit clones all "
           f"bitwise {clone_ok[0]}")
    assert med_pb2 <= med_rs
    assert clone_ok[0]
    assert clone_checks[0] > 0


def test_criterion_06_screening_exactly_once(tmp_path):
    """20 seeded campaigns: outputs = inputs minus logged corruption."""
    all_ok = True
    detail = ""
    for seed in range(20):
        lib = [harness.PoseRecord(f"c{i // 10:05d}", "t0", i % 10)
               for i in range(10000)]
        plan = harness.FaultPlan(record_corruption_rate=0.001,
                                 job_failure_rate=0.05, seed=seed)
        out = tmp_path / f"campaign_{seed:02d}"
        preds, rep = harness.run_campaign(
            lib, harness.SyntheticScorer(), n_jobs=10, plan=plan,
            out_dir=out, parallelism=4, retries=3, ranks_per_job=4)
        keys = [f"{r.compound_id}/{r.target_id}/{r.pose_id}" for r in preds]
        corrupt = {k for k, _ in rep.corrupted}
        expected = {harness.pose_key(p) for p in lib} - corrupt
        shard_jobs = {int(p.name.split("_")[1])
                      for p in out.glob("shard_*.jsonl")}
        campaign_ok = (rep.complete
                       and len(keys) == len(set(keys))
                       and set(keys) == expected
                       and shard_jobs == set(rep.succeeded))
        if not campaign_ok and not detail:
            detail = f" (first failure at seed {seed})"
        all_ok &= campaign_ok
    report("criterion 6 screening exactly-once", all_ok,
           f"20 campaigns x 10,000 poses: zero duplicates, outputs = inputs "
           f"minus corrupt records, no shards from failed jobs{detail}")
    assert all_ok


def test_criterion_07_strong_scaling():
    """4 worker groups <= 0.35x one group; batch 12 vs 56 within 15%."""
    rows = harness.scaling_experiment(
        n_poses=2000, worker_groups=[1, 4], batch_sizes=[12, 56],
        per_pose_s=1e-3, per_batch_s=1e-3)
    t = {(r["worker_groups"], r["batch_size"]): r["wall_s"] for r in rows}
    scaling = t[(4, 56)] / t[(1, 56)]
    batch_diff = abs(t[(1, 12)] - t[(1, 56)]) / t[(1, 56)]
    ok = scaling <= 0.35 and batch_diff <= 0.15
    report("criterion 7 strong scaling", ok,
           f"4-group/1-group time ratio {scaling:.2f} (<= 0.35), "
           f"batch 12 vs 56 difference {100 * batch_diff:.1f}% (<= 15%)")
    assert scaling <= 0.35
    assert batch_diff <= 0.15


def test_criterion_08_throughput_identities():
    """Reported rates are exact identities; the 108/s inconsistency is
    flagged in the README rather than silently reconciled."""
    rep = harness.throughput_report(30.0, 100.0, 10.0, n_poses=10800,
                                    n_compounds=1080)
    identity_ok = (rep.poses_per_second == 108.0
                   and rep.poses_per_hour == 3600.0 * rep.poses_per_second
                   and rep.poses_per_hour == 388800.0
                   and rep.compounds_per_hour
                   == rep.poses_per_hour / (10800 / 1080))
    readme = (REPO_ROOT / "README.md").read_text()
    documented = "338,800" in readme and "388,800" in readme
    ok = identity_ok and documented
    report("criterion 8 throughput identities", ok,
           f"108/s -> 388,800/h identity exact {identity_ok}, published "
           f"338,800/h inconsistency documented in README {documented}")
    assert identity_ok
    assert documented


def test_criterion_09_metric_oracles():
    """Brute-force agreement to 1e-12 on 100 random instances."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 80))
        pred = rng.normal(5, 2, size=n)
        true = rng.normal(5, 2, size=n)
        m = evaluate.regression_metrics(pred, true)
        rmse = math.sqrt(sum((a - b) ** 2 for a, b in zip(pred, true)) / n)
        mae = sum(abs(a - b) for a, b in zip(pred, true)) / n
        worst = max(worst, abs(m.rmse - rmse), abs(m.mae - mae))

        def brute_pearson(x, y):
            mx, my = sum(x) / len(x), sum(y) / len(y)
            num = sum((a - mx) * (b - my) for a, b in zip(x, y))
            den = math.sqrt(sum((a - mx) ** 2 for a in x)
                            * sum((b - my) ** 2 for b in y))
            return num / den

        worst = max(worst, abs(m.pearson_r - brute_pearson(pred, true)))

        labels_true = (true > 6.0).astype(int)
        labels_pred = (pred > 6.0).astype(int)
        tp = int(((labels_pred == 1) & (labels_true == 1)).sum())
        fp = int(((labels_pred == 1) & (labels_true == 0)).sum())
        fn = int(((labels_pred == 0) & (labels_true == 1)).sum())
        tn = n - tp - fp - fn
        c = evaluate.confusion(labels_pred, labels_true)
        if tp + fp:
            worst = max(worst, abs(c.precision - tp / (tp + fp)))
        if tp + fn:
            worst = max(worst, abs(c.recall - tp / (tp + fn)))
        if tp + fp and tp + fn and c.f1 is not None:
            p, r = tp / (tp + fp), tp / (tp + fn)
            if p + r:
                worst = max(worst, abs(c.f1 - 2 * p * r / (p + r)))
        po = (tp + tn) / n
        pe = ((tp + fp) * (tp + fn) + (tn + fn) * (tn + fp)) / n ** 2
        if pe != 1.0:
            worst = max(worst,
                        abs(evaluate.cohen_kappa(labels_pred, labels_true)
                            - (po - pe) / (1 - pe)))
    rng2 = np.random.default_rng(1)
    true = rng2.integers(0, 2, size=10000)
    pred = rng2.permutation(true)
    random_kappa = evaluate.cohen_kappa(pred, true)
    ok = worst < 1e-12 and abs(random_kappa) < 0.05
    report("criterion 9 metric oracles", ok,
           f"max |metric - brute force| {worst:.2e} (< 1e-12) over 100 "
           f"instances, random-classifier kappa {random_kappa:+.4f} (|.| < 0.05)")
    assert worst < 1e-12
    assert abs(random_kappa) < 0.05


def test_criterion_10_best_pose_aggregation():
    """Best-pose aggregation matches a nested-loop oracle, both directions."""

    class R:
        def __init__(self, c, t, p, s):
            self.compound_id, self.target_id = c, t
            self.pose_id, self.predicted_pk = p, s

    rng = np.random.default_rng(3)
    ok = True
    for trial in range(20):
        recs = []
        for c in range(int(rng.integers(5, 30))):
            for p in range(int(rng.integers(1, 11))):
                # coarse scores force plenty of ties
                recs.append(R(f"c{c}", f"t{rng.integers(0, 3)}", p,
                              float(np.round(rng.normal(5, 2), 1))))
        for direction in ("max", "min"):
            got = evaluate.aggregate_best_pose(recs, direction)
            oracle = {}
            for r in recs:
                key = (r.compound_id, r.target_id)
                cur = oracle.get(key)
                take = cur is None
                if cur is not None:
                    if direction == "max":
                        take = (r.predicted_pk > cur[1]
                                or (r.predicted_pk == cur[1]
                                    and r.pose_id < cur[0]))
                    else:
                        take = (r.predicted_pk < cur[1]
                                or (r.predicted_pk == cur[1]
                                    and r.pose_id < cur[0]))
                if take:
                    oracle[key] = (r.pose_id, r.predicted_pk)
            ok &= got == oracle
    report("criterion 10 best-pose aggregation", ok,
           "20 randomized record sets (<= 10 poses per group), nested-loop "
           "oracle matched exactly for max and min directions")
    assert ok
