"""The benchmark's workloads: screen, train and campaign.

Each workload runs the whole pipeline -- fit a model, screen a library into
shards, evaluate the shards -- at an operating point where one stage
dominates.  Every stage therefore exists on every workload, so every
end-to-end metric is measured on every workload, and the workload's sizes
decide which layer carries the load.  All inputs come from the seed.

A round is a fixed list of operations.  Timed regions hold only calls into
fusionscreen; the checks run after them, outside the timing and the trace.
"""

from __future__ import annotations

import copy
import gc
import math
import shutil
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from fusionscreen import complexes, evaluate, harness, models
from fusionscreen.autodiff import gradient_check
from fusionscreen.models import (FusionConfig, FusionModel, GraphHeadConfig,
                                 VoxelHeadConfig)
from fusionscreen.optim import OptimizerConfig

import checks

CUTOFF = 6.0          # pK above which a compound counts as active
WORKERS = 2           # campaign threads; BLAS runs one thread each

# The learning-signal configuration of the acceptance suite (criterion 3).
SMALL_GEN = complexes.GenParams(box_size=16.0, c_elem=1, n_protein=(20, 40),
                                n_ligand=(5, 12), noise_sigma=0.05)
SMALL_VOXEL = VoxelHeadConfig(grid_extent=8, in_channels=2, conv_filters_1=4,
                              conv_filters_2=8, dense_nodes=32, kernel_1=3,
                              dropout_early=0.0, dropout_mid=0.0)
SMALL_GRAPH = GraphHeadConfig(c_elem=1, k_cov=2, k_noncov=2,
                              gather_width_cov=16, gather_width_noncov=16)


def small_fusion(epochs: int) -> FusionConfig:
    return FusionConfig(mode="coherent", n_fusion_layers=3,
                        fusion_dense_nodes=16, activation="relu",
                        optimizer=OptimizerConfig("adam", 5e-3),
                        batch_size=128, epochs=epochs)


class Run:
    """Operation counts, samples and problems of one process."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples = defaultdict(list)
        self.sampling = True        # off once the sampled rounds are done
        self.pairs: list[tuple[float, float]] = []   # (untraced, traced) s

    def sample(self, metric: str, value: float) -> None:
        if self.sampling:
            self.samples[metric].append(value)

    def timed(self, fn, prepare=tuple):
        """Runs ``fn(*prepare())`` as one timed operation and returns its
        result and its untraced seconds; ``prepare`` runs outside the timing.

        With a tracer the operation runs twice back to back, untraced and
        traced, in alternating order, so that both times of a pair are taken
        at one speed of the machine.  The later run's result is returned.
        """
        if self.tracer is None:
            return self._once(fn, prepare)
        order = (False, True) if len(self.pairs) % 2 == 0 else (True, False)
        seconds = {}
        for traced in order:
            if traced:
                self.tracer.install()
            try:
                out, seconds[traced] = self._once(fn, prepare)
            finally:
                if traced:
                    self.tracer.uninstall()
        self.pairs.append((seconds[False], seconds[True]))
        return out, seconds[False]

    @staticmethod
    def _once(fn, prepare):
        """Each timing starts from an empty young generation, so collector
        work inside it depends only on what the operation allocates."""
        args = prepare()
        gc.collect()
        t0 = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - t0

    def finish(self, op: str, problems, fault_problems=()) -> None:
        """Counts one operation.  ``problems`` make the run incorrect;
        ``fault_problems`` come from a known fault and count it failed."""
        self.attempted += 1
        self.failed += bool(fault_problems)
        self.problems.extend(f"{op}: {p}" for p in problems)

    def campaign(self, library, scorer, n_jobs, out_dir, prepare=None,
                 sample=True, **kwargs):
        """One ``run_campaign`` call into ``out_dir``, timed from outside.
        ``prepare`` readies the directory; by default it is emptied."""
        def op():
            return harness.run_campaign(library, scorer, n_jobs,
                                        out_dir=out_dir, parallelism=WORKERS,
                                        **kwargs)

        (preds, report), seconds = self.timed(
            op, prepare or (lambda: remove_tree(out_dir)))
        if sample:
            self.sample("poses_per_s", len(preds) / seconds)
        return preds, report


@dataclass
class Evaluation:
    out_dir: Path
    records: list
    best: dict
    regression: evaluate.RegressionMetrics
    kappa: float | None
    f1_best: float | None


def evaluate_campaign(out_dir, truth: dict) -> Evaluation:
    """Shards on disk -> best pose per compound -> metrics against truth."""
    records = harness.load_shards(out_dir)
    best = evaluate.aggregate_best_pose(records)
    keys = sorted(best)
    pred = np.array([best[k][1] for k in keys])
    true = np.array([truth[k[0]] for k in keys])
    regression = evaluate.regression_metrics(pred, true)
    true_labels = evaluate.binarize(true, CUTOFF)
    kappa = evaluate.cohen_kappa(evaluate.binarize(pred, CUTOFF), true_labels)
    f1_best = evaluate.pr_curve(pred, true_labels)[3]
    return Evaluation(Path(out_dir), records, best, regression, kappa, f1_best)


def remove_tree(path) -> tuple:
    shutil.rmtree(path, ignore_errors=True)
    return ()


def copy_tree(src, dst) -> tuple:
    remove_tree(dst)
    shutil.copytree(src, dst)
    return ()


def in_memory_exactly_once(keys, preds, report) -> list[str]:
    scored = [checks.pose_key(p.compound_id, p.target_id, p.pose_id)
              for p in preds]
    return checks.exactly_once(keys, scored, [k for k, _ in report.corrupted])


def dataset_round_trip(path: Path, cxs):
    complexes.save_dataset(path, cxs)
    return complexes.load_dataset(path)[0]


def model_round_trip(path: Path, model: FusionModel) -> FusionModel:
    model.save(path)
    return FusionModel.load(path)


class Workload:
    """Set-up builds every input; ``round`` runs one list of operations."""

    setups = 4           # even: half before the rounds, half after
    # Samples are taken in the first ``sample_rounds`` rounds only, so every
    # run reports the median of the same number of samples; a run always
    # does at least that many rounds.
    sample_rounds = 1
    # Each campaign is followed by ``eval_blocks`` timed blocks of
    # ``eval_repeats`` evaluations.  Short screens repeat within a round, so
    # that samples come from several moments of a run: on the shared VM the
    # benchmark was tuned on, the machine's speed switched between two
    # levels for seconds at a time.
    eval_repeats = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        # Check references, computed once: every set-up rebuilds the same
        # inputs from the seed.
        self.reference = None
        self.untrained_mse = None

    @cached_property
    def keys(self) -> list[str]:
        """Pose keys of the library, for the exactly-once checks."""
        return [checks.pose_key(p.compound_id, p.target_id, p.pose_id)
                for p in self.library]

    def fit(self, run: Run, train_items, val_items, cfg: FusionConfig):
        def op(model):
            return models.train(model, train_items, val_items, cfg,
                                seed=self.seed)

        (model, history), seconds = run.timed(
            op, lambda: (copy.deepcopy(self.model),))
        run.sample("train_samples_per_s",
                   cfg.epochs * len(train_items) / seconds)
        return model, history

    def evaluate(self, run: Run, out_dir, blocks: int, repeats: int) -> None:
        """Evaluates the shards ``repeats`` times in each of ``blocks`` timed
        blocks, one eval_s sample per block, and checks the last result."""
        def block():
            for _ in range(repeats):
                ev = evaluate_campaign(out_dir, self.truth)
            return ev

        for _ in range(blocks):
            ev, seconds = run.timed(block)
            run.sample("eval_s", seconds / repeats)
        problems = checks.check_evaluation(ev, self.truth, CUTOFF)
        for _ in range(blocks * repeats):
            run.finish("evaluate", problems)

    def final_checks(self, run: Run) -> None:
        pass


class Screen(Workload):
    """A paper-sized coherent model, loaded from a checkpoint, screens
    several poses per compound through ``ModelScorer``.  Each screen follows
    a short fine-tune, so that fine-tune samples come from as many moments
    of a run as screen samples do."""

    setups, sample_rounds = 16, 2
    # Many short operations, so that the median of a run's samples draws on
    # many moments of it.
    screens, eval_blocks, eval_repeats = 4, 5, 20
    compounds, poses = 8, 4
    jobs, ranks, batch = 2, 2, 8
    fine_tune_items, fine_tune_batch = 2, 2

    def setup(self) -> None:
        n = self.compounds * self.poses
        cxs = dataset_round_trip(self.work / "library.jsonl",
                                 complexes.generate_dataset(n, self.seed))
        vcfg, gcfg = VoxelHeadConfig(), GraphHeadConfig()
        items = models.featurize(cxs, vcfg, gcfg)
        self.model = model_round_trip(
            self.work / "model.npz",
            FusionModel(vcfg, gcfg, FusionConfig(), seed=self.seed))
        self.library = [harness.PoseRecord(f"cpd{i // self.poses:05d}", "t0",
                                           i % self.poses,
                                           (it.grid, it.graph))
                        for i, it in enumerate(items)]
        self.truth = {}
        for p, it in zip(self.library, items):
            self.truth[p.compound_id] = max(self.truth.get(p.compound_id,
                                                           -math.inf), it.label)
        k = self.fine_tune_items
        self.fine_tune = (items[:k], items[k:k + 2])

    def round(self, run: Run) -> None:
        cfg = FusionConfig(batch_size=self.fine_tune_batch, epochs=1)
        out = self.work / "campaign"
        for _ in range(self.screens):
            _, history = self.fit(run, *self.fine_tune, cfg)
            run.finish("fine-tune", [] if finite_history(history)
                       else ["non-finite training history"])
            preds, report = run.campaign(self.library,
                                         harness.ModelScorer(self.model),
                                         self.jobs, out,
                                         ranks_per_job=self.ranks,
                                         batch_size=self.batch)
            run.finish("screen", self.check_screen(preds, report, out))
            self.evaluate(run, out, self.eval_blocks, self.eval_repeats)

    def check_screen(self, preds, report, out) -> list[str]:
        problems = in_memory_exactly_once(self.keys, preds, report)
        problems += checks.on_disk_exactly_once(out, self.keys)
        if self.reference is None:
            self.reference = single_pose_predictions(self.model, self.library)
        for row in checks.read_shards(out):
            key = checks.pose_key(row["compound_id"], row["target_id"],
                                  row["pose_id"])
            value = row["predicted_pk"]
            if not math.isfinite(value):
                problems.append(f"{key}: non-finite prediction {value}")
            elif abs(value - self.reference[key]) > 1e-9:
                problems.append(f"{key}: batched {value!r} vs single-pose "
                                f"{self.reference[key]!r}")
        return problems


class Train(Workload):
    """Coherent fusion training at the learning-signal configuration, then
    screening and evaluation of all its complexes with the trained model."""

    count, holdout, epochs = 2000, 0.15, 2
    # Each fit is followed by its screens.  Two fits and six screens keep a
    # round above 15 s even when the machine runs fast, so a 10 s run always
    # does one round.
    fits, screens, eval_blocks = 2, 3, 3
    jobs, ranks, batch = 2, 2, 56

    def setup(self) -> None:
        cxs = dataset_round_trip(
            self.work / "dataset.jsonl",
            complexes.generate_dataset(self.count, self.seed, SMALL_GEN))
        train_cx, val_cx = complexes.quintile_split(cxs, self.holdout,
                                                    seed=self.seed)
        self.train_items = models.featurize(train_cx, SMALL_VOXEL, SMALL_GRAPH)
        self.val_items = models.featurize(val_cx, SMALL_VOXEL, SMALL_GRAPH)
        self.model = model_round_trip(
            self.work / "model.npz",
            FusionModel(SMALL_VOXEL, SMALL_GRAPH, small_fusion(self.epochs),
                        seed=self.seed))
        self.library = [harness.PoseRecord(c.complex_id, "t0", 0,
                                           (it.grid, it.graph))
                        for c, it in zip(train_cx + val_cx,
                                         self.train_items + self.val_items)]
        self.truth = {c.complex_id: c.label_pk for c in cxs}

    def round(self, run: Run) -> None:
        for _ in range(self.fits):
            self.fit_and_screen(run)

    def fit_and_screen(self, run: Run) -> None:
        model, history = self.fit(run, self.train_items, self.val_items,
                                  small_fusion(self.epochs))
        run.finish("train", self.check_training(history))

        out = self.work / "campaign"
        for _ in range(self.screens):
            preds, report = run.campaign(self.library,
                                         harness.ModelScorer(model), self.jobs,
                                         out, ranks_per_job=self.ranks,
                                         batch_size=self.batch)
            problems = in_memory_exactly_once(self.keys, preds, report)
            problems += checks.on_disk_exactly_once(out, self.keys)
            problems += [f"non-finite prediction {p.predicted_pk}" for p
                         in preds if not math.isfinite(p.predicted_pk)]
            run.finish("screen", problems)
            self.evaluate(run, out, self.eval_blocks, self.eval_repeats)

    def check_training(self, history) -> list[str]:
        if not finite_history(history):
            return ["non-finite training history"]
        if self.untrained_mse is None:
            preds = self.model.predict_batch(
                [(it.grid, it.graph) for it in self.val_items])[0]
            labels = np.array([it.label for it in self.val_items])
            self.untrained_mse = float(np.mean((np.array(preds) - labels) ** 2))
        best = min(h["val_mse"] for h in history)
        if not best < self.untrained_mse:
            return [f"best validation MSE {best} not below untrained "
                    f"{self.untrained_mse}"]
        return []

    def final_checks(self, run: Run) -> None:
        worst = tiny_gradient_check()
        if not worst < 1e-4:
            run.problems.append(f"gradient check: relative error {worst:.3e}")


class Campaign(Workload):
    """A fault-injected ``SyntheticScorer`` campaign at 16k compounds x 10
    poses, evaluated at n = 16k, then re-run into a copy of its directory
    with a different job count.  The fit and the evaluation run at the start
    and at the end of the round, so that their samples come from two
    moments of a run."""

    setups = 10
    compounds, poses = 16000, 10
    jobs, rerun_jobs, retries = 40, 25, 5
    fit_count, fit_holdout, fit_epochs = 480, 0.2, 2

    def setup(self) -> None:
        self.library = [harness.PoseRecord(f"cpd{i // self.poses:06d}", "t0",
                                           i % self.poses)
                        for i in range(self.compounds * self.poses)]
        rng = np.random.default_rng(self.seed)
        pk = np.clip(rng.normal(6.0, 1.5, self.compounds), 0.0, 12.0)
        self.truth = {f"cpd{i:06d}": float(v) for i, v in enumerate(pk)}
        self.plan = harness.FaultPlan(record_corruption_rate=0.001,
                                      rank_failure_rate=0.05,
                                      job_failure_rate=0.05, seed=self.seed)
        cxs = dataset_round_trip(
            self.work / "fit.jsonl",
            complexes.generate_dataset(self.fit_count, self.seed, SMALL_GEN))
        train_cx, val_cx = complexes.quintile_split(cxs, self.fit_holdout,
                                                    seed=self.seed)
        self.fit_sets = (models.featurize(train_cx, SMALL_VOXEL, SMALL_GRAPH),
                         models.featurize(val_cx, SMALL_VOXEL, SMALL_GRAPH))
        self.model = model_round_trip(
            self.work / "model.npz",
            FusionModel(SMALL_VOXEL, SMALL_GRAPH, small_fusion(self.fit_epochs),
                        seed=self.seed))

    def round(self, run: Run) -> None:
        self.fit_once(run)
        out, rerun = self.work / "campaign", self.work / "rerun"
        scorer = harness.SyntheticScorer(seed=self.seed)
        kwargs = dict(plan=self.plan, retries=self.retries)
        preds, report = run.campaign(self.library, scorer,
                                     self.jobs, out, **kwargs)
        problems = in_memory_exactly_once(self.keys, preds, report)
        problems += checks.on_disk_exactly_once(out, self.keys)
        run.finish("campaign", problems)

        self.evaluate(run, out, 1, 1)

        # The re-run writes its layout into a copy of the first campaign's
        # directory.  Its own files, as its manifests list them, must hold
        # every pose once.  Files of the first layout stay beside them (a
        # known fault), so the re-run is counted failed while any remain.
        preds, report = run.campaign(self.library, scorer, self.rerun_jobs,
                                     rerun, lambda: copy_tree(out, rerun),
                                     sample=False, **kwargs)
        problems = in_memory_exactly_once(self.keys, preds, report)
        own, stale = checks.layout_exactly_once(rerun, self.keys,
                                                self.rerun_jobs)
        run.finish("re-run", problems + own,
                   [f"{len(stale)} files of an earlier layout left beside "
                    f"the re-run's: {stale[0]} .. {stale[-1]}"] if stale
                   else [])

        self.evaluate(run, out, 1, 1)
        self.fit_once(run)

    def fit_once(self, run: Run) -> None:
        _, history = self.fit(run, *self.fit_sets,
                              small_fusion(self.fit_epochs))
        run.finish("fit", [] if finite_history(history)
                   else ["non-finite training history"])


WORKLOADS = {"screen": Screen, "train": Train, "campaign": Campaign}


def finite_history(history) -> bool:
    return bool(history) and all(math.isfinite(h["train_mse"])
                                 and math.isfinite(h["val_mse"])
                                 for h in history)


def single_pose_predictions(model, library) -> dict:
    """``predict_batch`` on each pose alone, over ``WORKERS`` threads."""
    def one(p):
        pred = model.predict_batch([p.payload])[0][0]
        return checks.pose_key(p.compound_id, p.target_id, p.pose_id), pred

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        return dict(pool.map(one, library))


def tiny_gradient_check() -> float:
    """Gradient check of the coherent tape at the learning-signal layer
    layout with narrow widths, on two fixed complexes."""
    vcfg = VoxelHeadConfig(grid_extent=8, in_channels=2, conv_filters_1=2,
                           conv_filters_2=2, dense_nodes=8, kernel_1=3,
                           dropout_early=0.0, dropout_mid=0.0)
    gcfg = GraphHeadConfig(c_elem=1, k_cov=2, k_noncov=2,
                           gather_width_cov=3, gather_width_noncov=4)
    fcfg = FusionConfig(mode="coherent", n_fusion_layers=3,
                        fusion_dense_nodes=4, activation="relu")
    items = models.featurize(complexes.generate_dataset(2, 0, SMALL_GEN),
                             vcfg, gcfg)
    model = FusionModel(vcfg, gcfg, fcfg, seed=0)
    vox = np.stack([it.grid.occupancy for it in items])
    graphs = models.batch_graphs([it.graph for it in items])
    g, _, loss, _ = model.build_tape(vox, graphs, training=False,
                                     labels=[it.label for it in items])
    return gradient_check(g, loss, 1e-5)
