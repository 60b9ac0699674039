"""Command-line entry points: gen, train, hpo, screen, eval, report.

Every run writes a ``run_manifest.json`` into its output directory recording
the command, resolved arguments, a hash of the effective configuration, the
seed, and the artifact paths.  Wall-clock timings go to a separate
``timings.json`` so result files never mix in machine-dependent numbers.

Exit codes: 0 success, 1 bad usage or invalid arguments, 2 a stage failed,
3 the run completed but left gaps (a screen with abandoned pose ranges).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, complexes, evaluate, harness, models, pb2
from .optim import Optimizer, OptimizerConfig

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STAGE_FAILED = 2
EXIT_INCOMPLETE = 3


class UsageError(ValueError):
    pass


class IncompleteRun(RuntimeError):
    pass


def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_manifest(out_dir: Path, command: str, args: dict,
                    artifacts: list[str], timings: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    args = {k: v for k, v in args.items() if not callable(v)}
    manifest = {
        "tool": "fusionscreen",
        "version": __version__,
        "command": command,
        "arguments": args,
        "config_hash": _config_hash({"command": command, **args}),
        "seed": args.get("seed"),
        "artifacts": artifacts,
    }
    with open(out_dir / "run_manifest.json", "w") as f:
        json.dump(manifest, f, indent=2)
    with open(out_dir / "timings.json", "w") as f:
        json.dump(timings, f, indent=2)


def _featurize_dataset(cxs, voxel_cfg, graph_cfg):
    if not cxs:
        raise UsageError("dataset is empty")
    box = cxs[0].meta.get("gen_params", {}).get("box_size", 16.0)
    return models.featurize(cxs, voxel_cfg, graph_cfg, box_size=box)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    out = Path(args.out)
    gp = complexes.GenParams(box_size=args.box_size, c_elem=args.c_elem,
                             noise_sigma=args.noise_sigma)
    t0 = time.perf_counter()
    cxs = complexes.generate_dataset(args.count, args.seed, gp)
    train, holdout = complexes.quintile_split(cxs, args.holdout_fraction,
                                              seed=args.seed)
    tags = {c.complex_id: "train" for c in train}
    tags.update({c.complex_id: "holdout" for c in holdout})
    out.mkdir(parents=True, exist_ok=True)
    data_path = out / "dataset.jsonl"
    complexes.save_dataset(data_path, cxs, tags)
    elapsed = time.perf_counter() - t0
    _write_manifest(out, "gen", vars(args) | {"out": str(out)},
                    [data_path.name], {"generate_s": elapsed})
    print(f"generated {len(cxs)} complexes "
          f"({len(train)} train / {len(holdout)} holdout) -> {data_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _load_split(path):
    cxs, tags = complexes.load_dataset(path)
    train = [c for c in cxs if tags.get(c.complex_id, "train") == "train"]
    holdout = [c for c in cxs if tags.get(c.complex_id) == "holdout"]
    if not holdout:
        train, holdout = complexes.quintile_split(train, 0.1)
    if not holdout:
        # tiny dataset: quintile rounding left nothing, slice a tail instead
        n = max(2, len(train) // 10)
        train, holdout = train[:-n], train[-n:]
    return train, holdout


def cmd_train(args) -> int:
    out = Path(args.out)
    train_cx, val_cx = _load_split(args.data)
    if args.preset == "mid":
        fusion_cfg = models.table_mid_fusion_config()
    elif args.preset == "coherent":
        fusion_cfg = models.table_coherent_fusion_config()
    elif args.mode in ("voxel", "graph"):
        # head training borrows the schedule fields from a default config
        fusion_cfg = models.FusionConfig(mode="coherent")
    else:
        fusion_cfg = models.FusionConfig(mode=args.mode)
    overrides = {}
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.batch_size is not None:
        overrides["batch_size"] = args.batch_size
    if args.learning_rate is not None:
        overrides["optimizer"] = OptimizerConfig(
            fusion_cfg.optimizer.kind, args.learning_rate,
            fusion_cfg.optimizer.coefficients)
    if overrides:
        from dataclasses import replace
        fusion_cfg = replace(fusion_cfg, **overrides)

    voxel_cfg = models.VoxelHeadConfig(grid_extent=args.grid_extent,
                                       in_channels=2 * args.c_elem)
    graph_cfg = models.GraphHeadConfig(c_elem=args.c_elem)
    train_items = _featurize_dataset(train_cx, voxel_cfg, graph_cfg)
    val_items = _featurize_dataset(val_cx, voxel_cfg, graph_cfg)

    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    artifacts = []
    if args.mode in ("voxel", "graph"):
        rng = np.random.default_rng(args.seed)
        if args.mode == "voxel":
            params = models.init_voxel_params(voxel_cfg, rng)
            cfg = voxel_cfg
        else:
            params = models.init_graph_params(graph_cfg, rng)
            cfg = graph_cfg
        params, history = models.train_head(
            args.mode, params, cfg, train_items, val_items,
            epochs=fusion_cfg.epochs, batch_size=fusion_cfg.batch_size,
            optimizer_cfg=fusion_cfg.optimizer, seed=args.seed)
        ckpt = out / f"{args.mode}_head.ckpt.npz"
        from .checkpoint import save_checkpoint
        from dataclasses import asdict
        save_checkpoint(ckpt, params, None,
                        {"model": f"{args.mode}-head", "cfg": asdict(cfg)})
        artifacts.append(ckpt.name)
    else:
        model = models.FusionModel(voxel_cfg, graph_cfg, fusion_cfg,
                                   seed=args.seed,
                                   heads_pretrained=bool(args.voxel_ckpt))
        if args.voxel_ckpt or args.graph_ckpt:
            if not (args.voxel_ckpt and args.graph_ckpt):
                raise UsageError("mid fusion needs both head checkpoints")
            from .checkpoint import load_checkpoint
            vp, _, _ = load_checkpoint(args.voxel_ckpt)
            gp, _, _ = load_checkpoint(args.graph_ckpt)
            model.voxel_params.update(
                {k: np.asarray(v) for k, v in vp.items()})
            model.graph_params.update(
                {k: np.asarray(v) for k, v in gp.items()})
            model.heads_pretrained = True
        if args.mode == "late":
            raise UsageError("late fusion is inference-only; train the heads")
        model, history = models.train(model, train_items, val_items,
                                      fusion_cfg, seed=args.seed)
        ckpt = out / "fusion.ckpt.npz"
        model.save(ckpt)
        artifacts.append(ckpt.name)
    elapsed = time.perf_counter() - t0
    hist_path = out / "history.json"
    with open(hist_path, "w") as f:
        json.dump(history, f, indent=2)
    artifacts.append(hist_path.name)
    _write_manifest(out, "train", vars(args) | {"out": str(out)},
                    artifacts, {"train_s": elapsed})
    final = history[-1] if history else {}
    print(f"trained {args.mode} for {len(history)} epochs; "
          f"final val MSE {final.get('val_mse', float('nan')):.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# hpo
# ---------------------------------------------------------------------------

_SPACE_PRESETS = {
    "fusion": pb2.fusion_search_space,
    "graph-head": pb2.graph_head_search_space,
    "voxel-head": pb2.voxel_head_search_space,
}


def cmd_hpo(args) -> int:
    out = Path(args.out)
    if args.space in _SPACE_PRESETS:
        space = _SPACE_PRESETS[args.space]()
    else:
        space = pb2.HyperParamSpace.from_json(Path(args.space).read_text())
    cfg = pb2.Pb2Config(population_size=args.population,
                        quantile_fraction=args.quantile,
                        t_ready=args.t_ready)
    trainable = pb2.quadratic_trainable()
    t0 = time.perf_counter()
    best, history = pb2.run_hpo(space, cfg, args.budget, trainable,
                                seed=args.seed)
    elapsed = time.perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "hpo_log.json", "w") as f:
        json.dump(history, f, indent=2, default=str)
    with open(out / "best_config.json", "w") as f:
        json.dump({"config": best.config, "score": best.best_score(),
                   "epoch": best.epoch, "lineage": best.lineage},
                  f, indent=2, default=str)
    _write_manifest(out, "hpo", vars(args) | {"out": str(out)},
                    ["hpo_log.json", "best_config.json"],
                    {"hpo_s": elapsed})
    print(f"hpo done: best score {best.best_score():.6g} "
          f"after {best.epoch} epochs")
    return EXIT_OK


# ---------------------------------------------------------------------------
# screen
# ---------------------------------------------------------------------------

def cmd_screen(args) -> int:
    out = Path(args.out)
    cxs, _ = complexes.load_dataset(args.library)
    if args.model:
        model = models.FusionModel.load(args.model)
        items = _featurize_dataset(cxs, model.voxel_cfg, model.graph_cfg)
        library = [harness.PoseRecord(c.complex_id, args.target, 0,
                                      (it.grid, it.graph))
                   for c, it in zip(cxs, items)]
        scorer = harness.ModelScorer(model)
    else:
        library = [harness.PoseRecord(c.complex_id, args.target, 0)
                   for c in cxs]
        scorer = harness.SyntheticScorer(seed=args.seed)
    plan = harness.FaultPlan(
        record_corruption_rate=args.corruption_rate,
        rank_failure_rate=args.rank_failure_rate,
        job_failure_rate=args.job_failure_rate,
        seed=args.fault_seed)
    t0 = time.perf_counter()
    preds, report = harness.run_campaign(
        library, scorer, n_jobs=args.jobs, plan=plan, out_dir=out,
        parallelism=args.parallelism, retries=args.retries,
        ranks_per_job=args.ranks, batch_size=args.batch_size,
        loaders_per_rank=args.loaders)
    elapsed = time.perf_counter() - t0
    _write_manifest(out, "screen", vars(args) | {"out": str(out)},
                    [harness.MANIFEST_NAME],
                    {"campaign_s": elapsed, **report.timings})
    print(f"screened {len(preds)}/{len(library)} poses in {args.jobs} jobs; "
          f"{len(report.corrupted)} corrupted, "
          f"{len(report.abandoned)} jobs abandoned")
    if not report.complete:
        raise IncompleteRun(
            f"missing ranges: {json.dumps(report.missing_ranges)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    out = Path(args.out)
    preds = harness.load_shards(args.predictions)
    if not preds:
        raise UsageError(f"no shards under {args.predictions}")
    cxs, _ = complexes.load_dataset(args.truth)
    truth = {c.complex_id: c.label_pk for c in cxs}
    best = evaluate.aggregate_best_pose(preds)
    keys = sorted(k for k in best if k[0] in truth)
    if not keys:
        raise UsageError("no overlap between predictions and truth")
    p = np.array([best[k][1] for k in keys])
    t = np.array([truth[k[0]] for k in keys])
    metrics = evaluate.regression_metrics(p, t)
    labels_true = evaluate.binarize(t, cutoff=args.cutoff)
    labels_pred = evaluate.binarize(p, cutoff=args.cutoff)
    kappa = evaluate.cohen_kappa(labels_pred, labels_true)
    _, _, _, f1_best, baseline = evaluate.pr_curve(p, labels_true)
    result = {
        "n": metrics.n, "rmse": metrics.rmse, "mae": metrics.mae,
        "pearson_r": metrics.pearson_r, "spearman_rho": metrics.spearman_rho,
        "cutoff": args.cutoff, "cohen_kappa": kappa,
        "f1_best": f1_best, "precision_baseline": baseline,
    }
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "metrics.json", "w") as f:
        json.dump(result, f, indent=2)
    _write_manifest(out, "eval", vars(args) | {"out": str(out)},
                    ["metrics.json"], {})
    print(json.dumps(result, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(args) -> int:
    out = Path(args.out)
    campaign_path = Path(args.campaign) / harness.MANIFEST_NAME
    if not campaign_path.exists():
        raise UsageError(f"no campaign manifest at {campaign_path}")
    campaign = json.loads(campaign_path.read_text())
    shards = harness.load_shards(args.campaign)
    n_compounds = len({r.compound_id for r in shards})
    # The manifest's phase times are summed over jobs that ran in parallel;
    # the campaign's rate is its poses over its wall clock, which the
    # report counts as one evaluation phase.
    wall_s = campaign.get("timings", {}).get("wall_s", 0.0)
    rep = harness.throughput_report(0.0, max(wall_s, 1e-9), 0.0,
                                    len(shards), n_compounds)
    summary = {"campaign": campaign, "throughput": rep.as_dict()}
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as f:
        json.dump(summary, f, indent=2)
    _write_manifest(out, "report", vars(args) | {"out": str(out)},
                    ["report.json"], {})
    print(f"{len(shards)} predictions over {n_compounds} compounds; "
          f"{rep.poses_per_hour:,.0f} poses/hour "
          f"({rep.poses_per_second:.2f}/s)")
    if not campaign.get("complete", True):
        raise IncompleteRun("campaign has missing ranges")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionscreen",
        description="desk-scale virtual-screening workbench")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic complex dataset")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--box-size", type=float, default=16.0)
    p.add_argument("--c-elem", type=int, default=4)
    p.add_argument("--noise-sigma", type=float, default=0.25)
    p.add_argument("--holdout-fraction", type=float, default=0.1)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a head or fusion model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", required=True,
                   choices=["voxel", "graph", "late", "mid", "coherent"])
    p.add_argument("--preset", choices=["mid", "coherent"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--grid-extent", type=int, default=16)
    p.add_argument("--c-elem", type=int, default=4)
    p.add_argument("--voxel-ckpt")
    p.add_argument("--graph-ckpt")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("hpo", help="population-based bandit search")
    p.add_argument("--space", required=True,
                   help="JSON space file or preset: "
                        + ", ".join(_SPACE_PRESETS))
    p.add_argument("--population", type=int, default=8)
    p.add_argument("--budget", type=int, required=True,
                   help="total epochs per trial")
    p.add_argument("--t-ready", type=int, default=5)
    p.add_argument("--quantile", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hpo)

    p = sub.add_parser("screen", help="batch-score a pose library")
    p.add_argument("--library", required=True, help="dataset JSONL")
    p.add_argument("--model", help="fusion checkpoint; synthetic if omitted")
    p.add_argument("--target", default="t0")
    p.add_argument("--jobs", type=int, default=4)
    p.add_argument("--ranks", type=int, default=harness.DEFAULT_RANKS_PER_JOB)
    p.add_argument("--batch-size", type=int,
                   default=harness.DEFAULT_BATCH_SIZE)
    p.add_argument("--loaders", type=int,
                   default=harness.DEFAULT_LOADERS_PER_RANK)
    p.add_argument("--parallelism", type=int, default=4)
    p.add_argument("--retries", type=int, default=harness.DEFAULT_RETRIES)
    p.add_argument("--corruption-rate", type=float, default=0.0)
    p.add_argument("--rank-failure-rate", type=float, default=0.0)
    p.add_argument("--job-failure-rate", type=float, default=0.0)
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("eval", help="score predictions against labels")
    p.add_argument("--predictions", required=True, help="shard directory")
    p.add_argument("--truth", required=True, help="dataset JSONL")
    p.add_argument("--cutoff", type=float, default=6.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="summarize a screening campaign")
    p.add_argument("--campaign", required=True, help="screen output dir")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except IncompleteRun as e:
        print(f"incomplete: {e}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except Exception as e:  # noqa: BLE001 - any stage failure
        logger.exception("stage failed")
        print(f"stage failed: {e}", file=sys.stderr)
        return EXIT_STAGE_FAILED


if __name__ == "__main__":
    sys.exit(main())
