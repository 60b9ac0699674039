"""Output checks computed apart from fusionscreen.

Every function here reads the campaign's files itself or works on plain
numpy arrays, so a fault in the program's own readers or metrics cannot hide
itself.  Each check returns a list of problems; an empty list means it holds.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

ABS_TOL = 1e-12
REL_TOL = 1e-9


def pose_key(compound_id, target_id, pose_id) -> str:
    return f"{compound_id}/{target_id}/{pose_id}"


def read_jsonl(path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f]


def read_shards(out_dir) -> list[dict]:
    """Every prediction row of every ``shard_*.jsonl`` file, parsed as JSON."""
    rows = []
    for path in sorted(Path(out_dir).glob("shard_*.jsonl")):
        rows.extend(read_jsonl(path))
    return rows


def read_corrupt_keys(out_dir) -> list[str]:
    """Pose keys the jobs logged as corrupt in ``job_*_errors.jsonl``."""
    keys = []
    for path in sorted(Path(out_dir).glob("job_*_errors.jsonl")):
        keys.extend(row["pose"] for row in read_jsonl(path))
    return keys


def exactly_once(library_keys, scored_keys, corrupt_keys) -> list[str]:
    """Scored and corrupt poses together cover the library once each."""
    problems = []
    library = set(library_keys)
    for name, keys in (("scored", scored_keys), ("corrupt", corrupt_keys)):
        dup = len(keys) - len(set(keys))
        if dup:
            problems.append(f"{dup} duplicate {name} records")
    scored, corrupt = set(scored_keys), set(corrupt_keys)
    if scored & corrupt:
        problems.append(f"{len(scored & corrupt)} poses both scored and corrupt")
    missing = library - scored - corrupt
    if missing:
        problems.append(f"{len(missing)} library poses neither scored nor logged")
    extra = (scored | corrupt) - library
    if extra:
        problems.append(f"{len(extra)} records for poses outside the library")
    return problems


def on_disk_exactly_once(out_dir, library_keys) -> list[str]:
    rows = read_shards(out_dir)
    scored = [pose_key(r["compound_id"], r["target_id"], r["pose_id"])
              for r in rows]
    return exactly_once(library_keys, scored, read_corrupt_keys(out_dir))


def layout_exactly_once(out_dir, library_keys,
                        n_jobs: int) -> tuple[list[str], list[str]]:
    """Exactly once over the files of the last campaign of ``n_jobs`` jobs
    written into ``out_dir``, as its manifests list them.

    Returns the problems, and the names of the files in the directory that
    are not that campaign's.
    """
    out_dir = Path(out_dir)
    problems = []
    own = {"campaign_manifest.json"}
    with open(out_dir / "campaign_manifest.json") as f:
        campaign = json.load(f)
    if campaign["n_jobs"] != n_jobs or campaign["abandoned"]:
        problems.append(f"campaign manifest: {campaign['n_jobs']} jobs, "
                        f"abandoned {campaign['abandoned']}")
    scored, corrupt = [], []
    for job in range(n_jobs):
        name = f"job_{job:05d}_manifest.json"
        if not (out_dir / name).is_file():
            problems.append(f"{name} missing")
            continue
        own.add(name)
        with open(out_dir / name) as f:
            manifest = json.load(f)
        for shard in manifest["shards"]:
            rows = read_jsonl(out_dir / shard["file"])
            own.add(shard["file"])
            if len(rows) != shard["records"]:
                problems.append(f"{shard['file']}: {len(rows)} records, "
                                f"manifest lists {shard['records']}")
            scored += [pose_key(r["compound_id"], r["target_id"],
                                r["pose_id"]) for r in rows]
        if manifest["corrupted"]:
            name = f"job_{job:05d}_errors.jsonl"
            own.add(name)
            keys = [row["pose"] for row in read_jsonl(out_dir / name)]
            if len(keys) != manifest["corrupted"]:
                problems.append(f"{name}: {len(keys)} poses, manifest lists "
                                f"{manifest['corrupted']}")
            corrupt += keys
    problems += exactly_once(library_keys, scored, corrupt)
    stale = sorted(p.name for p in out_dir.iterdir() if p.name not in own)
    return problems, stale


def best_pose_groupby(compounds, pose_ids, scores):
    """Highest score per compound, ties to the lowest pose id.

    Returns (compounds, pose_ids, scores), one entry per compound, sorted by
    compound.
    """
    compounds = np.asarray(compounds)
    pose_ids = np.asarray(pose_ids)
    scores = np.asarray(scores, dtype=float)
    order = np.lexsort((pose_ids, -scores, compounds))
    c = compounds[order]
    first = np.ones(len(c), dtype=bool)
    first[1:] = c[1:] != c[:-1]
    keep = order[first]
    return compounds[keep], pose_ids[keep], scores[keep]


def regression_reference(pred, true) -> dict:
    pred = np.asarray(pred, dtype=float)
    true = np.asarray(true, dtype=float)
    err = pred - true
    return {"rmse": float(np.sqrt(np.mean(err ** 2))),
            "mae": float(np.mean(np.abs(err))),
            "pearson_r": float(np.corrcoef(pred, true)[0, 1]),
            "spearman_rho": float(spearmanr(pred, true).statistic)}


def kappa_from_counts(pred_labels, true_labels) -> float | None:
    """Cohen's kappa from the explicit 2x2 table of labelled items."""
    p = np.asarray(pred_labels, dtype=int)
    t = np.asarray(true_labels, dtype=int)
    keep = (p >= 0) & (t >= 0)
    table = np.bincount(2 * t[keep] + p[keep], minlength=4).reshape(2, 2)
    n = table.sum()
    po = np.trace(table) / n
    pe = float(table.sum(axis=0) @ table.sum(axis=1)) / n ** 2
    if pe == 1.0:
        return None
    return float((po - pe) / (1.0 - pe))


def best_f1(scores, labels) -> float | None:
    """Best F1 over strictly-above thresholds, from one sort and cumsums.

    The thresholds are every distinct score plus minus infinity, so the
    predicted-positive sets are the top-k items for k = number of scores
    strictly above each distinct score, and k = n.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    keep = labels >= 0
    scores, labels = scores[keep], labels[keep]
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    tp = np.concatenate([[0], np.cumsum(y)])            # tp[k] over the top k
    n, positives = len(s), int(y.sum())
    distinct = np.unique(s)
    # items strictly above u: the index in descending order where u starts
    k = np.concatenate([np.searchsorted(-s, -distinct, side="left"), [n]])
    k = k[(k > 0) & (tp[k] > 0)]
    if positives == 0 or len(k) == 0:
        return None
    return float(np.max(2.0 * tp[k] / (k + positives)))


def close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check_evaluation(ev, truth: dict, cutoff: float) -> list[str]:
    """Recomputes an :class:`Evaluation` from the shards on disk."""
    rows = read_shards(ev.out_dir)
    problems = []
    if len(rows) != len(ev.records):
        problems.append(f"load_shards returned {len(ev.records)} records, "
                        f"files hold {len(rows)}")
    compounds = np.array([r["compound_id"] for r in rows])
    cpd, pose, score = best_pose_groupby(
        compounds, np.array([r["pose_id"] for r in rows]),
        np.array([r["predicted_pk"] for r in rows]))
    want = {c: (int(p), float(s)) for c, p, s in zip(cpd, pose, score)}
    got = {k[0]: v for k, v in ev.best.items()}
    if want != got:
        bad = sum(want.get(c) != got.get(c) for c in set(want) | set(got))
        problems.append(f"best-pose aggregation differs on {bad} compounds")
        return problems
    true = np.array([truth[c] for c in cpd])
    ref = regression_reference(score, true)
    for name, value in ref.items():
        if not close(getattr(ev.regression, name), value):
            problems.append(f"{name}: program {getattr(ev.regression, name)!r}"
                            f" vs reference {value!r}")
    pl, tl = (score > cutoff).astype(int), (true > cutoff).astype(int)
    if not close(ev.kappa, kappa_from_counts(pl, tl)):
        problems.append(f"kappa: program {ev.kappa!r} vs reference "
                        f"{kappa_from_counts(pl, tl)!r}")
    if not close(ev.f1_best, best_f1(score, tl)):
        problems.append(f"best F1: program {ev.f1_best!r} vs reference "
                        f"{best_f1(score, tl)!r}")
    return problems
