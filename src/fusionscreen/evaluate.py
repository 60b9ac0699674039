"""Scoring-quality evaluation: regression metrics, classification, reports.

Statistics that are mathematically undefined on a given input (correlation of
a constant series, kappa when chance agreement is 1) come back as None rather
than NaN so downstream report code has to handle them explicitly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata


@dataclass(frozen=True)
class RegressionMetrics:
    rmse: float
    mae: float
    pearson_r: float | None
    spearman_rho: float | None
    n: int


def regression_metrics(pred, true) -> RegressionMetrics:
    pred = np.asarray(pred, dtype=float)
    true = np.asarray(true, dtype=float)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ValueError("pred/true must be equal-length 1-D arrays")
    if len(pred) == 0:
        raise ValueError("empty input")
    if not (np.isfinite(pred).all() and np.isfinite(true).all()):
        raise ValueError("non-finite values in input")
    err = pred - true
    rmse = float(np.sqrt(np.mean(err ** 2)))
    mae = float(np.mean(np.abs(err)))
    return RegressionMetrics(rmse, mae, pearson(pred, true),
                             spearman(pred, true), len(pred))


def pearson(x, y) -> float | None:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2:
        return None
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        return None    # undefined for a constant series
    return float(xc @ yc) / denom


def spearman(x, y) -> float | None:
    """Rank correlation with average ranks for ties."""
    if len(x) < 2:
        return None
    return pearson(rankdata(x), rankdata(y))


# ---------------------------------------------------------------------------
# pose aggregation and filtering
# ---------------------------------------------------------------------------

def aggregate_best_pose(records, direction: str = "max") -> dict:
    """Collapses per-pose scores to one score per (compound, target).

    ``records`` is an iterable of objects with compound_id, target_id,
    pose_id and predicted_pk.  Ties keep the lowest pose_id.  Returns
    {(compound_id, target_id): (pose_id, score)}.
    """
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be max or min, got {direction!r}")
    best: dict = {}
    sign = 1.0 if direction == "max" else -1.0
    for r in records:
        key = (r.compound_id, r.target_id)
        cand = (-sign * r.predicted_pk, r.pose_id)
        if key not in best or cand < best[key]:
            best[key] = cand
    return {k: (pid, -sign * negscore) for k, (negscore, pid) in best.items()}


def filter_by_rmsd(records, rmsd, cutoff: float):
    """Keeps records whose pose RMSD is strictly below the cutoff."""
    rmsd = np.asarray(rmsd, dtype=float)
    if len(rmsd) != len(records):
        raise ValueError("rmsd length mismatch")
    return [r for r, d in zip(records, rmsd) if d < cutoff]


# ---------------------------------------------------------------------------
# binarization and classification
# ---------------------------------------------------------------------------

def binarize(values, cutoff: float | None = None,
             band: tuple[float, float] | None = None) -> np.ndarray:
    """Labels: strictly above cutoff is positive (1), otherwise negative.

    With ``band=(lo, hi)`` items strictly inside [lo, hi] are dropped
    (label -1): strictly above hi is 1, strictly below lo is 0.
    """
    values = np.asarray(values, dtype=float)
    if (cutoff is None) == (band is None):
        raise ValueError("give exactly one of cutoff or band")
    if cutoff is not None:
        return (values > cutoff).astype(int)
    lo, hi = band
    if not lo < hi:
        raise ValueError("band must satisfy lo < hi")
    out = np.full(len(values), -1, dtype=int)
    out[values > hi] = 1
    out[values < lo] = 0
    return out


@dataclass(frozen=True)
class ConfusionSummary:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def precision(self) -> float | None:
        d = self.tp + self.fp
        return self.tp / d if d else None

    @property
    def recall(self) -> float | None:
        d = self.tp + self.fn
        return self.tp / d if d else None

    @property
    def f1(self) -> float | None:
        p, r = self.precision, self.recall
        if p is None or r is None or p + r == 0:
            return None
        return 2 * p * r / (p + r)

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / (self.tp + self.fp + self.tn + self.fn)


def confusion(pred_labels, true_labels) -> ConfusionSummary:
    p = np.asarray(pred_labels, dtype=int)
    t = np.asarray(true_labels, dtype=int)
    if p.shape != t.shape:
        raise ValueError("label length mismatch")
    keep = (p >= 0) & (t >= 0)
    p, t = p[keep], t[keep]
    return ConfusionSummary(tp=int(((p == 1) & (t == 1)).sum()),
                            fp=int(((p == 1) & (t == 0)).sum()),
                            tn=int(((p == 0) & (t == 0)).sum()),
                            fn=int(((p == 0) & (t == 1)).sum()))


def cohen_kappa(pred_labels, true_labels) -> float | None:
    """Chance-corrected agreement (po - pe) / (1 - pe); None when pe = 1."""
    c = confusion(pred_labels, true_labels)
    n = c.tp + c.fp + c.tn + c.fn
    if n == 0:
        return None
    po = (c.tp + c.tn) / n
    pe = ((c.tp + c.fp) * (c.tp + c.fn)
          + (c.tn + c.fn) * (c.tn + c.fp)) / n ** 2
    if pe == 1.0:
        return None
    return (po - pe) / (1.0 - pe)


def pr_curve(scores, true_labels):
    """Precision/recall over a sweep of score thresholds.

    Thresholds are the unique scores; at each one, strictly-above is called
    positive.  Returns (thresholds, precision, recall, f1_best, baseline)
    where baseline is the positive fraction, the precision of a classifier
    that calls everything positive.  Precision, recall and F1 are None where
    :class:`ConfusionSummary` leaves them undefined.  One sort per class and
    a binary search per threshold count the positives and negatives strictly
    above it (Davis & Goadrich 2006), so the sweep is O(n log n).
    """
    scores = np.asarray(scores, dtype=float)
    t = np.asarray(true_labels, dtype=int)
    keep = t >= 0
    scores, t = scores[keep], t[keep]
    if len(scores) == 0:
        raise ValueError("no labeled points")
    baseline = float(t.mean())
    thresholds = np.concatenate([[-np.inf], np.unique(scores)])
    pos, neg = np.sort(scores[t == 1]), np.sort(scores[t == 0])
    tp = len(pos) - np.searchsorted(pos, thresholds, side="right")
    fp = len(neg) - np.searchsorted(neg, thresholds, side="right")
    with np.errstate(divide="ignore", invalid="ignore"):
        prec = tp / (tp + fp)
        rec = tp / len(pos) if len(pos) else np.full(len(thresholds), np.nan)
        f1 = 2 * prec * rec / (prec + rec)

    def defined(values):
        return [None if np.isnan(v) else v for v in values.tolist()]

    f1_best = float(np.nanmax(f1)) if not np.all(np.isnan(f1)) else None
    return thresholds, defined(prec), defined(rec), f1_best, baseline


# ---------------------------------------------------------------------------
# method comparison
# ---------------------------------------------------------------------------

def method_comparison_report(methods: dict[str, dict], experimental: dict,
                             lower_is_stronger: set[str] = frozenset(),
                             min_overlap_fraction: float = 0.01):
    """Side-by-side correlations of scoring methods against experiment.

    ``methods`` maps method name -> {key: score}; ``experimental`` maps
    key -> measured affinity.  Each method is correlated over its overlap
    with the experimental keys; methods whose overlap covers less than
    ``min_overlap_fraction`` of the experimental set are reported but their
    correlations marked undefined.  Correlation magnitudes are reported as
    absolute values so methods where lower scores mean stronger binding
    (named in ``lower_is_stronger``) compare on an equal footing, with the
    raw sign preserved separately.  Also returns the per-method key mismatch
    (experimental keys the method is missing).
    """
    exp_keys = set(experimental)
    if not exp_keys:
        raise ValueError("empty experimental set")
    rows = []
    for name, scores in methods.items():
        overlap = sorted(exp_keys & set(scores))
        missing = sorted(exp_keys - set(scores))
        row = {"method": name, "n": len(overlap),
               "coverage": len(overlap) / len(exp_keys),
               "missing_keys": missing,
               "pearson_r": None, "spearman_rho": None,
               "abs_pearson_r": None, "abs_spearman_rho": None}
        if len(overlap) >= 2 and \
                len(overlap) / len(exp_keys) >= min_overlap_fraction:
            x = np.array([scores[k] for k in overlap], dtype=float)
            y = np.array([experimental[k] for k in overlap], dtype=float)
            r = pearson(x, y)
            rho = spearman(x, y)
            row["pearson_r"] = r
            row["spearman_rho"] = rho
            row["abs_pearson_r"] = None if r is None else abs(r)
            row["abs_spearman_rho"] = None if rho is None else abs(rho)
            row["lower_is_stronger"] = name in lower_is_stronger
        rows.append(row)
    rows.sort(key=lambda r: (-(r["abs_spearman_rho"] or -1.0), r["method"]))
    return rows


def write_report(rows, path) -> None:
    with open(path, "w") as f:
        json.dump(rows, f, indent=2, default=float)
