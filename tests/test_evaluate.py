import math

import numpy as np
import pytest

from fusionscreen import evaluate as ev


class Rec:
    def __init__(self, compound_id, target_id, pose_id, predicted_pk):
        self.compound_id = compound_id
        self.target_id = target_id
        self.pose_id = pose_id
        self.predicted_pk = predicted_pk


def brute_pearson(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x)
                    * sum((b - my) ** 2 for b in y))
    return num / den


def brute_ranks(x):
    out = [0.0] * len(x)
    for i, v in enumerate(x):
        less = sum(1 for u in x if u < v)
        equal = sum(1 for u in x if u == v)
        out[i] = less + (equal + 1) / 2.0
    return out


class TestRegression:
    def test_matches_brute_force(self, rng):
        p = rng.normal(5, 2, size=40)
        t = rng.normal(5, 2, size=40)
        m = ev.regression_metrics(p, t)
        rmse = math.sqrt(sum((a - b) ** 2 for a, b in zip(p, t)) / 40)
        mae = sum(abs(a - b) for a, b in zip(p, t)) / 40
        assert m.rmse == pytest.approx(rmse, abs=1e-12)
        assert m.mae == pytest.approx(mae, abs=1e-12)
        assert m.pearson_r == pytest.approx(brute_pearson(p, t), abs=1e-12)
        assert m.spearman_rho == pytest.approx(
            brute_pearson(brute_ranks(list(p)), brute_ranks(list(t))),
            abs=1e-12)

    def test_constant_series_correlation_undefined(self):
        m = ev.regression_metrics(np.ones(5), np.arange(5.0))
        assert m.pearson_r is None
        assert m.spearman_rho is None
        assert m.rmse > 0

    def test_spearman_invariant_under_monotone_transform(self, rng):
        p = rng.normal(size=30)
        t = rng.normal(size=30)
        a = ev.spearman(p, t)
        b = ev.spearman(np.exp(p), t)
        assert a == pytest.approx(b, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ev.regression_metrics([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            ev.regression_metrics([], [])
        with pytest.raises(ValueError):
            ev.regression_metrics([np.nan], [1.0])


class TestAggregation:
    def test_max_direction_with_tie_break(self):
        recs = [Rec("a", "x", 2, 5.0), Rec("a", "x", 1, 5.0),
                Rec("a", "x", 3, 7.0), Rec("b", "x", 0, 2.0)]
        best = ev.aggregate_best_pose(recs, "max")
        assert best[("a", "x")] == (3, 7.0)
        assert best[("b", "x")] == (0, 2.0)

    def test_min_direction(self):
        recs = [Rec("a", "x", 2, 5.0), Rec("a", "x", 1, 5.0),
                Rec("a", "x", 3, 7.0)]
        best = ev.aggregate_best_pose(recs, "min")
        assert best[("a", "x")] == (1, 5.0)  # tie keeps lowest pose id

    def test_matches_nested_loop_oracle(self, rng):
        recs = []
        for c in range(20):
            for p in range(int(rng.integers(1, 11))):
                recs.append(Rec(f"c{c}", "t", p,
                                float(rng.normal(5, 2))))
        for direction in ("max", "min"):
            got = ev.aggregate_best_pose(recs, direction)
            for (cid, tid), (pid, score) in got.items():
                group = [r for r in recs
                         if r.compound_id == cid and r.target_id == tid]
                pick = group[0]
                for r in group[1:]:
                    better = (r.predicted_pk > pick.predicted_pk
                              if direction == "max"
                              else r.predicted_pk < pick.predicted_pk)
                    if better or (r.predicted_pk == pick.predicted_pk
                                  and r.pose_id < pick.pose_id):
                        pick = r
                assert (pid, score) == (pick.pose_id, pick.predicted_pk)

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            ev.aggregate_best_pose([], "best")


class TestRmsdFilter:
    def test_strictly_below_cutoff(self):
        recs = ["a", "b", "c"]
        kept = ev.filter_by_rmsd(recs, [0.99, 1.0, 1.01], 1.0)
        assert kept == ["a"]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ev.filter_by_rmsd(["a"], [1.0, 2.0], 1.0)


class TestBinarize:
    def test_single_cutoff_is_strict(self):
        # inhibition {0, 40, 33, 34} with > 33: positives are 40 and 34
        labels = ev.binarize([0.0, 40.0, 33.0, 34.0], cutoff=33.0)
        assert labels.tolist() == [0, 1, 0, 1]

    def test_band_exclusion(self):
        labels = ev.binarize([5.0, 6.0, 6.5, 7.0, 8.0], band=(6.0, 7.0))
        assert labels.tolist() == [0, -1, -1, -1, 1]

    def test_exactly_one_rule_required(self):
        with pytest.raises(ValueError):
            ev.binarize([1.0])
        with pytest.raises(ValueError):
            ev.binarize([1.0], cutoff=1.0, band=(0.0, 2.0))


class TestKappa:
    def brute_kappa(self, pred, true):
        n = len(pred)
        po = sum(p == t for p, t in zip(pred, true)) / n
        p1 = sum(pred) / n
        t1 = sum(true) / n
        pe = p1 * t1 + (1 - p1) * (1 - t1)
        return (po - pe) / (1 - pe)

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 60))
            pred = rng.integers(0, 2, size=n).tolist()
            true = rng.integers(0, 2, size=n).tolist()
            expected = self.brute_kappa(pred, true)
            got = ev.cohen_kappa(pred, true)
            if math.isinf(expected) or math.isnan(expected):
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-12)

    def test_perfect_agreement(self):
        assert ev.cohen_kappa([1, 0, 1], [1, 0, 1]) == 1.0

    def test_degenerate_marginals_undefined(self):
        assert ev.cohen_kappa([1, 1, 1], [1, 1, 1]) is None

    def test_random_classifier_near_zero(self):
        rng = np.random.default_rng(0)
        true = rng.integers(0, 2, size=10000)
        pred = rng.permutation(true)
        assert abs(ev.cohen_kappa(pred, true)) < 0.05


class TestPrCurve:
    def test_brute_force_small(self):
        scores = [0.1, 0.4, 0.35, 0.8]
        labels = [0, 0, 1, 1]
        th, prec, rec, f1_best, baseline = ev.pr_curve(scores, labels)
        assert baseline == 0.5
        # at threshold -inf everything is positive
        assert prec[0] == 0.5 and rec[0] == 1.0
        # recall never increases as the threshold tightens
        pairs = [(t, r) for t, r in zip(th, rec) if r is not None]
        assert all(pairs[i][1] >= pairs[i + 1][1]
                   for i in range(len(pairs) - 1))
        # best F1: threshold just above 0.1 gives P=2/3, R=1
        assert f1_best == pytest.approx(0.8)

    def test_matches_confusion_at_each_threshold(self, rng):
        scores = rng.normal(size=30)
        labels = (rng.random(30) < 0.4).astype(int)
        th, prec, rec, _, _ = ev.pr_curve(scores, labels)
        for t, p, r in zip(th, prec, rec):
            c = ev.confusion((scores > t).astype(int), labels)
            assert p == c.precision
            assert r == c.recall

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_with_ties_and_dropped_labels(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        scores = rng.integers(0, 25, size=n) / 4.0       # many ties
        labels = rng.integers(-1, 2, size=n)             # -1 is dropped
        if seed == 0:
            labels[labels == 1] = 0                      # no positives
        kept = [(s, t) for s, t in zip(scores, labels) if t >= 0]
        if not kept:
            return
        th, prec, rec, f1_best, baseline = ev.pr_curve(scores, labels)
        assert list(th) == [-np.inf] + sorted({s for s, _ in kept})
        assert baseline == sum(t for _, t in kept) / len(kept)
        best = None
        for t, p, r in zip(th, prec, rec):
            tp = sum(1 for s, lab in kept if s > t and lab == 1)
            fp = sum(1 for s, lab in kept if s > t and lab == 0)
            pos = sum(1 for _, lab in kept if lab == 1)
            want_p = tp / (tp + fp) if tp + fp else None
            want_r = tp / pos if pos else None
            assert p == want_p and r == want_r
            if want_p is not None and want_r is not None and want_p + want_r:
                f1 = 2 * want_p * want_r / (want_p + want_r)
                best = f1 if best is None else max(best, f1)
        assert f1_best == best

    def test_dropped_labels_excluded(self):
        th, prec, rec, _, baseline = ev.pr_curve([1.0, 2.0, 3.0], [0, -1, 1])
        assert baseline == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ev.pr_curve([], [])


class TestConfusion:
    def test_counts(self):
        c = ev.confusion([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 1, 1)
        assert c.precision == pytest.approx(2 / 3)
        assert c.recall == pytest.approx(2 / 3)
        assert c.f1 == pytest.approx(2 / 3)
        assert c.accuracy == pytest.approx(3 / 5)

    def test_undefined_precision(self):
        c = ev.confusion([0, 0], [1, 0])
        assert c.precision is None
        assert c.f1 is None


class TestMethodComparison:
    def test_coverage_and_missing_keys(self):
        rows = ev.method_comparison_report(
            {"good": {"a": 1.0, "b": 2.0, "c": 3.0}, "sparse": {"a": 1.0}},
            {"a": 1.1, "b": 2.2, "c": 2.9})
        by_name = {r["method"]: r for r in rows}
        assert by_name["good"]["n"] == 3
        assert by_name["good"]["missing_keys"] == []
        assert by_name["good"]["abs_spearman_rho"] == pytest.approx(1.0)
        assert by_name["sparse"]["missing_keys"] == ["b", "c"]
        assert by_name["sparse"]["pearson_r"] is None

    def test_lower_is_stronger_uses_absolute_value(self):
        exp = {k: float(v) for k, v in zip("abcdef", range(6))}
        docking = {k: -float(v) for k, v in zip("abcdef", range(6))}
        rows = ev.method_comparison_report(
            {"vina": docking}, exp, lower_is_stronger={"vina"})
        row = rows[0]
        assert row["pearson_r"] == pytest.approx(-1.0)
        assert row["abs_pearson_r"] == pytest.approx(1.0)
        assert row["lower_is_stronger"]

    def test_low_coverage_marked_undefined(self):
        exp = {f"k{i}": float(i) for i in range(1000)}
        rows = ev.method_comparison_report(
            {"tiny": {"k0": 0.0, "k1": 1.0}}, exp,
            min_overlap_fraction=0.01)
        assert rows[0]["pearson_r"] is None

    def test_empty_experimental_rejected(self):
        with pytest.raises(ValueError):
            ev.method_comparison_report({"m": {}}, {})
