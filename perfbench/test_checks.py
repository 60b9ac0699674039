"""Tests of the benchmark's independent checks on small hand-made cases.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import math
import types

import numpy as np
import pytest

import checks


def test_exactly_once_accepts_a_partition():
    assert checks.exactly_once(["a", "b", "c"], ["a", "c"], ["b"]) == []


@pytest.mark.parametrize("scored, corrupt, word", [
    (["a", "a", "b", "c"], [], "duplicate scored"),
    (["a", "b"], ["b", "c"], "both scored and corrupt"),
    (["a"], ["b"], "neither scored nor logged"),
    (["a", "b", "c", "d"], [], "outside the library"),
])
def test_exactly_once_names_each_violation(scored, corrupt, word):
    problems = checks.exactly_once(["a", "b", "c"], scored, corrupt)
    assert any(word in p for p in problems), problems


def test_best_pose_groupby_breaks_ties_by_lowest_pose():
    cpd, pose, score = checks.best_pose_groupby(
        ["y", "x", "x", "x", "y"], [0, 2, 1, 0, 1], [1.0, 5.0, 5.0, 4.0, 3.0])
    assert cpd.tolist() == ["x", "y"]
    assert pose.tolist() == [1, 1]
    assert score.tolist() == [5.0, 3.0]


def test_regression_reference_by_hand():
    ref = checks.regression_reference([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
    assert ref["rmse"] == pytest.approx(math.sqrt(1 / 3))
    assert ref["mae"] == pytest.approx(1 / 3)
    # centred: pred (-1, 0, 1), true (-4/3, -1/3, 5/3)
    assert ref["pearson_r"] == pytest.approx(3 / math.sqrt(2 * 14 / 3))
    assert ref["spearman_rho"] == pytest.approx(1.0)


def test_kappa_from_counts_by_hand():
    # table rows true, columns pred: [[2, 1], [0, 1]]; po = 3/4, pe = 1/2
    assert checks.kappa_from_counts([1, 1, 0, 0, 1], [1, 0, 0, 0, -1]) \
        == pytest.approx(0.5)
    assert checks.kappa_from_counts([1, 1], [1, 1]) is None


def test_best_f1_by_hand():
    # thresholds -inf, .1, .7, .8: top 4, 3, 2, 1 called positive
    assert checks.best_f1([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0]) \
        == pytest.approx(0.8)
    # tied scores enter together: top 3 or top 2 or none
    assert checks.best_f1([0.5, 0.5, 0.1], [1, 0, 1]) == pytest.approx(0.8)
    assert checks.best_f1([0.3, 0.2], [0, 0]) is None
    assert checks.best_f1([0.3, 0.2, 0.1], [-1, 1, 0]) == pytest.approx(1.0)


def test_best_f1_matches_a_threshold_sweep():
    rng = np.random.default_rng(3)
    scores = rng.integers(0, 20, 200) / 4.0
    labels = rng.integers(0, 2, 200)
    best = 0.0
    for th in np.concatenate([[-np.inf], np.unique(scores)]):
        called = scores > th
        tp = int((called & (labels == 1)).sum())
        if tp:
            best = max(best, 2 * tp / (called.sum() + labels.sum()))
    assert checks.best_f1(scores, labels) == pytest.approx(best)


def write_rows(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def shard_row(compound, pose, score):
    return {"compound_id": compound, "target_id": "t0", "pose_id": pose,
            "predicted_pk": score, "job_id": 0, "rank_id": 0}


def test_on_disk_exactly_once_reads_shards_and_error_logs(tmp_path):
    write_rows(tmp_path / "shard_00000_000.jsonl", [shard_row("c1", 0, 7.0)])
    write_rows(tmp_path / "job_00000_errors.jsonl",
               [{"pose": "c1/t0/1", "reason": "corrupt record"}])
    keys = ["c1/t0/0", "c1/t0/1"]
    assert checks.on_disk_exactly_once(tmp_path, keys) == []
    write_rows(tmp_path / "shard_00001_000.jsonl", [shard_row("c1", 0, 7.0)])
    assert checks.on_disk_exactly_once(tmp_path, keys) == \
        ["1 duplicate scored records"]


def evaluation(tmp_path, truth, **wrong):
    rows = [shard_row("a", 0, 7.0), shard_row("a", 1, 8.0),
            shard_row("b", 0, 5.0), shard_row("c", 0, 6.5)]
    write_rows(tmp_path / "shard_00000_000.jsonl", rows)
    pred, true = [8.0, 5.0, 6.5], [truth[c] for c in "abc"]
    ref = checks.regression_reference(pred, true)
    fields = dict(out_dir=tmp_path, records=rows,
                  best={("a", "t0"): (1, 8.0), ("b", "t0"): (0, 5.0),
                        ("c", "t0"): (0, 6.5)},
                  regression=types.SimpleNamespace(**ref),
                  kappa=checks.kappa_from_counts([1, 0, 1], [1, 0, 0]),
                  f1_best=checks.best_f1(pred, [1, 0, 0]))
    fields.update(wrong)
    return types.SimpleNamespace(**fields)


def test_check_evaluation_accepts_correct_and_names_wrong_results(tmp_path):
    truth = {"a": 9.0, "b": 4.0, "c": 5.5}
    assert checks.check_evaluation(evaluation(tmp_path, truth), truth, 6.0) == []
    problems = checks.check_evaluation(
        evaluation(tmp_path, truth, kappa=0.1), truth, 6.0)
    assert len(problems) == 1 and problems[0].startswith("kappa")
    problems = checks.check_evaluation(
        evaluation(tmp_path, truth, best={("a", "t0"): (0, 7.0)}), truth, 6.0)
    assert problems == ["best-pose aggregation differs on 3 compounds"]
