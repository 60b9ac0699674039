import json
from pathlib import Path

import numpy as np
import pytest

from fusionscreen import harness
from fusionscreen.complexes import VoxelGrid
from fusionscreen.harness import (
    FaultPlan,
    JobSpec,
    PoseRecord,
    SyntheticScorer,
    balanced_sizes,
    attempt_fails,
    is_corrupted,
    partition,
    pose_key,
    rank_assignments,
    run_campaign,
    run_job,
    throughput_report,
)


def library(n, poses_per_compound=1):
    return [PoseRecord(f"c{i // poses_per_compound:05d}", "t0",
                       i % poses_per_compound)
            for i in range(n)]


class TestPartition:
    def test_100_poses_16_parts(self):
        # balanced contiguous split: four 7s and twelve 6s
        sizes = balanced_sizes(100, 16)
        assert sorted(sizes) == [6] * 12 + [7] * 4
        assert sum(sizes) == 100
        assert max(sizes) - min(sizes) <= 1

    def test_partition_preserves_order_and_coverage(self):
        lib = library(53)
        jobs = partition(lib, 7)
        flat = [p for j in jobs for p in j.poses]
        assert flat == lib
        assert len({j.job_id for j in jobs}) == 7

    def test_partition_errors(self):
        with pytest.raises(ValueError):
            partition([], 2)
        with pytest.raises(ValueError):
            partition(library(3), 5)

    def test_rank_assignments_balanced(self):
        spec = JobSpec(0, tuple(library(100)), ranks_per_job=16)
        sizes = [len(a) for a in rank_assignments(spec)]
        assert sum(sizes) == 100
        assert max(sizes) - min(sizes) <= 1

    def test_job_spec_defaults_match_reference_layout(self):
        spec = JobSpec(0, tuple(library(10)))
        assert spec.ranks_per_job == 16
        assert spec.batch_size == 56
        assert spec.loaders_per_rank == 12

    def test_job_spec_validation(self):
        with pytest.raises(ValueError):
            JobSpec(0, tuple(library(4)), ranks_per_job=0)


class TestFaults:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(record_corruption_rate=1.0)
        with pytest.raises(ValueError):
            FaultPlan(rank_failure_rate=-0.1)

    def test_corruption_stable_across_attempts(self):
        plan = FaultPlan(record_corruption_rate=0.3, seed=5)
        lib = library(200)
        first = [is_corrupted(p, plan) for p in lib]
        assert first == [is_corrupted(p, plan) for p in lib]
        assert 0 < sum(first) < 200

    def test_failure_varies_per_attempt(self):
        plan = FaultPlan(rank_failure_rate=0.5, seed=1)
        outcomes = {attempt_fails(0, a, plan) is None for a in range(20)}
        assert outcomes == {True, False}

    def test_zero_rates_never_fire(self):
        plan = FaultPlan()
        assert not any(is_corrupted(p, plan) for p in library(50))
        assert attempt_fails(0, 0, plan) is None


class TestRunJob:
    def test_scores_every_pose_once(self):
        spec = JobSpec(0, tuple(library(37)), ranks_per_job=4, batch_size=5)
        res = run_job(spec, SyntheticScorer())
        assert res.status == "ok"
        keys = [pose_key_of(r) for r in res.predictions]
        assert sorted(keys) == sorted(pose_key(p) for p in spec.poses)

    def test_deterministic_scores(self):
        spec = JobSpec(0, tuple(library(10)), ranks_per_job=2)
        a = run_job(spec, SyntheticScorer(seed=3))
        b = run_job(spec, SyntheticScorer(seed=3))
        assert [r.predicted_pk for r in a.predictions] == \
            [r.predicted_pk for r in b.predictions]

    def test_corrupt_records_skipped_and_logged(self):
        plan = FaultPlan(record_corruption_rate=0.2, seed=9)
        spec = JobSpec(0, tuple(library(100)), ranks_per_job=2)
        res = run_job(spec, SyntheticScorer(), plan)
        assert res.corrupted
        scored = {pose_key_of(r) for r in res.predictions}
        corrupt = {k for k, _ in res.corrupted}
        assert not scored & corrupt
        assert len(scored) + len(corrupt) == 100

    def test_failed_attempt_writes_nothing(self, tmp_path):
        plan = FaultPlan(rank_failure_rate=0.999, seed=0)
        spec = JobSpec(0, tuple(library(20)), ranks_per_job=2)
        res = run_job(spec, SyntheticScorer(), plan, attempt=0,
                      out_dir=tmp_path)
        assert res.status == "failed"
        assert list(tmp_path.iterdir()) == []

    def test_shards_group_compounds(self, tmp_path):
        lib = library(40, poses_per_compound=4)
        spec = JobSpec(0, tuple(lib), ranks_per_job=3)
        run_job(spec, SyntheticScorer(), out_dir=tmp_path)
        owner = {}
        for shard in tmp_path.glob("shard_*.jsonl"):
            for line in shard.read_text().splitlines():
                rec = json.loads(line)
                owner.setdefault(rec["compound_id"], set()).add(shard.name)
        assert all(len(s) == 1 for s in owner.values())

    def test_manifest_counts(self, tmp_path):
        plan = FaultPlan(record_corruption_rate=0.1, seed=2)
        spec = JobSpec(3, tuple(library(50)), ranks_per_job=2)
        res = run_job(spec, SyntheticScorer(), plan, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "job_00003_manifest.json")
                              .read_text())
        assert manifest["poses"] == 50
        assert manifest["scored"] == len(res.predictions)
        assert manifest["corrupted"] == len(res.corrupted)
        assert sum(s["records"] for s in manifest["shards"]) == \
            manifest["scored"]


class TestCampaign:
    def test_exactly_once_with_retries(self, tmp_path):
        lib = library(300, poses_per_compound=3)
        plan = FaultPlan(record_corruption_rate=0.02, rank_failure_rate=0.3,
                         seed=11)
        preds, report = run_campaign(lib, SyntheticScorer(), n_jobs=6,
                                     plan=plan, out_dir=tmp_path,
                                     parallelism=3, ranks_per_job=2)
        assert report.complete
        keys = [pose_key_of(r) for r in preds]
        assert len(keys) == len(set(keys))
        expected = {pose_key(p) for p in lib} - \
            {k for k, _ in report.corrupted}
        assert set(keys) == expected
        # shards agree with in-memory predictions
        shards = harness.load_shards(tmp_path)
        assert sorted(pose_key_of(r) for r in shards) == sorted(keys)

    def test_abandoned_jobs_reported_as_missing_ranges(self, tmp_path):
        lib = library(40)
        plan = FaultPlan(rank_failure_rate=0.9, seed=1)
        preds, report = run_campaign(lib, SyntheticScorer(), n_jobs=4,
                                     plan=plan, out_dir=tmp_path, retries=1)
        assert not report.complete
        assert report.abandoned
        covered = sum(m["count"] for m in report.missing_ranges)
        assert covered + len(preds) == 40
        manifest = json.loads((tmp_path / harness.MANIFEST_NAME).read_text())
        assert manifest["complete"] is False
        assert manifest["missing_ranges"] == report.missing_ranges

    def test_abandoned_jobs_leave_no_shards(self, tmp_path):
        lib = library(40)
        plan = FaultPlan(rank_failure_rate=0.9, seed=1)
        _, report = run_campaign(lib, SyntheticScorer(), n_jobs=4, plan=plan,
                                 out_dir=tmp_path, retries=1)
        shard_jobs = {int(p.name.split("_")[1])
                      for p in Path(tmp_path).glob("shard_*.jsonl")}
        assert shard_jobs == set(report.succeeded)

    def test_attempt_accounting(self):
        lib = library(60)
        plan = FaultPlan(rank_failure_rate=0.5, seed=4)
        _, report = run_campaign(lib, SyntheticScorer(), n_jobs=3, plan=plan,
                                 retries=5)
        assert report.complete
        assert any(a > 1 for a in report.attempts.values())


class TestThroughput:
    def test_identities_exact(self):
        rep = throughput_report(30.0, 100.0, 10.0, 10800, 1080)
        assert rep.poses_per_second == 108.0
        assert rep.poses_per_hour == 3600.0 * rep.poses_per_second
        assert rep.poses_per_hour == 388800.0
        # compounds/hour = poses/hour divided by poses per compound
        assert rep.compounds_per_hour == rep.poses_per_hour / 10.0
        assert rep.total_s == 140.0

    def test_negative_phase_rejected(self):
        with pytest.raises(ValueError):
            throughput_report(-1.0, 10.0, 1.0, 10, 1)


class TestModelScorer:
    def test_scores_featurized_payloads(self, toy_model, toy_items):
        lib = [PoseRecord(f"c{i}", "t0", 0, (it.grid, it.graph))
               for i, it in enumerate(toy_items[:4])]
        scorer = harness.ModelScorer(toy_model)
        scores = scorer(lib)
        direct, _ = toy_model.predict_batch(
            [(it.grid, it.graph) for it in toy_items[:4]])
        assert scores == direct

    def test_unscorable_pose_returned_with_reason(self, toy_model, toy_items):
        scorer = harness.ModelScorer(toy_model)
        it = toy_items[0]
        scores = scorer([PoseRecord("c0", "t0", 0, None),
                         PoseRecord("c1", "t0", 0, (it.grid, it.graph))])
        assert scores[0] == harness.Unscorable(
            "item is not a (VoxelGrid, ComplexGraph) pair")
        assert isinstance(scores[1], float)

    def test_unscorable_pose_logged_campaign_finishes(self, toy_model,
                                                      toy_items, tmp_path):
        lib = [PoseRecord(f"c{i // 2:03d}", "t0", i % 2,
                          (toy_items[i % 16].grid, toy_items[i % 16].graph))
               for i in range(20)]
        bad = np.array(lib[7].payload[0].occupancy)
        bad[0, 1, 2, 3] = np.nan
        lib[7] = PoseRecord(lib[7].compound_id, "t0", lib[7].pose_id,
                            (VoxelGrid(bad), lib[7].payload[1]))
        preds, report = run_campaign(lib, harness.ModelScorer(toy_model),
                                     n_jobs=2, out_dir=tmp_path,
                                     parallelism=2, ranks_per_job=2,
                                     batch_size=4)
        assert report.complete
        assert report.corrupted == [
            (pose_key(lib[7]), "voxel grid contains non-finite values")]
        assert len(preds) == 19
        assert pose_key(lib[7]) not in {pose_key_of(r) for r in preds}
        logged = [json.loads(line)
                  for path in sorted(tmp_path.glob("job_*_errors.jsonl"))
                  for line in path.read_text().splitlines()]
        assert logged == [{"pose": pose_key(lib[7]),
                           "reason": "voxel grid contains non-finite values"}]
        assert len(harness.load_shards(tmp_path)) == 19


def pose_key_of(r):
    return f"{r.compound_id}/{r.target_id}/{r.pose_id}"
