import copy
import dataclasses
import json
import logging
import pickle
import re
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    PredictionRecord,
    partition,
    pose_key,
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

    def test_job_spec_defaults_match_reference_layout(self):
        spec = JobSpec(0, tuple(library(10)))
        assert spec.ranks_per_job == 16
        assert spec.batch_size == 56

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

    def test_rank_id_is_shard_index(self, tmp_path):
        spec = JobSpec(0, tuple(library(40, poses_per_compound=4)),
                       ranks_per_job=3)
        res = run_job(spec, SyntheticScorer(), out_dir=tmp_path)
        lines = 0
        for shard in sorted(tmp_path.glob("shard_*.jsonl")):
            index = int(shard.stem.split("_")[2])
            for line in shard.read_text().splitlines():
                assert json.loads(line)["rank_id"] == index
                lines += 1
        assert lines == len(res.predictions) == 40

    def test_batches_run_across_the_job(self):
        sizes = []

        def scorer(poses):
            sizes.append(len(poses))
            return SyntheticScorer()(poses)

        spec = JobSpec(0, tuple(library(37)), ranks_per_job=4, batch_size=5)
        assert run_job(spec, scorer).status == "ok"
        assert sizes == [5] * 7 + [2]

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

    def test_retry_does_not_wait_for_other_jobs(self):
        # job 0 holds c00000-c00001 and fails its first attempt; job 1 scores
        # only once job 0's retry has run, so a driver that waits for every
        # job's attempt before retrying would leave job 1 waiting
        retried = threading.Event()
        job0_calls, waits = [], []

        def scorer(poses):
            if poses[0].compound_id <= "c00001":
                job0_calls.append(poses)
                if len(job0_calls) == 1:
                    raise RuntimeError("node lost")
                retried.set()
            else:
                waits.append(retried.wait(timeout=5.0))
            return [1.0] * len(poses)

        _, report = run_campaign(library(4), scorer, n_jobs=2, parallelism=2)
        assert report.complete
        assert report.attempts == {0: 2, 1: 1}
        assert waits == [True]

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            run_campaign(library(4), SyntheticScorer(), n_jobs=2, retries=-1)

    @pytest.mark.parametrize("parallelism", [0, -4])
    def test_parallelism_below_one_rejected(self, parallelism):
        with pytest.raises(ValueError, match="parallelism must be >= 1"):
            run_campaign(library(4), SyntheticScorer(), n_jobs=2,
                         parallelism=parallelism)


class FailingScorer(SyntheticScorer):
    """Raises for batches holding one compound, ``times`` times at most."""

    def __init__(self, compound_id, times):
        super().__init__()
        self.compound_id, self.left = compound_id, times
        self.lock = threading.Lock()

    def __call__(self, poses):
        with self.lock:
            if self.left and any(p.compound_id == self.compound_id
                                 for p in poses):
                self.left -= 1
                raise RuntimeError(f"scorer broke on {self.compound_id}")
        return super().__call__(poses)


class TestScorerExceptions:
    def test_exception_fails_only_that_attempt(self):
        spec = JobSpec(0, tuple(library(10)), ranks_per_job=2)
        res = run_job(spec, FailingScorer("c00003", 1))
        assert res.status == "failed"
        assert res.failure_reason == \
            "scorer raised RuntimeError: scorer broke on c00003"
        assert res.predictions == [] and res.corrupted == []

    def test_raising_once_is_retried(self, tmp_path, caplog):
        lib = library(90, poses_per_compound=3)
        scorer = FailingScorer("c00012", 1)          # in job 1 of 3
        with caplog.at_level(logging.ERROR, logger="fusionscreen.harness"):
            preds, report = run_campaign(lib, scorer, n_jobs=3,
                                         out_dir=tmp_path, parallelism=2,
                                         ranks_per_job=2, batch_size=4)
        assert report.complete
        assert report.attempts == {0: 1, 1: 2, 2: 1}
        [logged] = [r for r in caplog.records if r.exc_info]
        assert "job 1 attempt 0" in logged.getMessage()
        assert logged.exc_info[0] is RuntimeError
        on_disk = [pose_key_of(r) for r in harness.load_shards(tmp_path)]
        assert sorted(on_disk) == sorted(pose_key(p) for p in lib)
        assert sorted(pose_key_of(r) for r in preds) == sorted(on_disk)

    def test_always_raising_job_is_abandoned(self, tmp_path):
        lib = library(90, poses_per_compound=3)
        jobs = partition(lib, 3, ranks_per_job=2)
        preds, report = run_campaign(lib, FailingScorer("c00012", 99),
                                     n_jobs=3, out_dir=tmp_path,
                                     parallelism=2, retries=2,
                                     ranks_per_job=2, batch_size=4)
        assert report.abandoned == [1]
        assert report.attempts[1] == 3
        assert report.missing_ranges == [{
            "job_id": 1, "first": pose_key(jobs[1].poses[0]),
            "last": pose_key(jobs[1].poses[-1]), "count": 30}]
        manifest = json.loads((tmp_path / harness.MANIFEST_NAME).read_text())
        assert manifest["missing_ranges"] == report.missing_ranges
        shard_jobs = {int(p.name.split("_")[1])
                      for p in tmp_path.glob("shard_*.jsonl")}
        assert shard_jobs == {0, 2}
        expected = sorted(pose_key(p) for j in (jobs[0], jobs[2])
                          for p in j.poses)
        on_disk = [pose_key_of(r) for r in harness.load_shards(tmp_path)]
        assert sorted(on_disk) == expected
        assert sorted(pose_key_of(r) for r in preds) == expected


class ShortScorer(SyntheticScorer):
    """Drops the last score of batches holding one compound, ``times`` times."""

    def __init__(self, compound_id, times):
        super().__init__()
        self.compound_id, self.left = compound_id, times
        self.lock = threading.Lock()

    def __call__(self, poses):
        scores = super().__call__(poses)
        with self.lock:
            if self.left and any(p.compound_id == self.compound_id
                                 for p in poses):
                self.left -= 1
                return scores[:-1]
        return scores


class TestShortScoreLists:
    def test_short_list_fails_the_attempt(self, tmp_path):
        spec = JobSpec(0, tuple(library(10)), ranks_per_job=1, batch_size=5)
        res = run_job(spec, ShortScorer("c00003", 1), out_dir=tmp_path)
        assert res.status == "failed"
        assert res.failure_reason == "scorer returned 4 scores for 5 poses"
        assert res.predictions == [] and res.corrupted == []
        assert list(tmp_path.iterdir()) == []

    def test_short_once_is_retried(self, tmp_path):
        lib = library(90, poses_per_compound=3)
        preds, report = run_campaign(lib, ShortScorer("c00012", 1), n_jobs=3,
                                     out_dir=tmp_path, parallelism=2,
                                     ranks_per_job=2, batch_size=4)
        assert report.complete
        assert report.attempts == {0: 1, 1: 2, 2: 1}
        on_disk = [pose_key_of(r) for r in harness.load_shards(tmp_path)]
        assert sorted(on_disk) == sorted(pose_key(p) for p in lib)
        assert sorted(pose_key_of(r) for r in preds) == sorted(on_disk)

    def test_always_short_job_is_abandoned(self, tmp_path):
        lib = library(90, poses_per_compound=3)
        jobs = partition(lib, 3, ranks_per_job=2)
        preds, report = run_campaign(lib, ShortScorer("c00012", 99),
                                     n_jobs=3, out_dir=tmp_path,
                                     parallelism=2, retries=2,
                                     ranks_per_job=2, batch_size=4)
        assert not report.complete
        assert report.abandoned == [1]
        assert report.missing_ranges == [{
            "job_id": 1, "first": pose_key(jobs[1].poses[0]),
            "last": pose_key(jobs[1].poses[-1]), "count": 30}]
        expected = sorted(pose_key(p) for j in (jobs[0], jobs[2])
                          for p in j.poses)
        on_disk = [pose_key_of(r) for r in harness.load_shards(tmp_path)]
        assert sorted(on_disk) == expected


class ReplacingScorer(SyntheticScorer):
    """Synthetic scores passed through ``convert``; the pose ``key``'s score
    is replaced by ``value``."""

    def __init__(self, convert=float, key=None, value=None):
        super().__init__()
        self.convert, self.key, self.value = convert, key, value

    def __call__(self, poses):
        return [self.value if pose_key(p) == self.key else self.convert(s)
                for p, s in zip(poses, super().__call__(poses))]


class TestScoreTypes:
    LIB = library(90, poses_per_compound=3)

    def campaign(self, scorer, out_dir):
        return run_campaign(self.LIB, scorer, n_jobs=3, out_dir=out_dir,
                            parallelism=2, retries=1, ranks_per_job=2,
                            batch_size=4)

    def test_float32_scores_stored_as_float(self, tmp_path):
        preds, report = self.campaign(ReplacingScorer(np.float32), tmp_path)
        assert report.complete and len(preds) == 90
        expected = [float(np.float32(s))
                    for s in SyntheticScorer()(self.LIB)]
        assert [r.predicted_pk for r in preds] == expected
        assert all(type(r.predicted_pk) is float for r in preds)
        assert sorted(harness.load_shards(tmp_path), key=pose_key_of) == \
            sorted(preds, key=pose_key_of)

    def test_none_score_fails_the_attempt(self, tmp_path):
        bad = pose_key(self.LIB[40])                 # in job 1 of 3
        scorer = ReplacingScorer(key=bad, value=None)
        spec = partition(self.LIB, 3, ranks_per_job=2, batch_size=4)[1]
        res = run_job(spec, scorer, out_dir=tmp_path)
        assert res.status == "failed"
        assert res.failure_reason == \
            f"scorer returned a NoneType score for pose {bad}"
        assert list(tmp_path.iterdir()) == []
        preds, report = self.campaign(scorer, tmp_path)
        assert report.abandoned == [1] and report.attempts[1] == 2
        assert len(preds) == 60
        assert {int(p.name.split("_")[1])
                for p in tmp_path.glob("shard_*.jsonl")} == {0, 2}
        assert "null" not in "".join(
            p.read_text() for p in tmp_path.glob("shard_*.jsonl"))

    @pytest.mark.parametrize("value", [float("nan"), np.float32("nan"),
                                       float("-inf")])
    def test_non_finite_score_logged_as_unscorable(self, tmp_path, value):
        bad = pose_key(self.LIB[40])
        preds, report = self.campaign(ReplacingScorer(key=bad, value=value),
                                      tmp_path)
        assert report.complete
        assert report.corrupted == [(bad, "non-finite score")]
        assert len(preds) == 89
        assert bad not in {pose_key_of(r) for r in preds}
        logged = (tmp_path / "job_00001_errors.jsonl").read_text()
        assert logged == json.dumps({"pose": bad,
                                     "reason": "non-finite score"}) + "\n"
        assert len(harness.load_shards(tmp_path)) == 89

    def test_score_beyond_float_range_logged_as_non_finite(self, tmp_path):
        lib = library(4)
        preds, report = run_campaign(lib, lambda batch: [10 ** 400] * len(batch),
                                     n_jobs=1, out_dir=tmp_path, retries=0)
        assert report.complete and report.abandoned == []
        assert preds == []
        assert report.corrupted == [(pose_key(p), "non-finite score")
                                    for p in lib]
        assert harness.load_shards(tmp_path) == []

    def test_unencodable_record_fails_the_attempt(self, tmp_path):
        # the last compound lands in the last shard, so a writer encoding
        # as it goes would leave the first shard behind
        lib = library(12, poses_per_compound=4)
        lib[-1] = PoseRecord(lib[-1].compound_id, "t0", np.int64(3))
        res = run_job(JobSpec(0, tuple(lib), ranks_per_job=3),
                      SyntheticScorer(), out_dir=tmp_path)
        assert res.status == "failed"
        assert res.failure_reason.startswith("unencodable output: TypeError")
        assert list(tmp_path.iterdir()) == []


def reference_shard_text(records):
    """Shard text as ``dataclasses.asdict`` per record, sorted by pose."""
    rows = sorted(records, key=lambda r: (r.compound_id, r.target_id,
                                          r.pose_id))
    return "".join(json.dumps(dataclasses.asdict(r)) + "\n" for r in rows)


def reference_load(out_dir):
    """Shards read back one line at a time."""
    return [PredictionRecord(**json.loads(line))
            for path in sorted(Path(out_dir).glob("shard_*.jsonl"))
            for line in path.read_text().splitlines()]


class TestShardIO:
    PLAN = FaultPlan(record_corruption_rate=0.2, rank_failure_rate=0.3,
                     seed=2)

    def test_shards_byte_equal_to_asdict_reference(self, tmp_path):
        # 4 ranks over 3 compounds: the last rank's shard is empty
        lib = library(12, poses_per_compound=4)
        res = run_job(JobSpec(2, tuple(lib), ranks_per_job=4, batch_size=5),
                      SyntheticScorer(seed=1), self.PLAN, attempt=3,
                      out_dir=tmp_path)
        assert res.status == "ok" and res.corrupted
        by_compound = {}
        for r in res.predictions:
            by_compound.setdefault(r.compound_id, []).append(r)
        compounds = sorted(by_compound)
        assert len(compounds) == 3
        for rank_id in range(4):
            records = by_compound[compounds[rank_id]] if rank_id < 3 else []
            shard = tmp_path / f"shard_00002_{rank_id:03d}.jsonl"
            assert shard.read_bytes() == \
                reference_shard_text(records).encode()

    _text = st.text(alphabet=st.characters(codec="utf-8"), max_size=12) | \
        st.sampled_from(['"', "\\", "\x00\x1f\n\t", "\u00e9\u6f22",
                         "\U0001f600", 'a"b\\c'])
    _int = st.integers(-2 ** 80, 2 ** 80) | st.integers(0, 99) | \
        st.booleans()
    _float = st.floats() | st.sampled_from(
        [-0.0, 5e-324, 2.225073858507201e-308, 1e16, 1e-7, float("nan"),
         float("inf"), float("-inf")]) | st.floats().map(np.float64)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(PredictionRecord, _text, _text, _int, _float,
                              _int, _int), max_size=8))
    def test_shard_text_byte_equal_to_asdict_reference(self, records):
        assert harness._shard_text(records) == reference_shard_text(records)

    def test_load_shards_round_trip(self, tmp_path):
        lib = library(200, poses_per_compound=5)
        preds, report = run_campaign(lib, SyntheticScorer(seed=2), n_jobs=4,
                                     plan=self.PLAN, out_dir=tmp_path,
                                     parallelism=2, ranks_per_job=12,
                                     retries=5)
        assert report.complete and report.corrupted
        assert any(p.stat().st_size == 0
                   for p in tmp_path.glob("shard_*.jsonl"))
        loaded = harness.load_shards(tmp_path)
        assert loaded == reference_load(tmp_path)
        assert sorted(loaded, key=pose_key_of) == \
            sorted(preds, key=pose_key_of)

    @pytest.mark.parametrize("damage", [
        lambda text: text[:-9],
        lambda text: text.replace('"rank_id"', '"rank"', 1),
        lambda text: text.replace("\n", ", " + text.split("\n")[0] + "\n", 1),
        lambda text: text + "\n",
    ], ids=["truncated", "wrong-field", "two-on-a-line", "blank-line"])
    def test_unreadable_shard_raises_naming_it(self, tmp_path, damage):
        run_job(JobSpec(0, tuple(library(12, 3)), ranks_per_job=2),
                SyntheticScorer(), out_dir=tmp_path)
        shard = tmp_path / "shard_00000_001.jsonl"
        shard.write_text(damage(shard.read_text()))
        with pytest.raises(ValueError, match=str(shard)):
            harness.load_shards(tmp_path)

    _finite = st.floats(allow_nan=False, allow_infinity=False) | \
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                         1e16, -1e16, 1e-7, 1.7976931348623157e308])
    _declared_int = st.integers(-2 ** 80, 2 ** 80) | st.integers(0, 99)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(PredictionRecord, _text, _text, _declared_int,
                              _finite, _declared_int, _declared_int),
                    max_size=8))
    def test_load_shards_equals_line_by_line_reference(self, records):
        with tempfile.TemporaryDirectory() as d:
            shard = Path(d) / "shard_00000_000.jsonl"
            shard.write_text(harness._shard_text(records))
            loaded = harness.load_shards(d)
            reference = reference_load(d)
        assert typed(loaded) == typed(reference)
        assert typed(loaded) == typed(sorted(records, key=harness._POSE_ORDER))

    @pytest.mark.parametrize("field, value, message", [
        ("predicted_pk", "null", "a finite number, got None"),
        ("predicted_pk", "NaN", "a finite number, got nan"),
        ("predicted_pk", "-Infinity", "a finite number, got -inf"),
        ("predicted_pk", '"5.0"', "a finite number, got '5.0'"),
        ("predicted_pk", "1" + "0" * 400, "a finite number, got 1000"),
        ("pose_id", '"1"', "an integer, got '1'"),
        ("pose_id", "1.0", "an integer, got 1.0"),
        ("job_id", "true", "an integer, got True"),
        ("rank_id", "null", "an integer, got None"),
        ("compound_id", "3", "a string, got 3"),
        ("target_id", "[]", r"a string, got \[\]"),
    ])
    def test_wrong_type_raises_naming_shard_line_and_field(
            self, tmp_path, field, value, message):
        run_job(JobSpec(0, tuple(library(12, 3)), ranks_per_job=2),
                SyntheticScorer(), out_dir=tmp_path)
        shard = tmp_path / "shard_00000_001.jsonl"
        lines = shard.read_text().splitlines(keepends=True)
        row = json.loads(lines[1])
        lines[1] = json.dumps(row).replace(
            f'"{field}": {json.dumps(row[field])}',
            f'"{field}": {value}') + "\n"
        assert lines[1] != json.dumps(row) + "\n"
        shard.write_text("".join(lines))
        with pytest.raises(ValueError) as err:
            harness.load_shards(tmp_path)
        assert str(err.value).startswith(
            f"unreadable shard {shard} line 2: field {field} must be ")
        assert re.search(message, str(err.value))

    def test_integer_score_loads_as_its_float(self, tmp_path):
        line = json.dumps({"compound_id": "c1", "target_id": "t0",
                           "pose_id": 0, "predicted_pk": 7, "job_id": 0,
                           "rank_id": 0})
        (tmp_path / "shard_00000_000.jsonl").write_text(line + "\n")
        [record] = harness.load_shards(tmp_path)
        assert record == PredictionRecord("c1", "t0", 0, 7.0, 0, 0)
        assert type(record.predicted_pk) is float


def typed(records):
    """Each record's fields as (repr, type) pairs: -0.0 differs from 0.0 and
    an int from its float."""
    return [[(repr(getattr(r, f)), type(getattr(r, f)))
             for f in harness._FIELDS] for r in records]


class TestPredictionRecord:
    RECORD = PredictionRecord("cé", "t0", 3, -0.0, 2, 1)

    def test_frozen_and_slotted(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.RECORD.pose_id = 4
        assert not hasattr(self.RECORD, "__dict__")
        assert harness._FIELDS == PredictionRecord.__match_args__

    def test_hash_and_equality_by_value(self):
        twin = PredictionRecord("cé", "t0", 3, -0.0, 2, 1)
        assert twin == self.RECORD and hash(twin) == hash(self.RECORD)
        assert twin is not self.RECORD
        assert len({twin, self.RECORD}) == 1
        assert self.RECORD != dataclasses.replace(self.RECORD, rank_id=0)

    @pytest.mark.parametrize("round_trip", [
        lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_round_trips(self, round_trip):
        back = round_trip(self.RECORD)
        assert back == self.RECORD and typed([back]) == typed([self.RECORD])

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(TestShardIO._text, TestShardIO._text, TestShardIO._int,
                     TestShardIO._float, TestShardIO._int, TestShardIO._int))
    def test_trusted_record_equals_public_constructor(self, values):
        built = harness._trusted_record(*values)
        public = PredictionRecord(*values)
        assert type(built) is PredictionRecord
        assert typed([built]) == typed([public])
        assert built == public and hash(built) == hash(public)


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

    def test_pose_with_malformed_graph_logged_campaign_finishes(
            self, toy_model, toy_items, tmp_path):
        lib = [PoseRecord(f"c{i}", "t0", 0,
                          (toy_items[i].grid, toy_items[i].graph))
               for i in range(3)]
        grid, graph = lib[1].payload
        # an edge to a node past the graph's end
        graph = dataclasses.replace(
            graph, covalent_edges=np.array([[0, graph.n_nodes]]))
        lib[1] = PoseRecord("c1", "t0", 0, (grid, graph))
        reason = f"graph covalent_edges index outside [0, {graph.n_nodes})"
        preds, report = run_campaign(lib, harness.ModelScorer(toy_model),
                                     n_jobs=1, out_dir=tmp_path,
                                     batch_size=3)
        assert report.complete
        assert report.corrupted == [(pose_key(lib[1]), reason)]
        alone, _ = toy_model.predict_batch([lib[0].payload, lib[2].payload])
        assert sorted((r.compound_id, r.predicted_pk) for r in preds) == \
            [("c0", alone[0]), ("c2", alone[1])]
        logged = (tmp_path / "job_00000_errors.jsonl").read_text()
        assert [json.loads(line) for line in logged.splitlines()] == \
            [{"pose": pose_key(lib[1]), "reason": reason}]


def pose_key_of(r):
    return f"{r.compound_id}/{r.target_id}/{r.pose_id}"
