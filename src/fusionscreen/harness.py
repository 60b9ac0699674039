"""Fault-tolerant partitioned batch scoring.

A screening campaign splits a pose library into contiguous jobs; each job
scores its poses across a fixed number of ranks, gathers every rank's
predictions, redistributes them by compound, and writes one output shard per
rank plus a manifest.  Writes are all-or-nothing: a job that fails at any
point before the gather leaves no shards behind.  The campaign driver retries
failed jobs up to a retry budget and records any ranges still missing
afterwards, so re-running a campaign never duplicates a prediction.

Faults are injected deterministically from a seed: record corruption is a
property of the pose (stable across attempts), rank and job failures are
drawn per (job, attempt) so retries can succeed.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_RANKS_PER_JOB = 16
DEFAULT_BATCH_SIZE = 56
DEFAULT_LOADERS_PER_RANK = 12
DEFAULT_RETRIES = 3
MANIFEST_NAME = "campaign_manifest.json"


@dataclass(frozen=True)
class PoseRecord:
    compound_id: str
    target_id: str
    pose_id: int
    payload: object = None     # featurized item for model scorers, or None


@dataclass(frozen=True)
class PredictionRecord:
    compound_id: str
    target_id: str
    pose_id: int
    predicted_pk: float
    job_id: int
    rank_id: int


@dataclass(frozen=True)
class FaultPlan:
    record_corruption_rate: float = 0.0
    rank_failure_rate: float = 0.0     # chance some rank dies during a job
    job_failure_rate: float = 0.0      # chance the whole job is lost
    seed: int = 0

    def __post_init__(self):
        for name in ("record_corruption_rate", "rank_failure_rate",
                     "job_failure_rate"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {v}")


@dataclass(frozen=True)
class JobSpec:
    job_id: int
    poses: tuple
    ranks_per_job: int = DEFAULT_RANKS_PER_JOB
    batch_size: int = DEFAULT_BATCH_SIZE
    loaders_per_rank: int = DEFAULT_LOADERS_PER_RANK

    def __post_init__(self):
        if self.ranks_per_job < 1 or self.batch_size < 1 \
                or self.loaders_per_rank < 1:
            raise ValueError("ranks, batch size and loaders must be >= 1")


@dataclass
class JobResult:
    job_id: int
    attempt: int
    status: str                       # "ok" | "failed"
    predictions: list = field(default_factory=list)
    corrupted: list = field(default_factory=list)   # (pose key, reason)
    failure_reason: str | None = None
    timings: dict = field(default_factory=dict)


@dataclass
class ThroughputReport:
    startup_s: float
    evaluation_s: float
    output_s: float
    n_poses: int
    n_compounds: int

    @property
    def total_s(self) -> float:
        return self.startup_s + self.evaluation_s + self.output_s

    @property
    def poses_per_second(self) -> float:
        return self.n_poses / self.evaluation_s if self.evaluation_s > 0 else 0.0

    @property
    def poses_per_hour(self) -> float:
        return 3600.0 * self.poses_per_second

    @property
    def compounds_per_hour(self) -> float:
        if self.n_poses == 0:
            return 0.0
        return self.poses_per_hour * self.n_compounds / self.n_poses

    def as_dict(self) -> dict:
        return {**asdict(self), "total_s": self.total_s,
                "poses_per_second": self.poses_per_second,
                "poses_per_hour": self.poses_per_hour,
                "compounds_per_hour": self.compounds_per_hour}


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------

def balanced_sizes(n: int, parts: int) -> list[int]:
    """Contiguous balanced split sizes; any two differ by at most one."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    base, extra = divmod(n, parts)
    return [base + 1 if i < extra else base for i in range(parts)]


def partition(library: list[PoseRecord], n_jobs: int,
              ranks_per_job: int = DEFAULT_RANKS_PER_JOB,
              batch_size: int = DEFAULT_BATCH_SIZE,
              loaders_per_rank: int = DEFAULT_LOADERS_PER_RANK,
              ) -> list[JobSpec]:
    """Splits the library into contiguous, balanced jobs.

    Every pose lands in exactly one job and library order is preserved.
    """
    if not library:
        raise ValueError("empty library")
    if n_jobs > len(library):
        raise ValueError(f"{n_jobs} jobs for {len(library)} poses")
    jobs, start = [], 0
    for jid, size in enumerate(balanced_sizes(len(library), n_jobs)):
        jobs.append(JobSpec(jid, tuple(library[start:start + size]),
                            ranks_per_job, batch_size, loaders_per_rank))
        start += size
    return jobs


def rank_assignments(spec: JobSpec) -> list[list[PoseRecord]]:
    """Contiguous balanced split of a job's poses across its ranks."""
    out, start = [], 0
    for size in balanced_sizes(len(spec.poses), spec.ranks_per_job):
        out.append(list(spec.poses[start:start + size]))
        start += size
    return out


# ---------------------------------------------------------------------------
# deterministic fault draws
# ---------------------------------------------------------------------------

def _unit_hash(*parts) -> float:
    h = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(h[:8], "big") / 2 ** 64


def pose_key(p: PoseRecord) -> str:
    return f"{p.compound_id}/{p.target_id}/{p.pose_id}"


def is_corrupted(pose: PoseRecord, plan: FaultPlan) -> bool:
    """Corruption is a stable property of the pose, not of the attempt."""
    if plan.record_corruption_rate == 0.0:
        return False
    return _unit_hash(plan.seed, "corrupt", pose_key(pose)) \
        < plan.record_corruption_rate


def attempt_fails(job_id: int, attempt: int, plan: FaultPlan) -> str | None:
    """Returns a failure reason for this (job, attempt), or None."""
    if _unit_hash(plan.seed, "job", job_id, attempt) < plan.job_failure_rate:
        return "job lost"
    if _unit_hash(plan.seed, "rank", job_id, attempt) < plan.rank_failure_rate:
        return "rank died mid-job"
    return None


# ---------------------------------------------------------------------------
# scorers
# ---------------------------------------------------------------------------

class SyntheticScorer:
    """Deterministic hash-based scores with an optional simulated cost.

    The cost model is per batch: ``per_pose_s * n + per_batch_s`` seconds,
    spent in a real sleep so thread-level parallelism shortens wall time.
    """

    def __init__(self, per_pose_s: float = 0.0, per_batch_s: float = 0.0,
                 seed: int = 0):
        self.per_pose_s = per_pose_s
        self.per_batch_s = per_batch_s
        self.seed = seed

    def __call__(self, poses: list[PoseRecord]) -> list[float]:
        if self.per_pose_s or self.per_batch_s:
            time.sleep(self.per_pose_s * len(poses) + self.per_batch_s)
        return [2.0 + 10.0 * _unit_hash(self.seed, "score", pose_key(p))
                for p in poses]


@dataclass(frozen=True)
class Unscorable:
    """Returned by a scorer in place of the score of a pose it cannot score.

    The job logs the pose with this reason beside its corrupt records and
    scores the rest of the batch.
    """
    reason: str


class ModelScorer:
    """Scores poses whose payloads are (VoxelGrid, ComplexGraph) pairs.

    A pose that ``predict_batch`` rejects comes back as :class:`Unscorable`
    with its reason.
    """

    def __init__(self, model):
        self.model = model

    def __call__(self, poses: list[PoseRecord]) -> list[float | Unscorable]:
        preds, errors = self.model.predict_batch([p.payload for p in poses])
        reasons = dict(errors)
        return [Unscorable(reasons[i]) if i in reasons else float(p)
                for i, p in enumerate(preds)]


# ---------------------------------------------------------------------------
# job execution
# ---------------------------------------------------------------------------

class JobFailure(RuntimeError):
    pass


def run_job(spec: JobSpec, scorer, plan: FaultPlan | None = None,
            attempt: int = 0, out_dir=None) -> JobResult:
    """Runs one job attempt: score per rank, gather, redistribute, write.

    Output shards (one JSONL file per rank, predictions grouped by compound)
    and the shard manifest appear only if the whole job succeeds; corrupted
    records and poses the scorer returns as :class:`Unscorable` are skipped
    and logged, never written as predictions.
    """
    plan = plan or FaultPlan()
    result = JobResult(spec.job_id, attempt, "ok")
    t0 = time.perf_counter()
    assignments = rank_assignments(spec)
    t1 = time.perf_counter()

    reason = attempt_fails(spec.job_id, attempt, plan)
    if reason is not None:
        result.status = "failed"
        result.failure_reason = reason
        logger.warning("job %d attempt %d failed: %s",
                       spec.job_id, attempt, reason)
        return result

    per_rank: list[list[PredictionRecord]] = []
    for rank_id, poses in enumerate(assignments):
        clean = []
        for p in poses:
            if is_corrupted(p, plan):
                result.corrupted.append((pose_key(p), "corrupt record"))
            else:
                clean.append(p)
        preds = []
        for i in range(0, len(clean), spec.batch_size):
            batch = clean[i:i + spec.batch_size]
            for p, score in zip(batch, scorer(batch)):
                if isinstance(score, Unscorable):
                    result.corrupted.append((pose_key(p), score.reason))
                    continue
                preds.append(PredictionRecord(p.compound_id, p.target_id,
                                              p.pose_id, score,
                                              spec.job_id, rank_id))
        per_rank.append(preds)
    t2 = time.perf_counter()

    # allgather, then redistribute by compound so each compound's poses land
    # in exactly one shard
    everything = [r for preds in per_rank for r in preds]
    result.predictions = everything
    if out_dir is not None:
        compounds = sorted({r.compound_id for r in everything})
        owner = {}
        start = 0
        for rank_id, size in enumerate(balanced_sizes(len(compounds),
                                                      spec.ranks_per_job)):
            for c in compounds[start:start + size]:
                owner[c] = rank_id
            start += size
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        shards = {}
        for r in everything:
            shards.setdefault(owner[r.compound_id], []).append(r)
        shard_files = []
        for rank_id in range(spec.ranks_per_job):
            rows = shards.get(rank_id, [])
            name = f"shard_{spec.job_id:05d}_{rank_id:03d}.jsonl"
            with open(out_dir / name, "w") as f:
                for r in sorted(rows, key=lambda r: (r.compound_id,
                                                     r.target_id, r.pose_id)):
                    f.write(json.dumps(asdict(r)) + "\n")
            shard_files.append({"file": name, "records": len(rows)})
        with open(out_dir / f"job_{spec.job_id:05d}_manifest.json", "w") as f:
            json.dump({"job_id": spec.job_id, "attempt": attempt,
                       "poses": len(spec.poses),
                       "scored": len(everything),
                       "corrupted": len(result.corrupted),
                       "shards": shard_files}, f, indent=2)
        if result.corrupted:
            with open(out_dir / f"job_{spec.job_id:05d}_errors.jsonl", "w") as f:
                for key, why in result.corrupted:
                    f.write(json.dumps({"pose": key, "reason": why}) + "\n")
    t3 = time.perf_counter()
    result.timings = {"startup_s": t1 - t0, "evaluation_s": t2 - t1,
                      "output_s": t3 - t2}
    return result


# ---------------------------------------------------------------------------
# campaign driver
# ---------------------------------------------------------------------------

@dataclass
class CampaignReport:
    n_poses: int
    n_jobs: int
    succeeded: list
    abandoned: list                    # job ids that exhausted retries
    missing_ranges: list               # (first pose key, last pose key, count)
    attempts: dict                     # job_id -> attempts used
    corrupted: list
    timings: dict

    @property
    def complete(self) -> bool:
        return not self.abandoned


def run_campaign(library: list[PoseRecord], scorer, n_jobs: int,
                 plan: FaultPlan | None = None, out_dir=None,
                 parallelism: int = 4, retries: int = DEFAULT_RETRIES,
                 ranks_per_job: int = DEFAULT_RANKS_PER_JOB,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 loaders_per_rank: int = DEFAULT_LOADERS_PER_RANK,
                 ) -> tuple[list[PredictionRecord], CampaignReport]:
    """Partitions, runs jobs in parallel, retries failures, reports gaps.

    Each pose is scored exactly once across the whole campaign: a failed
    attempt writes nothing, and a successful retry replaces it wholesale.
    Jobs still failing after ``retries`` extra attempts are abandoned and
    their pose ranges listed in the campaign manifest.
    """
    plan = plan or FaultPlan()
    t0 = time.perf_counter()
    jobs = partition(library, n_jobs, ranks_per_job, batch_size,
                     loaders_per_rank)
    results: dict[int, JobResult] = {}
    attempts = {j.job_id: 0 for j in jobs}
    abandoned = []

    def attempt_job(spec: JobSpec) -> JobResult:
        return run_job(spec, scorer, plan, attempts[spec.job_id], out_dir)

    pending = list(jobs)
    with ThreadPoolExecutor(max_workers=max(1, parallelism)) as pool:
        while pending:
            futures = {pool.submit(attempt_job, j): j for j in pending}
            retry = []
            for fut, spec in futures.items():
                res = fut.result()
                attempts[spec.job_id] += 1
                if res.status == "ok":
                    results[spec.job_id] = res
                elif attempts[spec.job_id] <= retries:
                    retry.append(spec)
                else:
                    abandoned.append(spec.job_id)
                    logger.error("job %d abandoned after %d attempts",
                                 spec.job_id, attempts[spec.job_id])
            pending = retry
    t1 = time.perf_counter()

    predictions, corrupted = [], []
    for jid in sorted(results):
        predictions.extend(results[jid].predictions)
        corrupted.extend(results[jid].corrupted)
    missing = []
    for jid in sorted(abandoned):
        poses = jobs[jid].poses
        missing.append({"job_id": jid, "first": pose_key(poses[0]),
                        "last": pose_key(poses[-1]), "count": len(poses)})
    report = CampaignReport(
        n_poses=len(library), n_jobs=n_jobs,
        succeeded=sorted(results), abandoned=sorted(abandoned),
        missing_ranges=missing, attempts=attempts, corrupted=corrupted,
        timings={"wall_s": t1 - t0,
                 "startup_s": sum(r.timings.get("startup_s", 0.0)
                                  for r in results.values()),
                 "evaluation_s": sum(r.timings.get("evaluation_s", 0.0)
                                     for r in results.values()),
                 "output_s": sum(r.timings.get("output_s", 0.0)
                                 for r in results.values())})
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / MANIFEST_NAME, "w") as f:
            json.dump({"n_poses": report.n_poses, "n_jobs": report.n_jobs,
                       "succeeded": report.succeeded,
                       "abandoned": report.abandoned,
                       "missing_ranges": report.missing_ranges,
                       "attempts": attempts,
                       "corrupted": len(corrupted),
                       "complete": report.complete,
                       "timings": report.timings}, f, indent=2)
    return predictions, report


def load_shards(out_dir) -> list[PredictionRecord]:
    """Reads every shard a campaign wrote back into prediction records."""
    out = []
    for path in sorted(Path(out_dir).glob("shard_*.jsonl")):
        with open(path) as f:
            for line in f:
                out.append(PredictionRecord(**json.loads(line)))
    return out


# ---------------------------------------------------------------------------
# throughput and scaling
# ---------------------------------------------------------------------------

def throughput_report(startup_s: float, evaluation_s: float, output_s: float,
                      n_poses: int, n_compounds: int) -> ThroughputReport:
    if min(startup_s, evaluation_s, output_s) < 0:
        raise ValueError("negative phase time")
    return ThroughputReport(startup_s, evaluation_s, output_s,
                            n_poses, n_compounds)


def scaling_experiment(n_poses: int, worker_groups: list[int],
                       batch_sizes: list[int],
                       per_pose_s: float = 2e-4, per_batch_s: float = 2e-3,
                       plan: FaultPlan | None = None) -> list[dict]:
    """Measures evaluation wall time across worker-group counts and batches.

    Worker groups run as real threads over a synthetic sleep-based scorer, so
    the measured times reflect genuine parallel speedup.  Returns one row per
    (worker_groups, batch_size) combination with wall time and derived
    throughput.
    """
    library = [PoseRecord(f"c{i // 10:06d}", "t0", i % 10)
               for i in range(n_poses)]
    rows = []
    for groups in worker_groups:
        for bs in batch_sizes:
            scorer = SyntheticScorer(per_pose_s, per_batch_s)
            t0 = time.perf_counter()
            preds, report = run_campaign(
                library, scorer, n_jobs=groups, plan=plan,
                parallelism=groups, ranks_per_job=1, batch_size=bs)
            wall = time.perf_counter() - t0
            rows.append({"worker_groups": groups, "batch_size": bs,
                         "wall_s": wall, "scored": len(preds),
                         "complete": report.complete,
                         "poses_per_second": len(preds) / wall})
    return rows
