"""Fault-tolerant partitioned batch scoring.

A screening campaign splits a pose library into contiguous jobs.  A job
drops its corrupt records, scores the rest in ``batch_size`` batches across
the whole job, and writes its predictions grouped by compound into
``ranks_per_job`` shards plus a manifest.  Ranks add no concurrency: they
only name a job's shards, and a record's ``rank_id`` is the index of the
shard that holds it.  Writes are all-or-nothing: a job encodes every file
before it writes the first, so a job that fails at any point before the
write leaves no shards behind; a scorer that raises, returns the wrong
number of scores or returns a score that is not a real number fails only
that attempt, and a pose with a non-finite score is logged as unscorable.
The campaign driver hands each job to one worker, which runs that job's
attempts in turn until one succeeds or the retry budget is spent, so a retry
never waits for other jobs; the ranges of abandoned jobs are recorded, and
within one campaign no prediction is written twice.  Across campaigns this
does not yet hold: a re-run into a directory holding a different job layout
overwrites only the files whose names it shares, and the earlier layout's
other shards and manifests stay beside its own, so the directory then holds
some poses twice (ROADMAP item 1 tracks the fix).

Faults are injected deterministically from a seed: record corruption is a
property of the pose (stable across attempts), rank and job failures are
drawn per (job, attempt) so retries can succeed.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import numbers
import operator
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, asdict
from json.encoder import encode_basestring_ascii
from pathlib import Path

logger = logging.getLogger(__name__)

DEFAULT_RANKS_PER_JOB = 16
DEFAULT_BATCH_SIZE = 56
DEFAULT_RETRIES = 3
MANIFEST_NAME = "campaign_manifest.json"


@dataclass(frozen=True)
class PoseRecord:
    compound_id: str
    target_id: str
    pose_id: int
    payload: object = None     # featurized item for model scorers, or None


@dataclass(frozen=True, slots=True)
class PredictionRecord:
    compound_id: str
    target_id: str
    pose_id: int
    predicted_pk: float
    job_id: int
    rank_id: int


_FIELDS = tuple(f.name for f in fields(PredictionRecord))


class _UnfrozenRecord:
    """:class:`PredictionRecord`'s slot layout without its frozen
    ``__setattr__``; two classes with the same ``__slots__`` allow
    ``__class__`` assignment between them."""
    __slots__ = PredictionRecord.__slots__


def _trusted_record(compound_id, target_id, pose_id, predicted_pk, job_id,
                    rank_id) -> PredictionRecord:
    """``PredictionRecord(...)`` of the same values, built without the frozen
    ``__init__`` and its ``object.__setattr__`` per field.

    Fills the six slots of an :class:`_UnfrozenRecord`, then makes it a
    ``PredictionRecord``.  Like ``__init__`` it checks nothing: ``run_job``
    passes its own poses' ids and float scores, and ``load_shards`` values
    whose types it has checked.
    """
    r = _UnfrozenRecord()
    r.compound_id = compound_id
    r.target_id = target_id
    r.pose_id = pose_id
    r.predicted_pk = predicted_pk
    r.job_id = job_id
    r.rank_id = rank_id
    r.__class__ = PredictionRecord
    return r


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

    def __post_init__(self):
        if self.ranks_per_job < 1 or self.batch_size < 1:
            raise ValueError("ranks and batch size must be >= 1")


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


def _contiguous_split(items, parts: int) -> list:
    """``items`` cut into ``parts`` contiguous slices of ``balanced_sizes``."""
    out, start = [], 0
    for size in balanced_sizes(len(items), parts):
        out.append(items[start:start + size])
        start += size
    return out


def partition(library: list[PoseRecord], n_jobs: int,
              ranks_per_job: int = DEFAULT_RANKS_PER_JOB,
              batch_size: int = DEFAULT_BATCH_SIZE) -> list[JobSpec]:
    """Splits the library into contiguous, balanced jobs.

    Every pose lands in exactly one job and library order is preserved.
    """
    if not library:
        raise ValueError("empty library")
    if n_jobs > len(library):
        raise ValueError(f"{n_jobs} jobs for {len(library)} poses")
    return [JobSpec(jid, tuple(poses), ranks_per_job, batch_size)
            for jid, poses in enumerate(_contiguous_split(library, n_jobs))]


# ---------------------------------------------------------------------------
# deterministic fault draws
# ---------------------------------------------------------------------------

def _unit_hash(text: str) -> float:
    """A uniform draw in [0, 1) from the sha256 of ``text``.

    Every fault draw and synthetic score hashes its parts joined by ``:``
    into one string, built by the caller in one format expression.
    """
    h = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(h[:8], "big") / 2 ** 64


def pose_key(p: PoseRecord) -> str:
    return f"{p.compound_id}/{p.target_id}/{p.pose_id}"


def is_corrupted(pose: PoseRecord, plan: FaultPlan) -> bool:
    """Corruption is a stable property of the pose, not of the attempt."""
    if plan.record_corruption_rate == 0.0:
        return False
    return _unit_hash(f"{plan.seed}:corrupt:{pose_key(pose)}") \
        < plan.record_corruption_rate


def attempt_fails(job_id: int, attempt: int, plan: FaultPlan) -> str | None:
    """Returns a failure reason for this (job, attempt), or None."""
    if _unit_hash(f"{plan.seed}:job:{job_id}:{attempt}") \
            < plan.job_failure_rate:
        return "job lost"
    if _unit_hash(f"{plan.seed}:rank:{job_id}:{attempt}") \
            < plan.rank_failure_rate:
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
        seed = self.seed
        return [2.0 + 10.0 * _unit_hash(f"{seed}:score:{pose_key(p)}")
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

def run_job(spec: JobSpec, scorer, plan: FaultPlan | None = None,
            attempt: int = 0, out_dir=None) -> JobResult:
    """Runs one job attempt: drop corrupt records, score, shard, write.

    The clean poses are scored in ``batch_size`` batches across the whole
    job.  Compounds are split contiguously, in sorted order, over
    ``ranks_per_job`` shards (one JSONL file each); every record's
    ``rank_id`` is its shard's index.  Shards and the shard manifest appear
    only if the whole job succeeds; corrupted records, poses the scorer
    returns as :class:`Unscorable` and poses with a non-finite score are
    skipped and logged, never written as predictions.

    A score that is a ``numbers.Real`` is stored as its ``float``, and one
    too large for a float is skipped as non-finite; any other score fails
    the attempt, as does a score list of the wrong length or a record that
    cannot be encoded.  Every file's text is encoded before the first one is
    written.
    """
    plan = plan or FaultPlan()
    t0 = time.perf_counter()
    reason = attempt_fails(spec.job_id, attempt, plan)
    if reason is not None:
        return _failed(spec, attempt, reason)

    corrupted = []                     # (pose key, reason)
    clean = []
    for p in spec.poses:
        if is_corrupted(p, plan):
            corrupted.append((pose_key(p), "corrupt record"))
        else:
            clean.append(p)
    scored, scores = [], []
    for i in range(0, len(clean), spec.batch_size):
        batch = clean[i:i + spec.batch_size]
        try:
            batch_scores = scorer(batch)
        except Exception as e:
            logger.exception("job %d attempt %d: scorer raised",
                             spec.job_id, attempt)
            return JobResult(spec.job_id, attempt, "failed",
                             failure_reason=f"scorer raised "
                                            f"{type(e).__name__}: {e}")
        if len(batch_scores) != len(batch):
            return _failed(spec, attempt,
                           f"scorer returned {len(batch_scores)} scores for "
                           f"{len(batch)} poses")
        for p, score in zip(batch, batch_scores):
            if type(score) is not float:
                if isinstance(score, Unscorable):
                    corrupted.append((pose_key(p), score.reason))
                    continue
                if not isinstance(score, numbers.Real):
                    return _failed(spec, attempt,
                                   f"scorer returned a {type(score).__name__}"
                                   f" score for pose {pose_key(p)}")
                try:
                    score = float(score)
                except OverflowError:   # e.g. an int beyond float range
                    score = math.inf
            if math.isfinite(score):
                scored.append(p)
                scores.append(score)
            else:
                corrupted.append((pose_key(p), "non-finite score"))
    t1 = time.perf_counter()

    # each compound's poses land in exactly one shard
    compounds = sorted({p.compound_id for p in scored})
    shard_of = {c: shard
                for shard, part in enumerate(
                    _contiguous_split(compounds, spec.ranks_per_job))
                for c in part}
    job_id = spec.job_id
    predictions = [
        _trusted_record(p.compound_id, p.target_id, p.pose_id, score,
                        job_id, shard_of[p.compound_id])
        for p, score in zip(scored, scores)]
    if out_dir is not None:
        try:
            files = _job_files(spec, attempt, predictions, corrupted)
        except (TypeError, ValueError) as e:
            return _failed(spec, attempt, f"unencodable output: "
                                          f"{type(e).__name__}: {e}")
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files:
            (out_dir / name).write_text(text)
    t2 = time.perf_counter()
    return JobResult(job_id, attempt, "ok", predictions, corrupted,
                     timings={"evaluation_s": t1 - t0, "output_s": t2 - t1})


def _failed(spec: JobSpec, attempt: int, reason: str) -> JobResult:
    logger.warning("job %d attempt %d failed: %s",
                   spec.job_id, attempt, reason)
    return JobResult(spec.job_id, attempt, "failed", failure_reason=reason)


def _job_files(spec: JobSpec, attempt: int, predictions: list,
               corrupted: list) -> list[tuple[str, str]]:
    """(file name, text) of every file a successful job attempt writes: its
    shards, its manifest and, if any pose was skipped, its error log."""
    shards = [[] for _ in range(spec.ranks_per_job)]
    for r in predictions:
        shards[r.rank_id].append(r)
    files, shard_files = [], []
    for rank_id, rows in enumerate(shards):
        name = f"shard_{spec.job_id:05d}_{rank_id:03d}.jsonl"
        files.append((name, _shard_text(rows)))
        shard_files.append({"file": name, "records": len(rows)})
    files.append((f"job_{spec.job_id:05d}_manifest.json", json.dumps(
        {"job_id": spec.job_id, "attempt": attempt,
         "poses": len(spec.poses), "scored": len(predictions),
         "corrupted": len(corrupted), "shards": shard_files}, indent=2)))
    if corrupted:
        files.append((f"job_{spec.job_id:05d}_errors.jsonl", "".join(
            [json.dumps({"pose": key, "reason": why}) + "\n"
             for key, why in corrupted])))
    return files


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
                 ) -> tuple[list[PredictionRecord], CampaignReport]:
    """Partitions, runs jobs in parallel, retries failures, reports gaps.

    Each job goes to one worker, which runs its attempts in turn until one
    succeeds, so a retry starts as soon as its own job's attempt has failed.
    Each pose is scored exactly once across the whole campaign: a failed
    attempt writes nothing, and a successful retry replaces it wholesale.
    Jobs still failing after ``retries`` extra attempts are abandoned and
    their pose ranges listed in the campaign manifest.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    plan = plan or FaultPlan()
    t0 = time.perf_counter()
    jobs = partition(library, n_jobs, ranks_per_job, batch_size)
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        last = list(pool.map(
            lambda spec: _run_attempts(spec, scorer, plan, retries, out_dir),
            jobs))
    t1 = time.perf_counter()
    attempts = {r.job_id: r.attempt + 1 for r in last}
    done = [r for r in last if r.status == "ok"]
    abandoned = [r.job_id for r in last if r.status != "ok"]

    predictions, corrupted = [], []
    for r in done:
        predictions.extend(r.predictions)
        corrupted.extend(r.corrupted)
    missing = []
    for jid in abandoned:
        poses = jobs[jid].poses
        missing.append({"job_id": jid, "first": pose_key(poses[0]),
                        "last": pose_key(poses[-1]), "count": len(poses)})
    report = CampaignReport(
        n_poses=len(library), n_jobs=n_jobs,
        succeeded=[r.job_id for r in done], abandoned=abandoned,
        missing_ranges=missing, attempts=attempts, corrupted=corrupted,
        timings={"wall_s": t1 - t0,
                 "evaluation_s": sum(r.timings.get("evaluation_s", 0.0)
                                     for r in done),
                 "output_s": sum(r.timings.get("output_s", 0.0)
                                 for r in done)})
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


def _run_attempts(spec: JobSpec, scorer, plan: FaultPlan, retries: int,
                  out_dir) -> JobResult:
    """A job's last attempt: attempts 0 to ``retries`` run in turn until one
    succeeds."""
    for attempt in range(retries + 1):
        res = run_job(spec, scorer, plan, attempt, out_dir)
        if res.status == "ok":
            return res
    logger.error("job %d abandoned after %d attempts", spec.job_id,
                 retries + 1)
    return res


_POSE_ORDER = operator.attrgetter("compound_id", "target_id", "pose_id")

# ``json.dumps`` of a record's fields with its default separators
_LINE = ('{"compound_id": %s, "target_id": %s, "pose_id": %r, '
         '"predicted_pk": %r, "job_id": %r, "rank_id": %r}\n')


def _shard_line(r: PredictionRecord) -> str:
    """One record's JSONL line, byte-equal to ``json.dumps`` of the dict of
    its six fields in declaration order.

    Fields of exactly the declared types, with a finite score, are encoded
    the way ``json`` encodes them (strings through
    ``encode_basestring_ascii``, numbers through their ``__repr__``) in one
    fixed format; any other record goes through ``json.dumps`` itself.
    """
    c, t, pose, pk, job, rank = (r.compound_id, r.target_id, r.pose_id,
                                 r.predicted_pk, r.job_id, r.rank_id)
    if (type(c) is str and type(t) is str and type(pose) is int
            and type(pk) is float and math.isfinite(pk)
            and type(job) is int and type(rank) is int):
        return _LINE % (encode_basestring_ascii(c), encode_basestring_ascii(t),
                        pose, pk, job, rank)
    return json.dumps(dict(zip(_FIELDS, (c, t, pose, pk, job, rank)))) + "\n"


def _shard_text(rows: list[PredictionRecord]) -> str:
    """A shard's JSONL text: one object per record, sorted by pose."""
    return "".join([_shard_line(r) for r in sorted(rows, key=_POSE_ORDER)])


def load_shards(out_dir) -> list[PredictionRecord]:
    """Reads every shard a campaign wrote back into prediction records, in
    shard-name order and line order within a shard.

    Each shard's lines are parsed as one JSON array.  A row must hold
    exactly the six fields: ``compound_id`` and ``target_id`` strings,
    ``pose_id``, ``job_id`` and ``rank_id`` integers (not booleans), and a
    finite number ``predicted_pk``, stored as its ``float`` as ``run_job``
    stores scores.  Rows of exactly those types become slotted records
    without the frozen ``__init__``.  Raises ``ValueError`` naming the shard
    if it cannot be parsed, and the shard, the 1-based line and the field
    for a row that breaks the rule.
    """
    out = []
    append, isfinite = out.append, math.isfinite
    for path in sorted(Path(out_dir).glob("shard_*.jsonl")):
        lines = path.read_text().split("\n")
        if lines[-1] == "":        # after the newline ending the last record
            lines.pop()
        lineno = 0
        try:
            rows = json.loads("[" + ",".join(lines) + "]")
            if len(rows) != len(lines):
                raise ValueError(f"{len(lines)} lines hold {len(rows)} values")
            for lineno, row in enumerate(rows, 1):
                if type(row) is dict and len(row) == 6:
                    # a missing field reads None and fails its type check
                    c, t, pose, pk, job, rank = (
                        row.get("compound_id"), row.get("target_id"),
                        row.get("pose_id"), row.get("predicted_pk"),
                        row.get("job_id"), row.get("rank_id"))
                    if (type(c) is str and type(t) is str
                            and type(pose) is int and type(pk) is float
                            and isfinite(pk) and type(job) is int
                            and type(rank) is int):
                        append(_trusted_record(c, t, pose, pk, job, rank))
                        continue
                append(_checked_record(row))
        except (ValueError, TypeError) as e:
            at = f" line {lineno}" if lineno else ""
            raise ValueError(f"unreadable shard {path}{at}: {e}") from e
    return out


def _checked_record(row) -> PredictionRecord:
    """The record of a shard row outside ``load_shards``' fast path.

    A row whose keys are not exactly the six fields raises the ``TypeError``
    of ``PredictionRecord(**row)``; a field of the wrong type raises
    ``ValueError`` naming it.  An integer score becomes its ``float``.
    """
    if type(row) is not dict or row.keys() != set(_FIELDS):
        return PredictionRecord(**row)     # raises: a field is wrong
    values = []
    for name in _FIELDS:
        v = row[name]
        if name == "predicted_pk":
            if type(v) is int and abs(v) <= sys.float_info.max:
                v = float(v)
            ok, want = type(v) is float and math.isfinite(v), "a finite number"
        elif name in ("compound_id", "target_id"):
            ok, want = type(v) is str, "a string"
        else:
            ok, want = type(v) is int, "an integer"
        if not ok:
            raise ValueError(f"field {name} must be {want}, got {v!r}")
        values.append(v)
    return _trusted_record(*values)


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
                       ) -> list[dict]:
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
                library, scorer, n_jobs=groups, parallelism=groups, ranks_per_job=1, batch_size=bs)
            wall = time.perf_counter() - t0
            rows.append({"worker_groups": groups, "batch_size": bs,
                         "wall_s": wall, "scored": len(preds),
                         "complete": report.complete,
                         "poses_per_second": len(preds) / wall})
    return rows
