"""Fault-injected screening campaign with exactly-once verification, shard
inspection, throughput identities, and a miniature scaling experiment."""

import atexit
import shutil
import tempfile
from pathlib import Path

from fusionscreen import harness
from fusionscreen.harness import FaultPlan, PoseRecord, SyntheticScorer

library = [PoseRecord(f"c{i // 10:05d}", "t0", i % 10) for i in range(2000)]
plan = FaultPlan(record_corruption_rate=0.002, rank_failure_rate=0.2, seed=3)
out = Path(tempfile.mkdtemp(prefix="fusionscreen_demo_"))
atexit.register(shutil.rmtree, out, ignore_errors=True)

print(f"campaign: {len(library)} poses, 8 jobs, 20% rank failures, "
      f"0.2% corrupt records, retries 3")
preds, report = harness.run_campaign(library, SyntheticScorer(), n_jobs=8,
                                     plan=plan, out_dir=out, parallelism=4,
                                     ranks_per_job=4)
print(f"complete: {report.complete}; attempts per job: "
      f"{dict(sorted(report.attempts.items()))}")
print(f"scored {len(preds)}, corrupt skipped {len(report.corrupted)}, "
      f"sum = {len(preds) + len(report.corrupted)}")

keys = {f"{r.compound_id}/{r.target_id}/{r.pose_id}" for r in preds}
expected = {harness.pose_key(p) for p in library} - \
    {k for k, _ in report.corrupted}
print(f"exactly-once holds: {keys == expected and len(keys) == len(preds)}")

shards = sorted(out.glob("shard_*.jsonl"))
reloaded = harness.load_shards(out)
print(f"{len(shards)} shards on disk round-trip to {len(reloaded)} records")

print("\n== throughput identities ==")
rep = harness.throughput_report(30.0, 100.0, 10.0, n_poses=10800,
                                n_compounds=1080)
print(f"{rep.poses_per_second:.0f} poses/s -> {rep.poses_per_hour:,.0f} "
      f"poses/h -> {rep.compounds_per_hour:,.0f} compounds/h "
      f"(10 poses each)")

print("\n== scaling mini-experiment (sleep-based scorer) ==")
rows = harness.scaling_experiment(n_poses=600, worker_groups=[1, 2, 4],
                                  batch_sizes=[56], per_pose_s=1e-3)
base = rows[0]["wall_s"]
for r in rows:
    print(f"  {r['worker_groups']} group(s): {r['wall_s']:.2f}s "
          f"(speedup {base / r['wall_s']:.2f}x)")
