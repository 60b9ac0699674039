"""Drives the full CLI pipeline in a scratch directory: gen -> train ->
screen -> eval -> report, checking manifests and exit codes along the way."""

import atexit
import json
import shutil
import tempfile
from pathlib import Path

from fusionscreen import cli

root = Path(tempfile.mkdtemp(prefix="fusionscreen_cli_"))
atexit.register(shutil.rmtree, root, ignore_errors=True)
print(f"working in {root}\n")


def run(*argv):
    print(f"$ fusionscreen {' '.join(argv)}")
    code = cli.main(list(argv))
    print(f"  -> exit {code}")
    assert code == cli.EXIT_OK, f"unexpected exit code {code}"


data = root / "data"
run("gen", "--count", "120", "--seed", "0", "--out", str(data),
    "--box-size", "8", "--c-elem", "1", "--noise-sigma", "0.05")
manifest = json.loads((data / "run_manifest.json").read_text())
print(f"  manifest: config hash {manifest['config_hash']}, "
      f"artifacts {manifest['artifacts']}")

train_dir = root / "train"
run("train", "--data", str(data / "dataset.jsonl"), "--mode", "coherent",
    "--out", str(train_dir), "--epochs", "2", "--batch-size", "32",
    "--learning-rate", "5e-3", "--grid-extent", "8", "--c-elem", "1")
history = json.loads((train_dir / "history.json").read_text())
print(f"  val MSE per epoch: "
      f"{[round(h['val_mse'], 3) for h in history]}")

screen_dir = root / "screen"
run("screen", "--library", str(data / "dataset.jsonl"),
    "--model", str(train_dir / "fusion.ckpt.npz"),
    "--jobs", "4", "--ranks", "2", "--out", str(screen_dir),
    "--rank-failure-rate", "0.2", "--fault-seed", "1")
campaign = json.loads((screen_dir / "campaign_manifest.json").read_text())
print(f"  campaign complete={campaign['complete']}, "
      f"{campaign['n_poses']} poses in {campaign['n_jobs']} jobs, "
      f"attempts {campaign['attempts']}")

eval_dir = root / "eval"
run("eval", "--predictions", str(screen_dir), "--truth",
    str(data / "dataset.jsonl"), "--cutoff", "6.0", "--out", str(eval_dir))
metrics = json.loads((eval_dir / "metrics.json").read_text())
print(f"  RMSE {metrics['rmse']:.3f} over {metrics['n']} compounds")

report_dir = root / "report"
run("report", "--campaign", str(screen_dir), "--out", str(report_dir))
summary = json.loads((report_dir / "report.json").read_text())
t = summary["throughput"]
print(f"  throughput: {t['poses_per_second']:.1f} poses/s = "
      f"{t['poses_per_hour']:.0f} poses/h")

print("\npipeline complete; every stage left a run_manifest.json and "
      "timings.json beside its outputs")
