"""Benchmark entry point.

    python3 perfbench/run.py --workload screen --seed 0 --seconds 10 --trace 0

Runs from the root of a source checkout and imports fusionscreen from its
``src/``.  Whole rounds of the workload's operations run until ``--seconds``
have passed; set-up runs several times, before and after them, and reports
its median.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` every timed operation runs twice,
untraced and traced, and the JSON object carries the per-layer metrics and
the tracing overhead.  A fuller record goes to ``.perfbench_out/``.
"""

import os

# One BLAS thread per worker: the workloads never run more threads than the
# two-core machine they were tuned on has.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"


def median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def run_rounds(workload, run, seconds, after_round=None) -> None:
    """Whole rounds until ``seconds`` have passed and at least the
    workload's sampled rounds are done."""
    start = time.perf_counter()
    rounds = 0
    while True:
        workload.round(run)
        rounds += 1
        if after_round is not None:
            after_round()
        if rounds >= workload.sample_rounds:
            run.sampling = False
            if time.perf_counter() - start >= seconds:
                return


def time_setups(workload, n: int) -> list[float]:
    seconds = []
    for _ in range(n):
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        seconds.append(time.perf_counter() - t0)
    return seconds


def end_to_end(workload, seconds) -> tuple:
    from workloads import Run

    # Half the set-ups run before the rounds and half after them, so that
    # their median spans the run, not the few seconds of one speed of the
    # machine that back-to-back set-ups would see.
    half = workload.setups // 2
    setup_s = time_setups(workload, half)
    run = Run()
    run_rounds(workload, run, seconds)
    setup_s += time_setups(workload, workload.setups - half)
    # Each metric is the median of a fixed number of samples, taken at many
    # moments of the run: on the shared VM the benchmark was tuned on, the
    # machine's speed switched between levels up to 1.8x apart, for seconds
    # at a time.
    metrics = {"setup_s": (median(setup_s), "s")}
    for name, unit in (("poses_per_s", "1/s"), ("train_samples_per_s", "1/s"),
                       ("eval_s", "s")):
        metrics[name] = (median(run.samples[name]), unit)
    detail = {"setup_s": setup_s, "samples": run.samples}
    return run, metrics, detail


def per_layer(workload, seconds) -> tuple:
    from tracing import LAYER_TIMES, TRACED_OPS, Tracer, replay_backward
    from workloads import Run

    tracer = Tracer()
    setups, rounds = [], []
    for _ in range(workload.setups):
        tracer.install()
        try:
            workload.setup()
        finally:
            tracer.uninstall()
        setups.append(tracer.take())

    run = Run(tracer)
    run_rounds(workload, run, seconds, lambda: rounds.append(tracer.take()))

    def busy(key):
        return (median(s["busy"].get(key, 0.0) for s in setups)
                + median(r["busy"].get(key, 0.0) for r in rounds))

    def count(key):
        return median(r["counts"].get(key, 0) for r in rounds)

    n = len(rounds)
    bwd_s, bwd_flop = replay_backward(tracer.backward_calls)
    metrics = {key: (busy(key), "s") for key in LAYER_TIMES}
    metrics["models.predict_batch_calls"] = (
        count("models.predict_batch_s"), "count")
    metrics["harness.overhead_s"] = (median(
        r["busy"].get("harness.job_s", 0.0) - r["busy"].get("harness.scorer_s", 0.0)
        for r in rounds), "s")
    attempts = sum(r["counts"].get("harness.attempts", 0) for r in rounds)
    succeeded = sum(r["counts"].get("harness.succeeded", 0) for r in rounds)
    metrics["harness.attempts"] = (count("harness.attempts"), "count")
    metrics["harness.useful_attempt_ratio"] = (
        succeeded / attempts if attempts else 0.0, "ratio")
    for op in TRACED_OPS:
        metrics[f"autodiff.{op}.fwd_s"] = (busy(f"autodiff.{op}.fwd_s"), "s")
        metrics[f"autodiff.{op}.bwd_s"] = (bwd_s.get(op, 0.0) / n, "s")
    gflop = count("autodiff.conv3d.flop") / 1e9
    fwd_s = metrics["autodiff.conv3d.fwd_s"][0]
    bwd_conv_s = metrics["autodiff.conv3d.bwd_s"][0]
    metrics["autodiff.conv3d.gflop"] = (gflop, "GFLOP")
    metrics["autodiff.conv3d.fwd_gflops"] = (
        gflop / fwd_s if fwd_s else 0.0, "GFLOP/s")
    metrics["autodiff.conv3d.bwd_gflops"] = (
        bwd_flop / n / 1e9 / bwd_conv_s if bwd_conv_s else 0.0, "GFLOP/s")
    # Every timed operation ran untraced and traced back to back; the
    # overhead is the median of the pairs' ratios, so drift between pairs
    # cancels.
    metrics["trace.overhead_pct"] = (
        100.0 * median(t / p - 1.0 for p, t in run.pairs), "%")
    detail = {"rounds": n, "pairs_s": run.pairs, "setup_layers": setups,
              "round_layers": rounds}
    return run, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["screen", "train", "campaign"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fusionscreen" / "__init__.py").is_file():
        print(f"fusionscreen sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    logging.getLogger("fusionscreen").setLevel(logging.ERROR)
    from workloads import WORKLOADS

    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        measure = per_layer if args.trace else end_to_end
        run, metrics, detail = measure(workload, args.seconds)
        workload.final_checks(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")

    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "problems": run.problems,
                                  "args": vars(args), **detail}, indent=1))
    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
