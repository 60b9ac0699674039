"""Tests of the benchmark's glue on small inputs: evaluation, tracing and
the gradient check it runs.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import numpy as np

import checks
import tracing
import workloads
from fusionscreen import autodiff, harness, models


def small_campaign(out_dir, compounds=12, poses=3, jobs=3):
    library = [harness.PoseRecord(f"cpd{i // poses:03d}", "t0", i % poses)
               for i in range(compounds * poses)]
    plan = harness.FaultPlan(record_corruption_rate=0.05, seed=1)
    preds, report = harness.run_campaign(
        library, harness.SyntheticScorer(seed=1), jobs, plan, out_dir,
        parallelism=2, ranks_per_job=2, batch_size=4)
    return library, preds, report


def test_evaluation_of_a_campaign_passes_its_checks(tmp_path):
    library, preds, report = small_campaign(tmp_path)
    keys = [checks.pose_key(p.compound_id, p.target_id, p.pose_id)
            for p in library]
    assert workloads.in_memory_exactly_once(keys, preds, report) == []
    assert checks.on_disk_exactly_once(tmp_path, keys) == []
    rng = np.random.default_rng(0)
    truth = {p.compound_id: float(rng.uniform(2, 12)) for p in library}
    ev = workloads.evaluate_campaign(tmp_path, truth)
    assert len(ev.best) == 12
    assert checks.check_evaluation(ev, truth, workloads.CUTOFF) == []


def test_layout_check_separates_a_rerun_from_the_earlier_layout(tmp_path):
    library, _, _ = small_campaign(tmp_path, jobs=4)
    keys = [checks.pose_key(p.compound_id, p.target_id, p.pose_id)
            for p in library]
    assert checks.layout_exactly_once(tmp_path, keys, 4) == ([], [])
    small_campaign(tmp_path, jobs=3)
    problems, stale = checks.layout_exactly_once(tmp_path, keys, 3)
    assert problems == []
    assert "shard_00003_000.jsonl" in stale
    assert "job_00003_manifest.json" in stale
    assert checks.on_disk_exactly_once(tmp_path, keys) != []
    # a record lost from one of the re-run's own shards is a problem
    shard = tmp_path / "shard_00000_000.jsonl"
    shard.write_text("".join(shard.read_text().splitlines(True)[1:]))
    problems, _ = checks.layout_exactly_once(tmp_path, keys, 3)
    assert any("manifest lists" in p for p in problems), problems
    assert any("neither scored nor logged" in p for p in problems), problems


def test_traced_operations_run_in_alternating_pairs():
    original = harness.run_campaign
    run = workloads.Run(tracing.Tracer())
    traced = []

    def op(x):
        traced.append(harness.run_campaign is not original)
        return x + 1

    for _ in range(2):
        out, seconds = run.timed(op, lambda: (1,))
        assert out == 2 and seconds >= 0
    assert traced == [False, True, True, False]
    assert len(run.pairs) == 2
    assert harness.run_campaign is original


def test_tracer_restores_every_patched_name():
    before = {(id(owner), name): owner.__dict__[name]
              for owner, name, _ in tracing._TIMED}
    tracer = tracing.Tracer()
    tracer.install()
    assert models.FusionModel.predict_batch is not \
        before[(id(models.FusionModel), "predict_batch")]
    tracer.uninstall()
    for owner, name, _ in tracing._TIMED:
        assert owner.__dict__[name] is before[(id(owner), name)]
    assert autodiff.ValueGraph.apply is tracing._ORIG_APPLY
    assert autodiff.ValueGraph.backward is tracing._ORIG_BACKWARD


def test_tracer_times_forward_and_replays_backward():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        g = autodiff.ValueGraph()
        x = g.parameter(np.ones((2, 1, 8, 8, 8)))
        w = g.parameter(np.full((3, 1, 3, 3, 3), 0.1))
        b = g.parameter(np.zeros(3))
        y = g.apply("relu", [g.apply("conv3d", [x, w, b])])
        loss = g.apply("mse-loss", [y, g.input(np.zeros((2, 3, 8, 8, 8)))])
        g.backward(loss)
        eval_tape = autodiff.ValueGraph()
        eval_tape.apply("relu", [eval_tape.input(np.ones(4))])
    finally:
        tracer.uninstall()
    taken = tracer.take()
    assert taken["busy"]["autodiff.conv3d.fwd_s"] > 0
    assert taken["counts"]["autodiff.conv3d.flop"] == \
        2 * 2 * 3 * 1 * 27 * 512
    # only the tape that reached backward is replayed
    assert sorted(rec[0] for rec in tracer.backward_calls.values()) == [1, 1]
    seconds, flop = tracing.replay_backward(tracer.backward_calls)
    assert set(seconds) == {"conv3d", "relu"}
    assert all(s >= 0 for s in seconds.values())
    assert flop == 2 * 2 * 2 * 3 * 27 * 512


def test_conv3d_flop_by_hand():
    assert tracing.conv3d_flop(((1, 2, 4, 4, 4), (3, 2, 3, 3, 3), (3,))) == \
        2 * 3 * 2 * 27 * 64


def test_tiny_gradient_check_is_below_tolerance():
    assert workloads.tiny_gradient_check() < 1e-4
