"""Per-layer timing of fusionscreen, taken from outside the program.

:class:`Tracer` swaps each layer's public functions and methods for timing
wrappers while it is installed, and restores the originals afterwards.  It
adds busy seconds per metric under a lock (campaign workers call the model
from two threads).  The scorer handed to ``run_campaign`` is timed too.
Times are inclusive: ``models.predict_batch_s`` contains the ``autodiff``
forward ops it runs.

Forward op times come from wrapping ``ValueGraph.apply``.  Backward op times
come from one-op tapes replayed after the run, at every input shape that a
recorded tape later passed to ``ValueGraph.backward``.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import defaultdict

import numpy as np

from fusionscreen import (autodiff, checkpoint, complexes, evaluate, harness,
                          models, optim)

TRACED_OPS = ("conv3d", "max-pool3d", "dense", "matmul", "neighbor-sum",
              "sigmoid", "tanh", "relu", "elementwise-add", "mul")

# (module or class, attribute, metric).  A function imported into another
# module's namespace is patched there too, because that is the name its
# callers look up.
_TIMED = [
    (complexes, "generate_dataset", "complexes.generate_s"),
    (complexes, "voxelize", "complexes.voxelize_s"),
    (models, "voxelize", "complexes.voxelize_s"),
    (complexes, "build_graph", "complexes.build_graph_s"),
    (models, "build_graph", "complexes.build_graph_s"),
    (complexes, "save_dataset", "complexes.dataset_io_s"),
    (complexes, "load_dataset", "complexes.dataset_io_s"),
    (complexes, "rotate_augment", "complexes.rotate_augment_s"),
    (models, "rotate_augment", "complexes.rotate_augment_s"),
    (models, "featurize", "models.featurize_s"),
    (models, "batch_graphs", "models.batch_graphs_s"),
    (models.FusionModel, "predict_batch", "models.predict_batch_s"),
    (models.FusionModel, "build_tape", "models.build_tape_s"),
    (optim.Optimizer, "step", "optim.step_s"),
    (checkpoint, "save_checkpoint", "checkpoint.save_s"),
    (models, "save_checkpoint", "checkpoint.save_s"),
    (checkpoint, "load_checkpoint", "checkpoint.load_s"),
    (models, "load_checkpoint", "checkpoint.load_s"),
    (harness, "run_job", "harness.job_s"),
    (harness, "load_shards", "harness.load_shards_s"),
    (evaluate, "aggregate_best_pose", "evaluate.aggregate_s"),
    (evaluate, "regression_metrics", "evaluate.regression_s"),
    (evaluate, "binarize", "evaluate.kappa_s"),
    (evaluate, "cohen_kappa", "evaluate.kappa_s"),
    (evaluate, "pr_curve", "evaluate.pr_curve_s"),
]

# Busy-second metrics of the layers, reported per set-up and per round.
# ``harness.job_s`` only serves ``harness.overhead_s``.
LAYER_TIMES = sorted({m for _, _, m in _TIMED} - {"harness.job_s"}
                     | {"autodiff.backward_s", "harness.scorer_s",
                        "harness.output_s"})

_ValueGraph = autodiff.ValueGraph
_ORIG_APPLY = _ValueGraph.apply
_ORIG_BACKWARD = _ValueGraph.backward


def conv3d_flop(shapes) -> int:
    """Multiply-adds x 2 of a same-padded stride-1 conv3d forward."""
    (b, c, d, h, w), (o, _, k, _, _) = shapes[0], shapes[1]
    return 2 * b * o * c * k ** 3 * d * h * w


def _signature(op, shapes, attrs):
    if op == "neighbor-sum":
        m = attrs["matrix"]
        return op, shapes, (m.shape, m.nnz)
    return op, shapes, tuple(sorted((k, v) for k, v in attrs.items()
                                    if isinstance(v, (int, float, str))))


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._saved = []
        self.busy = defaultdict(float)
        self.counts = defaultdict(int)
        # tapes not yet differentiated -> op records, dropped with the tape
        self._pending = weakref.WeakKeyDictionary()
        # signature -> [calls that reached backward, op, shapes, attrs]
        self.backward_calls: dict = {}

    def add(self, metric: str, seconds: float) -> None:
        with self._lock:
            self.busy[metric] += seconds
            self.counts[metric] += 1

    def count(self, metric: str, n: int) -> None:
        with self._lock:
            self.counts[metric] += n

    def take(self) -> dict:
        """Busy seconds and counts since the last take."""
        with self._lock:
            out = {"busy": dict(self.busy), "counts": dict(self.counts)}
            self.busy.clear()
            self.counts.clear()
        return out

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        for owner, name, metric in _TIMED:
            self._patch(owner, name, self._timed(getattr(owner, name), metric))
        self._patch(harness, "run_campaign", self._campaign_wrapper(
            harness.run_campaign))
        self._patch(_ValueGraph, "apply", self._apply_wrapper())
        self._patch(_ValueGraph, "backward", self._backward_wrapper())

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, wrapper) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _timed(self, fn, metric):
        add = self.add

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                add(metric, time.perf_counter() - t0)

        return wrapper

    def _campaign_wrapper(self, run_campaign):
        """Times the scorer handed to ``run_campaign`` and takes the
        campaign's output time and attempts from its report."""
        tracer = self

        def wrapper(library, scorer, *args, **kwargs):
            preds, report = run_campaign(
                library, tracer._timed(scorer, "harness.scorer_s"),
                *args, **kwargs)
            tracer.add("harness.output_s", report.timings["output_s"])
            tracer.count("harness.attempts", sum(report.attempts.values()))
            tracer.count("harness.succeeded", len(report.succeeded))
            return preds, report

        return wrapper

    # -- autodiff --------------------------------------------------------
    def _apply_wrapper(self):
        tracer = self

        def apply(graph, op_kind, inputs, attrs=None):
            t0 = time.perf_counter()
            nid = _ORIG_APPLY(graph, op_kind, inputs, attrs)
            dt = time.perf_counter() - t0
            if op_kind in TRACED_OPS:
                node = graph.nodes[nid]
                shapes = tuple(graph.nodes[i].value.shape for i in node.inputs)
                with tracer._lock:
                    tracer.busy[f"autodiff.{op_kind}.fwd_s"] += dt
                    if op_kind == "conv3d":
                        tracer.counts["autodiff.conv3d.flop"] += \
                            conv3d_flop(shapes)
                    tracer._pending.setdefault(graph, []).append(
                        (op_kind, shapes, node.attrs))
            return nid

        return apply

    def _backward_wrapper(self):
        tracer = self

        def backward(graph, loss_node):
            t0 = time.perf_counter()
            try:
                return _ORIG_BACKWARD(graph, loss_node)
            finally:
                tracer.add("autodiff.backward_s", time.perf_counter() - t0)
                with tracer._lock:
                    for op, shapes, attrs in tracer._pending.pop(graph, ()):
                        sig = _signature(op, shapes, attrs)
                        rec = tracer.backward_calls.setdefault(
                            sig, [0, op, shapes, attrs])
                        rec[0] += 1

        return backward


def _backward_seconds(op, shapes, attrs, reps: int = 3) -> float:
    """Backward time of one op at these input shapes, net of the loss.

    Each tape is leaves -> op -> mse-loss; the loss's own backward is taken
    off by timing a tape of the op's output shape -> mse-loss alone.  Best of
    ``reps`` replays each.
    """
    rng = np.random.default_rng(0)

    def best(build):
        t = np.inf
        for _ in range(reps):
            g = _ValueGraph(training=False)
            out = build(g)
            target = g.input(np.zeros_like(g.value(out)))
            loss = g.apply("mse-loss", [out, target])
            t0 = time.perf_counter()
            g.backward(loss)
            t = min(t, time.perf_counter() - t0)
        return t, g.value(out).shape

    full, out_shape = best(lambda g: g.apply(
        op, [g.parameter(rng.standard_normal(s)) for s in shapes], dict(attrs)))
    base, _ = best(lambda g: g.parameter(rng.standard_normal(out_shape)))
    return max(full - base, 0.0)


def replay_backward(backward_calls: dict) -> tuple[dict, int]:
    """Total backward seconds per op kind, and conv3d backward FLOP.

    Must run with the tracer uninstalled.  conv3d backward computes both
    dX and dW, each as many multiply-adds as the forward.
    """
    seconds = defaultdict(float)
    conv_flop = 0
    for count, op, shapes, attrs in backward_calls.values():
        seconds[op] += count * _backward_seconds(op, shapes, attrs)
        if op == "conv3d":
            conv_flop += count * 2 * conv3d_flop(shapes)
    return dict(seconds), conv_flop
