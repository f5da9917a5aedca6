"""Per-layer spans recorded from outside the mvgmn package.

The tracer wraps public functions on the package's modules (``setattr`` on
the module or class, restored on exit) and times each call as a span. A span
is only recorded inside an operation opened with ``begin_op``; a span's self
time is its duration minus the time covered by its child spans.

A tracer made with ``peaks=True`` also records the tracemalloc peak inside
each ``selective_scan`` call. Tracemalloc hooks every allocation, which
slows the scan's step loop several times over, so it is kept out of the
tracer whose span times are reported.

Backward time is attributed by wrapping ``GradTape.record``: every closure is
tagged with the span that was innermost when the forward op recorded it, and
the closure's run time is charged to that span's layer when the tape replays.

Layers and the calls that open their spans:

    fusion           model.fuse_batch
    model.forward    model.forward_grid_batch; its self time is graph
                     propagation (bmm, projection, relu per unit)
    model.head       opened by the first model.mean_axis call inside a
                     forward (pooling starts the head), closed with it
    scan             scan.apply_direction
    scan.selective   scan.selective_scan
    graph.build      graph.build_graph
    graph.knn        graph.knn_edges
    graph.normalize  graph.normalized_operator
    tensor.backward  GradTape.backward; closures are charged to the layer
                     that recorded them, the rest is replay overhead
    train.update     from the end of backward to the end of zero_grads,
                     added by the train workload
"""

from __future__ import annotations

import resource
import time
import tracemalloc
from collections import defaultdict
from contextlib import ExitStack
from unittest import mock

# forward span -> layer that its recorded backward closures belong to
BACKWARD_LAYER = {
    "fusion": "fusion",
    "scan": "scan",
    "scan.selective": "scan.selective",
    "model.forward": "graph",
    "model.head": "model.head",
}


class Tracer:
    """Span recorder; installs its wrappers for the span of a ``with`` block."""

    def __init__(self, model, scan, graph, tensor, peaks: bool = False):
        self._mods = (model, scan, graph, tensor)
        self._peaks = peaks
        self._patches = ExitStack()
        self._stack: list[list] = []  # [name, start, child_seconds]
        self._last_top = "op-start"
        self._last_top_end = 0.0
        self._backward_end = 0.0
        self._op_start = 0.0
        self._ru_start = None
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.bwd_s: dict[str, float] = defaultdict(float)
        self.gaps_s: dict[tuple[str, str], float] = defaultdict(float)
        self.scan_peaks: list[int] = []
        self.tape_ops: list[int] = []
        self.op_s: list[float] = []
        self.minor_faults = 0
        self.sys_s = 0.0

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        model, scan, graph, tensor = self._mods
        self._wrap(model, "fuse_batch", "fusion")
        self._wrap(model, "forward_grid_batch", "model.forward", close_head=True)
        self._wrap(scan, "apply_direction", "scan")
        self._wrap(scan, "selective_scan", "scan.selective", peak=self._peaks)
        self._wrap(graph, "build_graph", "graph.build")
        self._wrap(graph, "knn_edges", "graph.knn")
        self._wrap(graph, "normalized_operator", "graph.normalize")
        self._wrap_head_marker(model)
        self._wrap_tape(tensor.GradTape)
        return self

    def __exit__(self, *exc) -> bool:
        self._patches.close()
        return False

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.enter_context(mock.patch.object(owner, attr, replacement))

    @property
    def _recording(self) -> bool:
        return bool(self._stack)

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> None:
        now = time.perf_counter()
        if len(self._stack) == 1:
            self.gaps_s[(self._last_top, name)] += now - self._last_top_end
        self._stack.append([name, now, 0.0])

    def _exit(self) -> float:
        name, start, child = self._stack.pop()
        now = time.perf_counter()
        dur = now - start
        self.incl_s[name] += dur
        self.self_s[name] += dur - child
        self.calls[name] += 1
        self._stack[-1][2] += dur
        if len(self._stack) == 1:
            self._last_top, self._last_top_end = name, now
        return now

    def _wrap(self, owner, attr: str, name: str, peak=False, close_head=False):
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._recording:
                return original(*args, **kwargs)
            tracer._enter(name)
            if peak:
                tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                if peak:
                    tracer.scan_peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                if close_head and tracer._stack[-1][0] == "model.head":
                    tracer._exit()
                tracer._exit()

        self._patch(owner, attr, wrapper)

    def _wrap_head_marker(self, model) -> None:
        original = model.mean_axis
        tracer = self

        def mean_axis(*args, **kwargs):
            if tracer._recording and tracer._stack[-1][0] == "model.forward":
                tracer._enter("model.head")
            return original(*args, **kwargs)

        self._patch(model, "mean_axis", mean_axis)

    def _wrap_tape(self, tape_cls) -> None:
        record, backward = tape_cls.record, tape_cls.backward
        tracer = self

        def record_wrapper(tape, fn):
            if not tracer._recording:
                return record(tape, fn)
            layer = BACKWARD_LAYER.get(tracer._stack[-1][0], "tensor.backward")

            def timed():
                start = time.perf_counter()
                fn()
                dur = time.perf_counter() - start
                tracer.bwd_s[layer] += dur
                if tracer._stack:
                    tracer._stack[-1][2] += dur  # not backward's own time

            return record(tape, timed)

        def backward_wrapper(tape, loss):
            if not tracer._recording:
                return backward(tape, loss)
            tracer.tape_ops.append(len(tape))
            tracer._enter("tensor.backward")
            try:
                return backward(tape, loss)
            finally:
                tracer._backward_end = tracer._exit()

        self._patch(tape_cls, "record", record_wrapper)
        self._patch(tape_cls, "backward", backward_wrapper)

    # -- operations -------------------------------------------------------

    def begin_op(self) -> None:
        self._ru_start = resource.getrusage(resource.RUSAGE_SELF)
        self._op_start = time.perf_counter()
        self._last_top, self._last_top_end = "op-start", self._op_start
        self._stack.append(["op", self._op_start, 0.0])

    def add_update_span(self) -> None:
        """Charge the time since backward returned to ``train.update``."""
        now = time.perf_counter()
        self.incl_s["train.update"] += now - self._backward_end
        self.self_s["train.update"] += now - self._backward_end
        self.calls["train.update"] += 1
        self._stack[-1][2] += now - self._backward_end
        self._last_top, self._last_top_end = "train.update", now

    def end_op(self) -> float:
        """Close the operation; returns its duration in seconds."""
        now = time.perf_counter()
        self.gaps_s[(self._last_top, "op-end")] += now - self._last_top_end
        self._stack.pop()
        ru = resource.getrusage(resource.RUSAGE_SELF)
        self.minor_faults += ru.ru_minflt - self._ru_start.ru_minflt
        self.sys_s += ru.ru_stime - self._ru_start.ru_stime
        dur = now - self._op_start
        self.op_s.append(dur)
        return dur

    # -- results ----------------------------------------------------------

    def attributed_s(self) -> float:
        """Sum of every layer's self time, backward closures included."""
        return sum(self.self_s.values()) + sum(self.bwd_s.values())

    def largest_gap(self) -> tuple[str, float]:
        """The uncovered stretch of the op timeline that costs the most."""
        if not self.gaps_s:
            return "none", 0.0
        (before, after), secs = max(self.gaps_s.items(), key=lambda kv: kv[1])
        return f"between {before} and {after}", secs
