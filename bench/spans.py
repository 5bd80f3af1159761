"""In-memory spans around the simulator's public layer boundaries.

The simulator has no tracing of its own wall time, so the benchmark adds
it from the outside: :func:`instrument` replaces public methods on the
objects of one built simulator with recording wrappers (instance
attributes shadow the class methods; nothing in ``src/`` changes).  Every
call becomes a span ``(name, start, end, parent)`` in integer
nanoseconds; a layer's *self time* is its spans' duration minus what
their child spans cover, so the self times of all spans under a root sum
to the root's duration exactly.

Only the python backend is instrumented below the root: the compiled
core's fast paths bypass Python attribute lookup, so wrappers on node
methods would record a misleading subset.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterator

#: span name -> the public method it wraps.  The names on the left are
#: the vocabulary of the per-layer share metrics.
NODE_METHODS = {
    "node.drain_window": "drain_window",
    "node.pop_and_handle": "pop_and_handle",
    "node.deliver": "deliver",
}
CONTROLLER_METHODS = {
    "network.submit": "submit",
    "network.submit_held_batch": "submit_held_batch",
    "network.release_due": "release_due",
    "network.end_quantum": "end_quantum",
}
POLICY_METHODS = {"core.policy_next": "next", "core.policy_idle_chunk": "idle_chunk"}
HOSTMODEL_METHODS = {
    "node.take_jitter": "take_jitter",
    "node.slowdown_pair": "slowdown_pair",
}
COLLECTOR_METHODS = (
    "quantum_begin", "quantum_end", "barrier_wait", "fast_forward",
    "on_packet", "on_fault", "on_request", "on_retransmit",
)
SANITIZER_METHODS = (
    "on_quantum_start", "on_quantum_end", "on_decision", "on_fault_drop",
    "on_fast_forward", "on_run_end",
)

#: share metric -> the span names whose self time it sums.
SHARE_SPANS = {
    "core.driver_self_share": ("core.run",),
    "core.policy_share": tuple(POLICY_METHODS),
    "node.step_share": ("node.drain_window", "node.pop_and_handle"),
    "node.deliver_share": ("node.deliver",),
    "node.hostmodel_share": tuple(HOSTMODEL_METHODS),
    "network.submit_share": ("network.submit", "network.submit_held_batch"),
    "network.release_share": ("network.release_due", "network.end_quantum"),
    "obs.emit_share": ("obs.emit",),
    "checkpoint.capture_share": ("checkpoint.capture", "checkpoint.store_save"),
    "analysis.check_share": ("analysis.check",),
}

ROOT = "core.run"


class SpanRecorder:
    """Append-only span store; columnar so a span costs four list appends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self._stack: list[int] = []

    def _id_of(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def wrapper(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* wrapped so each call records one span called *name*."""
        ident = self._id_of(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack = self._stack
        clock = perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(start)
            name_id.append(ident)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` (a bound public method) with a recording wrapper."""
        setattr(obj, attr, self.wrapper(name, getattr(obj, attr)))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the ``with`` body as one span (same bookkeeping as
        :meth:`wrapper`, which inlines it for speed)."""
        index = len(self.start)
        self.name_id.append(self._id_of(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        try:
            yield
        finally:
            self.end[index] = perf_counter_ns()
            self._stack.pop()

    # -- read side -------------------------------------------------------- #

    def root_name_of(self) -> list[int]:
        """Name id of each span's root (the outermost enclosing span)."""
        roots = []
        for index, parent in enumerate(self.parent):
            roots.append(self.name_id[index] if parent < 0 else roots[parent])
        return roots

    def self_times(self, root: str = ROOT) -> tuple[dict[str, int], int]:
        """``({span name: self ns}, total ns)`` over the spans under *root* roots.

        The self times partition the summed root durations exactly (all
        arithmetic is on integer nanoseconds).
        """
        child_total = [0] * len(self.start)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                child_total[parent] += self.end[index] - self.start[index]
        root_id = self._name_ids.get(root)
        roots = self.root_name_of()
        by_name: dict[str, int] = defaultdict(int)
        total = 0
        for index, ident in enumerate(self.name_id):
            if roots[index] != root_id:
                continue
            duration = self.end[index] - self.start[index]
            by_name[self.names[ident]] += duration - child_total[index]
            if self.parent[index] < 0:
                total += duration
        return dict(by_name), total

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for ident in self.name_id:
            out[self.names[ident]] += 1
        return dict(out)

    def dump(self, path: Path, **meta: Any) -> None:
        """Write the spans (columnar; times in ns from the first span)."""
        origin = self.start[0] if self.start else 0
        by_name, total = self.self_times()
        payload = {
            **meta,
            "names": self.names,
            "root_total_ns": total,
            "self_ns_by_name": by_name,
            "span_counts": self.counts(),
            "spans": {
                "name": self.name_id,
                "start_ns": [t - origin for t in self.start],
                "end_ns": [t - origin for t in self.end],
                "parent": self.parent,
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))


def shares(by_name: dict[str, int], total: int) -> dict[str, float]:
    """The per-layer share metrics from :meth:`SpanRecorder.self_times`."""
    if total == 0:
        return dict.fromkeys(SHARE_SPANS, 0.0)
    return {
        metric: sum(by_name.get(name, 0) for name in names) / total
        for metric, names in SHARE_SPANS.items()
    }


def instrument(sim: Any, recorder: SpanRecorder) -> None:
    """Wrap the layer boundaries of one built ``ClusterSimulator``.

    Safe after construction: the driver binds only ``queue.peek_time`` at
    construction (not wrapped) and looks every method below up on the
    instance at each call.  ``sim.run`` itself becomes the ``core.run``
    root.  Simulators on the native backend get the root span only.
    """
    recorder.wrap(sim, "run", ROOT)
    if sim.backend != "python":
        return
    for node in sim.nodes:
        for name, attr in NODE_METHODS.items():
            recorder.wrap(node, attr, name)
    for name, attr in CONTROLLER_METHODS.items():
        recorder.wrap(sim.controller, attr, name)
    for name, attr in POLICY_METHODS.items():
        recorder.wrap(sim.policy, attr, name)
    for model in sim.host_models:
        for name, attr in HOSTMODEL_METHODS.items():
            recorder.wrap(model, attr, name)
    if sim.collector is not None:
        for attr in COLLECTOR_METHODS:
            recorder.wrap(sim.collector, attr, "obs.emit")
    if sim.sanitizer is not None:
        for attr in SANITIZER_METHODS:
            recorder.wrap(sim.sanitizer, attr, "analysis.check")


@contextmanager
def patched(module: Any, attr: str, recorder: SpanRecorder, name: str) -> Iterator[None]:
    """Temporarily wrap the module-level function ``module.attr``.

    Used for ``repro.checkpoint.snapshot.capture_snapshot``, which the
    driver imports by name at each checkpoint.
    """
    original = getattr(module, attr)
    setattr(module, attr, recorder.wrapper(name, original))
    try:
        yield
    finally:
        setattr(module, attr, original)
