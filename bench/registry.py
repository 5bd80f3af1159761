"""What the benchmark measures: workloads, metrics, bounds, predictions.

This module is the single declaration of every name the benchmark
prints.  ``BENCHMARK.json`` at the repository root is generated from it
(``python bench/run.py --write-manifest``), ``bench/run.py`` refuses to
report a metric that is not declared here, and ``bench/compare.py``
takes each metric's direction and bound from here.

"host" metrics are wall-clock measurements of the simulator itself and
carry run-to-run noise; "simulated" metrics are what the modelled
cluster reports and repeat exactly for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds one ``--trace 0`` invocation spends in timed repeats.
RUN_SECONDS = 8

#: Fewest timed repeats behind any reported median.
MIN_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS = (
    Workload(
        "gt64_py",
        "Sec. 6 ground truth (IS+NAMD, 64 nodes, Q=1us<=T, python): every quantum "
        "is a drain window, so core accounting and submit_held_batch dominate.",
    ),
    Workload(
        "gt64_native",
        "Same runs on the C queue + fused step loop; a python-side change must "
        "leave this row unchanged and vice versa.",
    ),
    Workload(
        "service8_py",
        "Open-loop service, 8 nodes, Q=1000us: ~90 events per quantum, deep NIC "
        "mailboxes, so engine/node/service dominate and the quantum loop does not.",
    ),
    Workload(
        "service8_native",
        "Same service run on the native core: the ~1.1x row the native "
        "'earn it' exit has to turn into >=2x.",
    ),
    Workload(
        "paper8_matrix",
        "Fig. 6/7 matrix at 8 nodes (6 kernels x truth/dyn/dyn/fixed): adaptive "
        "policy steps, straggler decisions and fast-forward spans; drain bypassed.",
    ),
    Workload(
        "farm_matrix",
        "Same kernels at sizes 2/4 x paper policies through ParallelRunner(2), cold "
        "cache: pool spawn, pickling, cache put, scalar stepper; bypasses vectorized.",
    ),
    Workload(
        "modes32",
        "IS-32 at Q=1us once per result-neutral mode (trace, checkpoint, check, "
        "2 shards): the only place obs/checkpoint/analysis/shard overheads show.",
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: End-to-end only: share of the parent's median by which the metric
    #: may get worse before a change counts as a regression.
    bound: float = 0.0
    #: "host" (noisy wall-clock), "simulated" or "count" (both exact for a
    #: fixed seed; compared exactly by bench/compare.py).
    kind: str = "host"
    #: Per-layer only: "<end-to-end metric> on <workloads>", the number
    #: this layer metric is predicted to move (and where not).
    moves: str = ""


END_TO_END = (
    Metric("wall_s", "s", "lower", 0.20),
    Metric("events_per_s", "1/s", "higher", 0.20),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
)

#: Exact per-workload facts reported beside the end-to-end metrics (they
#: are 0 or seed-dependent, so the driver's schema cannot bound them;
#: bench/compare.py compares them exactly).
EXACT = (
    Metric("failed_share", "ratio", "lower", kind="count"),
    Metric("accuracy_err_pct", "%", "lower", kind="simulated"),
    Metric("modelled_speedup_x", "x", "higher", kind="simulated"),
)

_GT = "gt64_py"
_SVC = "service8_py"
_P8 = "paper8_matrix"
_FARM = "farm_matrix"
_MODES = "modes32"


def _m(name: str, unit: str, better: str, moves: str, kind: str = "host") -> Metric:
    return Metric(name, unit, better, kind=kind, moves=moves)


PER_LAYER = (
    # -- traced run: self-time shares of the core.run roots ------------- #
    _m("bench.trace_overhead_x", "x", "lower",
       "none; traced / untraced wall of the same cells, how far to trust the shares"),
    _m("core.driver_self_share", "ratio", "lower",
       f"wall_s on {_GT}, {_P8}; ~none on {_SVC}"),
    _m("core.driver_us_per_quantum", "us", "lower",
       f"wall_s on {_GT}, {_P8}; ~none on {_SVC}"),
    _m("core.policy_share", "ratio", "lower",
       f"wall_s on {_P8}; none on gt64_* (fixed policy)"),
    _m("node.step_share", "ratio", "lower",
       f"wall_s, events_per_s on {_SVC} first, {_GT} second"),
    _m("node.us_per_event", "us", "lower",
       f"wall_s, events_per_s on {_SVC} first, {_GT} second"),
    _m("node.deliver_share", "ratio", "lower",
       f"wall_s on {_SVC}, {_GT}"),
    _m("node.hostmodel_share", "ratio", "lower",
       f"wall_s on {_P8} (jitter feed rows), {_FARM} (scalar slowdown_pair)"),
    _m("network.submit_share", "ratio", "lower",
       f"wall_s on {_GT} (batch path), {_P8} (per-packet straggler path)"),
    _m("network.release_share", "ratio", "lower",
       f"wall_s on {_GT}, {_P8}"),
    _m("obs.emit_share", "ratio", "lower", f"wall_s on {_MODES} only"),
    _m("checkpoint.capture_share", "ratio", "lower", f"wall_s on {_MODES} only"),
    _m("analysis.check_share", "ratio", "lower", f"wall_s on {_MODES} only"),
    # -- exact counts: a speed-only change leaves every one identical --- #
    _m("core.event_quanta", "count", "lower", "none (exact)", "count"),
    _m("core.ff_quanta", "count", "higher", "none (exact)", "count"),
    _m("core.ff_spans", "count", "lower", "none (exact)", "count"),
    _m("core.ff_quanta_ratio", "ratio", "higher", "none (exact)", "count"),
    _m("core.subset_windows", "count", "higher", "none (exact)", "count"),
    _m("core.skipped_node_quanta_ratio", "ratio", "higher", "none (exact)", "count"),
    _m("engine.events", "count", "lower", "none (exact)", "count"),
    _m("network.packets_routed", "count", "lower", "none (exact)", "count"),
    _m("network.straggler_ratio", "ratio", "lower", "none (exact)", "count"),
    _m("service.completed_requests", "count", "higher", "none (exact)", "count"),
    _m("service.p99_us", "us", "lower", "none (exact, simulated)", "simulated"),
    _m("obs.events_emitted", "count", "lower", "none (exact)", "count"),
    _m("obs.events_dropped", "count", "lower", "none (exact)", "count"),
    _m("checkpoint.snapshots", "count", "lower", "none (exact)", "count"),
    _m("harness.cache_hit_ratio", "ratio", "higher", "none (exact)", "count"),
    _m("harness.pool_fallbacks", "count", "lower", "none (exact)", "count"),
    _m("shard.fallbacks", "count", "lower", "none (exact)", "count"),
    _m("sim.accuracy_err_pct", "%", "lower",
       "none (exact, simulated); error vs the model's own Q<=T truth", "simulated"),
    _m("sim.modelled_speedup_x", "x", "higher",
       "none (exact, simulated); modelled host time, not wall", "simulated"),
    # -- isolated microbenchmarks (bench/layers.py) ---------------------- #
    _m("engine.queue_push_pop_ns", "ns", "lower", "events_per_s on service8_py"),
    _m("engine.queue_push_pop_ns_native", "ns", "lower", "events_per_s on service8_native"),
    _m("engine.queue_cancel_ns", "ns", "lower", "events_per_s on service8_py"),
    _m("engine.queue_cancel_ns_native", "ns", "lower", "events_per_s on service8_native"),
    _m("engine.schedule_many_ns", "ns", "lower", "events_per_s on service8_py"),
    _m("engine.schedule_many_ns_native", "ns", "lower", "events_per_s on service8_native"),
    _m("engine.native_build_s", "s", "lower", "setup_s on gt64_native, service8_native"),
    _m("engine.import_s", "s", "lower", "setup_s on every workload"),
    _m("node.nic_match_ns_b1", "ns", "lower", f"wall_s on {_SVC}; none on {_P8}"),
    _m("node.nic_match_ns_b1k", "ns", "lower", f"wall_s on {_SVC}; none on {_P8}"),
    _m("node.nic_match_ns_b100k", "ns", "lower", f"wall_s on {_SVC}; none on {_P8}"),
    _m("node.nic_build_frames_ns", "ns", "lower", f"wall_s on {_SVC}; none on {_P8}"),
    _m("node.take_jitter_ns", "ns", "lower", f"wall_s on {_P8}; none on {_SVC}"),
    _m("network.submit_ns", "ns", "lower", f"wall_s on {_P8}, {_SVC}"),
    _m("network.submit_straggler_ns", "ns", "lower", f"wall_s on {_P8}"),
    _m("network.submit_held_batch_ns", "ns", "lower", f"wall_s on {_GT}"),
    _m("network.release_due_ns", "ns", "lower", f"wall_s on {_GT}, {_P8}"),
    _m("core.policy_next_ns", "ns", "lower", f"wall_s on {_P8}"),
    _m("core.idle_chunk_us", "us", "lower", f"wall_s on {_P8}"),
    _m("core.ff_ns_per_quantum", "ns", "lower", f"wall_s on {_P8}"),
    _m("core.window_us_per_quantum", "us", "lower", f"wall_s on {_GT}"),
    _m("service.arrivals_ms_100k", "ms", "lower", "setup_s on service8_*"),
    _m("service.requests_per_s", "1/s", "higher", "wall_s on service8_*"),
    _m("service.dyn_requests_per_s", "1/s", "higher", "wall_s on service8_*"),
    _m("checkpoint.capture_ms", "ms", "lower", f"wall_s, peak_rss_mb on {_MODES} only"),
    _m("checkpoint.restore_ms", "ms", "lower", f"none end to end (resume path); {_MODES} layer"),
    _m("checkpoint.snapshot_kb", "KiB", "lower", f"peak_rss_mb on {_MODES} only"),
    _m("checkpoint.store_save_ms", "ms", "lower", f"wall_s on {_MODES} only"),
    _m("checkpoint.store_load_ms", "ms", "lower", f"none end to end (resume path); {_MODES} layer"),
    _m("checkpoint.overhead_x", "x", "lower", f"wall_s on {_MODES} only"),
    _m("obs.emit_ns_ring", "ns", "lower", f"wall_s, peak_rss_mb on {_MODES} only"),
    _m("obs.emit_ns_jsonl", "ns", "lower", f"none end to end (JSONL sink); {_MODES} layer"),
    _m("obs.chrome_export_ms", "ms", "lower", f"none end to end (export); {_MODES} layer"),
    _m("obs.overhead_x", "x", "lower", f"wall_s on {_MODES} only"),
    _m("analysis.check_overhead_x", "x", "lower", f"wall_s on {_MODES} only"),
    _m("shard.speedup_x", "x", "higher", f"wall_s on {_MODES} only (2 workers on 2 cores)"),
    _m("shard.barrier_us_per_quantum", "us", "lower", f"wall_s on {_MODES} only"),
    _m("core.plain_wall_s", "s", "lower", f"wall_s on {_MODES} (every mode multiplies it)"),
    _m("harness.cache_get_us", "us", "lower", f"wall_s on {_FARM} only"),
    _m("harness.cache_put_us", "us", "lower", f"wall_s on {_FARM} only"),
    _m("harness.key_us", "us", "lower", f"wall_s on {_FARM} only"),
    _m("harness.record_json_us", "us", "lower", f"wall_s on {_FARM} only"),
    _m("harness.warm_matrix_ms", "ms", "lower", f"none on cold {_FARM}; the warm rerun users see"),
    _m("harness.farm_speedup_x", "x", "higher", f"wall_s on {_FARM} only"),
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
BY_NAME = {m.name: m for m in (*END_TO_END, *EXACT, *PER_LAYER)}


def manifest() -> dict:
    """The contents of ``BENCHMARK.json`` (the driver's contract)."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
