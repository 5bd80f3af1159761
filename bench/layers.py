"""Isolated per-layer microbenchmarks.

Each method of :class:`Layers` drives one public API of one layer with a
synthetic load and returns ``{metric name: value}``.  Synthetic-API
timings are the minimum over :data:`BATCHES` batches (the minimum is the
noise-robust statistic for a sub-millisecond loop); the relative spread
of the batches is kept beside them in ``Layers.spreads`` so a reader can
tell a steady number from a noisy one.  Measurements that need a whole
simulator run (fast-forward and window cost per quantum, service
requests per second) run it once.

Everything here is independent of the workload being benchmarked, so the
traced run of every workload reports the same set.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

import repro.checkpoint.snapshot as snapshot_module
from repro import (
    AdaptiveQuantumPolicy,
    EpWorkload,
    ExperimentRunner,
    FixedQuantumPolicy,
    NetworkController,
    PAPER_NETWORK,
    Packet,
    TraceCollector,
    TraceConfig,
    ground_truth_policy,
    write_chrome_trace,
)
from repro.checkpoint import CheckpointStore, restore_snapshot
from repro.engine.backend import build_native, queue_class
from repro.engine.rng import RngStreams
from repro.harness.parallel import DiskResultCache, RunnerSettings, RunSpec, record_to_json
from repro.node.hostmodel import HostExecutionModel, HostModelParams
from repro.node.nic import NicModel
from repro.node.requests import Recv
from repro.service import ARRIVALS_STREAM, ArrivalProfile, draw_arrivals

from bench import spans, workloads
from bench.workloads import US, Cell

BATCHES = 5
HEAP_DEPTH = 1024
_PEERS = 7
_TAG = 72

#: A prepared batch: the loop to time and the operations it performs.
Prepared = tuple[Callable[[], Any], int]


def _timed(fn: Callable[[], Any]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _calls(fn: Callable[[], Any], count: int) -> Callable[[], None]:
    def loop() -> None:
        for _ in range(count):
            fn()

    return loop


def import_seconds(spawns: int) -> float:
    """Median wall of ``python -c "import repro"`` (interpreter start +
    import), the part of set-up every user of the package pays."""
    return statistics.median(
        _timed(lambda: subprocess.run([sys.executable, "-c", "import repro"], check=True))
        for _ in range(spawns)
    )


def _fragment(src: int, serial: int) -> Packet:
    return Packet(
        src=src, dst=0, size_bytes=578, send_time=serial, message_id=serial,
        payload=(_TAG, 512, serial), due_time=serial + 2_000, deliver_time=serial + 2_000,
    )


def _data_frames(count: int) -> list[Packet]:
    return [
        Packet(src=1 + i % _PEERS, dst=0, size_bytes=578, send_time=i % 1_000)
        for i in range(count)
    ]


class _Cluster:
    """Minimal ``ClusterState``: a fixed window and destination position."""

    def __init__(self, end: int, position: int) -> None:
        self.window = (0, end)
        self.position = position

    def quantum_window(self) -> tuple[int, int]:
        return self.window

    def node_position_at(self, node: int, host_time: float) -> int:
        return self.position


class Layers:
    """One pass over every isolated microbenchmark."""

    def __init__(self, seed: int, scratch: Path, smoke: bool) -> None:
        self.seed = seed
        self.scratch = scratch
        self.smoke = smoke
        self.ops = 500 if smoke else 20_000
        #: metric -> (max - min) / min over its batches.
        self.spreads: dict[str, float] = {}

    def best_ns(self, name: str, prepare: Callable[[], Prepared]) -> float:
        """Minimum ns per operation over :data:`BATCHES` freshly prepared
        batches (preparation is not timed)."""
        samples = []
        for _ in range(BATCHES):
            loop, operations = prepare()
            samples.append(1e9 * _timed(loop) / operations)
        self.spreads[name] = (max(samples) - min(samples)) / min(samples)
        return min(samples)

    def _run(self, cell: Cell) -> workloads.CellRun:
        return workloads.run_cell(cell, self.seed, "python", self.scratch)

    # -- engine ---------------------------------------------------------- #

    def engine_queue(self) -> dict[str, float]:
        ops = self.ops
        rng = np.random.default_rng(self.seed)
        prefill = rng.integers(0, 1_000_000, size=HEAP_DEPTH).tolist()
        times = rng.integers(0, 1_000_000, size=ops).tolist()
        burst = [(when, None) for when in times[:64]]
        rounds = max(1, ops // 64)
        out = {}
        for backend, suffix in (("python", ""), ("native", "_native")):

            def filled() -> Any:
                queue = queue_class(backend)()
                for when in prefill:
                    queue.schedule(when, tag="app-wake")
                return queue

            def push_pop() -> Prepared:
                queue = filled()
                schedule, pop = queue.schedule, queue.pop

                def loop() -> None:
                    for when in times:
                        schedule(when, tag="app-wake")
                        pop()

                return loop, ops

            def cancel() -> Prepared:
                queue = filled()
                schedule, drop = queue.schedule, queue.cancel

                def loop() -> None:
                    for when in times:
                        drop(schedule(when, tag="rto"))

                return loop, ops

            def schedule_many() -> Prepared:
                many = filled().schedule_many
                return _calls(lambda: many(burst, tag="emit"), rounds), rounds * len(burst)

            for metric, prepare in (
                ("engine.queue_push_pop_ns", push_pop),
                ("engine.queue_cancel_ns", cancel),
                ("engine.schedule_many_ns", schedule_many),
            ):
                out[metric + suffix] = self.best_ns(metric + suffix, prepare)
        return out

    def engine_setup(self) -> dict[str, float]:
        return {
            # A forced rebuild (the loaded module keeps its mapping; the
            # linker replaces the file).  The smoke run only times the
            # up-to-date check.
            "engine.native_build_s": _timed(lambda: build_native(force=not self.smoke)),
            "engine.import_s": import_seconds(1 if self.smoke else 3),
        }

    # -- node ------------------------------------------------------------ #

    def node_nic(self) -> dict[str, float]:
        ops = self.ops
        out = {}
        request = Recv(tag=_TAG)  # wildcard source, like the service sink
        deep = 1_000 if self.smoke else 100_000
        for label, backlog in (("b1", 1), ("b1k", 1_000), ("b100k", deep)):
            # One NIC per backlog: every receive is paired with a match, so
            # the backlog stays at its size across the loop and the batches.
            nic = NicModel(0)
            for serial in range(backlog):
                nic.receive_fragment(_fragment(1 + serial % _PEERS, serial))
            receive, pull = nic.receive_fragment, nic.match

            def match() -> Prepared:
                frames = [_fragment(1 + i % _PEERS, backlog + i) for i in range(ops)]

                def loop() -> None:
                    for frame in frames:
                        receive(frame)
                        pull(request)

                return loop, ops

            out[f"node.nic_match_ns_{label}"] = self.best_ns(f"node.nic_match_ns_{label}", match)

        def build_frames() -> Prepared:
            build = NicModel(0).build_frames

            def loop() -> None:
                for now in range(ops):
                    build(1, 256, _TAG, None, now)

            return loop, ops

        out["node.nic_build_frames_ns"] = self.best_ns("node.nic_build_frames_ns", build_frames)
        return out

    def node_jitter(self) -> dict[str, float]:
        rows = 256  # the block size the driver's jitter feed fetches
        calls = max(1, 10 * self.ops // rows)

        def take() -> Prepared:
            model = HostExecutionModel(0, HostModelParams(), RngStreams(self.seed))
            return _calls(lambda: model.take_jitter(rows), calls), calls * rows

        return {"node.take_jitter_ns": self.best_ns("node.take_jitter_ns", take)}

    # -- network --------------------------------------------------------- #

    def network_controller(self) -> dict[str, float]:
        ops = self.ops
        size = _PEERS + 1

        def submit_with(position: int) -> Callable[[], Prepared]:
            def prepare() -> Prepared:
                controller = NetworkController(
                    size, PAPER_NETWORK(size), cluster=_Cluster(10**12, position)
                )
                frames = _data_frames(ops)
                submit = controller.submit

                def loop() -> None:
                    for frame in frames:
                        submit(frame, 0.0)

                return loop, ops

            return prepare

        def held() -> tuple[NetworkController, Callable[[], None]]:
            # Q = 1 us <= T: every frame is due at or beyond the window end.
            controller = NetworkController(
                size, PAPER_NETWORK(size), cluster=_Cluster(1_000, 0)
            )
            frames = _data_frames(ops)
            batches = [
                [(float(i), f.src, i, f) for i, f in enumerate(frames[lo : lo + 64])]
                for lo in range(0, ops, 64)
            ]
            submit = controller.submit_held_batch

            def fill() -> None:
                for pending in batches:
                    submit(pending)

            return controller, fill

        def release_due() -> Prepared:
            controller, fill = held()
            fill()
            return (lambda: controller.release_due(0, 10**12)), ops

        return {
            # Destination still at t=0: exact delivery inside the window.
            "network.submit_ns": self.best_ns("network.submit_ns", submit_with(0)),
            # Destination already past every due time: the straggler path.
            "network.submit_straggler_ns": self.best_ns(
                "network.submit_straggler_ns", submit_with(10**9)
            ),
            "network.submit_held_batch_ns": self.best_ns(
                "network.submit_held_batch_ns", lambda: (held()[1], ops)
            ),
            "network.release_due_ns": self.best_ns("network.release_due_ns", release_due),
        }

    # -- core ------------------------------------------------------------ #

    def core_policy(self) -> dict[str, float]:
        ops = self.ops
        policy = AdaptiveQuantumPolicy(US, 1000 * US, inc=1.03, dec=0.02)
        chunks = max(1, ops // 1_000)

        def step() -> Prepared:
            advance = policy.next

            def loop() -> None:
                state = policy.initial()
                for i in range(ops):
                    state = advance(state, i & 1)

            return loop, ops

        def idle_chunk() -> Prepared:
            return _calls(lambda: policy.idle_chunk(float(US), 10**9, 1 << 16), chunks), chunks

        return {
            "core.policy_next_ns": self.best_ns("core.policy_next_ns", step),
            "core.idle_chunk_us": self.best_ns("core.idle_chunk_us", idle_chunk) / 1e3,
        }

    def core_quanta(self) -> dict[str, float]:
        """Wall per quantum of the two quantum-loop regimes, one run each:
        LU-8 truth is almost all arithmetically skipped quanta, IS-64 truth
        almost all drain windows."""
        lu = workloads.kernels(self.smoke)["LU"]
        is64 = next(c for c in workloads.gt64_cells(self.smoke) if c.key.startswith("IS"))
        ff = self._run(Cell("LU", "LU", lu, 8, lambda: FixedQuantumPolicy(US)))
        window = self._run(is64)
        return {
            "core.ff_ns_per_quantum": 1e9 * ff.wall_s / max(1, ff.sim.perf.ff_quanta),
            "core.window_us_per_quantum": 1e6 * window.wall_s / window.sim.perf.event_quanta,
        }

    # -- service --------------------------------------------------------- #

    def service(self) -> dict[str, float]:
        profile = ArrivalProfile(
            rate_per_sec=400_000.0, num_requests=100_000, diurnal_amplitude=0.3
        )
        arrivals_s = min(
            _timed(lambda: draw_arrivals(profile, RngStreams(self.seed).stream(ARRIVALS_STREAM)))
            for _ in range(BATCHES)
        )
        requests = 100 if self.smoke else 1_000
        factory = workloads.service_workload(requests)
        out = {"service.arrivals_ms_100k": 1e3 * arrivals_s}
        for metric, policy in (
            ("service.requests_per_s", lambda: FixedQuantumPolicy(1000 * US)),
            # The accurate-but-slow regime: the quantum collapses under traffic.
            ("service.dyn_requests_per_s", lambda: AdaptiveQuantumPolicy(US, 1000 * US)),
        ):
            out[metric] = requests / self._run(Cell(metric, metric, factory, 8, policy)).wall_s
        return out

    # -- checkpoint ------------------------------------------------------ #

    def checkpoint(self) -> dict[str, float]:
        """Capture/restore/store cost of real mid-run snapshots of the
        modes32 simulator (captured at the driver's own cadence points)."""
        cell = next(c for c in workloads.modes32_cells(self.smoke) if c.mode == "checkpoint")

        def build() -> Any:
            return workloads.build_sim(
                cell, self.seed, "python", "auto", self.scratch,
                workloads.snapshot_cadence(self.smoke),
            )

        snapshots: list[Any] = []
        recorder = spans.SpanRecorder()
        sim = build()
        sim.checkpoint_sink = snapshots.append
        with spans.patched(snapshot_module, "capture_snapshot", recorder, "capture"):
            sim.run()
        captures = [end - start for start, end in zip(recorder.start, recorder.end)]
        snapshot = snapshots[-1]

        def restore() -> float:
            fresh = build()
            return _timed(lambda: restore_snapshot(fresh, snapshot))

        store = CheckpointStore(self.scratch / "layers-ckpt")
        return {
            "checkpoint.capture_ms": min(captures) / 1e6,
            "checkpoint.restore_ms": 1e3 * min(restore() for _ in range(3)),
            "checkpoint.snapshot_kb": len(snapshot.payload) / 1024,
            "checkpoint.store_save_ms": 1e3
            * min(_timed(lambda: store.save("layer", snapshot)) for _ in range(BATCHES)),
            "checkpoint.store_load_ms": 1e3
            * min(_timed(lambda: store.load("layer")) for _ in range(BATCHES)),
        }

    # -- obs ------------------------------------------------------------- #

    def obs(self) -> dict[str, float]:
        ops = self.ops
        frames = _data_frames(ops)
        for frame in frames:
            frame.due_time = frame.deliver_time = frame.send_time + 2_000
        collectors: list[TraceCollector] = []

        def emit_into(config: TraceConfig) -> Callable[[], Prepared]:
            def prepare() -> Prepared:
                collector = TraceCollector(config)
                collectors.append(collector)
                on_packet = collector.on_packet

                def loop() -> None:
                    for frame in frames:
                        on_packet(frame, "exact-now")

                return loop, ops

            return prepare

        jsonl = TraceConfig(capacity=0, jsonl_path=str(self.scratch / "layers-trace.jsonl"))
        out = {
            "obs.emit_ns_ring": self.best_ns("obs.emit_ns_ring", emit_into(TraceConfig())),
            "obs.emit_ns_jsonl": self.best_ns("obs.emit_ns_jsonl", emit_into(jsonl)),
        }
        for collector in collectors:
            collector.close()
        ring = TraceCollector(TraceConfig())
        for frame in frames[: ops // 4]:
            ring.on_packet(frame, "exact-now")
        export = self.scratch / "layers-trace.json"
        out["obs.chrome_export_ms"] = 1e3 * min(
            _timed(lambda: write_chrome_trace(ring, export, _PEERS + 1)) for _ in range(3)
        )
        return out

    # -- harness --------------------------------------------------------- #

    def harness(self) -> dict[str, float]:
        workload = EpWorkload()
        truth = ground_truth_policy()
        runner = ExperimentRunner(seed=self.seed, check=False, shards=1, backend="python")
        record = runner.run_spec(workload, 2, truth)
        spec = RunSpec(workload, 2, truth.build(), truth.label, RunnerSettings(seed=self.seed))
        payload = spec.key_payload()
        cache = DiskResultCache(self.scratch / "layers-cache")
        calls = max(1, self.ops // 100)
        out = {}
        for metric, fn in (
            ("harness.key_us", lambda: DiskResultCache.key_of(spec.key_payload())),
            ("harness.record_json_us", lambda: record_to_json(record)),
            ("harness.cache_put_us", lambda: cache.put(payload, record)),
            ("harness.cache_get_us", lambda: cache.get(payload)),
        ):
            out[metric] = self.best_ns(metric, lambda fn=fn: (_calls(fn, calls), calls)) / 1e3
        return out

    def run_all(self) -> dict[str, float]:
        """Every isolated microbenchmark; about ten seconds at full size."""
        out: dict[str, float] = {}
        for part in (
            self.engine_queue, self.engine_setup, self.node_nic, self.node_jitter,
            self.network_controller, self.core_policy, self.core_quanta,
            self.service, self.checkpoint, self.obs, self.harness,
        ):
            out.update(part())
        return out
