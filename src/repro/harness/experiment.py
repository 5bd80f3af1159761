"""Experiment runner: build a cluster, run it, compare against ground truth.

The runner owns the methodology details of Section 4: every configuration
of a given (workload, size, seed) shares the same workload instance
parameters; the 1 us fixed quantum is the ground truth; accuracy is the
relative error of the application-reported metric; speed is the host-time
speedup against the ground-truth run.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.checkpoint import CheckpointConfig, CheckpointStore, MatrixJournal, restore_snapshot
from repro.core.cluster import ClusterConfig, ClusterSimulator, RunResult
from repro.core.quantum import QuantumPolicy
from repro.engine.units import format_time
from repro.harness.configs import PolicySpec, ground_truth_policy
from repro.harness.settings import RunnerSettings, Uncacheable, _describe_component
from repro.harness.supervise import ProgressWatchdog, retry_transient
from repro.metrics.traffic import TrafficTrace
from repro.network.controller import NetworkController
from repro.network.latency import LatencyModel
from repro.node.node import SimulatedNode
from repro.obs.collector import TraceCollector, TraceConfig, run_slug
from repro.shard import run_sharded
from repro.workloads.base import Workload

#: Collector settings used when only a :class:`TrafficTrace` is wanted:
#: the collector acts as a pure conduit (no ring, packet events only)
#: feeding the trace's ``record`` hook, so traffic recording and full
#: tracing share one code path through the controller.
_TRAFFIC_CONDUIT = TraceConfig(
    capacity=0, quanta=False, barriers=False, faults=False, transport=False
)


@dataclass
class ExperimentRecord:
    """One finished run and its application metric."""

    workload_name: str
    size: int
    policy_label: str
    seed: int
    metric: float
    result: RunResult
    trace: Optional[TrafficTrace] = None
    #: Structured trace of the run (see :mod:`repro.obs`); populated only
    #: when the runner was constructed with ``trace=TraceConfig(...)``.
    obs: Optional[TraceCollector] = None


@dataclass
class ComparisonRow:
    """One configuration compared against the ground truth."""

    workload_name: str
    size: int
    policy_label: str
    metric: float
    accuracy_error: float
    speedup: float
    exec_time_ratio: float
    straggler_fraction: float
    mean_quantum: float

    def describe(self) -> str:
        return (
            f"{self.workload_name:>5} n={self.size:<3} {self.policy_label:<18} "
            f"speedup={self.speedup:7.1f}x error={100 * self.accuracy_error:7.2f}% "
            f"dilation={self.exec_time_ratio:5.2f}x"
        )


def _truth_key(workload: Workload, size: int) -> tuple[object, int]:
    """Which ground truth serves *workload* at *size*: the workload's class
    and parameters, as the result cache keys it (two instances that share
    a name but not their parameters need different truths), or the
    instance itself when its parameters cannot be described."""
    try:
        return json.dumps(_describe_component(workload), sort_keys=True), size
    except Uncacheable:
        return workload, size


class ExperimentRunner:
    """Builds and runs cluster simulations with consistent methodology."""

    #: Constructor arguments besides the settings that :meth:`derive` keeps.
    _derive_args: dict = {}

    def __init__(self, settings: Optional[RunnerSettings] = None, **knobs) -> None:
        #: Every knob of this runner (see :class:`RunnerSettings`, the one
        #: list of them): *knobs* are its fields, applied over *settings*.
        self.settings = dataclasses.replace(settings or RunnerSettings(), **knobs)
        #: Why the most recent run degraded from the native engine core to
        #: pure python (None when native ran or was not requested) — the
        #: backend analogue of ``last_shard_fallback_reason``.
        self.last_backend_fallback_reason: Optional[str] = None
        #: Why the most recent run degraded from the requested shard count
        #: to serial execution (None when sharding was off or succeeded) —
        #: the single-run analogue of ``ParallelRunner.last_fallback_reason``.
        self.last_shard_fallback_reason: Optional[str] = None
        #: Records carrying a structured trace, in completion order (the
        #: CLI exports/diffs these after the artefact entries, which
        #: return rendered rows rather than records).
        self.traced_runs: list[ExperimentRecord] = []
        self._ground_truth: dict[tuple[object, int], ExperimentRecord] = {}

    def derive(self, **knobs) -> "ExperimentRunner":
        """A runner of this kind with *knobs* applied over these settings.

        It keeps this runner's farm parameters and reports its traced runs
        on this runner's list; its ground truths are its own.
        """
        derived = type(self)(self.settings, **self._derive_args, **knobs)
        derived.traced_runs = self.traced_runs
        return derived

    # ------------------------------------------------------------------ #
    # Single runs
    # ------------------------------------------------------------------ #

    def run(
        self,
        workload: Workload,
        size: int,
        policy: QuantumPolicy,
        label: str = "",
    ) -> ExperimentRecord:
        """Run *workload* on a fresh *size*-node cluster under *policy*.

        When the runner carries supervision/checkpoint settings, the run
        is executed under a :class:`ProgressWatchdog`, periodically
        checkpointed, and — for transient failures only — retried with
        exponential backoff, re-resuming from the latest snapshot.  None
        of this changes the result: a supervised, checkpointed, resumed
        run is bit-identical to a plain one.
        """
        run_label = label or policy.describe()
        first_attempt = True

        def attempt() -> ExperimentRecord:
            nonlocal first_attempt
            # A retry after a transient failure may resume from the
            # snapshot the failed attempt left behind even when the
            # caller did not ask for --resume: the work is this call's.
            resume_ok = self.settings.resume or not first_attempt
            first_attempt = False
            return self._run_once(workload, size, policy, run_label, resume_ok)

        if self.settings.retries:
            return retry_transient(attempt, self.settings.retries)
        return attempt()

    def _checkpoint_config(
        self, workload: Workload, size: int, run_label: str
    ) -> Optional[CheckpointConfig]:
        """Per-run checkpoint settings, or None when checkpointing is off."""
        settings = self.settings
        if settings.checkpoint_dir is None:
            return None
        return CheckpointConfig(
            directory=settings.checkpoint_dir,
            every_quanta=settings.checkpoint_every_quanta,
            label=run_slug(workload.name, size, run_label),
            key=settings.snapshot_key(),
        )

    def _run_once(
        self,
        workload: Workload,
        size: int,
        policy: QuantumPolicy,
        run_label: str,
        resume_ok: bool,
    ) -> ExperimentRecord:
        label = run_label
        settings = self.settings
        trace = TrafficTrace(size) if settings.record_traffic else None
        checkpoint = self._checkpoint_config(workload, size, run_label)
        watchdog: Optional[ProgressWatchdog] = None
        if settings.run_timeout is not None or settings.stall_timeout is not None:
            watchdog = ProgressWatchdog(
                label=f"{workload.name} n={size} {run_label}",
                run_timeout=settings.run_timeout,
                stall_timeout=settings.stall_timeout,
                progress=workload.progress_summary,
            )

        def build() -> ClusterSimulator:
            # A full fresh simulator per call: run_sharded may call this a
            # second time to re-run serially after a mid-flight worker
            # failure, and a run is a pure function of what this builds.
            apps = workload.build_apps(size)
            nodes = [
                SimulatedNode(rank, app, transport=settings.transport)
                for rank, app in enumerate(apps)
            ]
            latency: LatencyModel = settings.latency_factory(size)
            # Traffic recording and structured tracing share one code path:
            # the controller feeds the obs collector, and a TrafficTrace
            # (when requested) is just a packet listener on that collector.
            trace_config = (
                settings.trace.for_run(
                    workload.name, size, label or policy.describe()
                )
                if settings.trace is not None
                else (_TRAFFIC_CONDUIT if trace is not None else None)
            )
            controller = NetworkController(size, latency)
            config = ClusterConfig(
                seed=settings.seed,
                host_params=settings.host_params,
                barrier=settings.barrier,
                timeline_bucket=settings.timeline_bucket,
                check=settings.check,
                faults=settings.faults,
                trace=trace_config,
                shards=settings.shards,
                checkpoint=checkpoint,
                backend=settings.backend,
            )
            simulator = ClusterSimulator(nodes, controller, policy, config)
            if trace is not None:
                assert simulator.collector is not None
                simulator.collector.add_packet_listener(trace.record)
            if watchdog is not None:
                simulator.supervision = watchdog.beat
            # Offer the collector to workloads that emit application-level
            # trace events (the service workload's request lifecycle).
            workload.attach_trace(simulator.collector)
            return simulator

        def supervised(body):
            return watchdog.run(body) if watchdog is not None else body()

        snapshot = None
        if checkpoint is not None and resume_ok:
            snapshot = CheckpointStore(checkpoint.directory).load(
                checkpoint.label, expect_key=checkpoint.key
            )
        if snapshot is not None:
            # Resume path: rebuild the simulator, overwrite its state
            # from the snapshot, and run it to completion serially (a
            # restored run never re-enters the shard driver; sharded and
            # serial execution are bit-identical anyway).
            simulator = build()
            # Replaying the checkpoint's application log re-runs program
            # side effects; detach the trace for the replay so replayed
            # request events are not re-emitted, then re-attach.
            workload.attach_trace(None)
            restore_snapshot(simulator, snapshot)
            workload.attach_trace(simulator.collector)
            self.last_shard_fallback_reason = (
                "checkpoint resume runs serially"
                if settings.shards is not None
                else None
            )
            result = supervised(simulator.run)
        else:
            outcome = supervised(lambda: run_sharded(build))
            self.last_shard_fallback_reason = outcome.fallback_reason
            result = outcome.result
            simulator = outcome.simulator
        self.last_backend_fallback_reason = simulator.backend_fallback_reason
        collector = simulator.collector if settings.trace is not None else None
        if collector is not None:
            collector.close()
        if not result.completed:
            progress = workload.progress_summary()
            progress_note = f" (app progress: {progress})" if progress else ""
            raise RuntimeError(
                f"{workload.name} at {size} nodes under {label or policy.describe()} "
                f"hit the simulated-time limit (reached sim_time="
                f"{format_time(result.sim_time)} of sim_time_limit="
                f"{format_time(simulator.config.sim_time_limit)}){progress_note}; "
                f"raise ClusterConfig.sim_time_limit or shrink the workload"
            )
        record = ExperimentRecord(
            workload_name=workload.name,
            size=size,
            policy_label=label or policy.describe(),
            seed=settings.seed,
            metric=workload.metric(result),
            result=result,
            trace=trace,
            obs=collector,
        )
        if collector is not None:
            self.traced_runs.append(record)
        return record

    def run_spec(self, workload: Workload, size: int, spec: PolicySpec) -> ExperimentRecord:
        return self.run(workload, size, spec.build(), label=spec.label)

    def run_many(
        self, requests: list[tuple[Workload, int, PolicySpec]]
    ) -> list[ExperimentRecord]:
        """Run a batch of independent configurations, in request order.

        Every request is independent (each run builds a fresh cluster with
        its own RNG streams from the runner's seed), so the results do not
        depend on execution order — which is what lets
        :class:`~repro.harness.parallel.ParallelRunner` override this with
        a process-pool fan-out while staying bit-identical to this serial
        loop.  Ground-truth requests (label ``"1"``) are *run* but not
        adopted; callers register them via :meth:`adopt_ground_truth`.
        """
        return [self.run_spec(w, size, spec) for w, size, spec in requests]

    # ------------------------------------------------------------------ #
    # Ground truth and comparisons
    # ------------------------------------------------------------------ #

    def has_ground_truth(self, workload: Workload, size: int) -> bool:
        """True when the (workload, size) reference run is already cached."""
        return _truth_key(workload, size) in self._ground_truth

    def adopt_ground_truth(
        self, workload: Workload, record: ExperimentRecord
    ) -> ExperimentRecord:
        """Validate *record* as the (workload, size) reference and cache it.

        Used by batch runners that compute reference runs out-of-line (in a
        worker process or from the disk cache) rather than through
        :meth:`ground_truth`.
        """
        stats = record.result.controller_stats
        if stats.stragglers != 0:
            raise RuntimeError(
                f"ground truth for {workload.name} at {record.size} nodes saw "
                f"{stats.stragglers} stragglers; the quantum must not "
                f"exceed the minimum network latency"
            )
        self._ground_truth[_truth_key(workload, record.size)] = record
        return record

    def ground_truth(self, workload: Workload, size: int) -> ExperimentRecord:
        """The 1 us-quantum reference run, cached per (workload, size)."""
        record = self._ground_truth.get(_truth_key(workload, size))
        if record is None:
            record = self.adopt_ground_truth(
                workload, self.run_spec(workload, size, ground_truth_policy())
            )
        return record

    def compare(
        self, workload: Workload, record: ExperimentRecord
    ) -> ComparisonRow:
        """Compare *record* to the cached ground truth of its (workload, size)."""
        truth = self.ground_truth(workload, record.size)
        return ComparisonRow(
            workload_name=record.workload_name,
            size=record.size,
            policy_label=record.policy_label,
            metric=record.metric,
            accuracy_error=workload.accuracy_error(record.result, truth.result),
            speedup=record.result.speedup_vs(truth.result),
            exec_time_ratio=workload.exec_time_ratio(record.result, truth.result),
            straggler_fraction=record.result.controller_stats.straggler_fraction,
            mean_quantum=record.result.quantum_stats.mean_quantum,
        )

    def run_and_compare(
        self, workload: Workload, size: int, spec: PolicySpec
    ) -> ComparisonRow:
        return self.compare(workload, self.run_spec(workload, size, spec))

    def _matrix_journal(
        self, workload: Workload, journal: Union[MatrixJournal, str, Path, None]
    ) -> Optional[MatrixJournal]:
        """Resolve the journal argument (default: one file per workload
        under the runner's checkpoint directory, when it has one)."""
        if isinstance(journal, MatrixJournal):
            return journal
        if journal is not None:
            return MatrixJournal(Path(journal))
        if self.settings.checkpoint_dir is not None:
            root = Path(self.settings.checkpoint_dir)
            root.mkdir(parents=True, exist_ok=True)
            return MatrixJournal(root / f"{workload.name}.matrix.jsonl")
        return None

    def run_matrix(
        self,
        workload: Workload,
        sizes: tuple[int, ...],
        specs: list[PolicySpec],
        journal: Union[MatrixJournal, str, Path, None] = None,
        resume: Optional[bool] = None,
    ) -> list[ComparisonRow]:
        """Every (size, policy) combination, compared to ground truth.

        The whole grid (including missing ground truths) is expressed as
        one :meth:`run_many` batch, so a parallel runner fans it out over
        worker processes in a single wave.

        When a *journal* is available (passed explicitly, or derived from
        the runner's ``checkpoint_dir``), every finished cell is recorded
        in an append-only JSONL file as it completes; with *resume* (which
        defaults to the runner's ``resume`` flag) previously journaled
        cells are returned from the journal without recomputation, so a
        killed matrix restarts from where it died.  Journaled rows are the
        exact rows the original computation produced — a resumed matrix
        report is byte-identical to an uninterrupted one.
        """
        resume_rows = resume if resume is not None else self.settings.resume
        log = self._matrix_journal(workload, journal)
        finished: dict[str, dict[str, object]] = {}
        if log is not None and resume_rows:
            finished = log.completed_rows()

        def cell_key(size: int, spec: PolicySpec) -> str:
            return f"{workload.name}/n{size}/{spec.label}"

        requests: list[tuple[Workload, int, PolicySpec]] = []
        injected: set[int] = set()
        pending: dict[int, str] = {}
        rows: dict[str, ComparisonRow] = {}
        for size in sizes:
            todo = [s for s in specs if cell_key(size, s) not in finished]
            if todo and not self.has_ground_truth(workload, size):
                injected.add(len(requests))
                requests.append((workload, size, ground_truth_policy()))
            for spec in todo:
                pending[len(requests)] = cell_key(size, spec)
                requests.append((workload, size, spec))
        try:
            if log is not None:
                for key in pending.values():
                    log.start(key)
            try:
                records = self.run_many(requests)
            except Exception as error:
                if log is not None:
                    # A batch failure leaves every started cell unfinished;
                    # mark them failed so --resume knows to recompute them.
                    for key in pending.values():
                        log.failed(key, repr(error))
                raise
            for index in injected:
                self.adopt_ground_truth(workload, records[index])
            for index, record in enumerate(records):
                if index in injected:
                    continue
                row = self.compare(workload, record)
                rows[pending[index]] = row
                if log is not None:
                    log.done(pending[index], dataclasses.asdict(row))
        finally:
            # Every exit, the failing ones included: the journal's handle
            # is opened by the first append above.
            if log is not None:
                log.close()
        out: list[ComparisonRow] = []
        for size in sizes:
            for spec in specs:
                key = cell_key(size, spec)
                if key in rows:
                    out.append(rows[key])
                else:
                    # Rehydrated from the journal: the row the original
                    # computation produced, field for field.
                    out.append(ComparisonRow(**finished[key]))  # type: ignore[arg-type]
        return out
