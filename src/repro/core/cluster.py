"""The quantum-synchronized cluster simulator (the paper's Figure 1).

This driver turns N independent :class:`~repro.node.node.SimulatedNode`
instances plus a :class:`~repro.network.controller.NetworkController` into a
cluster simulator, co-simulating two time domains:

* **Simulated time** advances in lock-step quanta ``[T, T+Q)``.  Within a
  quantum every node runs freely; at the boundary everyone blocks at a
  barrier, the controller counts the quantum's traffic (``np``), the
  quantum policy picks the next ``Q``, and the barrier releases.
* **Host time** models the wall clock of the simulation farm.  All nodes
  start a quantum at the same host instant; node *i* then advances its
  simulated clock *piecewise-affinely*: fast (idle rate) while the guest is
  halted waiting for packets, slow (busy rate) while it executes target
  code, switching whenever the application blocks or wakes.  The *slowest
  node sets the pace* (paper Figure 5): the quantum costs the max over
  nodes of their host finishing times, plus the barrier overhead.

Within a quantum, per-node events are interleaved in **host-time order**
through these maps — this decides straggler races exactly as the paper's
Figures 2/3 describe.  The piecewise map captures the crucial asymmetry of
full-system simulation: a node blocked on a receive simulates its idle
guest much faster than its busy peers, races to the quantum boundary, and
any packet then addressed to it must be delivered late — Figure 3(d)'s
"latency snaps to next quantum".

A **fast-forward accelerator** recognises packet-free spans (no node has a
local event and no held delivery is due before a horizon) and processes
whole runs of quanta arithmetically: vectorised slowdown draws, closed-form
adaptive-quantum growth, and a single accounting update.  This keeps 1 us
ground-truth runs (hundreds of thousands of quanta) tractable while being
*observationally identical* to the event-by-event path — the skipped quanta
provably contain no packets and no application events.

The mediator's loop — :meth:`ClusterSimulator.run` — is stated exactly once
here.  *How the nodes of one window are stepped* is the single thing that
varies: a :class:`~repro.core.stepping.Stepper` picked at the top of the
loop (the scalar reference, the vectorized lazy-clock/drain stepper, or
:mod:`repro.shard`'s sharded one), which reports per-node facts — the
two per-node maxima of a window's and a fast-forward span's host cost
among them — and leaves all accounting to the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.analysis.invariants import CausalitySanitizer, check_enabled
from repro.checkpoint.config import CheckpointConfig
from repro.core.barrier import BarrierModel
from repro.core.quantum import QuantumPolicy, QuantumStats
from repro.core.stats import BucketTimeline, HostCostBreakdown
from repro.core.stepping import (
    Emission,
    NodeClock,
    ScalarStepper,
    Stepper,
    VectorStepper,
)
from repro.engine.backend import queue_class, resolve_backend
from repro.engine.rng import RngStreams
from repro.engine.units import SECOND, SimTime, format_time
from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.plan import FaultPlan
from repro.network.controller import ControllerStats, NetworkController
from repro.network.packet import Packet, set_packet_ids
from repro.node.hostmodel import BUSY, HostExecutionModel, HostModelParams
from repro.node.node import NodeStats, SimulatedNode
from repro.node.sampling import SampledHostExecutionModel, SamplingSchedule
from repro.node.transport import TransportStats
from repro.obs.collector import TraceCollector, TraceConfig


class DeadlockError(RuntimeError):
    """All applications are blocked and no packet can ever wake them."""


#: Cluster size below which ``vectorized="auto"`` picks the scalar stepper.
#: The vectorized driver's per-window numpy setup (slowdown rows, rate
#: arrays) is a fixed cost amortized over the nodes stepped per window, and
#: it wins from 8 nodes up on every paper workload.  Below that the choice
#: no longer shows: on the 72 paper-policy cells at sizes 2/4, alternating
#: in-process passes measured scalar 2.47 / 2.41 / 2.30 s against
#: vectorized 2.40 / 2.36 / 2.33 s with identical results (the ~2x scalar
#: win once measured there predates the stepper rewrite).  Kept because
#: it puts the executable specification on the default path of small
#: runs; see ROADMAP for removing it.
AUTO_VECTORIZE_MIN_NODES = 8


def resolve_vectorized(vectorized: bool | str, num_nodes: int) -> bool:
    """Resolve a ``ClusterConfig.vectorized`` setting for a cluster size.

    ``"auto"`` picks the scalar stepper below
    :data:`AUTO_VECTORIZE_MIN_NODES` and the vectorized one otherwise;
    both drivers are bit-identical, so the choice is purely about speed.
    """
    if isinstance(vectorized, bool):
        return vectorized
    if vectorized == "auto":
        return num_nodes >= AUTO_VECTORIZE_MIN_NODES
    raise ValueError(
        f"vectorized must be True, False, or 'auto', got {vectorized!r}"
    )


@dataclass(frozen=True)
class ClusterConfig:
    """Driver options.

    Attributes:
        seed: root seed for every stochastic component.
        host_params: calibration of the host execution model.
        barrier: host cost of each quantum barrier.
        sim_time_limit: hard stop in simulated time (guards runaway runs).
        timeline_bucket: if set, record host cost per simulated-time bucket
            of this width (enables Figure-9-style speedup-over-time series).
        fast_forward: enable the packet-free span accelerator.
        fast_forward_min_quanta: minimum whole quanta a span must cover
            before the accelerator engages (below this the event path is
            just as fast).
        chunk: maximum quanta processed per vectorised fast-forward batch.
        vectorized: use the vectorized stepper — per-quantum slowdowns are
            drawn and combined across all nodes at once (numpy), clocks of
            event-free nodes are advanced arithmetically instead of being
            reset one by one (the subset fast-forward), and window events
            are drained with run-length heap elision.  Bit-identical to
            the scalar reference path (``vectorized=False``), which is
            kept for differential testing and benchmarking.  The default
            ``"auto"`` picks per cluster size: scalar below
            :data:`AUTO_VECTORIZE_MIN_NODES` nodes (where the two measure
            the same), vectorized otherwise.
        sampling: if set, node simulators follow this detailed/functional
            sampling schedule (the paper's future-work combination).
        check: run the causality sanitizer (None defers to ``REPRO_CHECK``
            in the environment).  Checked runs are bit-identical to
            unchecked ones; they just raise on the first broken invariant.
        faults: declarative fault plan (see :mod:`repro.faults`); None
            keeps the paper's ideal network and healthy hosts.  A plan
            that can lose or duplicate frames requires every node to run
            a recovery-enabled transport.
        trace: record structured trace events (see :mod:`repro.obs`);
            None disables tracing entirely.  Tracing only observes:
            a traced run's results are bit-identical to an untraced one.
        shards: split this run's nodes across this many worker processes
            (None defers to ``REPRO_SHARDS`` in the environment, like
            ``check``/``REPRO_CHECK``).  Read by :mod:`repro.shard` —
            :meth:`ClusterSimulator.run` itself always steps serially;
            sharded results are bit-identical, so the setting never
            enters cache keys.
        checkpoint: write crash-safe snapshots at this cadence (see
            :mod:`repro.checkpoint`); None disables checkpointing.  A
            checkpointed run is bit-identical to a plain one — restoring
            a snapshot and running to completion reproduces the
            uninterrupted results exactly — so, like ``check``/``trace``/
            ``shards``, the setting never enters cache keys.  Checkpointed
            runs step serially (:mod:`repro.shard` falls back, itself
            bit-identical).
        backend: engine-core implementation — ``"python"`` (the pure
            reference), ``"native"`` (the compiled core, an error if not
            built), or ``"auto"`` (native when importable, degrading to
            python with the reason recorded on the simulator; overridable
            via ``REPRO_BACKEND``).  See :mod:`repro.engine.backend`.
            Both backends are bit-identical, so — like ``check``/
            ``trace``/``shards`` — the setting never enters cache keys.
    """

    seed: int = 42
    host_params: HostModelParams = field(default_factory=HostModelParams)
    barrier: BarrierModel = field(default_factory=BarrierModel)
    sim_time_limit: SimTime = 300 * SECOND
    timeline_bucket: Optional[SimTime] = None
    fast_forward: bool = True
    fast_forward_min_quanta: int = 4
    chunk: int = 1 << 16
    vectorized: bool | str = "auto"
    sampling: Optional[SamplingSchedule] = None
    check: Optional[bool] = None
    faults: Optional[FaultPlan] = None
    trace: Optional[TraceConfig] = None
    shards: Optional[int] = None
    checkpoint: Optional[CheckpointConfig] = None
    backend: str = "auto"


@dataclass
class RunResult:
    """Everything a finished (or stopped) run reports."""

    sim_time: SimTime
    host_time: float
    completed: bool
    breakdown: HostCostBreakdown
    quantum_stats: QuantumStats
    controller_stats: ControllerStats
    node_stats: list[NodeStats]
    app_results: list[Any]
    app_finish_times: list[Optional[SimTime]]
    timeline: Optional[BucketTimeline]
    #: What the fault injector did; None for runs without a fault plan.
    fault_stats: Optional[FaultStats] = None
    #: Per-node transport counters, reported whenever any node runs the
    #: reliable (recovery) transport; None otherwise.
    transport_stats: Optional[list[TransportStats]] = None

    @property
    def makespan(self) -> SimTime:
        """Simulated time at which the last application finished."""
        finished = [t for t in self.app_finish_times if t is not None]
        return max(finished) if finished else self.sim_time

    @property
    def host_per_sim_second(self) -> float:
        """Average modelled slowdown of the whole cluster simulation."""
        if self.sim_time == 0:
            return 0.0
        return self.host_time / (self.sim_time / SECOND)

    def speedup_vs(self, baseline: "RunResult") -> float:
        """Wall-clock speedup of this run relative to *baseline*."""
        if self.host_time <= 0:
            raise ValueError("run has no host time")
        return baseline.host_time / self.host_time

    def summary(self) -> str:
        stats = self.controller_stats
        text = (
            f"sim={format_time(self.sim_time)} host={self.host_time:.2f}s "
            f"quanta={self.quantum_stats.quanta} "
            f"packets={stats.packets_routed} stragglers={stats.stragglers} "
            f"({100 * stats.straggler_fraction:.1f}%)"
        )
        faults = self.fault_stats
        if faults is not None:
            text += (
                f" faults[drops={faults.total_drops} dup={faults.frames_duplicated}"
                f" delayed={faults.frames_delayed} stall-quanta={faults.stall_quanta}]"
            )
        if self.transport_stats is not None:
            retransmits = sum(t.retransmits for t in self.transport_stats)
            duplicates = sum(
                t.duplicates_dropped + t.spurious_retransmits
                for t in self.transport_stats
            )
            text += f" recovery[retransmits={retransmits} dup-dropped={duplicates}]"
        return text


@dataclass
class PerfCounters:
    """Hot-path instrumentation of one run (driver-level, not part of
    :class:`RunResult` — the counters describe *how* the driver stepped,
    which differs between the scalar and vectorized paths, while the
    results themselves are bit-identical).
    """

    #: Quanta processed event-by-event (windows).
    event_quanta: int = 0
    #: Quanta skipped arithmetically by the whole-cluster span accelerator.
    ff_quanta: int = 0
    #: Fast-forward batches (each covers >= 1 quanta).
    ff_spans: int = 0
    #: Local node events handled inside windows.
    events: int = 0
    #: Node-quanta that were event-stepped (clock materialized).
    stepped_node_quanta: int = 0
    #: Node-quanta advanced arithmetically by the subset fast-forward
    #: (node had no event in the window; its clock was never materialized).
    skipped_node_quanta: int = 0
    #: Windows in which at least one node was skipped arithmetically.
    subset_windows: int = 0


@dataclass
class _LoopState:
    """The quantum loop's accumulators — exactly what a snapshot stores
    as its "loop" payload and :meth:`ClusterSimulator.run` resumes from."""

    q_state: float
    timeline: Optional[BucketTimeline]
    now: SimTime = 0
    host: float = 0.0
    quantum_stats: QuantumStats = field(default_factory=QuantumStats)
    breakdown: HostCostBreakdown = field(default_factory=HostCostBreakdown)

    def charge(
        self, start: SimTime, end: SimTime, node_cost: float, barrier_cost: float
    ) -> None:
        """Account the host cost of simulating ``[start, end)``."""
        cost = node_cost + barrier_cost
        self.host += cost
        self.breakdown.add(node_cost, barrier_cost)
        if self.timeline is not None and cost > 0:
            self.timeline.add_span(start, end, cost)


class ClusterSimulator:
    """Co-simulates N node simulators under quantum synchronization."""

    def __init__(
        self,
        nodes: list[SimulatedNode],
        controller: NetworkController,
        policy: QuantumPolicy,
        config: Optional[ClusterConfig] = None,
    ) -> None:
        if len(nodes) < 2:
            raise ValueError("a cluster needs at least two nodes")
        if controller.num_nodes != len(nodes):
            raise ValueError(
                f"controller is sized for {controller.num_nodes} nodes, got {len(nodes)}"
            )
        ids = [node.node_id for node in nodes]
        if ids != list(range(len(nodes))):
            raise ValueError(f"node ids must be 0..N-1 in order, got {ids}")
        self.nodes = nodes
        self.controller = controller
        self.policy = policy
        self.config = config or ClusterConfig()
        self.rng = RngStreams(self.config.seed)
        if self.config.sampling is not None:
            self.host_models: list[HostExecutionModel] = [
                SampledHostExecutionModel(
                    node.node_id, self.config.host_params, self.rng,
                    self.config.sampling,
                )
                for node in nodes
            ]
        else:
            self.host_models = [
                HostExecutionModel(node.node_id, self.config.host_params, self.rng)
                for node in nodes
            ]
        self.injector: Optional[FaultInjector] = None
        if self.config.faults is not None:
            self.injector = FaultInjector(
                self._validate_faults(self.config.faults), self.rng
            )
        controller.injector = self.injector
        controller.bind(self)
        self.sanitizer: Optional[CausalitySanitizer] = None
        if check_enabled(self.config.check):
            self.sanitizer = CausalitySanitizer.for_cluster(self)
        controller.sanitizer = self.sanitizer
        self.collector: Optional[TraceCollector] = None
        if self.config.trace is not None:
            self.collector = TraceCollector(self.config.trace)
        controller.collector = self.collector
        resolved = resolve_backend(self.config.backend)
        #: The concrete engine backend this run steps with ("python" or
        #: "native") and why "auto" degraded, if it did.  Observational
        #: only: both backends are bit-identical.
        self.backend = resolved.name
        self.backend_fallback_reason = resolved.fallback_reason
        if resolved.name == "native":
            # Swap each node's (still empty — start() has not run) queue
            # for the compiled implementation.  Everything downstream goes
            # through the shared queue API, so this is the only branch.
            native_queue = queue_class("native")
            for node in nodes:
                node.queue = native_queue()
        self._clocks = [NodeClock() for _ in nodes]
        for node in nodes:
            node.emit_hook = self._on_emit
            node.activity_hook = self._on_activity_change
            node.collector = self.collector
            if self.config.checkpoint is not None:
                # Snapshots replay the application input log to rebuild
                # the (unpicklable) generators; recording costs one list
                # append per application step, only when checkpointing.
                node.app_log = []
            node.start()
        #: Harness-installed per-quantum callback ``(now, window)`` — the
        #: progress watchdog's beat (see :mod:`repro.harness.supervise`).
        #: Plain runs pay one ``is None`` test per quantum.
        self.supervision: Optional[Callable[[SimTime, SimTime], None]] = None
        #: Where snapshots go: None builds the default store sink from
        #: ``config.checkpoint`` on first use; tests install their own.
        self.checkpoint_sink: Optional[Callable[[Any], None]] = None
        #: Loop state installed by :func:`repro.checkpoint.restore_snapshot`;
        #: :meth:`run` consumes it to continue instead of starting at zero.
        self._resume: Optional[dict[str, Any]] = None
        #: How :meth:`run` steps the nodes of a window.  None lets it pick
        #: the scalar or vectorized stepper; :mod:`repro.shard` installs
        #: its sharded one before calling :meth:`run`.
        self._stepper: Optional[Stepper] = None
        self._window: tuple[SimTime, SimTime] = (0, 0)
        self._in_window = False
        self._dirty: list[int] = []
        #: Non-None while a drain window is collecting emissions; see
        #: :meth:`repro.core.stepping.VectorStepper.drain`.
        self._drain_pending: Optional[list[Emission]] = None
        #: Hot-path instrumentation; purely observational (never part of
        #: :class:`RunResult`, so scalar and vectorized results compare
        #: equal field-for-field).
        self.perf = PerfCounters()
        self._vectorized = resolve_vectorized(
            self.config.vectorized, len(nodes)
        )
        self._sampling = self.config.sampling is not None
        #: Every node's activity, kept current when ``_vectorized`` so the
        #: vectorized stepper costs and fast-forwards event-free nodes
        #: without an O(N) scan.
        self._busy_mask = np.array([node.activity == BUSY for node in nodes])

    def _validate_faults(self, plan: FaultPlan) -> FaultPlan:
        """Reject fault plans this cluster cannot execute to completion."""
        num_nodes = len(self.nodes)
        named = [
            node
            for partition in plan.partitions
            for node in partition.nodes
        ] + [stall.node for stall in plan.stalls]
        out_of_range = sorted({node for node in named if node >= num_nodes})
        if out_of_range:
            raise ValueError(
                f"fault plan names nodes {out_of_range} but the cluster has "
                f"only {num_nodes} nodes"
            )
        if plan.requires_recovery():
            for node in self.nodes:
                if node.transport is None or node.transport.recovery is None:
                    raise ValueError(
                        f"fault plan ({plan.describe()}) can lose or duplicate "
                        f"frames but {node.name} has no recovery-enabled "
                        "transport; construct nodes with transport="
                        "TransportConfig(recovery=RecoveryConfig()) so "
                        "workloads survive the faults"
                    )
        return plan

    # ------------------------------------------------------------------ #
    # ClusterState protocol (used by the controller's delivery policy)
    # ------------------------------------------------------------------ #

    def quantum_window(self) -> tuple[SimTime, SimTime]:
        return self._window

    def node_position_at(self, node: int, host_time: float) -> SimTime:
        # The delivery policy asks for destination positions mid-window;
        # a destination that was event-free so far may not have a clock yet.
        stepper = self._stepper
        assert stepper is not None
        stepper.touch(node)
        return self._clocks[node].position_at(host_time, self._window)

    # ------------------------------------------------------------------ #
    # Node hooks
    # ------------------------------------------------------------------ #

    def _on_emit(self, node: SimulatedNode, packet: Packet) -> None:
        pending = self._drain_pending
        if pending is not None:
            # Drain window: defer submission; the loop sorts the batch
            # into global host-time order before routing (every frame is
            # provably held, so nothing downstream needs it mid-window).
            node_id = node.node_id
            pending.append(
                (
                    self._clocks[node_id].host_of(packet.send_time),
                    node_id,
                    len(pending),
                    packet,
                )
            )
            return
        sender_host_time = self._clocks[node.node_id].host_of(packet.send_time)
        for decision in self.controller.submit(packet, sender_host_time):
            dst = decision.packet.dst
            self.nodes[dst].deliver(decision.packet, decision.deliver_time)
            # An in-window delivery may become the destination's next event.
            self._dirty.append(dst)

    def _on_activity_change(
        self, node: SimulatedNode, sim_time: SimTime, activity: str
    ) -> None:
        node_id = node.node_id
        if self._vectorized:
            # Maintained continuously so the window cost and fast-forward
            # read every node's activity without an O(N) scan.
            self._busy_mask[node_id] = activity == BUSY
        if self._in_window:
            # A node can only flip activity while handling one of its own
            # events, and handling is always preceded by a touch (drain/heap
            # entry or a delivery-position query), so the clock is
            # guaranteed fresh here (invariant covered by the property
            # tests comparing against the always-reset scalar path).
            self._clocks[node_id].transition(sim_time, activity)

    # ------------------------------------------------------------------ #
    # The quantum loop (the paper's Figure 1 / Algorithm 1)
    # ------------------------------------------------------------------ #

    def run(self) -> RunResult:
        """Run the cluster to completion or to ``config.sim_time_limit``.

        A simulator runs once.  However the run ends — completed, stopped
        at the time limit, or raising (``DeadlockError``,
        ``InvariantViolation``, the watchdog's ``RunTimeout``, an
        application's own exception) — it releases every reference that
        ties the run's objects into a cycle back to the simulator: the
        nodes' emit/activity hooks, the controller's binding, the stepper,
        the sanitizer's attachment, and the native queues' cached binding
        to their node.  A finished simulator is therefore freed by
        reference counting as soon as its last reference goes, not by a
        later ``gc`` pass.  What it computed stays readable (``perf``,
        ``collector``, ``backend``, the nodes and their stats); it cannot
        run again — a second call raises ``RuntimeError``.  To continue a
        run, restore a snapshot onto a fresh simulator
        (:func:`repro.checkpoint.snapshot.restore_snapshot`) and run that.
        """
        # Releasing unbinds the controller, so an unbound controller marks
        # a simulator whose run is over.
        if self.controller.cluster is not self:
            raise RuntimeError(
                "this simulator has already run: a ClusterSimulator runs "
                "once; build a fresh one (restore a snapshot onto it to "
                "continue a run)"
            )
        try:
            return self._quantum_loop()
        finally:
            self._release()

    def _release(self) -> None:
        """Cut the run's reference cycles through the simulator."""
        self._stepper = None
        self.controller.cluster = None
        if self.sanitizer is not None:
            self.sanitizer.detach()
        for node in self.nodes:
            node.emit_hook = None
            node.activity_hook = None
            # Reloading a queue with its own live events drops the native
            # core's cached binding to the node (node -> queue -> binding
            # -> node); the python queue holds none.  A completed run's
            # queues are empty; a stopped run's keep their pending events.
            queue = node.queue
            queue.restore_events(queue.live_events(), queue._next_seq)

    def _quantum_loop(self) -> RunResult:
        config = self.config
        controller = self.controller
        policy = self.policy
        sanitizer = self.sanitizer
        injector = self.injector
        collector = self.collector
        perf = self.perf
        num_nodes = len(self.nodes)
        barrier_cost = config.barrier.overhead(num_nodes)

        stepper = self._stepper
        if stepper is None:
            if self._vectorized:
                stepper = VectorStepper(self)
            else:
                stepper = ScalarStepper(self)
            self._stepper = stepper
        if self._resume is not None:
            # A restored snapshot re-enters the loop mid-run with the
            # exact accumulators the capture point saw (perf counters,
            # queues, RNG positions were restored onto ``self`` already).
            state = _LoopState(**self._resume)
            self._resume = None
        else:
            # Packet ids are per run: a fresh run numbers its frames from
            # 0 whatever ran earlier in this process (a resumed run keeps
            # the position its snapshot restored).
            set_packet_ids(0)
            state = _LoopState(
                q_state=policy.initial(),
                timeline=(
                    BucketTimeline(config.timeline_bucket)
                    if config.timeline_bucket is not None
                    else None
                ),
            )
        supervision = self.supervision
        checkpoint = config.checkpoint
        # Cadence anchors: measured from the entry state so a resumed run
        # does not immediately re-snapshot what it just restored.
        cp_quanta = perf.event_quanta + perf.ff_quanta
        cp_sim = state.now

        done = controller.pending_count() == 0 and stepper.quiescent()
        while not done:
            # Quantum boundary: every node stands at ``now`` and nothing is
            # in flight but the controller's held frames — the one point
            # where snapshots are taken and the watchdog is fed.
            now = state.now
            if checkpoint is not None:
                quanta_done = perf.event_quanta + perf.ff_quanta
                if (
                    checkpoint.every_quanta is not None
                    and quanta_done - cp_quanta >= checkpoint.every_quanta
                ) or (
                    checkpoint.every_sim_time is not None
                    and now - cp_sim >= checkpoint.every_sim_time
                ):
                    self._emit_checkpoint(state)
                    cp_quanta = quanta_done
                    cp_sim = now
            if supervision is not None:
                # The watchdog records progress and raises RunTimeout past
                # its wall-clock deadline.
                supervision(now, policy.window(state.q_state))
            if now >= config.sim_time_limit:
                return self._result(state, False, stepper)

            horizon = controller.next_held_time()
            local = stepper.next_event_time()
            if local is not None and (horizon is None or local < horizon):
                horizon = local
            if horizon is None:
                blocked = ", ".join(stepper.blocked_names()) or "none"
                raise DeadlockError(
                    f"deadlock at {format_time(now)}: no pending events or "
                    "packets, but applications are still waiting "
                    f"(blocked: {blocked})"
                )
            if (
                config.fast_forward
                and horizon - now
                >= config.fast_forward_min_quanta * policy.window(state.q_state)
            ):
                self._fast_forward(
                    state, min(horizon, config.sim_time_limit), barrier_cost, stepper
                )

            # One event-by-event quantum.
            window = policy.window(state.q_state)
            start = state.now
            end = start + window
            host = state.host
            self._window = (start, end)
            if sanitizer is not None:
                sanitizer.on_quantum_start(start, end)
            if collector is not None:
                collector.quantum_begin(start, end)
            stepper.open(start, end, host)
            if injector is not None:
                injector.on_quantum(start, end)
            # Only ask the controller to scan its held-frame heap when the
            # earliest held frame is actually due — for most quanta the call
            # would return an empty list (the hot path of long runs).
            held = controller.next_held_time()
            if held is not None and held < end:
                stepper.deliver(
                    (decision.packet, decision.deliver_time)
                    for decision in controller.release_due(start, end)
                )

            self._in_window = True
            handled, emissions, stepped, stepped_finish = stepper.step(end)
            self._in_window = False
            if emissions:
                # A drained window's frames, all provably held: sorted into
                # the order an interleaved window submits them in.
                controller.submit_held_batch(sorted(emissions))
            perf.events += handled
            perf.event_quanta += 1
            perf.stepped_node_quanta += stepped
            if stepped < num_nodes:
                # Subset fast-forward: the event-free nodes of this window
                # are costed arithmetically, never given a clock.
                perf.skipped_node_quanta += num_nodes - stepped
                perf.subset_windows += 1

            np_count = controller.end_quantum()
            if sanitizer is not None:
                stepper.settle()
                sanitizer.on_quantum_end(start, end, np_count)
            done = controller.pending_count() == 0 and stepper.quiescent()
            if done:
                # The run completed inside this quantum: the simulation stops
                # the moment the last application event is processed, so the
                # final (partial) quantum costs host time only up to that
                # instant and pays no closing barrier.
                last, finish_host = stepper.final_facts(start, end)
                last = max(last, start + 1)
                node_cost = finish_host - host
                state.charge(start, last, node_cost, 0.0)
                # Stats record the policy's nominal window (the truncation
                # is a termination artefact, not a policy decision).
                state.quantum_stats.record(window)
                if collector is not None:
                    collector.quantum_end(
                        start, end, np_count, "final", window, node_cost, 0.0
                    )
                state.now = last
                break

            # The slowest node sets the pace (float max is exact, so the
            # stepped and unstepped maxima combine in any grouping).
            node_cost = max(stepped_finish, stepper.idle_finish(end)) - host
            state.charge(start, end, node_cost, barrier_cost)
            state.quantum_stats.record(window)
            next_state = policy.next(state.q_state, np_count)
            if collector is not None:
                if collector.config.barriers:
                    stepper.settle()
                    finishes = [clock.host_of(end) for clock in self._clocks]
                    slowest = max(finishes)
                    for node_id, finish in enumerate(finishes):
                        collector.barrier_wait(node_id, end, slowest - finish)
                next_window = policy.window(next_state)
                if next_window > window:
                    decision = "grow"
                elif next_window < window:
                    decision = "shrink"
                else:
                    decision = "hold"
                collector.quantum_end(
                    start, end, np_count, decision, next_window,
                    node_cost, barrier_cost,
                )
            state.q_state = next_state
            state.now = end

        return self._result(state, True, stepper)

    def _emit_checkpoint(self, state: _LoopState) -> None:
        """Capture the boundary state and hand it to the snapshot sink.

        The capture/store machinery is imported lazily: plain runs never
        touch :mod:`repro.checkpoint.snapshot` (which imports back into
        this module at its top level).
        """
        from repro.checkpoint.snapshot import capture_snapshot

        snapshot = capture_snapshot(self, **vars(state))
        if self.checkpoint_sink is None:
            from repro.checkpoint.store import CheckpointStore

            checkpoint = self.config.checkpoint
            assert checkpoint is not None
            store = CheckpointStore(checkpoint.directory)
            label, key = checkpoint.label, checkpoint.key

            def sink(snap: Any) -> None:
                store.save(label, snap, key=key)

            self.checkpoint_sink = sink
        self.checkpoint_sink(snapshot)

    def _fast_forward(
        self, state: _LoopState, horizon: SimTime, barrier_cost: float, stepper: Stepper
    ) -> None:
        """Skip whole packet-free quanta up to (never into) *horizon*.

        No events means no activity transitions, so each node advances each
        skipped quantum at a single rate and the span costs the per-quantum
        maximum slowdown over nodes, which the stepper reduces over the
        nodes it owns (:meth:`~repro.core.stepping.Stepper.max_slowdowns`).
        """
        sanitizer = self.sanitizer
        collector = self.collector
        controller = self.controller
        perf = self.perf
        stalls = (
            self.injector
            if self.injector is not None and self.injector.plan.stalls
            else None
        )
        while True:
            now = state.now
            lengths, next_state = self.policy.idle_chunk(
                state.q_state, horizon - now, self.config.chunk
            )
            count = len(lengths)
            if count == 0:
                return
            max_slow = stepper.max_slowdowns(now, lengths)
            if stalls is not None:
                starts = now + np.concatenate(([0], np.cumsum(lengths[:-1])))
                stalls.on_quanta(starts, starts + lengths)
            node_cost = float((lengths * max_slow).sum()) / 1e9
            span = int(lengths.sum())
            barrier_total = barrier_cost * count
            state.charge(now, now + span, node_cost, barrier_total)
            state.quantum_stats.record_lengths(lengths)
            controller.note_idle_quanta(count)
            if sanitizer is not None:
                sanitizer.on_fast_forward(
                    now, span, count, horizon, controller.next_held_time()
                )
            if collector is not None:
                collector.fast_forward(now, span, count, node_cost, barrier_total)
            perf.ff_spans += 1
            perf.ff_quanta += count
            state.now = now + span
            state.q_state = next_state

    def _result(self, state: _LoopState, completed: bool, stepper: Stepper) -> RunResult:
        node_stats, app_results, app_finish_times, transports = (
            list(column) for column in zip(*stepper.node_reports())
        )
        transport_stats: Optional[list[TransportStats]] = None
        if any(
            node.transport is not None and node.transport.recovery is not None
            for node in self.nodes
        ):
            transport_stats = [
                stats if stats is not None else TransportStats()
                for stats in transports
            ]
        result = RunResult(
            sim_time=state.now,
            host_time=state.host,
            completed=completed,
            breakdown=state.breakdown,
            quantum_stats=state.quantum_stats,
            controller_stats=self.controller.stats,
            node_stats=node_stats,
            app_results=app_results,
            app_finish_times=app_finish_times,
            timeline=state.timeline,
            fault_stats=self.injector.stats if self.injector is not None else None,
            transport_stats=transport_stats,
        )
        if self.sanitizer is not None:
            self.sanitizer.on_run_end(result)
        if self.collector is not None:
            self.collector.flush()
        return result
