"""Runtime causality sanitizer: conservative-PDES invariants, checked live.

The static lint cannot see dynamic behaviour: a delivery-policy bug, a
clock map regression, or a quantum escaping its clamp produces runs that
*complete* with silently wrong timing.  This module is the dynamic half
of the analysis layer — a :class:`CausalitySanitizer` that the cluster
driver and the network controller call at their decision points when
checking is enabled (``REPRO_CHECK=1`` in the environment, ``--check``
on the CLI, or ``ClusterConfig.check=True``), and that raises a
structured :class:`InvariantViolation` the moment an invariant breaks.

Checked invariants, mapped to the paper:

* **Clock monotonicity** — every quantum window starts exactly where the
  previous one (or fast-forward span) ended; per-node piecewise clocks
  stay inside their window; no node leaves an unprocessed event behind a
  closed barrier.  (The lock-step loop of Figure 1.)
* **Quantum clamp** — every window length the driver executes lies in
  ``[min_Q, max_Q]`` of the active policy.  (Algorithm 1's clamp.)
* **Delivery causality** — every frame's due time is at least
  ``send_time + min_latency``; exact deliveries land exactly at the due
  time; straggler deliveries are flagged, land strictly after the due
  time, and never before the destination's window.  (Figure 3's
  delivery policy; the ``tn`` bound of Figure 2.)
* **Accounting consistency** — the controller's per-kind delivery
  counters sum to the routed total, match the sanitizer's independent
  tally, and agree with :class:`~repro.core.quantum.QuantumStats` on the
  number of quanta; zero stragglers implies zero delay error.
* **Ground truth is exact** — a run whose policy satisfies
  ``max_Q <= T`` (the conservative bound; the paper's 1 us reference
  configuration) must report exactly zero stragglers *among delivered
  frames*.  (Section 4's ground-truth definition; under fault
  injection the bound applies to frames that actually reach their
  destination — dropped frames never enter the delivery policy.)
* **Fault accounting** — every frame the injector drops is tallied by
  the sanitizer independently and reconciled against
  :class:`~repro.faults.injector.FaultStats` at run end; no frame is
  dropped without a fault plan; delay-spike counters are consistent;
  recovery transports report ``timeouts == retransmits`` and never
  suppress more network duplicates than the injector created.

The sanitizer only *reads* simulation state: an enabled run is
bit-identical to a disabled one, and a disabled run pays a single
``is not None`` test per hook site.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro.engine.units import SimTime, format_time
from repro.network.controller import DeliveryDecision, DeliveryKind
from repro.network.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.cluster import ClusterSimulator, RunResult
    from repro.core.quantum import QuantumPolicy

#: Environment variable that switches the sanitizer on for every run.
CHECK_ENV = "REPRO_CHECK"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def check_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the checking switch: explicit setting wins, else the env.

    ``explicit`` of ``None`` defers to ``REPRO_CHECK`` (truthy values:
    1/true/yes/on, case-insensitive); True/False force it either way.
    """
    if explicit is not None:
        return explicit
    return os.environ.get(CHECK_ENV, "").strip().lower() in _TRUTHY


class InvariantViolation(RuntimeError):
    """A conservative-PDES invariant broke during a checked run.

    Attributes:
        invariant: short kebab-case name of the broken invariant.
        node: node id involved, when the violation is node-local.
        sim_time: simulated time of the violation, when meaningful.
        quantum_index: 0-based index of the quantum being executed.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        node: Optional[int] = None,
        sim_time: Optional[SimTime] = None,
        quantum_index: Optional[int] = None,
    ) -> None:
        parts = [f"[{invariant}]"]
        if quantum_index is not None:
            parts.append(f"quantum #{quantum_index}")
        if node is not None:
            parts.append(f"node {node}")
        if sim_time is not None:
            parts.append(f"t={format_time(sim_time)}")
        parts.append(message)
        super().__init__(" ".join(parts))
        self.invariant = invariant
        self.node = node
        self.sim_time = sim_time
        self.quantum_index = quantum_index


class CausalitySanitizer:
    """Asserts the conservative-PDES invariants at every quantum.

    The sanitizer is deliberately constructible without a simulator (the
    policy bounds and the minimum latency are plain numbers), so tests
    can drive each hook directly with fabricated inputs.  When attached
    to a :class:`~repro.core.cluster.ClusterSimulator` it additionally
    verifies per-node state (clock segments, leftover events) at each
    barrier.
    """

    def __init__(
        self,
        min_quantum: SimTime,
        max_quantum: SimTime,
        min_latency: SimTime,
    ) -> None:
        if min_quantum < 1 or max_quantum < min_quantum:
            raise ValueError("invalid quantum bounds")
        if min_latency < 1:
            raise ValueError("minimum latency must be positive")
        self.min_quantum = min_quantum
        self.max_quantum = max_quantum
        self.min_latency = min_latency
        #: Whether the policy meets the conservative ground-truth bound
        #: ``max_Q <= T``: such a run must see zero stragglers.
        self.ground_truth = max_quantum <= min_latency
        self.quantum_index = 0
        self.violations_checked = 0
        self._cluster: Optional["ClusterSimulator"] = None
        self._window: tuple[SimTime, SimTime] = (0, 0)
        self._last_end: SimTime = 0
        self._in_window = False
        # Independent tally of delivery decisions, cross-checked at run end.
        self._counts = {kind: 0 for kind in DeliveryKind}
        # Independent tally of injector drops by reason, likewise reconciled.
        self._fault_drops = {"loss": 0, "partition": 0}

    @classmethod
    def for_cluster(cls, cluster: "ClusterSimulator") -> "CausalitySanitizer":
        """Build a sanitizer bound to *cluster*'s policy and network."""
        policy: "QuantumPolicy" = cluster.policy
        sanitizer = cls(
            min_quantum=policy.min_quantum,
            max_quantum=policy.max_quantum,
            min_latency=cluster.controller.latency_model.min_latency(),
        )
        sanitizer.attach(cluster)
        return sanitizer

    def attach(self, cluster: "ClusterSimulator") -> None:
        """Enable the per-node barrier checks against *cluster*."""
        self._cluster = cluster

    def detach(self) -> None:
        """Drop the cluster reference (its run is over)."""
        self._cluster = None

    # ------------------------------------------------------------------ #
    # Hooks (called by the driver and the controller)
    # ------------------------------------------------------------------ #

    def on_quantum_start(self, start: SimTime, end: SimTime) -> None:
        """A new event-by-event quantum ``[start, end)`` opens."""
        self.violations_checked += 1
        if start < self._last_end:
            raise InvariantViolation(
                "clock-regression",
                f"quantum starts at {format_time(start)} but simulated time "
                f"already reached {format_time(self._last_end)}",
                sim_time=start,
                quantum_index=self.quantum_index,
            )
        if start > self._last_end:
            raise InvariantViolation(
                "time-gap",
                f"quantum starts at {format_time(start)} leaving "
                f"[{format_time(self._last_end)}, {format_time(start)}) "
                "unaccounted",
                sim_time=start,
                quantum_index=self.quantum_index,
            )
        length = end - start
        if not self.min_quantum <= length <= self.max_quantum:
            raise InvariantViolation(
                "quantum-clamp",
                f"window length {format_time(length)} escapes the policy clamp "
                f"[{format_time(self.min_quantum)}, {format_time(self.max_quantum)}]",
                sim_time=start,
                quantum_index=self.quantum_index,
            )
        self._window = (start, end)
        self._in_window = True

    def on_decision(self, decision: DeliveryDecision) -> None:
        """The controller routed one frame to one destination."""
        self.violations_checked += 1
        packet = decision.packet
        start, end = self._window
        due = packet.due_time
        deliver = decision.deliver_time
        kind = decision.kind
        self._counts[kind] += 1

        def fail(invariant: str, message: str) -> "InvariantViolation":
            return InvariantViolation(
                invariant,
                message + f" (frame {packet.src}->{packet.dst}, kind {kind.value})",
                node=packet.dst,
                sim_time=deliver,
                quantum_index=self.quantum_index,
            )

        if packet.deliver_time != deliver:
            raise fail(
                "record-drift",
                f"packet records deliver_time {format_time(packet.deliver_time)} "
                f"but the decision enacts {format_time(deliver)} — delay-error "
                "stats would diverge from what the engine does",
            )
        if due < packet.send_time + self.min_latency:
            raise fail(
                "latency-underrun",
                f"due time {format_time(due)} is before send "
                f"{format_time(packet.send_time)} + min latency "
                f"{format_time(self.min_latency)}",
            )
        if deliver < due:
            raise fail(
                "early-delivery",
                f"delivered at {format_time(deliver)}, before its due time "
                f"{format_time(due)} — causality violated",
            )
        if kind in (DeliveryKind.EXACT_NOW, DeliveryKind.EXACT_FUTURE):
            if deliver != due:
                raise fail(
                    "late-delivery",
                    f"exact delivery lands at {format_time(deliver)} instead of "
                    f"its due time {format_time(due)} without being accounted "
                    "as a straggler",
                )
            if packet.straggler:
                raise fail(
                    "straggler-accounting",
                    "exact delivery carries the straggler flag",
                )
            if kind is DeliveryKind.EXACT_NOW and due >= end:
                raise fail(
                    "window-escape",
                    f"exact-now delivery due {format_time(due)} is past the "
                    f"barrier at {format_time(end)}",
                )
        else:
            if not packet.straggler:
                raise fail(
                    "straggler-accounting",
                    "late delivery is not flagged as a straggler",
                )
            if deliver <= due:
                raise fail(
                    "straggler-accounting",
                    f"straggler delivery at {format_time(deliver)} is not "
                    f"after its due time {format_time(due)}",
                )
            if kind is DeliveryKind.STRAGGLER_NOW and not start <= deliver < end:
                raise fail(
                    "window-escape",
                    f"straggler-now delivery {format_time(deliver)} falls "
                    f"outside the window [{format_time(start)}, {format_time(end)})",
                )
            if kind is DeliveryKind.STRAGGLER_NEXT_QUANTUM and deliver != end:
                raise fail(
                    "window-escape",
                    f"queue-to-next-quantum delivery {format_time(deliver)} is "
                    f"not the quantum boundary {format_time(end)}",
                )

    def on_fault_drop(self, packet: Packet, dst: int, reason: str) -> None:
        """The fault injector dropped one frame before the delivery policy."""
        self.violations_checked += 1
        if reason not in self._fault_drops:
            raise InvariantViolation(
                "fault-accounting",
                f"frame {packet.src}->{dst} dropped with unknown reason "
                f"{reason!r}",
                node=dst,
                sim_time=packet.send_time,
                quantum_index=self.quantum_index,
            )
        self._fault_drops[reason] += 1

    def on_quantum_end(self, start: SimTime, end: SimTime, np_count: int) -> None:
        """The barrier of quantum ``[start, end)`` closed with ``np`` frames."""
        self.violations_checked += 1
        if np_count < 0:
            raise InvariantViolation(
                "packet-accounting",
                f"negative per-quantum frame count {np_count}",
                quantum_index=self.quantum_index,
            )
        cluster = self._cluster
        if cluster is not None:
            for node in cluster.nodes:
                pending = node.peek_time()
                if pending is not None and pending < end:
                    raise InvariantViolation(
                        "unprocessed-event",
                        f"event at {format_time(pending)} left behind the "
                        f"barrier at {format_time(end)}",
                        node=node.node_id,
                        sim_time=pending,
                        quantum_index=self.quantum_index,
                    )
            for node_id, clock in enumerate(cluster._clocks):
                if not start <= clock.seg_sim <= end:
                    raise InvariantViolation(
                        "clock-regression",
                        f"clock segment anchored at {format_time(clock.seg_sim)} "
                        f"outside its window [{format_time(start)}, "
                        f"{format_time(end)}]",
                        node=node_id,
                        sim_time=clock.seg_sim,
                        quantum_index=self.quantum_index,
                    )
        self._last_end = end
        self._in_window = False
        self.quantum_index += 1

    def on_fast_forward(
        self,
        start: SimTime,
        span: SimTime,
        count: int,
        horizon: SimTime,
        next_held: Optional[SimTime],
    ) -> None:
        """The accelerator skipped *count* packet-free quanta over *span*."""
        self.violations_checked += 1
        if span < 0 or count < 0:
            raise InvariantViolation(
                "fast-forward-overrun",
                f"negative span {span} or count {count}",
                sim_time=start,
                quantum_index=self.quantum_index,
            )
        if start != self._last_end:
            raise InvariantViolation(
                "clock-regression",
                f"fast-forward starts at {format_time(start)}, expected "
                f"{format_time(self._last_end)}",
                sim_time=start,
                quantum_index=self.quantum_index,
            )
        if start + span > horizon:
            raise InvariantViolation(
                "fast-forward-overrun",
                f"span ends at {format_time(start + span)}, past the event "
                f"horizon {format_time(horizon)} — skipped quanta were not "
                "packet-free",
                sim_time=start + span,
                quantum_index=self.quantum_index,
            )
        if next_held is not None and next_held < start + span:
            raise InvariantViolation(
                "fast-forward-overrun",
                f"held frame due {format_time(next_held)} lies inside the "
                f"skipped span [{format_time(start)}, {format_time(start + span)})",
                sim_time=next_held,
                quantum_index=self.quantum_index,
            )
        self._last_end = start + span
        self.quantum_index += count

    def on_run_end(self, result: "RunResult") -> None:
        """The run finished (or hit its limit); verify global accounting."""
        self.violations_checked += 1
        stats = result.controller_stats
        by_kind = (
            stats.exact_now
            + stats.exact_future
            + stats.stragglers_now
            + stats.stragglers_next_quantum
        )
        if by_kind != stats.packets_routed:
            raise InvariantViolation(
                "packet-accounting",
                f"per-kind delivery counts sum to {by_kind} but "
                f"{stats.packets_routed} frames were routed",
            )
        observed = {
            DeliveryKind.EXACT_NOW: stats.exact_now,
            DeliveryKind.EXACT_FUTURE: stats.exact_future,
            DeliveryKind.STRAGGLER_NOW: stats.stragglers_now,
            DeliveryKind.STRAGGLER_NEXT_QUANTUM: stats.stragglers_next_quantum,
        }
        if observed != self._counts:
            drift = {
                kind.value: (observed[kind], self._counts[kind])
                for kind in DeliveryKind
                if observed[kind] != self._counts[kind]
            }
            raise InvariantViolation(
                "packet-accounting",
                f"controller counters disagree with observed decisions "
                f"(controller, sanitizer): {drift}",
            )
        quantum_stats = result.quantum_stats
        if quantum_stats.quanta != stats.quanta_seen:
            raise InvariantViolation(
                "quantum-accounting",
                f"policy recorded {quantum_stats.quanta} quanta but the "
                f"controller saw {stats.quanta_seen}",
            )
        if stats.busy_quanta > stats.quanta_seen:
            raise InvariantViolation(
                "quantum-accounting",
                f"busy quanta {stats.busy_quanta} exceed total {stats.quanta_seen}",
            )
        if stats.stragglers == 0 and (
            stats.total_delay_error != 0 or stats.max_delay_error != 0
        ):
            raise InvariantViolation(
                "straggler-accounting",
                f"zero stragglers but delay error total="
                f"{stats.total_delay_error} max={stats.max_delay_error}",
            )
        if self.ground_truth and stats.stragglers != 0:
            raise InvariantViolation(
                "ground-truth-straggler",
                f"policy satisfies Q <= T (max_Q "
                f"{format_time(self.max_quantum)} <= min latency "
                f"{format_time(self.min_latency)}) yet the run reports "
                f"{stats.stragglers} stragglers — the reference run is not "
                "a valid ground truth",
            )
        faults = result.fault_stats
        if faults is None:
            observed_drops = sum(self._fault_drops.values())
            if observed_drops != 0:
                raise InvariantViolation(
                    "fault-accounting",
                    f"{observed_drops} frames were dropped in a run without "
                    "a fault plan",
                )
        else:
            expected = {
                "loss": faults.frames_dropped,
                "partition": faults.partition_drops,
            }
            if expected != self._fault_drops:
                raise InvariantViolation(
                    "fault-accounting",
                    f"injector drop counters disagree with observed drops "
                    f"(injector {expected}, sanitizer {self._fault_drops})",
                )
            if (faults.frames_delayed == 0) != (faults.extra_delay_total == 0):
                raise InvariantViolation(
                    "fault-accounting",
                    f"delay-spike counters are inconsistent: "
                    f"{faults.frames_delayed} frames delayed but total extra "
                    f"delay is {faults.extra_delay_total}",
                )
        transports = result.transport_stats
        if transports is not None:
            # Every retransmission is triggered by exactly one counted RTO
            # firing, so the two counters must agree per node.  Note the
            # absence of a zero-retransmit assertion: an RTO can fire
            # spuriously even on a perfect network when a large quantum
            # inflates the observed round-trip past the timer.
            for node_id, transport in enumerate(transports):
                if transport.timeouts != transport.retransmits:
                    raise InvariantViolation(
                        "recovery-accounting",
                        f"{transport.timeouts} timeouts fired but "
                        f"{transport.retransmits} frames were retransmitted",
                        node=node_id,
                    )
            dup_dropped = sum(t.duplicates_dropped for t in transports)
            duplicated = faults.frames_duplicated if faults is not None else 0
            if dup_dropped > duplicated:
                raise InvariantViolation(
                    "recovery-accounting",
                    f"receivers suppressed {dup_dropped} network duplicates "
                    f"but the injector only created {duplicated}",
                )
