"""The centralized network controller.

This is the component the paper adds to a set of independent full-system
simulators to expand "the simulated world" to the whole cluster: a functional
link-layer switch with a timing model attached.  It

* routes frames between nodes (resolving broadcasts into per-destination
  copies),
* stamps each frame with its exact due time ``send_time + latency``,
* implements the delivery policy of Figure 3 — exact delivery when the
  destination has not yet simulated past the due time, *straggler* delivery
  at the destination's current position when it has, and queue-to-next-
  quantum when the destination already finished its quantum,
* holds frames due in future quanta and releases them when their window
  opens, and
* counts frames per quantum (``np``), the observable that drives the
  adaptive quantum algorithm.

The controller is deliberately ignorant of *how* node positions in host time
are computed; it asks a :class:`ClusterState` (implemented by the driver in
:mod:`repro.core.cluster`) so the delivery policy is testable in isolation.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Protocol

from repro.engine.units import SimTime
from repro.network.latency import LatencyModel, NicSwitchLatencyModel, UniformLatencyModel
from repro.network.topology import StarTopology
from repro.network.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - the sanitizer imports this module
    from repro.analysis.invariants import CausalitySanitizer
    from repro.faults.injector import FaultInjector
    from repro.obs.collector import TraceCollector


class ClusterState(Protocol):
    """What the controller needs to know about the synchronized cluster."""

    def quantum_window(self) -> tuple[SimTime, SimTime]:
        """The current quantum as ``(start, end)`` in simulated time."""

    def node_position_at(self, node: int, host_time: float) -> SimTime:
        """Node *node*'s simulated clock at host instant *host_time*,
        capped at the quantum end (a node never runs past the barrier)."""


class DeliveryKind(enum.Enum):
    """How a frame reached (or will reach) its destination."""

    #: Delivered at its exact due time inside the current quantum.
    EXACT_NOW = "exact-now"
    #: Due in a later quantum; held and delivered exactly (never an error).
    EXACT_FUTURE = "exact-future"
    #: Destination already simulated past the due time; delivered late at the
    #: destination's current position (Figure 3(b)).
    STRAGGLER_NOW = "straggler-now"
    #: Destination already finished its quantum; latency snaps to the next
    #: quantum boundary (Figure 3(d)).
    STRAGGLER_NEXT_QUANTUM = "straggler-next-quantum"


@dataclass(slots=True)
class DeliveryDecision:
    """The controller's verdict for one frame/destination pair."""

    packet: Packet
    kind: DeliveryKind
    deliver_time: SimTime

    @property
    def immediate(self) -> bool:
        """True when the driver must schedule delivery inside this quantum."""
        return self.kind in (DeliveryKind.EXACT_NOW, DeliveryKind.STRAGGLER_NOW)


@dataclass
class ControllerStats:
    """Aggregate accounting over a run."""

    packets_routed: int = 0
    broadcast_fanouts: int = 0
    exact_now: int = 0
    exact_future: int = 0
    stragglers_now: int = 0
    stragglers_next_quantum: int = 0
    total_delay_error: SimTime = 0
    max_delay_error: SimTime = 0
    quanta_seen: int = 0
    busy_quanta: int = 0  # quanta with np > 0

    @property
    def stragglers(self) -> int:
        return self.stragglers_now + self.stragglers_next_quantum

    @property
    def straggler_fraction(self) -> float:
        if self.packets_routed == 0:
            return 0.0
        return self.stragglers / self.packets_routed

    def mean_delay_error(self) -> float:
        """Mean extra delay per routed frame, in simulated nanoseconds."""
        if self.packets_routed == 0:
            return 0.0
        return self.total_delay_error / self.packets_routed


class NetworkController:
    """Functional + timing switch with the quantum-aware delivery policy."""

    def __init__(
        self,
        num_nodes: int,
        latency_model: LatencyModel,
        cluster: Optional[ClusterState] = None,
    ) -> None:
        if num_nodes < 2:
            raise ValueError("a cluster needs at least two nodes")
        self.num_nodes = num_nodes
        self.latency_model = latency_model
        self.cluster = cluster
        self.stats = ControllerStats()
        self.packets_this_quantum = 0
        self._sanitizer: Optional["CausalitySanitizer"] = None
        self._injector: Optional["FaultInjector"] = None
        self._collector: Optional["TraceCollector"] = None
        #: True while no fault injector, sanitizer or collector is
        #: attached: the unicast submission path then skips all observer
        #: plumbing (the hot path of clean runs).
        self._plain = True
        self._future: list[tuple[SimTime, int, DeliveryDecision]] = []
        self._future_seq = 0
        #: Latency by frame size, memoized only for the known-pure stock
        #: models, whose latency depends on nothing else (a constant, or
        #: NIC minimum + serialization + one path latency shared by every
        #: pair), so the memo holds one entry per distinct frame size;
        #: None for custom or subclassed models, which are never cached.
        pure = type(latency_model) is UniformLatencyModel or (
            type(latency_model) is NicSwitchLatencyModel
            and type(latency_model.topology) is StarTopology
        )
        self._latency_memo: Optional[dict[int, SimTime]] = {} if pure else None

    def _refresh_plain(self) -> None:
        self._plain = (
            self._injector is None
            and self._sanitizer is None
            and self._collector is None
        )

    # The observers are plain-looking attributes assigned by the driver
    # after construction; properties keep the `_plain` fast-path flag in
    # sync without changing that surface.

    @property
    def sanitizer(self) -> Optional["CausalitySanitizer"]:
        """Causality sanitizer observing every delivery decision; set by the
        driver when checking is enabled (see ``repro.analysis.invariants``)."""
        return self._sanitizer

    @sanitizer.setter
    def sanitizer(self, value: Optional["CausalitySanitizer"]) -> None:
        self._sanitizer = value
        self._refresh_plain()

    @property
    def injector(self) -> Optional["FaultInjector"]:
        """Fault injector deciding per-frame drop/duplicate/jitter verdicts;
        set by the driver when the run carries a fault plan."""
        return self._injector

    @injector.setter
    def injector(self, value: Optional["FaultInjector"]) -> None:
        self._injector = value
        self._refresh_plain()

    @property
    def collector(self) -> Optional["TraceCollector"]:
        """Trace collector observing every delivery decision and fault
        verdict; set by the driver when the run is traced (see
        :mod:`repro.obs`)."""
        return self._collector

    @collector.setter
    def collector(self, value: Optional["TraceCollector"]) -> None:
        self._collector = value
        self._refresh_plain()

    def bind(self, cluster: ClusterState) -> None:
        """Attach the cluster driver (done once the driver is constructed)."""
        self.cluster = cluster

    def _latency(self, packet: Packet, dst: int) -> SimTime:
        """The model's latency for *packet* to *dst*, through the memo."""
        memo = self._latency_memo
        if memo is None:
            return self.latency_model.latency(packet, dst)
        size = packet.size_bytes
        latency = memo.get(size)
        if latency is None:
            latency = memo[size] = self.latency_model.latency(packet, dst)
        return latency

    # ------------------------------------------------------------------ #
    # Submission path
    # ------------------------------------------------------------------ #

    def submit(self, packet: Packet, sender_host_time: float) -> list[DeliveryDecision]:
        """Route *packet*, deciding delivery for each destination.

        *sender_host_time* is the host instant at which the sending node's
        simulation emitted the frame — the moment the functional packet hits
        the controller and the race against the destination is decided.

        Returns the decisions whose :attr:`DeliveryDecision.immediate` is
        True; held frames (exact-future and queue-to-next-quantum) are kept
        internally and surface through :meth:`release_due`.
        """
        if self.cluster is None:
            raise RuntimeError("controller is not bound to a cluster")
        immediate: list[DeliveryDecision] = []
        if not packet.is_broadcast:
            # Unicast fast path: no fan-out list, no per-frame clone.
            dst = packet.dst
            if not 0 <= dst < self.num_nodes:
                raise ValueError(f"destination {dst} out of range")
            if self._plain:
                # No injector, sanitizer or collector attached:
                # decide and account inline, skipping every observer hook
                # (and the zero delay-error bookkeeping of exact kinds).
                # Results are identical to _decide + _account.
                stats = self.stats
                stats.packets_routed += 1
                self.packets_this_quantum += 1
                end = self.cluster.quantum_window()[1]
                due = packet.send_time + self._latency(packet, dst)
                packet.due_time = due
                if due >= end:
                    packet.deliver_time = due
                    stats.exact_future += 1
                    self._hold(
                        DeliveryDecision(packet, DeliveryKind.EXACT_FUTURE, due)
                    )
                    return []
                position = self.cluster.node_position_at(dst, sender_host_time)
                if position <= due:
                    packet.deliver_time = due
                    stats.exact_now += 1
                    return [DeliveryDecision(packet, DeliveryKind.EXACT_NOW, due)]
                packet.straggler = True
                if position < end:
                    packet.deliver_time = position
                    stats.stragglers_now += 1
                    error = position - due
                    stats.total_delay_error += error
                    if error > stats.max_delay_error:
                        stats.max_delay_error = error
                    return [
                        DeliveryDecision(packet, DeliveryKind.STRAGGLER_NOW, position)
                    ]
                # Destination already at the barrier: queue to next quantum.
                packet.deliver_time = end
                stats.stragglers_next_quantum += 1
                error = end - due
                stats.total_delay_error += error
                if error > stats.max_delay_error:
                    stats.max_delay_error = error
                self._hold(
                    DeliveryDecision(packet, DeliveryKind.STRAGGLER_NEXT_QUANTUM, end)
                )
                return []
            if self._injector is not None:
                self._route_faulted(packet, dst, sender_host_time, False, immediate)
                return immediate
            decision = self._decide(packet, dst, sender_host_time)
            self._account(decision)
            if decision.immediate:
                return [decision]
            self._hold(decision)
            return []
        for dst, frame in self._destinations(packet):
            if self.injector is not None:
                # Broadcast copies are protected: jitter only, no loss —
                # the broadcast control plane has no retransmission path.
                self._route_faulted(frame, dst, sender_host_time, True, immediate)
                continue
            decision = self._decide(frame, dst, sender_host_time)
            self._account(decision)
            if decision.immediate:
                immediate.append(decision)
            else:
                self._hold(decision)
        return immediate

    def submit_held_batch(
        self, pending: list[tuple[float, int, int, Packet]]
    ) -> None:
        """Route a window's emissions, pre-sorted into the global host-time
        order the event-interleaved path would have produced.

        Used by the driver's ground-truth window drain, which is only
        eligible when the quantum is no longer than the network's minimum
        latency — every frame is then provably due at or beyond the quantum
        end and takes exactly the unicast ``EXACT_FUTURE`` path of
        :meth:`submit`.  A frame that would need any other path means the
        caller's eligibility reasoning is broken, and raises.

        Entries are ``(sender_host_time, node_id, order, packet)``; only
        the host time and packet are used here (the middle fields make the
        caller's sort total without comparing packets).
        """
        if self.cluster is None:
            raise RuntimeError("controller is not bound to a cluster")
        if not self._plain:
            # An observer is attached: take the ordinary per-frame path
            # so every observer fires in order.
            for host_time, _node, _order, packet in pending:
                if self.submit(packet, host_time):
                    raise RuntimeError(
                        "drain window produced an immediate delivery"
                    )
            return
        end = self.cluster.quantum_window()[1]
        num_nodes = self.num_nodes
        latency = self._latency
        future = self._future
        seq = self._future_seq
        heappush = heapq.heappush
        routed = 0
        for host_time, _node, _order, packet in pending:
            dst = packet.dst
            if not 0 <= dst < num_nodes:
                # Broadcasts (and range errors) take the general path.
                if self.submit(packet, host_time):
                    raise RuntimeError(
                        "drain window produced an immediate delivery"
                    )
                continue
            due = packet.send_time + latency(packet, dst)
            if due < end:
                raise RuntimeError(
                    f"drain window frame due at {due} before quantum end {end}"
                )
            packet.due_time = due
            packet.deliver_time = due
            heappush(
                future,
                (due, seq, DeliveryDecision(packet, DeliveryKind.EXACT_FUTURE, due)),
            )
            seq += 1
            routed += 1
        self._future_seq = seq
        self.stats.packets_routed += routed
        self.stats.exact_future += routed
        self.packets_this_quantum += routed

    def _route_faulted(
        self,
        packet: Packet,
        dst: int,
        sender_host_time: float,
        protected: bool,
        immediate: list[DeliveryDecision],
    ) -> None:
        """Route one frame through the fault injector's verdict.

        Dropped frames vanish before the delivery policy: they are not
        routed, not counted in ``np``, and never held — only the injector's
        own statistics (and the sanitizer, when attached) see them.  A
        duplicated frame is cloned and routed a second time with its own
        (possibly different) latency spike.
        """
        assert self.injector is not None
        verdict = self.injector.link_verdict(packet, dst, protected)
        collector = self.collector
        if verdict.drop:
            if self.sanitizer is not None:
                self.sanitizer.on_fault_drop(packet, dst, verdict.drop_reason)
            if collector is not None:
                collector.on_fault(packet, dst, f"drop:{verdict.drop_reason}")
            return
        if collector is not None and verdict.extra_latency > 0:
            collector.on_fault(packet, dst, "delay", verdict.extra_latency)
        decision = self._decide(packet, dst, sender_host_time, verdict.extra_latency)
        self._account(decision)
        if decision.immediate:
            immediate.append(decision)
        else:
            self._hold(decision)
        if verdict.duplicate:
            if collector is not None:
                collector.on_fault(
                    packet, dst, "duplicate", verdict.dup_extra_latency
                )
            copy = packet.clone_for(dst)
            duplicate = self._decide(
                copy, dst, sender_host_time, verdict.dup_extra_latency
            )
            self._account(duplicate)
            if duplicate.immediate:
                immediate.append(duplicate)
            else:
                self._hold(duplicate)

    def _destinations(self, packet: Packet) -> Iterable[tuple[int, Packet]]:
        if not packet.is_broadcast:
            if not 0 <= packet.dst < self.num_nodes:
                raise ValueError(f"destination {packet.dst} out of range")
            return [(packet.dst, packet)]
        self.stats.broadcast_fanouts += 1
        return [
            (dst, packet.clone_for(dst))
            for dst in range(self.num_nodes)
            if dst != packet.src
        ]

    def _decide(
        self,
        packet: Packet,
        dst: int,
        sender_host_time: float,
        extra_latency: SimTime = 0,
    ) -> DeliveryDecision:
        assert self.cluster is not None
        start, end = self.cluster.quantum_window()
        due = packet.send_time + self._latency(packet, dst) + extra_latency
        packet.due_time = due
        if due >= end:
            # Due beyond the barrier: hold it, delivery will be exact.
            packet.deliver_time = due
            return DeliveryDecision(packet, DeliveryKind.EXACT_FUTURE, due)
        position = self.cluster.node_position_at(dst, sender_host_time)
        if position <= due:
            packet.deliver_time = due
            return DeliveryDecision(packet, DeliveryKind.EXACT_NOW, due)
        packet.straggler = True
        if position < end:
            packet.deliver_time = position
            return DeliveryDecision(packet, DeliveryKind.STRAGGLER_NOW, position)
        # Destination has already reached the barrier (Figure 3(d)):
        # the only option is delivery at the start of the next quantum.
        packet.deliver_time = end
        return DeliveryDecision(packet, DeliveryKind.STRAGGLER_NEXT_QUANTUM, end)

    def _account(self, decision: DeliveryDecision) -> None:
        stats = self.stats
        stats.packets_routed += 1
        self.packets_this_quantum += 1
        kind = decision.kind
        if kind is DeliveryKind.EXACT_NOW:
            stats.exact_now += 1
        elif kind is DeliveryKind.EXACT_FUTURE:
            stats.exact_future += 1
        elif kind is DeliveryKind.STRAGGLER_NOW:
            stats.stragglers_now += 1
        else:
            stats.stragglers_next_quantum += 1
        error = decision.packet.delay_error
        stats.total_delay_error += error
        if error > stats.max_delay_error:
            stats.max_delay_error = error
        if self.sanitizer is not None:
            self.sanitizer.on_decision(decision)
        if self.collector is not None:
            self.collector.on_packet(decision.packet, kind.value)

    def _hold(self, decision: DeliveryDecision) -> None:
        heapq.heappush(
            self._future, (decision.deliver_time, self._future_seq, decision)
        )
        self._future_seq += 1

    # ------------------------------------------------------------------ #
    # Quantum boundary path
    # ------------------------------------------------------------------ #

    def end_quantum(self) -> int:
        """Close the current quantum; returns ``np`` and resets the counter."""
        np_count = self.packets_this_quantum
        self.packets_this_quantum = 0
        self.stats.quanta_seen += 1
        if np_count > 0:
            self.stats.busy_quanta += 1
        return np_count

    def note_idle_quanta(self, count: int) -> None:
        """Account for *count* packet-free quanta skipped by fast-forward."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self.stats.quanta_seen += count

    def release_due(self, window_start: SimTime, window_end: SimTime) -> list[DeliveryDecision]:
        """Pop held frames whose delivery time falls inside the new window."""
        if window_end <= window_start:
            raise ValueError("window must be non-empty")
        released = []
        while self._future and self._future[0][0] < window_end:
            deliver_time, _, decision = heapq.heappop(self._future)
            if deliver_time < window_start:
                raise RuntimeError(
                    f"held frame for t={deliver_time} missed its window "
                    f"[{window_start}, {window_end})"
                )
            released.append(decision)
        return released

    def next_held_time(self) -> Optional[SimTime]:
        """Delivery time of the earliest held frame (None when empty).

        The fast-forward span accelerator uses this to bound how far it may
        skip ahead without missing a delivery.
        """
        return self._future[0][0] if self._future else None

    def pending_count(self) -> int:
        """Number of held frames (visibility for tests and the harness)."""
        return len(self._future)
