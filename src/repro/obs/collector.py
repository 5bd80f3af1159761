"""The trace collector: bounded ring buffer + streaming JSONL sink.

Design constraints, in order:

1. **Zero effect on results.**  The collector only *reads* the simulation;
   it draws no randomness, schedules nothing, and touches no simulated
   state.  A traced run is bit-identical to an untraced one, and a run
   with no :class:`TraceConfig` pays exactly one ``is not None`` test per
   hook site (the same pattern the causality sanitizer uses).
2. **Bounded memory.**  The in-memory ring keeps the newest
   ``capacity`` events and counts what it sheds (``dropped``); per-kind
   totals (``counts``) are exact regardless of shedding.  The ring is a
   columnar :class:`~repro.obs.store.EventStore` (~30 bytes per event;
   hooks append field values, event objects are built only on read).
   The optional JSONL sink streams *every* event to disk, so
   full-fidelity traces never need unbounded memory.
3. **Farm-transportable.**  Collectors pickle across the process-pool
   boundary (:mod:`repro.harness.parallel` ships them back with each
   record); the open sink handle and any attached listeners are dropped
   in transit — the worker already wrote/consumed them.

Determinism note: events are stamped with simulated time only, and the
emission order is the simulation's own deterministic order, so two runs of
the same configuration produce byte-identical JSONL streams.
"""

from __future__ import annotations

import dataclasses
import json
import re
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Callable, Optional

from repro.engine.units import SimTime
from repro.obs.events import (
    BarrierWait,
    FastForward,
    FaultTrace,
    PacketTrace,
    QuantumBegin,
    QuantumEnd,
    RequestTrace,
    TraceEvent,
    TransportTrace,
)
from repro.obs.store import EventStore, EventView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.packet import Packet

#: Packet-listener signature: ``(send_time, src, dst, size_bytes)`` — the
#: contract of the controller's legacy trace hook, kept so existing sinks
#: (:class:`~repro.metrics.traffic.TrafficTrace`) plug straight in.
PacketListener = Callable[[SimTime, int, int, int], None]


@dataclass(frozen=True)
class TraceConfig:
    """What to record, how much to keep, where to stream.

    Attributes:
        capacity: in-memory ring bound (newest events win; 0 disables the
            ring entirely — useful when the collector only feeds listeners
            or the JSONL sink).
        jsonl_path: stream every event as one JSON line to this file
            (opened lazily at the first event, closed by
            :meth:`TraceCollector.close`).
        quanta: record quantum begin/end and fast-forward spans.
        barriers: record per-node barrier waits (N events per busy
            quantum — the chattiest category).
        packets: record per-frame delivery lifecycles.
        faults: record fault-injector verdicts.
        transport: record recovery-transport retransmissions.
        requests: record service-workload request lifecycles (issue and
            completion edges, emitted by the workload's query manager).
    """

    capacity: int = 1 << 20
    jsonl_path: Optional[str] = None
    quanta: bool = True
    barriers: bool = True
    packets: bool = True
    faults: bool = True
    transport: bool = True
    requests: bool = True

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {self.capacity}")

    def for_run(self, workload: str, size: int, label: str) -> "TraceConfig":
        """Derive a per-run config with a uniquified JSONL path.

        A batch shares one :class:`TraceConfig`; streaming every run into
        the same file would interleave them, so the harness derives
        ``<stem>-<workload>-n<size>-<label><suffix>`` per run.  Without a
        JSONL path the config is returned unchanged.
        """
        if self.jsonl_path is None:
            return self
        path = Path(self.jsonl_path)
        suffix = path.suffix or ".jsonl"
        stem = path.name[: -len(path.suffix)] if path.suffix else path.name
        slug = run_slug(workload, size, label)
        return dataclasses.replace(
            self, jsonl_path=str(path.with_name(f"{stem}-{slug}{suffix}"))
        )


def run_slug(workload: str, size: int, label: str) -> str:
    """Filesystem-safe identifier for one (workload, size, policy) run."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", f"{workload}-n{size}-{label}").strip("-")


class TraceCollector:
    """Accumulates :class:`~repro.obs.events.TraceEvent` records for a run.

    The driver installs one collector per :class:`ClusterSimulator` (via
    ``ClusterConfig.trace``) and shares it with the controller and every
    node; each hook site pays one ``is not None`` test when tracing is
    off.  The collector tracks the global quantum index itself
    (incremented at each quantum end and across fast-forwarded spans) so
    hook sites never thread a counter.
    """

    def __init__(self, config: Optional[TraceConfig] = None) -> None:
        self.config = config or TraceConfig()
        #: The ring: the newest ``capacity`` events, column by column.
        self.store = EventStore(self.config.capacity)
        #: Exact per-kind totals, unaffected by ring shedding.
        self.counts: dict[str, int] = {}
        #: Global quantum index (event-path quanta + fast-forwarded quanta).
        self.quantum_index = 0
        #: Straggler reconciliation tallies (exact, ring-independent).
        self.straggler_packets = 0
        self.straggler_lag_total: SimTime = 0
        self._packet_listeners: list[PacketListener] = []
        self._sink: Optional[IO[str]] = None

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #

    def add_packet_listener(self, listener: PacketListener) -> None:
        """Attach a live per-packet sink (e.g. ``TrafficTrace.record``).

        Listeners are invoked on every routed frame regardless of ring
        capacity, and are dropped when the collector crosses a process
        boundary (the worker already fed them).
        """
        self._packet_listeners.append(listener)

    def _emit(self, cls: type[TraceEvent], row: tuple[Any, ...]) -> None:
        """Record one event of *cls*, given its field values in field order."""
        kind = cls.kind
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if self._sink is None and self.config.jsonl_path is not None:
            self._sink = open(self.config.jsonl_path, "w", encoding="utf-8")
        if self._sink is not None:
            self._sink.write(json.dumps(cls(*row).to_dict()) + "\n")
        self.store.append(cls, row)

    @property
    def events(self) -> EventView:
        """The ring's events in emission order (a read-only view)."""
        return EventView(self.store)

    @property
    def dropped(self) -> int:
        """Events shed from the ring once it filled (oldest-first)."""
        return self.store.dropped

    def restore_ring(self, events: Iterable[TraceEvent], dropped: int) -> None:
        """Refill the ring from a snapshot's events and shed count.

        Events beyond this collector's ``capacity`` are shed oldest-first
        and counted, so ``len(self) + self.dropped`` still equals the
        events the snapshot had counted.
        """
        self.store.clear(dropped)
        self.store.extend(events)

    def flush(self) -> None:
        if self._sink is not None:
            self._sink.flush()

    def close(self) -> None:
        """Flush and close the JSONL sink (idempotent)."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def __getstate__(self) -> dict[str, Any]:
        # The sink handle and listeners stay on the side of the process
        # boundary that owns them; the ring, counts, and tallies travel.
        state = self.__dict__.copy()
        state["_sink"] = None
        state["_packet_listeners"] = []
        return state

    # ------------------------------------------------------------------ #
    # Hook sites (called by the driver / controller / nodes)
    # ------------------------------------------------------------------ #

    def quantum_begin(self, start: SimTime, end: SimTime) -> None:
        if self.config.quanta:
            self._emit(QuantumBegin, (start, end, self.quantum_index))

    def quantum_end(
        self,
        start: SimTime,
        end: SimTime,
        np_count: int,
        decision: str,
        next_quantum: SimTime,
        host_cost: float,
        host_barrier: float,
    ) -> None:
        if self.config.quanta:
            self._emit(
                QuantumEnd,
                (
                    end,
                    start,
                    self.quantum_index,
                    end - start,
                    np_count,
                    decision,
                    next_quantum,
                    host_cost,
                    host_barrier,
                ),
            )
        self.quantum_index += 1

    def barrier_wait(self, node: int, end: SimTime, host_wait: float) -> None:
        if self.config.barriers:
            self._emit(BarrierWait, (end, self.quantum_index, node, host_wait))

    def fast_forward(
        self,
        start: SimTime,
        span: SimTime,
        quanta: int,
        host_cost: float,
        host_barrier: float,
    ) -> None:
        if self.config.quanta:
            self._emit(
                FastForward,
                (start, span, quanta, self.quantum_index, host_cost, host_barrier),
            )
        self.quantum_index += quanta

    def on_packet(self, packet: "Packet", delivery: str) -> None:
        """Record one routed frame's delivery verdict (controller hook)."""
        if not self.config.packets:
            return
        for listener in self._packet_listeners:
            listener(packet.send_time, packet.src, packet.dst, packet.size_bytes)
        lag = packet.delay_error
        if packet.straggler:
            self.straggler_packets += 1
            self.straggler_lag_total += lag
        due = packet.due_time
        delivered = packet.deliver_time
        assert due is not None and delivered is not None
        self._emit(
            PacketTrace,
            (
                packet.send_time,
                packet.src,
                packet.dst,
                packet.size_bytes,
                due,
                delivered,
                delivery,
                lag,
                packet.straggler,
                packet.message_id,
                packet.fragment,
                packet.retransmit,
                packet.kind,
                packet.packet_id,
                self.quantum_index,
            ),
        )

    def on_fault(
        self, packet: "Packet", dst: int, action: str, extra_latency: SimTime = 0
    ) -> None:
        if self.config.faults:
            self._emit(
                FaultTrace,
                (
                    packet.send_time,
                    action,
                    packet.src,
                    dst,
                    packet.message_id,
                    packet.fragment,
                    extra_latency,
                ),
            )

    def on_request(
        self,
        now: SimTime,
        action: str,
        request_id: int,
        node: int,
        latency: SimTime,
        slo_miss: bool,
    ) -> None:
        """Record one request-lifecycle edge (service-workload hook)."""
        if self.config.requests:
            self._emit(
                RequestTrace, (now, action, request_id, node, latency, slo_miss)
            )

    def on_retransmit(self, node: int, frame: "Packet", now: SimTime) -> None:
        if self.config.transport:
            self._emit(
                TransportTrace,
                (
                    now,
                    "retransmit",
                    node,
                    frame.dst,
                    frame.message_id,
                    frame.fragment,
                    frame.retransmit,
                ),
            )

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """Ring events of one kind, in emission (simulation) order."""
        return self.store.of_kind(kind)

    def packet_events(self) -> list[PacketTrace]:
        return self.store.of_kind(PacketTrace.kind)  # type: ignore[return-value]

    def quantum_events(self) -> list[QuantumEnd]:
        return self.store.of_kind(QuantumEnd.kind)  # type: ignore[return-value]

    def total(self, kind: str) -> int:
        """Exact number of events of *kind* emitted (ring-independent)."""
        return self.counts.get(kind, 0)

    def __len__(self) -> int:
        return len(self.store)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"TraceCollector({len(self)} ringed, dropped={self.dropped}, {kinds})"
