"""Typed trace events: the vocabulary of the observability subsystem.

Every event is stamped with **simulated time only** (integer nanoseconds,
:data:`~repro.engine.units.SimTime`).  The ``host_*`` fields that some
events carry are *modelled* host seconds — outputs of the paper's host
execution model (Figure 5), computed deterministically from the
configuration — never wall-clock readings; the sim core takes no clock
(simlint SIM001 enforces this).  Real wall-clock metadata, if a consumer
wants any, is stamped outside the sim zone by whoever writes the export.

The kinds map onto the paper's observables:

========================  ====================================================
kind                      what the paper reads off it
========================  ====================================================
``quantum-begin/-end``    Algorithm 1's chosen Q and grow/shrink decisions
``barrier-wait``          Figure 5's "slowest node sets the pace" skew
``fast-forward``          packet-free spans the accelerator skipped
``packet``                Figure 3 delivery outcome + straggler lag (Sec. 5)
``fault``                 injected drop/duplicate/delay verdicts
``transport``             recovery-layer RTO retransmissions
``request``               service-workload request lifecycle (issue/complete)
========================  ====================================================
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.engine.units import SimTime


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Base record: one observation at simulated instant *time*."""

    #: Simulated time of the observation, in integer nanoseconds.
    time: SimTime

    kind: ClassVar[str] = "event"

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form, with the event kind as a discriminator."""
        payload: dict[str, Any] = {"kind": self.kind}
        for name in field_names(type(self)):
            payload[name] = getattr(self, name)
        return payload


@functools.cache
def field_names(cls: type[TraceEvent]) -> tuple[str, ...]:
    """An event class's field names, in declaration order (computed once)."""
    return tuple(spec.name for spec in dataclasses.fields(cls))


@dataclass(frozen=True, slots=True)
class QuantumBegin(TraceEvent):
    """A quantum ``[time, end)`` opened on the event-by-event path."""

    end: SimTime
    index: int

    kind: ClassVar[str] = "quantum-begin"


@dataclass(frozen=True, slots=True)
class QuantumEnd(TraceEvent):
    """A quantum closed at the barrier; ``time`` is the quantum end.

    ``decision`` records what the quantum policy did with the traffic
    count ``np``: ``grow``/``shrink``/``hold`` compare the next window to
    this one; ``final`` marks the truncated quantum in which the run
    completed (no barrier is paid, no next window exists).
    """

    start: SimTime
    index: int
    quantum: SimTime
    np: int
    decision: str
    next_quantum: SimTime
    #: Modelled host seconds the slowest node needed for this quantum.
    host_cost: float
    #: Modelled host seconds of the closing barrier (0.0 for ``final``).
    host_barrier: float

    kind: ClassVar[str] = "quantum-end"


@dataclass(frozen=True, slots=True)
class BarrierWait(TraceEvent):
    """One node's idle time at the closing barrier of quantum *index*.

    ``host_wait`` is the modelled host seconds the node spent waiting for
    the slowest peer (zero for the pace-setting node itself); ``time`` is
    the quantum end in simulated time — the barrier is instantaneous in
    the simulated-time domain.
    """

    index: int
    node: int
    host_wait: float

    kind: ClassVar[str] = "barrier-wait"


@dataclass(frozen=True, slots=True)
class FastForward(TraceEvent):
    """A packet-free span of *quanta* whole quanta skipped arithmetically."""

    span: SimTime
    quanta: int
    index: int
    host_cost: float
    host_barrier: float

    kind: ClassVar[str] = "fast-forward"


@dataclass(frozen=True, slots=True)
class PacketTrace(TraceEvent):
    """One frame's full lifecycle: send -> route -> deliver.

    ``time`` is the send time.  ``delivery`` is the controller's Figure 3
    verdict (``exact-now``, ``exact-future``, ``straggler-now``,
    ``straggler-next-quantum``); ``lag`` is the straggler-induced extra
    delay ``deliver_time - due_time`` in simulated nanoseconds (zero for
    exact deliveries).
    """

    src: int
    dst: int
    size_bytes: int
    due_time: SimTime
    deliver_time: SimTime
    delivery: str
    lag: SimTime
    straggler: bool
    message_id: int
    fragment: int
    retransmit: int
    packet_kind: str
    packet_id: int
    index: int

    kind: ClassVar[str] = "packet"

    def identity(self) -> tuple[int, int, int, int, str, int]:
        """Cross-run alignment key (stable across quantum policies)."""
        return (
            self.src,
            self.dst,
            self.message_id,
            self.fragment,
            self.packet_kind,
            self.retransmit,
        )


@dataclass(frozen=True, slots=True)
class FaultTrace(TraceEvent):
    """The fault injector touched a frame (drop/duplicate/delay)."""

    action: str
    src: int
    dst: int
    message_id: int
    fragment: int
    extra_latency: SimTime

    kind: ClassVar[str] = "fault"


@dataclass(frozen=True, slots=True)
class TransportTrace(TraceEvent):
    """The recovery transport acted (currently: an RTO retransmission)."""

    action: str
    node: int
    dst: int
    message_id: int
    fragment: int
    retransmit: int

    kind: ClassVar[str] = "transport"


@dataclass(frozen=True, slots=True)
class RequestTrace(TraceEvent):
    """A service-workload request crossed a lifecycle edge.

    ``action`` is ``issued`` (the feeder injected the request; ``time`` is
    the issue instant, ``latency``/``slo_miss`` are zeroed) or
    ``completed`` (the response reached the client; ``time`` is the
    arrival, ``latency`` the client-observed round trip).  ``node`` is the
    frontend rank the request entered (or returned) through.
    """

    action: str
    request_id: int
    node: int
    latency: SimTime
    slo_miss: bool

    kind: ClassVar[str] = "request"
