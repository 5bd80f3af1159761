"""The packet: unit of traffic between simulated nodes.

Nodes exchange link-layer frames.  Following the paper's network
configuration we default to jumbo Ethernet frames (9000-byte MTU); the
message layer in :mod:`repro.mpi` fragments larger application messages into
frames and reassembles them at the destination.

Packets carry the originating simulated timestamp (``send_time``) — exactly
the tag the paper attaches to packets so the controller can reason about
timing causality — plus routing identity and enough metadata
(message id / fragment index) for reassembly and for traffic traces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.engine.units import SimTime

#: Destination id meaning "all nodes except the sender" (link-layer broadcast).
BROADCAST = -1

#: Jumbo Ethernet MTU used throughout the paper's evaluation.
JUMBO_FRAME_BYTES = 9000

#: Fixed per-frame overhead (Ethernet header + FCS + IP/transport headers).
FRAME_HEADER_BYTES = 66

_packet_ids = itertools.count()


def packet_id_position() -> int:
    """The id the next packet will receive (non-destructive peek)."""
    global _packet_ids
    position = next(_packet_ids)
    _packet_ids = itertools.count(position)
    return position


def set_packet_ids(position: int) -> None:
    """Continue the counter from *position*: 0 at the start of every fresh
    run, the captured position on checkpoint restore."""
    global _packet_ids
    _packet_ids = itertools.count(position)


@dataclass(slots=True)
class Packet:
    """A link-layer frame in flight.

    Attributes:
        src: sending node id.
        dst: destination node id, or :data:`BROADCAST`.
        size_bytes: total frame size on the wire, headers included.
        send_time: simulated time at which the sender's NIC emitted it.
        message_id: id of the application message this frame belongs to.
        fragment: index of this frame within its message.
        last_fragment: True for the final frame of a message.
        payload: opaque application data (delivered with the last fragment).
        due_time: exact simulated arrival time per the timing model; stamped
            by the controller.
        deliver_time: simulated time at which the frame was actually handed
            to the destination (>= due_time; larger exactly when the frame
            was a straggler).
        straggler: True when timing causality was broken for this frame.
        kind: "data" for application frames, "ack" for transport-level
            acknowledgements (which bypass reassembly and the mailbox).
        retransmit: 0 for an original transmission; a retransmitted copy
            carries its retry ordinal so receivers can tell a recovery
            resend from a network-duplicated frame.
    """

    src: int
    dst: int
    size_bytes: int
    send_time: SimTime
    message_id: int = 0
    fragment: int = 0
    last_fragment: bool = True
    payload: Any = None
    due_time: Optional[SimTime] = None
    deliver_time: Optional[SimTime] = None
    straggler: bool = False
    kind: str = "data"
    retransmit: int = 0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {self.size_bytes}")
        if self.send_time < 0:
            raise ValueError(f"send_time must be non-negative, got {self.send_time}")
        if self.src == self.dst:
            raise ValueError(f"node {self.src} cannot send a packet to itself")

    @property
    def is_broadcast(self) -> bool:
        return self.dst == BROADCAST

    @property
    def delay_error(self) -> SimTime:
        """Extra delay caused by straggler handling (0 for accurate frames)."""
        if self.deliver_time is None or self.due_time is None:
            return 0
        return self.deliver_time - self.due_time

    def clone_for(self, dst: int) -> "Packet":
        """Copy this frame for one destination of a broadcast fan-out."""
        return Packet(
            src=self.src,
            dst=dst,
            size_bytes=self.size_bytes,
            send_time=self.send_time,
            message_id=self.message_id,
            fragment=self.fragment,
            last_fragment=self.last_fragment,
            payload=self.payload,
            kind=self.kind,
            retransmit=self.retransmit,
        )


def frames_for_message(payload_bytes: int, mtu: int = JUMBO_FRAME_BYTES) -> list[int]:
    """Split an application payload into on-the-wire frame sizes.

    Every frame carries :data:`FRAME_HEADER_BYTES` of overhead; the payload
    capacity of a frame is ``mtu - FRAME_HEADER_BYTES``.  Zero-byte payloads
    (pure control messages, e.g. barrier tokens) still cost one header-only
    frame.

    Returns the list of frame sizes in bytes.
    """
    if payload_bytes < 0:
        raise ValueError(f"payload must be non-negative, got {payload_bytes}")
    if mtu <= FRAME_HEADER_BYTES:
        raise ValueError(f"mtu {mtu} leaves no payload capacity")
    capacity = mtu - FRAME_HEADER_BYTES
    if payload_bytes == 0:
        return [FRAME_HEADER_BYTES]
    sizes = []
    remaining = payload_bytes
    while remaining > 0:
        chunk = min(capacity, remaining)
        sizes.append(chunk + FRAME_HEADER_BYTES)
        remaining -= chunk
    return sizes
