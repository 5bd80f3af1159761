"""NIC endpoint: fragmentation, wire pacing, reassembly, and the mailbox.

Outgoing messages are fragmented into jumbo frames and paced at the NIC line
rate (a frame cannot start serialising before the previous one left the
wire).  Incoming fragments are reassembled per ``(src, message_id)`` and the
completed :class:`Message` is placed in the mailbox, where ``Recv`` requests
match FIFO-in-arrival-order.

The timing convention matches :mod:`repro.network.latency`: a packet's
``send_time`` is the instant serialisation *starts*; the latency model then
charges the serialisation delay, so arrival = start + wire time + NIC
minimum latency (+ topology).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from repro.engine.units import SimTime
from repro.network.packet import Packet, frames_for_message
from repro.node.requests import ANY_SOURCE, ANY_TAG, Recv


@dataclass(slots=True)
class Message:
    """A reassembled application-level message."""

    src: int
    dst: int
    tag: int
    nbytes: int
    payload: Any
    message_id: int
    sent_at: SimTime
    arrived_at: SimTime = 0
    ideal_arrival: SimTime = 0
    fragments: int = 0

    @property
    def delay_error(self) -> SimTime:
        """Extra latency this message suffered from straggler handling."""
        return self.arrived_at - self.ideal_arrival


@dataclass(slots=True)
class _Reassembly:
    message: Message
    received: int = 0
    expected: Optional[int] = None  # known once the last fragment arrives
    max_deliver: SimTime = 0
    max_due: SimTime = 0


@dataclass
class NicStats:
    frames_sent: int = 0
    frames_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0


class NicModel:
    """One node's network interface."""

    def __init__(
        self,
        node_id: int,
        bandwidth_bits_per_sec: float = 10e9,
        mtu: int = 9000,
    ) -> None:
        if bandwidth_bits_per_sec <= 0:
            raise ValueError("bandwidth must be positive")
        self.node_id = node_id
        self.bandwidth_bits_per_sec = bandwidth_bits_per_sec
        self.mtu = mtu
        self._ns_per_byte = 8.0e9 / bandwidth_bits_per_sec
        self._tx_free_at: SimTime = 0
        # Workloads send from a handful of fixed message sizes, so the
        # fragmentation plan (frame sizes + wire bytes) and per-frame wire
        # times are memoized; both are pure functions of the size.
        self._frame_plans: dict[int, tuple[list[int], int]] = {}
        self._wire_ns: dict[int, SimTime] = {}
        self._message_ids = itertools.count()
        self._reassembly: dict[tuple[int, int], _Reassembly] = {}
        # The mailbox is indexed by (src, tag) so a Recv with both fields
        # bound pops in O(1) and a wildcard Recv scans queues (bounded by
        # peers x tags), not messages — an open-loop source can hold tens
        # of thousands of queued replies, where a flat list made every
        # match a linear scan.  A global arrival sequence preserves the
        # contract: FIFO in arrival order among matching messages.
        self._mailbox_seq = itertools.count()
        self._mailbox: dict[tuple[int, int], deque[tuple[int, Message]]] = {}
        self.stats = NicStats()

    def serialization(self, size_bytes: int) -> SimTime:
        """Wire time of one frame at the line rate."""
        return max(1, round(size_bytes * self._ns_per_byte))

    # ------------------------------------------------------------------ #
    # Transmit path
    # ------------------------------------------------------------------ #

    def pace(self, now: SimTime, size_bytes: int) -> SimTime:
        """Reserve the wire for one frame; returns its serialisation start.

        The transmit cursor enforces the line rate: a frame cannot start
        before the previous one finished serialising.
        """
        start = max(now, self._tx_free_at)
        wire = self._wire_ns.get(size_bytes)
        if wire is None:
            wire = self._wire_ns[size_bytes] = self.serialization(size_bytes)
        self._tx_free_at = start + wire
        return start

    def build_frames(
        self,
        dst: int,
        nbytes: int,
        tag: int,
        payload: Any,
        now: SimTime,
        paced: bool = True,
    ) -> list[Packet]:
        """Fragment a message into frames.

        With ``paced=True`` (the default) emission times are assigned
        immediately through :meth:`pace`; with ``paced=False`` the frames
        carry ``send_time=now`` placeholders and the caller (the windowed
        transport) paces each frame when it is admitted to the wire.
        """
        message_id = next(self._message_ids)
        plan = self._frame_plans.get(nbytes)
        if plan is None:
            sizes = frames_for_message(nbytes, self.mtu)
            plan = self._frame_plans[nbytes] = (sizes, sum(sizes))
        sizes, wire_bytes = plan
        stats = self.stats
        stats.messages_sent += 1
        if len(sizes) == 1:
            # Below-MTU message: one frame carrying the whole header.
            size = sizes[0]
            stats.frames_sent += 1
            stats.bytes_sent += size
            return [
                Packet(
                    src=self.node_id,
                    dst=dst,
                    size_bytes=size,
                    send_time=self.pace(now, size) if paced else now,
                    message_id=message_id,
                    payload=(tag, nbytes, payload),
                )
            ]
        frames = []
        final = len(sizes) - 1
        for index, size in enumerate(sizes):
            last = index == final
            frames.append(
                Packet(
                    src=self.node_id,
                    dst=dst,
                    size_bytes=size,
                    send_time=self.pace(now, size) if paced else now,
                    message_id=message_id,
                    fragment=index,
                    last_fragment=last,
                    # The payload and message header ride the last fragment;
                    # reassembly completes only when every frame arrived.
                    payload=(tag, nbytes, payload) if last else None,
                )
            )
        stats.frames_sent += len(frames)
        stats.bytes_sent += wire_bytes
        return frames

    # ------------------------------------------------------------------ #
    # Receive path
    # ------------------------------------------------------------------ #

    def receive_fragment(self, packet: Packet) -> Optional[Message]:
        """Account an arriving fragment; return the Message if it completes one."""
        if packet.deliver_time is None or packet.due_time is None:
            raise ValueError("fragment reached NIC without delivery stamps")
        stats = self.stats
        stats.frames_received += 1
        stats.bytes_received += packet.size_bytes
        if packet.last_fragment and packet.fragment == 0:
            # Single-frame message (the common case below the jumbo MTU):
            # no partial reassembly can exist for it — duplicates are
            # suppressed upstream by the recovery transport — so build the
            # completed Message directly.  Field-for-field identical to
            # what the incremental path would produce.
            tag, nbytes, payload = packet.payload
            message = Message(
                src=packet.src,
                dst=self.node_id,
                tag=tag,
                nbytes=nbytes,
                payload=payload,
                message_id=packet.message_id,
                sent_at=packet.send_time,
                arrived_at=packet.deliver_time,
                ideal_arrival=packet.due_time,
                fragments=1,
            )
            self._deposit(message)
            stats.messages_received += 1
            return message
        key = (packet.src, packet.message_id)
        entry = self._reassembly.get(key)
        if entry is None:
            entry = _Reassembly(
                message=Message(
                    src=packet.src,
                    dst=self.node_id,
                    tag=0,
                    nbytes=0,
                    payload=None,
                    message_id=packet.message_id,
                    sent_at=packet.send_time,
                )
            )
            self._reassembly[key] = entry
        entry.received += 1
        entry.max_deliver = max(entry.max_deliver, packet.deliver_time)
        entry.max_due = max(entry.max_due, packet.due_time)
        entry.message.sent_at = min(entry.message.sent_at, packet.send_time)
        if packet.last_fragment:
            entry.expected = packet.fragment + 1
            tag, nbytes, payload = packet.payload
            entry.message.tag = tag
            entry.message.nbytes = nbytes
            entry.message.payload = payload
        if entry.expected is None or entry.received < entry.expected:
            return None
        del self._reassembly[key]
        message = entry.message
        message.arrived_at = entry.max_deliver
        message.ideal_arrival = entry.max_due
        message.fragments = entry.received
        self._deposit(message)
        self.stats.messages_received += 1
        return message

    # ------------------------------------------------------------------ #
    # Mailbox
    # ------------------------------------------------------------------ #

    def _deposit(self, message: Message) -> None:
        queue = self._mailbox.get((message.src, message.tag))
        if queue is None:
            queue = self._mailbox[(message.src, message.tag)] = deque()
        queue.append((next(self._mailbox_seq), message))

    @property
    def mailbox(self) -> list[Message]:
        """The queued messages in arrival order (visibility for tests)."""
        entries = [entry for queue in self._mailbox.values() for entry in queue]
        entries.sort(key=lambda entry: entry[0])
        return [message for _, message in entries]

    def match(self, request: Recv) -> Optional[Message]:
        """Pop the first mailbox message satisfying *request* (FIFO).

        A queue leaves the dict with its last message: collectives tag
        every message uniquely, so kept keys would grow with the message
        count (the compiled ``match_fast`` deletes the same way).
        """
        src, tag = request.src, request.tag
        mailbox = self._mailbox
        if src != ANY_SOURCE and tag != ANY_TAG:
            best_key = (src, tag)
            best = mailbox.get(best_key)
        else:
            best = None
            best_seq = 0
            for key, queue in mailbox.items():
                # Empty queues only arrive in snapshots written before
                # emptied queues were deleted.
                if not queue:
                    continue
                if src != ANY_SOURCE and src != key[0]:
                    continue
                if tag != ANY_TAG and tag != key[1]:
                    continue
                seq = queue[0][0]
                if best is None or seq < best_seq:
                    best, best_seq, best_key = queue, seq, key
        if not best:
            return None
        message = best.popleft()[1]
        if not best:
            del mailbox[best_key]
        return message

    def pending_reassemblies(self) -> int:
        """Messages with fragments still in flight (visibility for tests)."""
        return len(self._reassembly)
