"""The node runtime: one simulated full-system node.

A :class:`SimulatedNode` couples

* an application coroutine (the workload) yielding the primitives of
  :mod:`repro.node.requests`,
* a :class:`~repro.node.cpu.CpuModel` converting ops to simulated time,
* a :class:`~repro.node.nic.NicModel` for messaging, and
* a **local event queue** in simulated time.

The node never advances itself: the cluster driver (:mod:`repro.core.cluster`)
peeks each node's earliest event, orders nodes in *host* time through their
per-quantum affine maps, and pops/handles one event at a time.  This is what
makes the node a faithful stand-in for an independent full-system simulator:
it only ever interacts with the world through timestamped packet emissions
(the ``emit_hook``) and packet deliveries (:meth:`SimulatedNode.deliver`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.engine.events import EventQueue
from repro.engine.process import Process, ProcessExit
from repro.engine.units import SimTime
from repro.network.packet import Packet
from repro.node.cpu import CpuModel
from repro.node.hostmodel import BUSY, IDLE
from repro.node.nic import Message, NicModel
from repro.node.requests import Compute, ComputeTime, Recv, Request, Send, Sleep
from repro.node.transport import NodeTransport, TransportConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.collector import TraceCollector


@dataclass
class NodeStats:
    """Per-node accounting over a run."""

    app_wakeups: int = 0
    deliveries: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    blocked_time: SimTime = 0
    straggler_messages: int = 0
    straggler_delay: SimTime = 0


@dataclass(frozen=True)
class NodeCosts:
    """CPU costs of the messaging software stack (target-side).

    ``send/recv = base + per_byte * nbytes`` nanoseconds of busy target time.
    These stand in for the MPI + TCP/IP stack the paper's guests run.
    """

    send_base: SimTime = 1_000
    send_per_byte: float = 0.05
    recv_base: SimTime = 800
    recv_per_byte: float = 0.05

    def send_cost(self, nbytes: int) -> SimTime:
        return self.send_base + round(self.send_per_byte * nbytes)

    def recv_cost(self, nbytes: int) -> SimTime:
        return self.recv_base + round(self.recv_per_byte * nbytes)


class SimulatedNode:
    """One cluster node as seen by the synchronization layer."""

    def __init__(
        self,
        node_id: int,
        app: Generator[Request, Any, Any],
        cpu: Optional[CpuModel] = None,
        nic: Optional[NicModel] = None,
        costs: Optional[NodeCosts] = None,
        transport: Optional[TransportConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        self.node_id = node_id
        self.name = name or f"node{node_id}"
        self.cpu = cpu or CpuModel()
        self.nic = nic or NicModel(node_id)
        self.costs = costs or NodeCosts()
        self.transport = (
            NodeTransport(node_id, transport) if transport is not None else None
        )
        self.process = Process(app, name=f"{self.name}/app")
        self.queue = EventQueue()
        self.activity = BUSY
        self.finished = False
        self.app_finish_time: Optional[SimTime] = None
        self.app_result: Any = None
        self.stats = NodeStats()
        self._blocked_recv: Optional[Recv] = None
        self._blocked_since: SimTime = 0
        # Workloads iterate a handful of distinct compute sizes and message
        # sizes; the cost models are pure, so their results are memoized
        # per node (cpu/costs may differ between nodes).
        self._compute_memo: dict[float, SimTime] = {}
        self._send_cost_memo: dict[int, SimTime] = {}
        self._recv_cost_memo: dict[int, SimTime] = {}
        #: Driver-installed callback invoked when an emission event fires.
        self.emit_hook: Optional[Callable[["SimulatedNode", Packet], None]] = None
        #: Driver-installed callback invoked when the node's activity flips
        #: between busy and idle mid-run (drives the piecewise host map).
        self.activity_hook: Optional[
            Callable[["SimulatedNode", SimTime, str], None]
        ] = None
        #: Driver-installed trace collector (None when the run is untraced;
        #: every hook site pays one ``is None`` test).
        self.collector: Optional["TraceCollector"] = None
        #: When checkpointing is enabled the driver sets this to a list and
        #: every value ever sent into the application generator (``None``
        #: compute wakes, received messages) is appended — the generator
        #: itself cannot be pickled, but replaying this input log into a
        #: fresh generator rebuilds its state exactly (see
        #: :mod:`repro.checkpoint.snapshot`).  ``None`` costs one test per
        #: application step.
        self.app_log: Optional[list[Any]] = None

    def _set_activity(self, now: SimTime, activity: str) -> None:
        if activity == self.activity:
            return
        self.activity = activity
        if self.activity_hook is not None:
            self.activity_hook(self, now, activity)

    # ------------------------------------------------------------------ #
    # Driver surface
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Schedule the application's first step at simulated time 0."""
        self.queue.schedule(0, tag="app-wake", payload=None)

    def peek_time(self) -> Optional[SimTime]:
        """Earliest pending local event time, or None when quiescent."""
        return self.queue.peek_time()

    def pop_and_handle(self) -> Optional[SimTime]:
        """Pop the earliest local event and process it.

        The dispatch lives on the queue
        (:meth:`repro.engine.events.EventQueue.handle_next`) so each
        backend runs it against its own heap and handlers.  Returns what
        :meth:`peek_time` returns afterwards.
        """
        return self.queue.handle_next(self)

    def _handle_timer(self, tag: str, payload: Any, now: SimTime) -> None:
        """Dispatch the rare event tags (transport timers)."""
        if tag == "delack":
            assert self.transport is not None
            ack = self.transport.flush_ack(payload, self.nic.pace, now)
            if ack is not None:
                self.queue.schedule(ack.send_time, tag="emit", payload=ack)
        elif tag == "rto":
            assert self.transport is not None
            dst, serial = payload
            for frame in self.transport.on_rto(dst, serial, self.nic.pace, now):
                self.queue.schedule(frame.send_time, tag="emit", payload=frame)
                if self.collector is not None:
                    self.collector.on_retransmit(self.node_id, frame, now)
            self._drain_transport_timers()
        else:
            raise RuntimeError(f"{self.name}: unknown event tag {tag!r}")

    def drain_window(self, end: SimTime) -> tuple[int, Optional[SimTime]]:
        """Pop and handle every local event before *end* in one pass.

        Semantically identical to ``while peek_time() < end:
        pop_and_handle()``, with the peek/pop pair fused into a single
        heap access per event — this is the inner loop of the driver's
        ground-truth drain stepper; like the single-event form it lives
        on the queue (:meth:`repro.engine.events.EventQueue.drain`) so
        each backend runs it against its own heap.  Returns ``(events
        handled, next event time)``, the second element being exactly
        what ``peek_time()`` would return afterwards.
        """
        return self.queue.drain(end, self)

    def deliver(self, packet: Packet, time: SimTime) -> None:
        """Schedule a fragment delivery at *time* (called by the driver)."""
        self.queue.schedule(time, tag="delivery", payload=packet)

    @property
    def blocked(self) -> bool:
        """True while the application waits on a Recv."""
        return self._blocked_recv is not None

    # ------------------------------------------------------------------ #
    # Application stepping
    # ------------------------------------------------------------------ #

    def _advance_app(self, now: SimTime, value: Any) -> None:
        if self.app_log is not None:
            self.app_log.append(value)
        try:
            request = self.process.step(value)
        except ProcessExit as exit_:
            self.finished = True
            self.app_finish_time = now
            self.app_result = exit_.result
            self._set_activity(now, IDLE)
            return
        self._interpret(request, now)

    def _interpret(self, request: Request, now: SimTime) -> None:
        # Ordered by frequency in the paper's workloads: compute phases and
        # send/recv exchanges dominate; explicit timed waits are rare.
        if isinstance(request, Compute):
            ops = request.ops
            delay = self._compute_memo.get(ops)
            if delay is None:
                delay = self._compute_memo[ops] = self.cpu.compute_time(ops)
            self._wake_after(now, delay, BUSY)
        elif isinstance(request, Send):
            self._do_send(request, now)
        elif isinstance(request, Recv):
            self._do_recv(request, now)
        elif isinstance(request, ComputeTime):
            self._wake_after(now, request.duration, BUSY)
        elif isinstance(request, Sleep):
            self._wake_after(now, request.duration, IDLE)
        else:
            raise TypeError(
                f"{self.name}: application yielded unsupported request {request!r}"
            )

    def _wake_after(self, now: SimTime, delay: SimTime, activity: str, value: Any = None) -> None:
        if activity != self.activity:
            self._set_activity(now, activity)
        self.queue.schedule(now + delay, tag="app-wake", payload=value)

    def _do_send(self, request: Send, now: SimTime) -> None:
        if self.transport is None:
            frames = self.nic.build_frames(
                request.dst, request.nbytes, request.tag, request.payload, now
            )
        else:
            built = self.nic.build_frames(
                request.dst, request.nbytes, request.tag, request.payload, now,
                paced=False,
            )
            frames = self.transport.admit(built, self.nic.pace, now)
            self._drain_transport_timers()
        if len(frames) == 1:
            frame = frames[0]
            self.queue.schedule(frame.send_time, tag="emit", payload=frame)
        else:
            # Large messages fragment into jumbo-frame bursts; schedule the
            # burst in bulk to avoid per-frame heap churn.
            self.queue.schedule_many(
                [(frame.send_time, frame) for frame in frames], tag="emit"
            )
        self.stats.messages_sent += 1
        nbytes = request.nbytes
        cost = self._send_cost_memo.get(nbytes)
        if cost is None:
            cost = self._send_cost_memo[nbytes] = self.costs.send_cost(nbytes)
        self._wake_after(now, cost, BUSY)

    def _drain_transport_timers(self) -> None:
        """Schedule any RTO timers the transport requested (recovery mode)."""
        assert self.transport is not None
        if self.transport.recovery is None:
            return
        for deadline, dst, serial in self.transport.take_timer_requests():
            self.queue.schedule(deadline, tag="rto", payload=(dst, serial))

    def _do_recv(self, request: Recv, now: SimTime) -> None:
        message = self.nic.match(request)
        if message is not None:
            self._accept(message, now)
            return
        self._blocked_recv = request
        self._blocked_since = now
        self._set_activity(now, IDLE)

    def _accept(self, message: Message, now: SimTime) -> None:
        self.stats.messages_received += 1
        if message.delay_error > 0:
            self.stats.straggler_messages += 1
            self.stats.straggler_delay += message.delay_error
        nbytes = message.nbytes
        cost = self._recv_cost_memo.get(nbytes)
        if cost is None:
            cost = self._recv_cost_memo[nbytes] = self.costs.recv_cost(nbytes)
        self._wake_after(now, cost, BUSY, value=message)

    def _on_fragment(self, now: SimTime, packet: Packet) -> None:
        self.stats.deliveries += 1
        if packet.kind == "ack":
            assert self.transport is not None, "ack received without transport"
            for frame in self.transport.on_ack(packet, self.nic.pace, now):
                self.queue.schedule(frame.send_time, tag="emit", payload=frame)
            self._drain_transport_timers()
            return
        if self.transport is not None:
            if self.transport.recovery is not None:
                accept, ack = self.transport.receive_data(packet, self.nic.pace, now)
                if ack is not None:
                    self.queue.schedule(ack.send_time, tag="emit", payload=ack)
                elif self.transport.arm_delack(packet.src):
                    self.queue.schedule(
                        now + self.transport.config.delack_timeout,
                        tag="delack",
                        payload=packet.src,
                    )
                if not accept:
                    # Duplicate suppressed before reassembly (its fragment
                    # counting assumes each frame arrives exactly once).
                    return
            else:
                ack = self.transport.ack_for(packet, self.nic.pace, now)
                if ack is not None:
                    self.queue.schedule(ack.send_time, tag="emit", payload=ack)
                elif self.transport.arm_delack(packet.src):
                    self.queue.schedule(
                        now + self.transport.config.delack_timeout,
                        tag="delack",
                        payload=packet.src,
                    )
        message = self.nic.receive_fragment(packet)
        if message is None or self._blocked_recv is None:
            return
        if not self._blocked_recv.matches(message.src, message.tag):
            return
        # Wake the blocked application: re-pull through the mailbox so FIFO
        # ordering is preserved if an earlier matching message also waits.
        pulled = self.nic.match(self._blocked_recv)
        assert pulled is not None
        self._blocked_recv = None
        self.stats.blocked_time += now - self._blocked_since
        self._accept(pulled, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else ("blocked" if self.blocked else self.activity)
        return f"SimulatedNode({self.name}, {state})"
