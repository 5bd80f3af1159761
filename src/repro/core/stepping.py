"""How the nodes of one quantum window are stepped.

:meth:`repro.core.cluster.ClusterSimulator.run` states the quantum loop
once — horizon, fast-forward, window accounting, policy step, result —
and delegates the single thing that varies to a :class:`Stepper` chosen at
its top:

* :class:`ScalarStepper` — the executable specification: every node's
  clock is reset at every window and events interleave through a
  lazy-invalidation heap in host-time order.
* :class:`VectorStepper` — clocks are materialized lazily from per-window
  rate arrays (event-free nodes never get one: the subset fast-forward),
  and ground-truth windows (``Q <= T``) drain node by node instead of
  interleaving.  A shard worker drives the same class over its slice.
* ``repro.shard.driver``'s remote stepper — the window is stepped by
  forked workers, one pipe round trip each.

Every stepper yields bit-identical results; they differ only in speed.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Any, Iterable, Optional, Protocol, Sequence

import numpy as np

from repro.engine.units import SimTime
from repro.network.packet import Packet
from repro.node.hostmodel import BUSY
from repro.node.node import SimulatedNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cluster import ClusterSimulator

#: One frame emitted in a drain window: ``(sender host time, node id,
#: emission order, packet)`` — sorting the batch reproduces the order an
#: interleaved window would have submitted it in.
Emission = tuple[float, int, int, Packet]

#: Terminal per-node facts: ``(stats, app result, app finish time,
#: transport stats or None)``.
NodeReport = tuple[Any, Any, Optional[SimTime], Any]

#: The ``(busy, idle)`` clock-rate arrays of one window.
Rates = tuple[np.ndarray, np.ndarray]


class NodeClock:
    """The piecewise-affine simulated-time/host-time map of one node.

    Within a quantum the map is a sequence of segments, each with a rate in
    simulated nanoseconds per host second.  A new segment starts whenever
    the node's activity flips (application blocks or wakes); the stepper
    resets the map when the node first matters in a window.
    """

    __slots__ = ("seg_sim", "seg_host", "seg_rate", "busy_rate", "idle_rate")

    def __init__(self) -> None:
        self.seg_sim: SimTime = 0
        self.seg_host: float = 0.0
        self.seg_rate: float = 1.0
        self.busy_rate: float = 1.0
        self.idle_rate: float = 1.0

    def reset(
        self,
        sim_start: SimTime,
        host_start: float,
        busy_rate: float,
        idle_rate: float,
        activity: str,
    ) -> None:
        """Anchor the map at a window start with this window's rates
        (``1e9 / slowdown``, divided by the caller)."""
        self.busy_rate = busy_rate
        self.idle_rate = idle_rate
        self.seg_sim = sim_start
        self.seg_host = host_start
        self.seg_rate = busy_rate if activity == BUSY else idle_rate

    def transition(self, sim_time: SimTime, activity: str) -> None:
        """Start a new segment at *sim_time* with the rate for *activity*."""
        self.seg_host = self.host_of(sim_time)
        self.seg_sim = sim_time
        self.seg_rate = self.busy_rate if activity == BUSY else self.idle_rate

    def host_of(self, sim_time: SimTime) -> float:
        """Host instant at which this node reaches *sim_time* (>= segment)."""
        return self.seg_host + (sim_time - self.seg_sim) / self.seg_rate

    def position_at(self, host_time: float, window: tuple[SimTime, SimTime]) -> SimTime:
        """Simulated position at *host_time*, clamped to the quantum."""
        start, end = window
        position = self.seg_sim + round(self.seg_rate * (host_time - self.seg_host))
        return min(max(position, start), end)


class Stepper(Protocol):
    """What the quantum loop asks of whoever steps the nodes."""

    #: Whether jitter is drawn through the simulator's shared feed (one
    #: row per quantum) instead of per node from each host model.
    batched: bool

    def next_event_time(self) -> Optional[SimTime]:
        """Earliest pending local event over all nodes."""

    def open(self, start: SimTime, end: SimTime, host: float) -> Optional[Rates]:
        """Draw the window's slowdowns.  Returns the rate arrays the loop
        costs unstepped nodes with, or None when every node is stepped."""

    def deliver(self, frames: Iterable[tuple[Packet, SimTime]]) -> None:
        """Hand released held frames ``(packet, deliver time)`` to their
        destination nodes."""

    def step(self, end: SimTime) -> tuple[int, Sequence[Emission], Sequence[int], float]:
        """Run every node to the barrier.  Returns ``(events handled,
        held-frame batch still to submit, ids of the nodes given a clock,
        max host finish time over those nodes)``."""

    def touch(self, node_id: int) -> None:
        """Make *node_id*'s clock valid for the open window."""

    def settle(self) -> None:
        """Make every clock valid (barrier audits read all of them)."""

    def quiescent(self) -> bool:
        """No node has anything left to do."""

    def blocked_names(self) -> list[str]:
        """Names of the nodes whose application waits on a receive."""

    def final_facts(self, start: SimTime, end: SimTime) -> tuple[SimTime, float]:
        """For the run's last window: ``(last application finish clamped
        into the window, max host time at which a node reached its own
        finish)``."""

    def node_reports(self) -> list[NodeReport]:
        """Terminal facts of every node, in node order."""


def _earliest(times: Iterable[Optional[SimTime]]) -> Optional[SimTime]:
    best = None
    for t in times:
        if t is not None and (best is None or t < best):
            best = t
    return best


def nodes_quiescent(nodes: Iterable[SimulatedNode]) -> bool:
    for node in nodes:
        if not node.finished or node.peek_time() is not None:
            return False
        transport = node.transport
        if transport is not None and (
            transport.queued_frames() > 0 or transport.unacked_frames() > 0
        ):
            return False
    return True


class _LocalStepper:
    """Per-node facts of the nodes living in this process — all of them,
    or the slice a shard worker owns."""

    batched = False

    def __init__(self, sim: "ClusterSimulator", span: Optional[range] = None) -> None:
        self.sim = sim
        self.span = range(len(sim.nodes)) if span is None else span
        self._nodes = [sim.nodes[node_id] for node_id in self.span]

    def touch(self, node_id: int) -> None:
        pass

    def settle(self) -> None:
        for node_id in self.span:
            self.touch(node_id)

    def quiescent(self) -> bool:
        return nodes_quiescent(self._nodes)

    def blocked_names(self) -> list[str]:
        return [node.name for node in self._nodes if node.blocked]

    def final_facts(self, start: SimTime, end: SimTime) -> tuple[SimTime, float]:
        nodes = self.sim.nodes
        clocks = self.sim._clocks
        last = start
        finish_host = -math.inf
        for node_id in self.span:
            self.touch(node_id)
            finished_at = nodes[node_id].app_finish_time
            at = min(max(finished_at or start, start), end)
            if finished_at is not None and at > last:
                last = at
            finish = clocks[node_id].host_of(at)
            if finish > finish_host:
                finish_host = finish
        return last, finish_host

    def node_reports(self) -> list[NodeReport]:
        return [
            (
                node.stats,
                node.app_result,
                node.app_finish_time,
                node.transport.stats if node.transport is not None else None,
            )
            for node in self._nodes
        ]


class ScalarStepper(_LocalStepper):
    """The reference: reset every clock, interleave events by host time."""

    def next_event_time(self) -> Optional[SimTime]:
        return _earliest([node.peek_time() for node in self._nodes])

    def open(self, start: SimTime, end: SimTime, host: float) -> None:
        sim = self.sim
        injector = sim.injector
        for node, clock, model in zip(sim.nodes, sim._clocks, sim.host_models):
            busy_slowdown, idle_slowdown = model.slowdown_pair(start)
            if injector is not None:
                stall = injector.stall_factor(node.node_id, start, end)
                if stall != 1.0:
                    busy_slowdown *= stall
                    idle_slowdown *= stall
            clock.reset(
                start, host, 1e9 / busy_slowdown, 1e9 / idle_slowdown, node.activity
            )

    def deliver(self, frames: Iterable[tuple[Packet, SimTime]]) -> None:
        nodes = self.sim.nodes
        for packet, deliver_time in frames:
            nodes[packet.dst].deliver(packet, deliver_time)

    def step(self, end: SimTime) -> tuple[int, Sequence[Emission], Sequence[int], float]:
        """Interleave node events in host-time order until the barrier.

        A lazy-invalidation heap orders the nodes' next events by host time
        (ties by node id, matching a linear scan).  A node's entry is stale
        whenever its queue head or its clock may have changed — after it
        handles an event (which may also flip its activity), or after a
        delivery lands in its queue — tracked with per-node sequence
        numbers bumped on every push.
        """
        nodes = self.sim.nodes
        clocks = self.sim._clocks
        sequences = [0] * len(nodes)
        heap: list[tuple[float, int, int]] = []
        heappush = heapq.heappush
        heappop = heapq.heappop

        def push(node_id: int, event_time: Optional[SimTime]) -> None:
            sequences[node_id] += 1
            if event_time is None or event_time >= end:
                return
            key = clocks[node_id].host_of(event_time)
            heappush(heap, (key, node_id, sequences[node_id]))

        for node_id, node in enumerate(nodes):
            push(node_id, node.peek_time())
        dirty = self.sim._dirty
        handled = 0
        while heap:
            _, node_id, entry_seq = heappop(heap)
            if entry_seq != sequences[node_id]:
                continue
            dirty.clear()
            push(node_id, nodes[node_id].pop_and_handle())
            handled += 1
            for touched in dirty:
                if touched != node_id:
                    push(touched, nodes[touched].peek_time())
        dirty.clear()
        return handled, (), self.span, max(clock.host_of(end) for clock in clocks)


class VectorStepper(_LocalStepper):
    """Lazy clocks over per-window rate arrays; drain when ``Q <= T``.

    A node's clock is reset from this window's rates the first time the
    window actually needs it (:meth:`touch`) — value-identical to the
    scalar reset at window start, because an untouched node cannot have
    flipped activity (flips only happen while handling events, which
    touches first).  Event-free nodes never pay for a clock; the loop
    costs them arithmetically from the same rate arrays.
    """

    batched = True

    def __init__(self, sim: "ClusterSimulator", span: Optional[range] = None) -> None:
        super().__init__(sim, span)
        #: Cached bound methods: next-event times are re-peeked after
        #: every interleaved window, and the attribute chain is measurable.
        self._peeks = [node.queue.peek_time for node in sim.nodes]
        #: Each node's next event time, maintained incrementally: a queue
        #: only changes when its node is stepped or a frame is delivered.
        self.times: list[Optional[SimTime]] = [peek() for peek in self._peeks]
        # The drain reorders only *unobserved* work (packet creation order,
        # hence packet ids, differs from the interleaved path), so traced
        # runs keep interleaving, and faulted runs do too so the injector
        # consumes its verdict stream at the same call sites.
        self._drain_ok = sim.collector is None and sim.injector is None
        #: The conservative bound T of the network: ``Q <= T`` guarantees
        #: every in-window emission is due at or beyond the barrier.
        self._min_latency = sim.controller.latency_model.min_latency()
        self._start: SimTime = 0
        self._host = 0.0
        self._busy_rates: list[float] = []
        self._idle_rates: list[float] = []
        self._epoch = 0
        self._epochs = [0] * len(sim.nodes)
        self._touched: list[int] = []

    def next_event_time(self) -> Optional[SimTime]:
        return _earliest(self.times)

    def open(self, start: SimTime, end: SimTime, host: float) -> Rates:
        rates = self.sim._window_rates(start, end)
        self.load(start, host, *rates)
        return rates

    def load(
        self, start: SimTime, host: float, busy_rates: np.ndarray, idle_rates: np.ndarray
    ) -> None:
        """Begin a window whose rate arrays are already drawn."""
        self._start = start
        self._host = host
        # Plain-float copies for scalar access: one bulk conversion beats
        # N numpy-scalar reads when most nodes are active.
        self._busy_rates = busy_rates.tolist()
        self._idle_rates = idle_rates.tolist()
        self._epoch += 1
        self._touched.clear()

    def touch(self, node_id: int) -> None:
        if self._epochs[node_id] == self._epoch:
            return
        self._epochs[node_id] = self._epoch
        self._touched.append(node_id)
        self.sim._clocks[node_id].reset(
            self._start,
            self._host,
            self._busy_rates[node_id],
            self._idle_rates[node_id],
            self.sim.nodes[node_id].activity,
        )

    def deliver(self, frames: Iterable[tuple[Packet, SimTime]]) -> None:
        nodes = self.sim.nodes
        times = self.times
        for packet, deliver_time in frames:
            node = nodes[packet.dst]
            node.deliver(packet, deliver_time)
            times[packet.dst] = node.peek_time()

    def step(self, end: SimTime) -> tuple[int, Sequence[Emission], Sequence[int], float]:
        emissions: Sequence[Emission] = ()
        if self._drain_ok and end - self._start <= self._min_latency:
            handled, emissions = self.drain(end)
        else:
            handled = self._interleave(end)
            # Touched-but-unstepped nodes (delivery-position queries) have
            # untouched queues, so re-peeking them is merely redundant.
            times = self.times
            peeks = self._peeks
            for node_id in self._touched:
                times[node_id] = peeks[node_id]()
        return handled, emissions, *self.stepped(end)

    def stepped(self, end: SimTime) -> tuple[list[int], float]:
        """Ids of the nodes touched this window (a copy: later touches
        must not leak into it) and their max host finish time."""
        clocks = self.sim._clocks
        best = -math.inf
        for node_id in self._touched:
            clock = clocks[node_id]
            finish = clock.seg_host + (end - clock.seg_sim) / clock.seg_rate
            if finish > best:
                best = finish
        return list(self._touched), best

    def drain(self, end: SimTime) -> tuple[int, list[Emission]]:
        """Step a ground-truth window by draining each active node in turn.

        Eligible when the quantum is no longer than the network's minimum
        latency (``Q <= T``, the paper's conservative bound): every frame
        emitted inside the window is then due at or beyond the barrier, so
        the controller holds it and nodes cannot interact mid-window.  With
        no cross-node coupling, host-time interleaving cannot change *what*
        happens — only the order frames reach the controller, which decides
        the hold heap's tie-breaking sequence numbers.  So each active node
        drains its window events sequentially (no interleave heap, no
        per-event host keys) and emissions are collected with their sender
        host times (see ``ClusterSimulator._on_emit``); sorted, the batch
        is in ``(host time, node id, per-node order)`` — exactly the order
        the interleaved heap pops emit events.  The unique order field
        makes that sort total without ever comparing packets.

        Returns ``(events handled, emissions)`` and leaves the accounting
        to the caller: a shard worker runs this too, and what a worker
        counts is lost.
        """
        sim = self.sim
        nodes = sim.nodes
        times = self.times
        pending: list[Emission] = []
        sim._drain_pending = pending
        handled = 0
        for node_id in self.span:
            event_time = times[node_id]
            if event_time is None or event_time >= end:
                continue
            self.touch(node_id)
            # Nothing is delivered mid-window, so the drain's final head
            # time is exactly the fresh peek.
            count, times[node_id] = nodes[node_id].drain_window(end)
            handled += count
        sim._drain_pending = None
        return handled, pending

    def _interleave(self, end: SimTime) -> int:
        """Interleave node events in host-time order until the barrier.

        Same lazy-invalidation heap as :meth:`ScalarStepper.step` (same
        ``(host_key, node_id, seq)`` total order, hence the same event
        order), with two additions: nodes are touched on first use
        (event-free nodes never enter the heap at all), and after handling
        an event the node keeps draining *directly* while its next key
        still beats the heap top — the heap top's key is a lower bound on
        every live entry, so winning the comparison proves the node would
        be popped next anyway.
        """
        nodes = self.sim.nodes
        clocks = self.sim._clocks
        touch = self.touch
        sequences = [0] * len(nodes)
        heap: list[tuple[float, int, int]] = []
        for node_id, event_time in enumerate(self.times):
            if event_time is not None and event_time < end:
                touch(node_id)
                heap.append((clocks[node_id].host_of(event_time), node_id, 0))
        heapq.heapify(heap)
        heappush = heapq.heappush
        heappop = heapq.heappop
        dirty = self.sim._dirty
        handled = 0
        while heap:
            _, node_id, entry_seq = heappop(heap)
            if entry_seq != sequences[node_id]:
                continue
            clock = clocks[node_id]
            handle = nodes[node_id].pop_and_handle
            while True:
                dirty.clear()
                event_time = handle()
                handled += 1
                for touched in dirty:
                    if touched == node_id:
                        continue
                    sequences[touched] += 1
                    t = nodes[touched].peek_time()
                    if t is not None and t < end:
                        touch(touched)
                        heappush(
                            heap,
                            (clocks[touched].host_of(t), touched, sequences[touched]),
                        )
                if event_time is None or event_time >= end:
                    break
                if not heap:
                    continue
                key = clock.host_of(event_time)
                top = heap[0]
                if key < top[0] or (key == top[0] and node_id < top[1]):
                    continue
                sequences[node_id] += 1
                heappush(heap, (key, node_id, sequences[node_id]))
                break
        dirty.clear()
        return handled
