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
  interleaving.  Every shard of a sharded run drives the same class over
  its slice.
* ``repro.shard.driver``'s shard stepper — the parent steps slice 0 with
  a :class:`VectorStepper` while forked workers step the other slices.

Both local steppers also own the per-node arithmetic the loop needs
over their nodes: the jitter draws (a :class:`_JitterFeed` over their
host models), the host finish of the nodes a window did not step, and a
fast-forward span's per-quantum maximum slowdown.  Each is a float
``max`` over nodes, so shards combine their partial results exactly.

Every stepper yields bit-identical results; they differ only in speed.
"""

from __future__ import annotations

import heapq
import math
from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    Iterator,
    Optional,
    Protocol,
    Sequence,
)

import numpy as np

from repro.engine.units import SimTime
from repro.network.packet import Packet
from repro.node.hostmodel import BUSY, HostExecutionModel
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

    def next_event_time(self) -> Optional[SimTime]:
        """Earliest pending local event over all nodes."""

    def open(self, start: SimTime, end: SimTime, host: float) -> None:
        """Begin the window: draw its slowdowns."""

    def deliver(self, frames: Iterable[tuple[Packet, SimTime]]) -> None:
        """Hand released held frames ``(packet, deliver time)`` to their
        destination nodes."""

    def step(self, end: SimTime) -> tuple[int, Sequence[Emission], int, float]:
        """Run every node to the barrier.  Returns ``(events handled,
        held-frame batch still to submit, number of nodes given a clock,
        max host finish time over those nodes)``."""

    def idle_finish(self, end: SimTime) -> float:
        """Max host finish time over the nodes the window did *not* step
        (``-inf`` when it stepped every node).  Such a node crossed the
        window on one segment, so its finish is arithmetic."""

    def max_slowdowns(self, start: SimTime, lengths: np.ndarray) -> np.ndarray:
        """Per-quantum maximum slowdown over all nodes across a
        packet-free span of quanta with these *lengths*, from *start*.
        Consumes each node's jitter draws for the span."""

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


class _JitterFeed:
    """Row-major prefetch of per-quantum jitter draws across some nodes.

    The vectorized stepper consumes one jitter draw per node per quantum —
    exactly like the scalar path — but wants them as a ``(n,)`` row per
    event window.  The feed pulls blocks of ``_BLOCK`` rows from each
    node's private stream via
    :meth:`~repro.node.hostmodel.HostExecutionModel.take_jitter`, so draw
    *i* of a node is the same number the scalar path would have drawn for
    that node's *i*-th quantum: batching changes only the access pattern,
    never the values.  A fast-forward span takes its draws one node at a
    time (:meth:`node_draws`), so the feed holds at most ``_BLOCK`` x n
    draws and a span never builds an ``(n, count)`` matrix.  Each stepper
    keeps one over the host models of its own nodes.
    """

    _BLOCK = 256

    __slots__ = ("_models", "_matrix", "_cursor", "_ones_row")

    def __init__(self, models: list[HostExecutionModel]) -> None:
        self._models = models
        self._matrix = np.empty((0, len(models)))
        self._cursor = 0
        # With zero jitter sigma the scalar path consumes no draws; the
        # feed must not either.
        self._ones_row = (
            np.ones(len(models))
            if models[0].params.jitter_sigma == 0
            else None
        )

    def row(self) -> np.ndarray:
        """The next per-node draw for one quantum, shape ``(n,)``."""
        ones = self._ones_row
        if ones is not None:
            return ones
        if self._cursor >= len(self._matrix):
            self._matrix = self._fetch(self._BLOCK)
            self._cursor = 0
        row = self._matrix[self._cursor]
        self._cursor += 1
        return row

    def node_draws(self, count: int) -> Iterator[np.ndarray]:
        """Each node's next *count* draws, first node first, one array at
        a time.

        A node's draws are the feed's prefetched head rows first, then its
        own stream — the same numbers :meth:`row` would have produced
        quantum by quantum.  Taking the first array claims the head rows
        for every node, so a caller takes them all.
        """
        models = self._models
        if self._ones_row is not None:
            ones = np.ones(count)
            for _ in models:
                yield ones
            return
        head = self._matrix[self._cursor : self._cursor + count]
        self._cursor += len(head)
        rest = count - len(head)
        for index, model in enumerate(models):
            if not rest:
                yield head[:, index]
            elif not len(head):
                yield model.take_jitter(rest)
            else:
                yield np.concatenate((head[:, index], model.take_jitter(rest)))

    def pending(self) -> np.ndarray:
        """The prefetched rows not yet consumed, shape ``(rows, n)``."""
        return self._matrix[self._cursor :]

    def _fetch(self, rows: int) -> np.ndarray:
        matrix = np.empty((rows, len(self._models)))
        for index, model in enumerate(self._models):
            matrix[:, index] = model.take_jitter(rows)
        return matrix


class _LocalStepper:
    """Per-node facts of the nodes living in this process — all of them,
    or the slice one shard owns."""

    def __init__(self, sim: "ClusterSimulator", span: Optional[range] = None) -> None:
        self.sim = sim
        self.span = range(len(sim.nodes)) if span is None else span
        self._nodes = [sim.nodes[node_id] for node_id in self.span]
        self._models = [sim.host_models[node_id] for node_id in self.span]
        #: The jitter draws of this stepper's nodes, in stream order.
        self.feed = _JitterFeed(self._models)
        params = sim.config.host_params
        self._node_factors = np.array([model.node_factor for model in self._models])
        self._busy_bases = np.full(len(self._models), params.busy_slowdown)
        self._idle_bases = np.full(len(self._models), params.idle_slowdown)

    def _busy(self) -> np.ndarray | list[bool]:
        """Whether each of this stepper's nodes is busy, in span order."""
        return [node.activity == BUSY for node in self._nodes]

    def max_slowdowns(self, start: SimTime, lengths: np.ndarray) -> np.ndarray:
        """The span's per-quantum maximum slowdown over this stepper's
        nodes, reduced node by node over each node's own draws
        (:meth:`_JitterFeed.node_draws`), so a span of *count* quanta holds
        O(count) floats, not O(n x count).

        No events means no activity transitions, so each node crosses
        every quantum of the span at one rate.  Only each node's slowdown
        vector varies: its host model's formula (runs with a sampling
        schedule or host stalls), or one ``(base * node_factor) * jitter``
        product over a per-node coefficient.  The per-element float
        operations are the same either way.
        """
        sim = self.sim
        draws = self.feed.node_draws(len(lengths))
        injector = sim.injector
        stalls = injector if injector is not None and injector.plan.stalls else None
        if not sim._sampling and stalls is None:
            coeff = (
                np.where(self._busy(), self._busy_bases, self._idle_bases)
                * self._node_factors
            )
            # A fresh product per node, so the in-place maximum never
            # writes into a node's draws; each is freed before the next
            # node draws.
            max_slow = next(draws) * coeff[0]
            for index in range(1, len(coeff)):
                np.maximum(max_slow, next(draws) * coeff[index], out=max_slow)
            return max_slow
        starts = start + np.concatenate(([0], np.cumsum(lengths[:-1])))
        ends = starts + lengths
        result: Optional[np.ndarray] = None
        for node, model, jitter in zip(self._nodes, self._models, draws):
            slow = model.slowdowns_from(jitter, node.activity, starts)
            if stalls is not None:
                factors = stalls.stall_factors(node.node_id, starts, ends)
                if factors is not None:
                    slow = slow * factors
            if result is None:
                result = slow
            else:
                np.maximum(result, slow, out=result)
        assert result is not None
        return result

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

    def idle_finish(self, end: SimTime) -> float:
        return -math.inf  # every window steps every node

    def step(self, end: SimTime) -> tuple[int, Sequence[Emission], int, float]:
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
        return handled, (), len(nodes), max(clock.host_of(end) for clock in clocks)


class VectorStepper(_LocalStepper):
    """Lazy clocks over per-window rate arrays; drain when ``Q <= T``.

    A node's clock is reset from this window's rates the first time the
    window actually needs it (:meth:`touch`) — value-identical to the
    scalar reset at window start, because an untouched node cannot have
    flipped activity (flips only happen while handling events, which
    touches first).  Event-free nodes never pay for a clock;
    :meth:`idle_finish` costs them arithmetically from the same rate
    arrays.  The rate arrays, like the feed, cover this stepper's span
    only; node ids index them from ``span.start``.
    """

    def __init__(self, sim: "ClusterSimulator", span: Optional[range] = None) -> None:
        super().__init__(sim, span)
        self._lo = self.span.start
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
        self._rates: Rates = (np.empty(0), np.empty(0))
        self._busy_rates: list[float] = []
        self._idle_rates: list[float] = []
        self._epoch = 0
        self._epochs = [0] * len(sim.nodes)
        self._touched: list[int] = []
        #: How many of ``_touched`` the window's step gave a clock (later
        #: touches — a barrier audit's settle — are not stepping).
        self._stepped = 0

    def _busy(self) -> np.ndarray:
        # The simulator keeps every node's activity current in this mask.
        return self.sim._busy_mask[self._lo : self.span.stop]

    def next_event_time(self) -> Optional[SimTime]:
        times = self.times
        if len(self.span) < len(times):
            times = times[self._lo : self.span.stop]
        return _earliest(times)

    def open(self, start: SimTime, end: SimTime, host: float) -> None:
        self._start = start
        self._host = host
        self._rates = self._window_rates(start, end)
        # Plain-float copies for scalar access: one bulk conversion beats
        # n numpy-scalar reads when most nodes are active.
        self._busy_rates = self._rates[0].tolist()
        self._idle_rates = self._rates[1].tolist()
        self._epoch += 1
        self._touched.clear()

    def _window_rates(self, start: SimTime, end: SimTime) -> Rates:
        """Draw and combine this stepper's slowdowns for one quantum at once.

        Computes exactly what one ``slowdown_pair`` call per node (plus the
        stall scaling) and the divisions in ``NodeClock.reset``'s arguments
        would, but elementwise over arrays: same jitter stream positions,
        same operation order per element, bit-identical doubles.
        """
        sim = self.sim
        tmp = self.feed.row() * self._node_factors
        if sim._sampling:
            bases = np.empty(len(self._models))
            for index, model in enumerate(self._models):
                bases[index] = model.busy_base_at(start)
            busy = bases * tmp
        else:
            busy = self._busy_bases * tmp
        idle = self._idle_bases * tmp
        injector = sim.injector
        if injector is not None and injector.plan.stalls:
            for index, node_id in enumerate(self.span):
                stall = injector.stall_factor(node_id, start, end)
                if stall != 1.0:
                    busy[index] *= stall
                    idle[index] *= stall
        return 1e9 / busy, 1e9 / idle

    def touch(self, node_id: int) -> None:
        if self._epochs[node_id] == self._epoch:
            return
        self._epochs[node_id] = self._epoch
        self._touched.append(node_id)
        index = node_id - self._lo
        self.sim._clocks[node_id].reset(
            self._start,
            self._host,
            self._busy_rates[index],
            self._idle_rates[index],
            self.sim.nodes[node_id].activity,
        )

    def deliver(self, frames: Iterable[tuple[Packet, SimTime]]) -> None:
        nodes = self.sim.nodes
        times = self.times
        for packet, deliver_time in frames:
            node = nodes[packet.dst]
            node.deliver(packet, deliver_time)
            times[packet.dst] = node.peek_time()

    def step(self, end: SimTime) -> tuple[int, Sequence[Emission], int, float]:
        emissions: Sequence[Emission] = ()
        if self._drain_ok and end - self._start <= self._min_latency:
            handled, emissions = self.drain(end)
        else:
            if len(self.span) < len(self.times):
                # Interleaving walks every node; a slice stepper would step
                # nodes that live in other processes.
                raise RuntimeError(
                    "a shard's stepper can only drain: the window breaks "
                    "the Q <= min-latency contract or the run is traced "
                    "or faulted"
                )
            handled = self._interleave(end)
            # Touched-but-unstepped nodes (delivery-position queries) have
            # untouched queues, so re-peeking them is merely redundant.
            times = self.times
            peeks = self._peeks
            for node_id in self._touched:
                times[node_id] = peeks[node_id]()
        clocks = self.sim._clocks
        best = -math.inf
        for node_id in self._touched:
            clock = clocks[node_id]
            finish = clock.seg_host + (end - clock.seg_sim) / clock.seg_rate
            if finish > best:
                best = finish
        self._stepped = len(self._touched)
        return handled, emissions, self._stepped, best

    def idle_finish(self, end: SimTime) -> float:
        """Every unstepped node crossed the window on a single segment; its
        finish is computed over the rate arrays with the same per-element
        operations ``NodeClock.reset`` + ``host_of`` would perform
        (``host + span / rate`` — never algebraically rearranged, so the
        floats match bit-for-bit)."""
        stepped = self._touched[: self._stepped]
        if len(stepped) == len(self.span):
            return -math.inf
        finishes = self._host + (end - self._start) / np.where(self._busy(), *self._rates)
        if stepped:
            if self._lo:
                stepped = [node_id - self._lo for node_id in stepped]
            finishes[stepped] = -np.inf
        return float(finishes.max())

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
        counts is lost.  A shard drains its own slice; the parent merges
        the slices' batches before sorting.
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
