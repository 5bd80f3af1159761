"""Event objects and the cancellable event queue.

The queue is a binary heap with *lazy deletion*: cancelling an event marks it
dead and the mark is honoured when the entry surfaces.  This is the standard
technique for discrete-event kernels where events are frequently rescheduled
(here: packet deliveries that a straggler decision moves, and application
wake-ups that an early message delivery supersedes).

Ordering is total and deterministic: events at equal times are returned in
insertion order via a monotone sequence number, so two runs with the same
seed replay identically.
"""

from __future__ import annotations

import heapq
from sys import intern as _intern
from typing import Any, Callable, Iterable, Optional

from repro.engine.units import SimTime


class Event:
    """A scheduled occurrence.

    Attributes:
        time: simulated time at which the event fires.
        action: zero-argument callable run when the event fires.  May be
            ``None`` for marker events whose firing is interpreted by the
            owner of the queue.
        tag: free-form label used by owners to classify events (e.g.
            ``"delivery"``, ``"compute-done"``); purely informational.
        payload: arbitrary data travelling with the event.
    """

    __slots__ = ("time", "action", "tag", "payload", "_seq", "_alive")

    def __init__(
        self,
        time: SimTime,
        action: Optional[Callable[[], None]] = None,
        tag: str = "",
        payload: Any = None,
    ) -> None:
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        self.time = time
        self.action = action
        # Tags come from a handful of literals ("emit", "delivery", ...);
        # interning makes the dispatch comparisons in hot handlers pointer
        # comparisons instead of character scans.
        self.tag = _intern(tag)
        self.payload = payload
        self._seq = -1
        self._alive = True

    @property
    def alive(self) -> bool:
        """Whether the event is still scheduled (not cancelled, not fired)."""
        return self._alive

    def cancel(self) -> None:
        """Mark the event dead; the queue will skip it when it surfaces."""
        self._alive = False

    def fire(self) -> None:
        """Run the event's action, if any, and mark it consumed."""
        self._alive = False
        if self.action is not None:
            self.action()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "dead"
        return f"Event(t={self.time}, tag={self.tag!r}, {state})"


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    Events pop in ``(time, insertion order)`` order.  Cancelled events are
    skipped transparently.  ``len()`` reports live events only.
    """

    #: Compaction thresholds: when more than half the heap is dead entries
    #: (and the absolute count is non-trivial), rebuild the heap in one
    #: O(n) pass.  Without this, cancellation-heavy workloads accumulate
    #: dead entries that every subsequent push/pop must sift around.
    _COMPACT_MIN_DEAD = 16

    __slots__ = ("_heap", "_next_seq", "_live", "_dead")

    def __init__(self) -> None:
        self._heap: list[tuple[SimTime, int, Event]] = []
        self._next_seq = 0
        self._live = 0
        self._dead = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, event: Event) -> Event:
        """Schedule *event*; returns it for chaining."""
        if not event._alive:
            raise ValueError("cannot schedule a cancelled event")
        if event._seq >= 0:
            raise ValueError("event is already scheduled")
        event._seq = self._next_seq
        self._next_seq += 1
        heapq.heappush(self._heap, (event.time, event._seq, event))
        self._live += 1
        return event

    def schedule(
        self,
        time: SimTime,
        action: Optional[Callable[[], None]] = None,
        tag: str = "",
        payload: Any = None,
    ) -> Event:
        """Create and push an event in one step.

        Equivalent to ``push(Event(...))`` but skips the re-schedule
        guards, which a freshly constructed event trivially satisfies —
        this is the hottest allocation site of a run.  The constructor is
        bypassed too: its tag interning is redundant here (every caller
        passes a literal, which CPython interns at compile time).
        """
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        event = Event.__new__(Event)
        event.time = time
        event.action = action
        event.tag = tag
        event.payload = payload
        event._alive = True
        seq = self._next_seq
        self._next_seq = seq + 1
        event._seq = seq
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def push_many(self, events: Iterable[Event]) -> None:
        """Schedule a batch of events with at most one heap restore.

        Pop order is identical to pushing the events one by one (the heap
        orders entries by their ``(time, seq)`` tuples regardless of how
        they entered).  Small batches relative to the heap are pushed
        individually; large ones are appended and re-heapified in one
        O(n) pass, avoiding per-event sift churn for frame bursts.
        """
        batch = events if isinstance(events, list) else list(events)
        if len(batch) * 8 < len(self._heap):
            for event in batch:
                self.push(event)
            return
        heap = self._heap
        seq = self._next_seq
        for event in batch:
            if not event._alive:
                raise ValueError("cannot schedule a cancelled event")
            if event._seq >= 0:
                raise ValueError("event is already scheduled")
            event._seq = seq
            heap.append((event.time, seq, event))
            seq += 1
        self._next_seq = seq
        self._live += len(batch)
        heapq.heapify(heap)

    def schedule_many(
        self, items: Iterable[tuple[SimTime, Any]], tag: str = ""
    ) -> None:
        """Create and push one *tag* event per ``(time, payload)`` item."""
        new = Event.__new__
        batch = []
        for time, payload in items:
            if time < 0:
                raise ValueError(f"event time must be non-negative, got {time}")
            event = new(Event)
            event.time = time
            event.action = None
            event.tag = tag
            event.payload = payload
            event._alive = True
            event._seq = -1
            batch.append(event)
        self.push_many(batch)

    def cancel(self, event: Event) -> None:
        """Cancel *event* if it is still live (idempotent)."""
        if event._alive:
            event.cancel()
            self._live -= 1
            self._dead += 1
            if (
                self._dead >= self._COMPACT_MIN_DEAD
                and self._dead * 2 > len(self._heap)
            ):
                self._compact()

    def _compact(self) -> None:
        """Drop every dead entry and restore the heap in one pass."""
        self._heap = [entry for entry in self._heap if entry[2]._alive]
        heapq.heapify(self._heap)
        self._dead = 0

    @property
    def dead_entries(self) -> int:
        """Cancelled entries still occupying heap slots (visibility for tests)."""
        return self._dead

    def _drop_dead(self) -> None:
        while self._heap and not self._heap[0][2]._alive:
            heapq.heappop(self._heap)
            self._dead -= 1

    def peek(self) -> Optional[Event]:
        """Return the next live event without removing it, or ``None``."""
        self._drop_dead()
        return self._heap[0][2] if self._heap else None

    def peek_time(self) -> Optional[SimTime]:
        """Return the time of the next live event, or ``None`` if empty.

        Inlines the live-head fast path: the driver peeks every node
        between events, and the head is almost always alive.
        """
        heap = self._heap
        if heap:
            entry = heap[0]
            if entry[2]._alive:
                return entry[0]
            self._drop_dead()
            if self._heap:
                return self._heap[0][0]
        return None

    def pop(self) -> Event:
        """Remove and return the next live event.

        Raises:
            IndexError: if the queue is empty.
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            entry = heappop(heap)
            event = entry[2]
            if event._alive:
                self._live -= 1
                return event
            self._dead -= 1
        raise IndexError("pop from empty EventQueue")

    def handle_next(self, node: Any) -> Optional[SimTime]:
        """Pop the earliest live event and dispatch it on *node*.

        This is the per-event entry of the interleaving steppers (behind
        ``SimulatedNode.pop_and_handle``) and the statement of the tag
        dispatch; it lives on the queue for the reason :meth:`drain`
        does — each backend runs it against its own heap, and the
        compiled twin (``repro.engine._native.EventQueue.handle_next``)
        reaches its inlined handlers from here.  *node* supplies the tag
        handlers (``_advance_app`` / ``emit_hook`` / ``_on_fragment`` /
        ``_handle_timer``) and the wakeup counter; it is typed loosely to
        keep the engine layer free of node imports.

        Returns what ``peek_time()`` returns afterwards.  A handler's
        exception propagates with the event consumed.

        Raises:
            IndexError: if the queue is empty.
        """
        event = self.pop()
        tag = event.tag
        if tag == "app-wake":
            node.stats.app_wakeups += 1
            node._advance_app(event.time, event.payload)
        elif tag == "emit":
            if node.emit_hook is None:
                raise RuntimeError(f"{node.name}: emit event without emit_hook")
            node.emit_hook(node, event.payload)
        elif tag == "delivery":
            node._on_fragment(event.time, event.payload)
        else:
            node._handle_timer(tag, event.payload, event.time)
        return self.peek_time()

    def drain(self, end: SimTime, node: Any) -> tuple[int, Optional[SimTime]]:
        """Pop and dispatch every node event before *end* in one pass.

        This is the fused inner loop of the driver's ground-truth drain
        stepper: semantically identical to ``while peek_time() < end:
        handle_next(node)``, with the peek/pop pair collapsed into a
        single heap access per event and the handlers fetched once per
        window, which is why the dispatch is restated here instead of
        called.  It lives on the queue (rather than the node) because
        both backends implement it against their own heap representation
        — the compiled twin is ``repro.engine._native.EventQueue.drain``.

        Returns ``(events handled, next event time)``, the second element
        being exactly what ``peek_time()`` would return afterwards.
        """
        heappop = heapq.heappop
        stats = node.stats
        advance = node._advance_app
        on_fragment = node._on_fragment
        emit = node.emit_hook
        handled = 0
        while True:
            # Re-read the heap each iteration: a handler-triggered cancel
            # can compact the queue, which rebinds the underlying list.
            heap = self._heap
            if not heap:
                return handled, None
            entry = heap[0]
            event = entry[2]
            if not event._alive:
                heappop(heap)
                self._dead -= 1
                continue
            time = entry[0]
            if time >= end:
                return handled, time
            heappop(heap)
            self._live -= 1
            handled += 1
            tag = event.tag
            if tag == "app-wake":
                stats.app_wakeups += 1
                advance(time, event.payload)
            elif tag == "emit":
                if emit is None:
                    raise RuntimeError(f"{node.name}: emit event without emit_hook")
                emit(node, event.payload)
            elif tag == "delivery":
                on_fragment(time, event.payload)
            else:
                node._handle_timer(tag, event.payload, time)

    def live_events(self) -> list[Event]:
        """Snapshot view: the live events in heap-array order.

        Order is unspecified beyond determinism — :meth:`restore_events`
        re-heapifies on ``(time, _seq)``, which is unique per event, so
        any permutation restores the same queue.
        """
        return [entry[2] for entry in self._heap if entry[2]._alive]

    def restore_events(self, events: Iterable[Event], next_seq: int) -> None:
        """Rebuild the queue from ``(events, next_seq)`` captured by
        :meth:`live_events` (and the ``_next_seq`` counter).

        Accepts events from either backend — entries are keyed by the
        ``time``/``_seq`` attributes, so natively-created events restore
        into a python queue and vice versa.  This is the only supported
        way to load externally captured state; it replaces any current
        contents.
        """
        self._heap = [(event.time, event._seq, event) for event in events]
        heapq.heapify(self._heap)
        self._live = len(self._heap)
        self._dead = 0
        self._next_seq = next_seq

    def clear(self) -> None:
        """Drop all events (used when tearing a simulation down)."""
        self._heap.clear()
        self._live = 0
        self._dead = 0


def _restore_portable_event(
    time: SimTime,
    action: Optional[Callable[[], None]],
    tag: str,
    payload: Any,
    seq: int,
    alive: int,
) -> Event:
    """Unpickle target for events from *any* backend.

    The native ``Event.__reduce__`` points here, so snapshots written
    under ``backend="native"`` load in environments without the compiled
    module and restore onto either backend.  The constructor is bypassed
    (it rejects ``_seq``/``_alive`` state and re-validates time).
    """
    event = Event.__new__(Event)
    event.time = time
    event.action = action
    event.tag = _intern(tag)
    event.payload = payload
    event._seq = seq
    event._alive = bool(alive)
    return event
