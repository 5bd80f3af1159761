"""Unit and property tests for the event queue and Event objects."""

import pytest
from hypothesis import given, strategies as st

from repro.engine import Event, EventQueue


class TestEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event(-1)

    def test_fire_runs_action_once(self):
        hits = []
        event = Event(5, action=lambda: hits.append(1))
        event.fire()
        assert hits == [1]
        assert not event.alive

    def test_fire_without_action_is_noop(self):
        event = Event(5, tag="marker")
        event.fire()
        assert not event.alive

    def test_cancel_marks_dead(self):
        event = Event(5)
        assert event.alive
        event.cancel()
        assert not event.alive

    def test_payload_and_tag_are_carried(self):
        event = Event(1, tag="delivery", payload={"x": 1})
        assert event.tag == "delivery"
        assert event.payload == {"x": 1}


class TestEventQueue:
    def test_empty_queue(self):
        queue = EventQueue()
        assert len(queue) == 0
        assert not queue
        assert queue.peek() is None
        assert queue.peek_time() is None
        with pytest.raises(IndexError):
            queue.pop()

    def test_orders_by_time(self):
        queue = EventQueue()
        queue.schedule(30, tag="c")
        queue.schedule(10, tag="a")
        queue.schedule(20, tag="b")
        assert [queue.pop().tag for _ in range(3)] == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        for label in "abcde":
            queue.schedule(7, tag=label)
        assert [queue.pop().tag for _ in range(5)] == list("abcde")

    def test_cancel_skips_event(self):
        queue = EventQueue()
        keep = queue.schedule(1, tag="keep")
        drop = queue.schedule(0, tag="drop")
        queue.cancel(drop)
        assert len(queue) == 1
        assert queue.pop() is keep

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        event = queue.schedule(1)
        queue.cancel(event)
        queue.cancel(event)
        assert len(queue) == 0

    def test_cannot_push_cancelled_event(self):
        queue = EventQueue()
        event = Event(1)
        event.cancel()
        with pytest.raises(ValueError):
            queue.push(event)

    def test_cannot_push_twice(self):
        queue = EventQueue()
        event = queue.schedule(1)
        with pytest.raises(ValueError):
            queue.push(event)

    def test_peek_does_not_remove(self):
        queue = EventQueue()
        queue.schedule(4, tag="x")
        assert queue.peek().tag == "x"
        assert len(queue) == 1

    def test_clear(self):
        queue = EventQueue()
        queue.schedule(1)
        queue.schedule(2)
        queue.clear()
        assert not queue
        assert queue.peek() is None

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=0, max_size=200))
    def test_property_pop_order_is_sorted(self, times):
        queue = EventQueue()
        for time in times:
            queue.schedule(time)
        popped = []
        while queue:
            popped.append(queue.pop().time)
        assert popped == sorted(times)

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=1000), st.booleans()),
            min_size=0,
            max_size=120,
        )
    )
    def test_property_cancellation_removes_exactly_marked(self, entries):
        queue = EventQueue()
        kept = []
        for index, (time, cancel) in enumerate(entries):
            event = queue.schedule(time, tag=str(index))
            if cancel:
                queue.cancel(event)
            else:
                kept.append((time, index))
        popped = []
        while queue:
            event = queue.pop()
            popped.append((event.time, int(event.tag)))
        assert popped == sorted(kept)

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=60))
    def test_property_len_tracks_live_events(self, times):
        queue = EventQueue()
        events = [queue.schedule(time) for time in times]
        assert len(queue) == len(times)
        for event in events[::2]:
            queue.cancel(event)
        assert len(queue) == len(times) - len(events[::2])


class TestCompaction:
    """The lazy-deletion heap must shed dead entries in bulk: cancelling
    most of a large queue may not leave the survivors buried under dead
    weight that every later push/pop has to sift around."""

    def test_dead_entry_counter_is_visible(self):
        queue = EventQueue()
        events = [queue.schedule(t) for t in range(10)]
        for event in events[:5]:
            queue.cancel(event)
        # Below the compaction threshold: the dead entries linger.
        assert queue.dead_entries == 5
        assert len(queue) == 5

    def test_compaction_triggers_when_dead_entries_dominate(self):
        queue = EventQueue()
        events = [queue.schedule(t) for t in range(100)]
        for event in events[:80]:
            queue.cancel(event)
        # Dead entries crossed the threshold repeatedly along the way;
        # bulk rebuilds kept them from ever dominating the heap.  The few
        # stragglers below the trigger point are bounded, not O(cancels).
        assert queue.dead_entries * 2 <= len(queue._heap)
        assert len(queue._heap) < 40  # 80 cancels did not pile up
        assert len(queue) == 20
        assert [queue.pop().time for _ in range(len(queue))] == list(range(80, 100))

    def test_pop_and_peek_maintain_the_dead_counter(self):
        queue = EventQueue()
        events = [queue.schedule(t) for t in range(20)]
        for event in events[:10:2]:
            queue.cancel(event)
        assert queue.dead_entries == 5
        # Popping past the dead heads consumes them and their counter.
        assert queue.pop().time == 1
        assert queue.dead_entries < 5

    def test_cancellation_churn_is_not_quadratic(self):
        """Structural bound, not a timing test: under heavy schedule/cancel
        churn the heap may never grow beyond the live entries plus the
        bounded dead allowance the compaction policy tolerates."""
        queue = EventQueue()
        live: list[Event] = []
        for wave in range(50):
            fresh = [queue.schedule(wave * 1000 + i) for i in range(100)]
            for event in fresh[:90]:
                queue.cancel(event)
            live.extend(fresh[90:])
            # Invariant enforced by cancel(): dead entries never dominate
            # (beyond the small fixed trigger threshold).
            assert (
                queue.dead_entries < EventQueue._COMPACT_MIN_DEAD
                or queue.dead_entries * 2 <= len(queue._heap)
            )
            assert len(queue._heap) <= 2 * len(queue) + EventQueue._COMPACT_MIN_DEAD
        assert len(queue) == 50 * 10
        popped = [queue.pop().time for _ in range(len(queue))]
        assert popped == sorted(popped)

    def test_schedule_many_matches_individual_schedules(self):
        bulk = EventQueue()
        single = EventQueue()
        items = [(7, "a"), (3, "b"), (7, "c"), (0, "d")]
        bulk.schedule_many(items, tag="emit")
        for time, payload in items:
            single.schedule(time, tag="emit", payload=payload)
        def drain(queue):
            return [(e.time, e.payload) for e in (queue.pop() for _ in range(len(queue)))]

        assert drain(bulk) == drain(single) == [(0, "d"), (3, "b"), (7, "a"), (7, "c")]

    def test_schedule_many_rejects_negative_times(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule_many([(1, None), (-1, None)])
