"""Tests for the network controller's delivery policy (paper Figure 3)."""

import pytest

from repro.network import (
    BROADCAST,
    DeliveryKind,
    NetworkController,
    Packet,
    UniformLatencyModel,
)
from repro.obs.collector import TraceCollector, TraceConfig


class FakeCluster:
    """A scriptable ClusterState: fixed window, per-node linear positions."""

    def __init__(self, start, end, rates):
        # rates: simulated ns advanced per unit of host time, per node.
        self.start = start
        self.end = end
        self.rates = rates

    def quantum_window(self):
        return (self.start, self.end)

    def node_position_at(self, node, host_time):
        return min(self.start + round(self.rates[node] * host_time), self.end)


def make_controller(num_nodes=2, latency=1000, start=0, end=10_000, rates=None):
    cluster = FakeCluster(start, end, rates or [1000] * num_nodes)
    controller = NetworkController(num_nodes, UniformLatencyModel(latency))
    controller.bind(cluster)
    return controller, cluster


class TestDeliveryPolicy:
    def test_exact_now_when_destination_behind(self):
        # Destination advances 1000 ns/host-unit; at host time 1 it sits at
        # 1000 < due=3000 -> exact delivery.
        controller, _ = make_controller()
        packet = Packet(src=0, dst=1, size_bytes=100, send_time=2000)
        decisions = controller.submit(packet, sender_host_time=1.0)
        assert len(decisions) == 1
        assert decisions[0].kind is DeliveryKind.EXACT_NOW
        assert decisions[0].deliver_time == 3000
        assert not packet.straggler

    def test_straggler_now_when_destination_ahead(self):
        # Destination at host time 6 sits at 6000 > due=3000, still < end.
        controller, _ = make_controller()
        packet = Packet(src=0, dst=1, size_bytes=100, send_time=2000)
        decisions = controller.submit(packet, sender_host_time=6.0)
        assert decisions[0].kind is DeliveryKind.STRAGGLER_NOW
        assert decisions[0].deliver_time == 6000
        assert packet.straggler
        assert packet.delay_error == 3000

    def test_straggler_next_quantum_when_destination_done(self):
        # Destination reached the barrier: position capped at end=10000.
        controller, _ = make_controller()
        packet = Packet(src=0, dst=1, size_bytes=100, send_time=2000)
        decisions = controller.submit(packet, sender_host_time=50.0)
        assert decisions == []  # held for the next window
        assert controller.pending_count() == 1
        released = controller.release_due(10_000, 20_000)
        assert released[0].kind is DeliveryKind.STRAGGLER_NEXT_QUANTUM
        assert released[0].deliver_time == 10_000

    def test_exact_future_held_until_window(self):
        # Due at 9500+1000=10500 >= end -> held, delivered exactly later.
        controller, _ = make_controller()
        packet = Packet(src=0, dst=1, size_bytes=100, send_time=9500)
        decisions = controller.submit(packet, sender_host_time=9.9)
        assert decisions == []
        assert controller.next_held_time() == 10_500
        released = controller.release_due(10_000, 20_000)
        assert released[0].kind is DeliveryKind.EXACT_FUTURE
        assert released[0].deliver_time == 10_500
        assert not packet.straggler

    def test_due_exactly_at_window_end_goes_to_next_window(self):
        controller, _ = make_controller()
        packet = Packet(src=0, dst=1, size_bytes=100, send_time=9000)
        assert controller.submit(packet, sender_host_time=9.0) == []
        assert controller.release_due(10_000, 20_000)[0].deliver_time == 10_000

    def test_boundary_position_equal_due_is_exact(self):
        # position == due counts as "not yet past it" (can still deliver).
        controller, _ = make_controller()
        packet = Packet(src=0, dst=1, size_bytes=100, send_time=2000)
        decisions = controller.submit(packet, sender_host_time=3.0)
        assert decisions[0].kind is DeliveryKind.EXACT_NOW

    def test_release_due_leaves_later_frames(self):
        controller, _ = make_controller()
        early = Packet(src=0, dst=1, size_bytes=100, send_time=9500)
        late = Packet(src=0, dst=1, size_bytes=100, send_time=25_000)
        controller.submit(early, 9.9)
        controller.submit(late, 9.9)
        released = controller.release_due(10_000, 20_000)
        assert [d.packet is early for d in released] == [True]
        assert controller.pending_count() == 1

    def test_release_due_detects_missed_window(self):
        controller, _ = make_controller()
        packet = Packet(src=0, dst=1, size_bytes=100, send_time=9500)
        controller.submit(packet, 9.9)
        with pytest.raises(RuntimeError):
            controller.release_due(50_000, 60_000)

    def test_release_due_rejects_empty_window(self):
        controller, _ = make_controller()
        with pytest.raises(ValueError):
            controller.release_due(10, 10)


class TestBroadcast:
    def test_broadcast_fans_out_to_all_other_nodes(self):
        controller, _ = make_controller(num_nodes=4)
        packet = Packet(src=1, dst=BROADCAST, size_bytes=100, send_time=0)
        decisions = controller.submit(packet, sender_host_time=0.0)
        assert sorted(d.packet.dst for d in decisions) == [0, 2, 3]
        assert controller.stats.broadcast_fanouts == 1
        assert controller.stats.packets_routed == 3

    def test_destination_out_of_range(self):
        controller, _ = make_controller(num_nodes=2)
        packet = Packet(src=0, dst=7, size_bytes=100, send_time=0)
        with pytest.raises(ValueError):
            controller.submit(packet, 0.0)


class TestAccounting:
    def test_np_counts_and_resets(self):
        controller, _ = make_controller()
        controller.submit(Packet(src=0, dst=1, size_bytes=10, send_time=0), 0.0)
        controller.submit(Packet(src=1, dst=0, size_bytes=10, send_time=0), 0.0)
        assert controller.packets_this_quantum == 2
        assert controller.end_quantum() == 2
        assert controller.packets_this_quantum == 0
        assert controller.end_quantum() == 0
        assert controller.stats.quanta_seen == 2
        assert controller.stats.busy_quanta == 1

    def test_note_idle_quanta(self):
        controller, _ = make_controller()
        controller.note_idle_quanta(100)
        assert controller.stats.quanta_seen == 100
        with pytest.raises(ValueError):
            controller.note_idle_quanta(-1)

    def test_delay_error_statistics(self):
        controller, _ = make_controller()
        controller.submit(Packet(src=0, dst=1, size_bytes=10, send_time=2000), 6.0)
        stats = controller.stats
        assert stats.stragglers == 1
        assert stats.total_delay_error == 3000
        assert stats.max_delay_error == 3000
        assert stats.straggler_fraction == 1.0

    def test_trace_callback_sees_every_copy(self):
        seen = []
        cluster = FakeCluster(0, 10_000, [1000] * 3)
        controller = NetworkController(3, UniformLatencyModel(1000))
        controller.collector = TraceCollector(TraceConfig(capacity=0))
        controller.collector.add_packet_listener(
            lambda t, s, d, b: seen.append((t, s, d, b))
        )
        controller.bind(cluster)
        controller.submit(Packet(src=0, dst=BROADCAST, size_bytes=64, send_time=5), 0.0)
        assert len(seen) == 2
        assert {entry[2] for entry in seen} == {1, 2}

    def test_unbound_controller_rejects_submit(self):
        controller = NetworkController(2, UniformLatencyModel(1000))
        with pytest.raises(RuntimeError):
            controller.submit(Packet(src=0, dst=1, size_bytes=10, send_time=0), 0.0)

    def test_empty_stats_are_zero(self):
        controller, _ = make_controller()
        assert controller.stats.straggler_fraction == 0.0
        assert controller.stats.total_delay_error == 0
        assert controller.next_held_time() is None
