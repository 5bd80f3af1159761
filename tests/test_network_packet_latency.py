"""Tests for packets, fragmentation, latency models, and topologies."""

import pytest
from hypothesis import given, strategies as st

from repro.engine.units import MICROSECOND
from repro.network import (
    BROADCAST,
    JUMBO_FRAME_BYTES,
    NicSwitchLatencyModel,
    Packet,
    PAPER_NETWORK,
    StarTopology,
    UniformLatencyModel,
)
from repro.network.packet import FRAME_HEADER_BYTES, frames_for_message


class TestPacket:
    def test_rejects_bad_sizes_and_times(self):
        with pytest.raises(ValueError):
            Packet(src=0, dst=1, size_bytes=0, send_time=0)
        with pytest.raises(ValueError):
            Packet(src=0, dst=1, size_bytes=100, send_time=-5)

    def test_rejects_self_send(self):
        with pytest.raises(ValueError):
            Packet(src=3, dst=3, size_bytes=100, send_time=0)

    def test_broadcast_flag(self):
        packet = Packet(src=0, dst=BROADCAST, size_bytes=100, send_time=0)
        assert packet.is_broadcast

    def test_delay_error(self):
        packet = Packet(src=0, dst=1, size_bytes=100, send_time=0)
        assert packet.delay_error == 0
        packet.due_time = 1000
        packet.deliver_time = 1400
        assert packet.delay_error == 400

    def test_clone_for_copies_identity(self):
        packet = Packet(
            src=0, dst=BROADCAST, size_bytes=128, send_time=77, message_id=9, fragment=2
        )
        clone = packet.clone_for(4)
        assert clone.dst == 4
        assert clone.src == 0
        assert clone.send_time == 77
        assert clone.message_id == 9
        assert clone.fragment == 2
        assert clone.packet_id != packet.packet_id

    def test_packet_ids_monotone(self):
        first = Packet(src=0, dst=1, size_bytes=1, send_time=0)
        second = Packet(src=0, dst=1, size_bytes=1, send_time=0)
        assert second.packet_id > first.packet_id


class TestFragmentation:
    def test_zero_payload_costs_one_header_frame(self):
        assert frames_for_message(0) == [FRAME_HEADER_BYTES]

    def test_small_payload_single_frame(self):
        assert frames_for_message(100) == [100 + FRAME_HEADER_BYTES]

    def test_exact_mtu_fill(self):
        capacity = JUMBO_FRAME_BYTES - FRAME_HEADER_BYTES
        assert frames_for_message(capacity) == [JUMBO_FRAME_BYTES]

    def test_split_counts(self):
        capacity = JUMBO_FRAME_BYTES - FRAME_HEADER_BYTES
        sizes = frames_for_message(capacity * 2 + 1)
        assert len(sizes) == 3
        assert sizes[0] == sizes[1] == JUMBO_FRAME_BYTES
        assert sizes[2] == 1 + FRAME_HEADER_BYTES

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            frames_for_message(-1)
        with pytest.raises(ValueError):
            frames_for_message(10, mtu=FRAME_HEADER_BYTES)

    @given(st.integers(min_value=0, max_value=10_000_000))
    def test_property_payload_conserved(self, payload):
        sizes = frames_for_message(payload)
        total_payload = sum(sizes) - FRAME_HEADER_BYTES * len(sizes)
        assert total_payload == max(payload, 0)
        assert all(size <= JUMBO_FRAME_BYTES for size in sizes)
        assert all(size > FRAME_HEADER_BYTES or payload == 0 for size in sizes)


class TestTopologies:
    def test_star_is_uniform(self):
        topo = StarTopology(8, switch_latency=50)
        assert topo.extra_latency(0, 7) == 50
        assert topo.hops(0, 7) == 1
        assert topo.min_extra_latency() == 50

    def test_pair_validation(self):
        topo = StarTopology(4)
        with pytest.raises(ValueError):
            topo.extra_latency(0, 4)
        with pytest.raises(ValueError):
            topo.extra_latency(2, 2)

    def test_too_small_cluster(self):
        with pytest.raises(ValueError):
            StarTopology(1)


class TestLatencyModels:
    def test_uniform(self):
        model = UniformLatencyModel(1500)
        packet = Packet(src=0, dst=1, size_bytes=9000, send_time=0)
        assert model.latency(packet, 1) == 1500
        assert model.min_latency() == 1500

    def test_uniform_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            UniformLatencyModel(0)

    def test_paper_network_jumbo_frame(self):
        model = PAPER_NETWORK(8)
        packet = Packet(src=0, dst=1, size_bytes=9000, send_time=0)
        # 1us NIC latency + 9000B * 8 / 10Gbps = 1000ns + 7200ns.
        assert model.latency(packet, 1) == 8200

    def test_paper_network_min_latency_close_to_1us(self):
        model = PAPER_NETWORK(8)
        # Minimum-size frame: 66B header-only -> 52.8ns serialisation.
        assert model.min_latency() == MICROSECOND + 53

    def test_serialization_scales_with_bandwidth(self):
        slow = NicSwitchLatencyModel(StarTopology(2), bandwidth_bits_per_sec=1e9)
        fast = NicSwitchLatencyModel(StarTopology(2), bandwidth_bits_per_sec=10e9)
        assert slow.serialization(9000) == 10 * fast.serialization(9000)

    def test_topology_latency_added(self):
        flat = NicSwitchLatencyModel(StarTopology(8), nic_min_latency=1000)
        switched = NicSwitchLatencyModel(StarTopology(8, switch_latency=400), nic_min_latency=1000)
        packet = Packet(src=0, dst=5, size_bytes=66, send_time=0)
        assert switched.latency(packet, 5) - flat.latency(packet, 5) == 400

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NicSwitchLatencyModel(StarTopology(2), bandwidth_bits_per_sec=0)
        with pytest.raises(ValueError):
            NicSwitchLatencyModel(StarTopology(2), nic_min_latency=0)

    @given(st.integers(min_value=1, max_value=9000))
    def test_property_latency_monotone_in_size(self, size):
        model = PAPER_NETWORK(4)
        small = Packet(src=0, dst=1, size_bytes=size, send_time=0)
        bigger = Packet(src=0, dst=1, size_bytes=size + 1, send_time=0)
        assert model.latency(small, 1) <= model.latency(bigger, 1)
