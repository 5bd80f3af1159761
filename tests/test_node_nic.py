"""Tests for the NIC model: pacing, fragmentation, reassembly, mailbox."""

import pytest

from repro.network.packet import FRAME_HEADER_BYTES, Packet
from repro.node import NicModel, Recv
from repro.node.requests import ANY_SOURCE, ANY_TAG


def delivered(packet, deliver=None):
    """Stamp a frame as the controller would, for direct NIC testing."""
    packet.due_time = packet.send_time + 1000
    packet.deliver_time = deliver if deliver is not None else packet.due_time
    return packet


class TestTransmit:
    def test_single_frame_message(self):
        nic = NicModel(0)
        frames = nic.build_frames(dst=1, nbytes=100, tag=5, payload="x", now=50)
        assert len(frames) == 1
        frame = frames[0]
        assert frame.send_time == 50
        assert frame.size_bytes == 100 + FRAME_HEADER_BYTES
        assert frame.last_fragment
        assert frame.payload == (5, 100, "x")

    def test_fragments_are_paced_at_line_rate(self):
        nic = NicModel(0, bandwidth_bits_per_sec=10e9)
        frames = nic.build_frames(dst=1, nbytes=20_000, tag=0, payload=None, now=0)
        assert len(frames) == 3
        for previous, following in zip(frames, frames[1:]):
            gap = following.send_time - previous.send_time
            assert gap == nic.serialization(previous.size_bytes)

    def test_tx_queue_backpressure_across_messages(self):
        nic = NicModel(0)
        first = nic.build_frames(dst=1, nbytes=8000, tag=0, payload=None, now=0)
        second = nic.build_frames(dst=1, nbytes=100, tag=0, payload=None, now=0)
        wire_end = first[0].send_time + nic.serialization(first[0].size_bytes)
        assert second[0].send_time == wire_end

    def test_idle_nic_sends_immediately(self):
        nic = NicModel(0)
        nic.build_frames(dst=1, nbytes=100, tag=0, payload=None, now=0)
        later = nic.build_frames(dst=1, nbytes=100, tag=0, payload=None, now=1_000_000)
        assert later[0].send_time == 1_000_000

    def test_message_ids_unique_and_increasing(self):
        nic = NicModel(0)
        a = nic.build_frames(dst=1, nbytes=1, tag=0, payload=None, now=0)[0]
        b = nic.build_frames(dst=1, nbytes=1, tag=0, payload=None, now=0)[0]
        assert b.message_id > a.message_id

    def test_stats(self):
        nic = NicModel(0)
        nic.build_frames(dst=1, nbytes=20_000, tag=0, payload=None, now=0)
        assert nic.stats.messages_sent == 1
        assert nic.stats.frames_sent == 3


class TestReceive:
    def test_single_fragment_message_completes(self):
        sender = NicModel(0)
        receiver = NicModel(1)
        frame = sender.build_frames(dst=1, nbytes=64, tag=9, payload="hi", now=10)[0]
        message = receiver.receive_fragment(delivered(frame))
        assert message is not None
        assert message.src == 0
        assert message.tag == 9
        assert message.payload == "hi"
        assert message.arrived_at == frame.deliver_time
        assert message.delay_error == 0
        assert receiver.mailbox == [message]

    def test_multi_fragment_completion_at_last_arrival(self):
        sender = NicModel(0)
        receiver = NicModel(1)
        frames = sender.build_frames(dst=1, nbytes=20_000, tag=0, payload="p", now=0)
        assert receiver.receive_fragment(delivered(frames[0])) is None
        assert receiver.pending_reassemblies() == 1
        assert receiver.receive_fragment(delivered(frames[1])) is None
        message = receiver.receive_fragment(delivered(frames[2], deliver=frames[2].send_time + 5000))
        assert message is not None
        assert message.fragments == 3
        assert message.arrived_at == frames[2].send_time + 5000
        assert message.delay_error == 4000
        assert receiver.pending_reassemblies() == 0

    def test_out_of_order_fragments(self):
        sender = NicModel(0)
        receiver = NicModel(1)
        frames = sender.build_frames(dst=1, nbytes=20_000, tag=3, payload="z", now=0)
        assert receiver.receive_fragment(delivered(frames[2])) is None
        assert receiver.receive_fragment(delivered(frames[0])) is None
        message = receiver.receive_fragment(delivered(frames[1]))
        assert message is not None
        assert message.tag == 3

    def test_interleaved_messages_reassemble_separately(self):
        sender = NicModel(0)
        receiver = NicModel(1)
        first = sender.build_frames(dst=1, nbytes=10_000, tag=1, payload="a", now=0)
        second = sender.build_frames(dst=1, nbytes=10_000, tag=2, payload="b", now=0)
        assert receiver.receive_fragment(delivered(first[0])) is None
        assert receiver.receive_fragment(delivered(second[0])) is None
        got_first = receiver.receive_fragment(delivered(first[1]))
        got_second = receiver.receive_fragment(delivered(second[1]))
        assert got_first.tag == 1 and got_second.tag == 2

    def test_unstamped_fragment_rejected(self):
        receiver = NicModel(1)
        with pytest.raises(ValueError):
            receiver.receive_fragment(Packet(src=0, dst=1, size_bytes=10, send_time=0))


class TestMailbox:
    def fill(self, receiver):
        sender = NicModel(0)
        other = NicModel(2)
        for nic, tag in ((sender, 1), (other, 2), (sender, 3)):
            frame = nic.build_frames(dst=1, nbytes=8, tag=tag, payload=None, now=0)[0]
            receiver.receive_fragment(delivered(frame))

    def test_wildcard_match_is_fifo(self):
        receiver = NicModel(1)
        self.fill(receiver)
        message = receiver.match(Recv(src=ANY_SOURCE, tag=ANY_TAG))
        assert message.tag == 1

    def test_match_by_source(self):
        receiver = NicModel(1)
        self.fill(receiver)
        message = receiver.match(Recv(src=2))
        assert message.src == 2
        assert len(receiver.mailbox) == 2

    def test_match_by_tag(self):
        receiver = NicModel(1)
        self.fill(receiver)
        message = receiver.match(Recv(tag=3))
        assert message.tag == 3

    def test_no_match_returns_none(self):
        receiver = NicModel(1)
        self.fill(receiver)
        assert receiver.match(Recv(src=7)) is None
        assert len(receiver.mailbox) == 3

    def deposit(self, receiver, tag, payload=None, src=0):
        frame = NicModel(src).build_frames(
            dst=1, nbytes=8, tag=tag, payload=payload, now=0
        )[0]
        receiver.receive_fragment(delivered(frame))

    @pytest.mark.parametrize("wildcard", [False, True])
    def test_emptied_queues_leave_the_mailbox(self, wildcard):
        """Collectives tag every message uniquely: a key kept after its
        last message was matched would grow with the message count."""
        receiver = NicModel(1)
        for tag in range(50):
            self.deposit(receiver, tag)
        assert len(receiver._mailbox) == 50
        for tag in range(50):
            request = Recv(src=ANY_SOURCE, tag=ANY_TAG) if wildcard else Recv(src=0, tag=tag)
            assert receiver.match(request).tag == tag
        assert len(receiver._mailbox) == 0
        assert receiver.mailbox == []

    def test_key_emptied_and_refilled_still_matches_fifo(self):
        receiver = NicModel(1)
        self.deposit(receiver, tag=4, payload="a")
        assert receiver.match(Recv(src=0, tag=4)).payload == "a"
        assert receiver.match(Recv(src=0, tag=4)) is None
        for payload in ("b", "c"):
            self.deposit(receiver, tag=4, payload=payload)
        assert [m.payload for m in receiver.mailbox] == ["b", "c"]
        assert receiver.match(Recv(src=0, tag=4)).payload == "b"
        assert len(receiver._mailbox) == 1
        assert receiver.match(Recv(src=0, tag=4)).payload == "c"
        assert len(receiver._mailbox) == 0

    def test_wildcard_fifo_is_by_deposit_sequence_not_dict_order(self):
        """Deleting and re-creating a key moves it to the end of the
        dict; arrival order must still decide among wildcard matches."""
        receiver = NicModel(1)
        self.deposit(receiver, tag=1, payload="first")
        self.deposit(receiver, tag=2, payload="second")
        assert receiver.match(Recv(src=0, tag=1)).payload == "first"
        self.deposit(receiver, tag=3, payload="third")
        self.deposit(receiver, tag=1, payload="fourth")
        self.deposit(receiver, tag=2, payload="fifth")
        assert list(receiver._mailbox) == [(0, 2), (0, 3), (0, 1)]
        order = [receiver.match(Recv(src=ANY_SOURCE, tag=ANY_TAG)).payload for _ in range(4)]
        assert order == ["second", "third", "fourth", "fifth"]
        assert len(receiver._mailbox) == 0
