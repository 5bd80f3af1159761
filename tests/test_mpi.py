"""Tests for the MPI layer: semantics, message counts, and tag hygiene.

Semantic tests run real SPMD programs on a ground-truth cluster (Q = 1 us,
zero stragglers) and assert the collectives compute correct values on every
rank and for power-of-two and non-power-of-two sizes alike.
"""

import math
import operator

import pytest

from repro.core import ClusterConfig, ClusterSimulator, FixedQuantumPolicy
from repro.engine.units import MICROSECOND
from repro.mpi import MpiRank, spmd_apps
from repro.network import NetworkController, PAPER_NETWORK
from repro.node import SimulatedNode
from repro.node.requests import Send


def run_spmd(size, program, seed=11):
    """Run an SPMD program to completion on a ground-truth cluster."""
    apps = spmd_apps(size, program)
    nodes = [SimulatedNode(rank, app) for rank, app in enumerate(apps)]
    controller = NetworkController(size, PAPER_NETWORK(size))
    sim = ClusterSimulator(
        nodes, controller, FixedQuantumPolicy(MICROSECOND), ClusterConfig(seed=seed)
    )
    result = sim.run()
    assert result.completed
    assert result.controller_stats.stragglers == 0
    return result


def count_sends(size, program):
    """Total Send requests an SPMD program yields (structure check).

    Drives the generators directly, round-robin, with a fake in-order
    delivery network: no timing, just matching.
    """
    from collections import defaultdict, deque

    class FakeMessage:
        def __init__(self, src, tag, payload):
            self.src = src
            self.tag = tag
            self.payload = payload
            self.nbytes = 0
            self.delay_error = 0

    apps = spmd_apps(size, program)
    mailboxes = [defaultdict(deque) for _ in range(size)]
    started = [False] * size
    blocked = [None] * size  # Recv each rank is waiting on
    finished = [False] * size
    sends = 0

    def step(rank, value=None):
        if not started[rank]:
            started[rank] = True
            return next(apps[rank])
        return apps[rank].send(value)

    def find_match(rank, request):
        for (src, tag), queue in mailboxes[rank].items():
            if queue and request.matches(src, tag):
                return queue.popleft()
        return None

    progress = True
    while progress:
        progress = False
        for rank in range(size):
            if finished[rank]:
                continue
            value = None
            if blocked[rank] is not None:
                message = find_match(rank, blocked[rank])
                if message is None:
                    continue
                blocked[rank] = None
                value = message
            while True:
                try:
                    request = step(rank, value)
                except StopIteration:
                    finished[rank] = True
                    progress = True
                    break
                value = None
                if isinstance(request, Send):
                    sends += 1
                    mailboxes[request.dst][(rank, request.tag)].append(
                        FakeMessage(rank, request.tag, request.payload)
                    )
                    progress = True
                    continue
                message = find_match(rank, request)
                if message is not None:
                    value = message
                    progress = True
                    continue
                blocked[rank] = request
                break
    assert all(finished), "SPMD program deadlocked in structural executor"
    return sends


class TestMpiRank:
    def test_validation(self):
        with pytest.raises(ValueError):
            MpiRank(0, 1)
        with pytest.raises(ValueError):
            MpiRank(4, 4)

    def test_user_tag_space_enforced(self):
        mpi = MpiRank(0, 2)
        with pytest.raises(ValueError):
            list(mpi.send(1, 10, tag=1 << 20))
        with pytest.raises(ValueError):
            MpiRank.check_user_tag(-1)

    def test_self_send_rejected(self):
        mpi = MpiRank(0, 2)
        with pytest.raises(ValueError):
            list(mpi.send(0, 10))

    def test_collective_sequences_advance(self):
        mpi = MpiRank(0, 2)
        first = mpi._next_collective_tags()
        second = mpi._next_collective_tags()
        assert second > first

    def test_spmd_apps_one_per_rank(self):
        def program(mpi):
            yield from mpi.barrier()

        apps = spmd_apps(4, program)
        assert len(apps) == 4


class TestPointToPoint:
    @pytest.mark.parametrize("size", [2, 3])
    def test_ring_relay(self, size):
        received = {}

        def program(mpi):
            right = (mpi.rank + 1) % mpi.size
            left = (mpi.rank - 1) % mpi.size
            yield from mpi.send(right, 128, tag=7, payload=f"from{mpi.rank}")
            message = yield from mpi.recv(src=left, tag=7)
            received[mpi.rank] = message.payload

        run_spmd(size, program)
        assert received == {r: f"from{(r - 1) % size}" for r in range(size)}

class TestCollectiveSemantics:
    @pytest.mark.parametrize("size", [2, 4, 8, 3, 5])
    def test_allreduce_sum(self, size):
        results = {}

        def program(mpi):
            local = (mpi.rank + 1) ** 2
            total = yield from mpi.allreduce(8, local, operator.add)
            results[mpi.rank] = total

        run_spmd(size, program)
        expected = sum((r + 1) ** 2 for r in range(size))
        assert results == {r: expected for r in range(size)}

    @pytest.mark.parametrize("size", [2, 4, 8, 6])
    def test_alltoall_permutation(self, size):
        results = {}

        def program(mpi):
            outgoing = [(mpi.rank, dst) for dst in range(mpi.size)]
            incoming = yield from mpi.alltoall(512, outgoing)
            results[mpi.rank] = incoming

        run_spmd(size, program)
        for rank in range(size):
            assert results[rank] == [(src, rank) for src in range(size)]

    def test_barrier_completes(self):
        def program(mpi):
            for _ in range(3):
                yield from mpi.barrier()

        run_spmd(4, program)

    def test_alltoall_value_length_checked(self):
        mpi = MpiRank(0, 4)
        with pytest.raises(ValueError):
            list(mpi.alltoall(10, values=[1, 2]))

class TestMessageCounts:
    """Wire-pattern checks: message counts match the documented algorithms."""

    @pytest.mark.parametrize("size", [2, 4, 8])
    def test_barrier_messages(self, size):
        def program(mpi):
            yield from mpi.barrier()

        assert count_sends(size, program) == size * math.ceil(math.log2(size))

    @pytest.mark.parametrize("size", [2, 4, 8])
    def test_allreduce_messages_power_of_two(self, size):
        def program(mpi):
            yield from mpi.allreduce(10, 1, operator.add)

        assert count_sends(size, program) == size * int(math.log2(size))

    @pytest.mark.parametrize("size", [3, 5])
    def test_allreduce_messages_fallback(self, size):
        def program(mpi):
            yield from mpi.allreduce(10, 1, operator.add)

        assert count_sends(size, program) == 2 * (size - 1)

    @pytest.mark.parametrize("size", [2, 4, 8, 6])
    def test_alltoall_messages(self, size):
        def program(mpi):
            yield from mpi.alltoall(10)

        assert count_sends(size, program) == size * (size - 1)
