"""Synthetic workloads: configurable compute/communication phase patterns.

Used by the examples, the ablation benchmarks, and anywhere a controlled
traffic shape is needed — e.g. to show how the adaptive quantum "drives
over speed bumps" (grows through a silent compute phase, crashes when a
communication phase starts).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.cluster import RunResult
from repro.engine.units import SECOND, SimTime
from repro.mpi.api import MpiRank
from repro.node.requests import Compute, ComputeTime, Request
from repro.workloads.base import Workload

_PATTERNS = ("ring", "alltoall", "pairs", "allreduce")


class PhaseWorkload(Workload):
    """Alternating compute and communication phases.

    Each of *phases* rounds burns *compute_ops* and then runs one
    communication pattern:

    * ``ring`` — send to the right neighbour, receive from the left;
    * ``alltoall`` — a full pairwise exchange;
    * ``pairs`` — XOR-partner exchange (rank ^ 1);
    * ``allreduce`` — a small global reduction.
    """

    name = "PHASES"
    metric_name = "phase/s"
    metric_kind = "rate"

    def __init__(
        self,
        phases: int = 6,
        compute_ops: float = 5.0e6,
        pattern: str = "ring",
        message_bytes: int = 4_096,
        rounds_per_phase: int = 1,
    ) -> None:
        if pattern not in _PATTERNS:
            raise ValueError(f"pattern must be one of {_PATTERNS}, got {pattern!r}")
        if phases < 1 or rounds_per_phase < 1:
            raise ValueError("phases and rounds_per_phase must be positive")
        self.phases = phases
        self.compute_ops = compute_ops
        self.pattern = pattern
        self.message_bytes = message_bytes
        self.rounds_per_phase = rounds_per_phase

    def metric(self, result: RunResult) -> float:
        return self.phases / (result.makespan / SECOND)

    def _communicate(self, mpi: MpiRank) -> Generator[Request, Any, None]:
        if self.pattern == "ring":
            right = (mpi.rank + 1) % mpi.size
            left = (mpi.rank - 1) % mpi.size
            yield from mpi.send(right, self.message_bytes, tag=11)
            yield from mpi.recv(src=left, tag=11)
        elif self.pattern == "alltoall":
            yield from mpi.alltoall(self.message_bytes)
        elif self.pattern == "pairs":
            partner = mpi.rank ^ 1
            if partner < mpi.size:
                yield from mpi.send(partner, self.message_bytes, tag=12)
                yield from mpi.recv(src=partner, tag=12)
        else:  # allreduce
            yield from mpi.allreduce(self.message_bytes, 1.0, lambda a, b: a + b)

    def program(self, mpi: MpiRank) -> Generator[Request, Any, Any]:
        yield from mpi.barrier()
        for _ in range(self.phases):
            yield Compute(ops=self.compute_ops)
            for _ in range(self.rounds_per_phase):
                yield from self._communicate(mpi)
        return {"phases": self.phases}


class PingPongWorkload(Workload):
    """Rank 0 and rank 1 bounce a message; everyone else idles briefly.

    The smallest workload exhibiting the paper's Figure 3 scenarios; used
    by the quickstart example and the Figure-3 benchmark.
    """

    name = "PING"
    metric_name = "round-trip us"
    metric_kind = "time"

    def __init__(
        self,
        rounds: int = 20,
        message_bytes: int = 64,
        think_time: SimTime = 50_000,
    ) -> None:
        if rounds < 1:
            raise ValueError("rounds must be positive")
        self.rounds = rounds
        self.message_bytes = message_bytes
        self.think_time = think_time

    def metric(self, result: RunResult) -> float:
        """Mean application-observed round-trip, in microseconds."""
        roundtrips = result.app_results[0]["roundtrips_ns"]
        return sum(roundtrips) / len(roundtrips) / 1_000

    def program(self, mpi: MpiRank) -> Generator[Request, Any, Any]:
        if mpi.rank == 0:
            roundtrips = []
            for _ in range(self.rounds):
                start = None
                yield from mpi.send(1, self.message_bytes, tag=21)
                message = yield from mpi.recv(src=1, tag=21)
                # The message's own timestamps give the observed round trip:
                # reply arrival minus our original send start.
                roundtrips.append(message.arrived_at - message.payload)
                yield ComputeTime(self.think_time)
            return {"roundtrips_ns": roundtrips}
        if mpi.rank == 1:
            for _ in range(self.rounds):
                message = yield from mpi.recv(src=0, tag=21)
                yield from mpi.send(0, self.message_bytes, tag=21, payload=message.sent_at)
            return {}
        # Spectator ranks idle so any cluster size works.
        yield ComputeTime(self.think_time * self.rounds)
        return {}


class StreamWorkload(Workload):
    """Bulk point-to-point transfer: rank 0 streams data to rank 1.

    The cleanest probe of transport behaviour under quantum-distorted
    timing: with a windowed transport (``repro.node.transport``), bulk
    throughput is window/RTT, so a quantum that inflates the observed RTT
    collapses throughput by the same factor — the feedback loop behind the
    paper's giant IS execution-time divergences.  Spectator ranks idle so
    any cluster size works.
    """

    name = "STREAM"
    metric_name = "MB/s"
    metric_kind = "rate"

    def __init__(
        self,
        total_bytes: int = 2_000_000,
        chunk_bytes: int = 100_000,
        preamble_ops: float = 1e6,
    ) -> None:
        if total_bytes < 1 or chunk_bytes < 1:
            raise ValueError("byte counts must be positive")
        self.total_bytes = total_bytes
        self.chunk_bytes = chunk_bytes
        self.preamble_ops = preamble_ops

    def metric(self, result: RunResult) -> float:
        return self.total_bytes / 1e6 / (result.makespan / SECOND)

    def program(self, mpi: MpiRank) -> Generator[Request, Any, Any]:
        chunks, remainder = divmod(self.total_bytes, self.chunk_bytes)
        if mpi.rank == 0:
            yield Compute(ops=self.preamble_ops)
            for _ in range(chunks):
                yield from mpi.send(1, self.chunk_bytes, tag=31)
            if remainder:
                yield from mpi.send(1, remainder, tag=31)
            # Wait for the consumer's final acknowledgement of completion.
            yield from mpi.recv(src=1, tag=32)
            return {"sent": self.total_bytes}
        if mpi.rank == 1:
            received = 0
            while received < self.total_bytes:
                message = yield from mpi.recv(src=0, tag=31)
                received += message.nbytes
            yield from mpi.send(0, 64, tag=32)
            return {"received": received}
        yield Compute(ops=self.preamble_ops)
        return {}
