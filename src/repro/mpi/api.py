"""Rank handle and point-to-point operations.

An :class:`MpiRank` is one rank's view of the communicator: its rank, the
communicator size, and the tag bookkeeping that keeps concurrent collectives
from matching each other's messages.  All operations are generators meant for
``yield from`` inside an application coroutine running on the node with
``node_id == rank``.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.node.nic import Message
from repro.node.requests import ANY_SOURCE, ANY_TAG, Recv, Request, Send

#: User point-to-point tags must stay below this; collectives use the space
#: above it, partitioned per collective invocation.
COLLECTIVE_TAG_BASE = 1 << 20

#: Tag slots reserved per collective invocation (max rounds/steps).
_SLOTS_PER_COLLECTIVE = 256


class MpiRank:
    """One rank of an SPMD program on the simulated cluster."""

    def __init__(self, rank: int, size: int) -> None:
        if size < 2:
            raise ValueError("communicator size must be at least 2")
        if not 0 <= rank < size:
            raise ValueError(f"rank {rank} out of range [0, {size})")
        self.rank = rank
        self.size = size
        self._collective_seq = 0

    # ------------------------------------------------------------------ #
    # Tag bookkeeping
    # ------------------------------------------------------------------ #

    def _next_collective_tags(self) -> int:
        """Base tag for the next collective invocation on this rank.

        SPMD programs invoke collectives in the same order on every rank, so
        the per-rank sequence numbers agree — the standard MPI requirement
        that collectives are called in matching order.
        """
        base = COLLECTIVE_TAG_BASE + self._collective_seq * _SLOTS_PER_COLLECTIVE
        self._collective_seq += 1
        return base

    @staticmethod
    def check_user_tag(tag: int) -> None:
        if not 0 <= tag < COLLECTIVE_TAG_BASE:
            raise ValueError(
                f"user tag {tag} outside [0, {COLLECTIVE_TAG_BASE}) "
                "(the space above is reserved for collectives)"
            )

    # ------------------------------------------------------------------ #
    # Point-to-point
    # ------------------------------------------------------------------ #

    def send(
        self, dst: int, nbytes: int, tag: int = 0, payload: Any = None
    ) -> Generator[Request, Any, None]:
        """Eager send: resumes after injection, not after delivery."""
        self.check_user_tag(tag)
        if dst == self.rank:
            raise ValueError("use local state, not MPI, to talk to yourself")
        yield Send(dst=dst, nbytes=nbytes, tag=tag, payload=payload)

    def recv(
        self, src: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator[Request, Any, Message]:
        """Blocking receive; returns the matched :class:`Message`."""
        if tag not in (ANY_TAG,):
            self.check_user_tag(tag)
        message = yield Recv(src=src, tag=tag)
        return message

    # ------------------------------------------------------------------ #
    # Collectives (delegating to repro.mpi.collectives)
    # ------------------------------------------------------------------ #

    def barrier(self) -> Generator[Request, Any, None]:
        from repro.mpi import collectives

        return collectives.barrier(self)

    def allreduce(
        self, nbytes: int, value: Any, op: Callable[[Any, Any], Any]
    ) -> Generator[Request, Any, Any]:
        from repro.mpi import collectives

        return collectives.allreduce(self, nbytes, value, op)

    def alltoall(
        self, nbytes: int, values: Optional[list[Any]] = None
    ) -> Generator[Request, Any, list[Any]]:
        from repro.mpi import collectives

        return collectives.alltoall(self, nbytes, values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MpiRank({self.rank}/{self.size})"


def spmd_apps(
    size: int,
    program: Callable[[MpiRank], Generator[Request, Any, Any]],
) -> list[Generator[Request, Any, Any]]:
    """Instantiate *program* once per rank (the ``mpirun`` of the library).

    Returns one application generator per node, ready to be wrapped in
    :class:`~repro.node.node.SimulatedNode` instances 0..size-1.
    """
    return [program(MpiRank(rank, size)) for rank in range(size)]
