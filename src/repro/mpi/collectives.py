"""Collective communication algorithms.

These are the classic algorithms (the same families LAM/MPICH use), chosen
so the *wire patterns* match what the paper's benchmarks generate:

=============  =====================================  ====================
Collective     Algorithm                              Messages (size N)
=============  =====================================  ====================
barrier        dissemination                          N * ceil(log2 N)
allreduce      recursive doubling (power-of-two N),   N * log2 N
               else binomial reduce to rank 0 +       2 (N - 1)
               binomial broadcast from rank 0
alltoall       pairwise exchange                      N (N - 1)
=============  =====================================  ====================

All functions are generators; values are carried in message payloads so the
test-suite can assert semantic correctness (an allreduce really computes the
reduction) on top of the timing behaviour.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.node.requests import Recv, Request, Send

from repro.mpi import api as _api


def _send(dst: int, nbytes: int, tag: int, payload: Any) -> Generator[Request, Any, None]:
    """Internal send using the reserved collective tag space."""
    yield Send(dst=dst, nbytes=nbytes, tag=tag, payload=payload)


def _recv(src: int, tag: int) -> Generator[Request, Any, Any]:
    message = yield Recv(src=src, tag=tag)
    return message


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def barrier(mpi: "_api.MpiRank") -> Generator[Request, Any, None]:
    """Dissemination barrier: ceil(log2 N) rounds of shifted exchanges."""
    base = mpi._next_collective_tags()
    size, rank = mpi.size, mpi.rank
    distance = 1
    step = 0
    while distance < size:
        dst = (rank + distance) % size
        src = (rank - distance) % size
        yield from _send(dst, 0, base + step, None)
        yield from _recv(src, base + step)
        distance <<= 1
        step += 1


def _bcast_from_zero(
    mpi: "_api.MpiRank", nbytes: int, value: Any
) -> Generator[Request, Any, Any]:
    """Binomial-tree broadcast from rank 0; returns rank 0's value on every rank."""
    base = mpi._next_collective_tags()
    size, rank = mpi.size, mpi.rank
    mask = 1
    while mask < size:
        if rank & mask:
            message = yield from _recv(rank - mask, base)
            value = message.payload
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if rank + mask < size:
            yield from _send(rank + mask, nbytes, base, value)
        mask >>= 1
    return value


def _reduce_to_zero(
    mpi: "_api.MpiRank", nbytes: int, value: Any, op: Callable[[Any, Any], Any]
) -> Generator[Request, Any, Any]:
    """Binomial-tree reduction; rank 0 returns the combined value, the rest None."""
    base = mpi._next_collective_tags()
    size, rank = mpi.size, mpi.rank
    accumulator = value
    mask = 1
    while mask < size:
        if rank & mask:
            yield from _send(rank - mask, nbytes, base, accumulator)
            return None
        if rank | mask < size:
            message = yield from _recv(rank | mask, base)
            accumulator = op(accumulator, message.payload)
        mask <<= 1
    return accumulator


def allreduce(
    mpi: "_api.MpiRank",
    nbytes: int,
    value: Any,
    op: Callable[[Any, Any], Any],
) -> Generator[Request, Any, Any]:
    """Recursive-doubling allreduce (reduce + broadcast through rank 0 when N
    is not a power of two)."""
    size, rank = mpi.size, mpi.rank
    if not _is_power_of_two(size):
        partial = yield from _reduce_to_zero(mpi, nbytes, value, op)
        total = yield from _bcast_from_zero(mpi, nbytes, partial)
        return total
    base = mpi._next_collective_tags()
    accumulator = value
    mask = 1
    step = 0
    while mask < size:
        peer = rank ^ mask
        yield from _send(peer, nbytes, base + step, accumulator)
        message = yield from _recv(peer, base + step)
        accumulator = op(accumulator, message.payload)
        mask <<= 1
        step += 1
    return accumulator


def alltoall(
    mpi: "_api.MpiRank",
    nbytes: int,
    values: Optional[list[Any]] = None,
) -> Generator[Request, Any, list[Any]]:
    """Pairwise-exchange all-to-all: N-1 fully dependent exchange steps.

    This is the pattern behind NAS-IS's worst-case behaviour: every step
    couples every pair of nodes, so a straggler delay anywhere dilates the
    whole chain.
    """
    base = mpi._next_collective_tags()
    size, rank = mpi.size, mpi.rank
    if values is not None and len(values) != size:
        raise ValueError(f"values must have one entry per rank ({size})")
    result: list[Any] = [None] * size
    result[rank] = values[rank] if values is not None else None
    power_of_two = _is_power_of_two(size)
    for step in range(1, size):
        if power_of_two:
            send_to = recv_from = rank ^ step
        else:
            send_to = (rank + step) % size
            recv_from = (rank - step) % size
        outgoing = values[send_to] if values is not None else None
        yield from _send(send_to, nbytes, base + step, outgoing)
        message = yield from _recv(recv_from, base + step)
        result[recv_from] = message.payload
    return result
