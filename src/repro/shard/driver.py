"""Sharded single-run execution: one cluster across many host processes.

This is the paper's own execution model applied to the reproduction
itself.  The original system ran *each simulated node* as a SimNow
process on a farm blade, with a central mediator releasing them quantum
by quantum; here the simulated nodes of one
:class:`~repro.core.cluster.ClusterSimulator` are partitioned into k
contiguous slices, and k processes step them in parallel:

* **Process layout.**  ``run_sharded(shards=k)`` forks k - 1 workers.
  The parent is shard 0: it steps slice 0 itself with the serial
  :class:`~repro.core.stepping.VectorStepper`, and it also plays the
  mediator — it runs the *same*
  :meth:`ClusterSimulator.run() <repro.core.cluster.ClusterSimulator.run>`
  loop a serial run does (horizon, fast-forward, host and barrier cost,
  quantum statistics, policy step, result) with this module's
  ``_ShardStepper`` installed as its stepping strategy.  Worker *i*
  steps slice *i* with its own ``VectorStepper``.  Nothing of the loop's
  accounting is restated here.
* **Who draws what.**  Each shard draws the jitter of its own nodes, from
  a feed over its own slice of host models: its window rates, the host
  finish of its nodes a window did not step, and a fast-forward span's
  per-quantum maximum slowdown over its slice.  The parent combines the
  shards' partial results with a float ``max``.
* **Window-boundary frame exchange.**  Per window, the parent sends each
  worker the window bounds and the frames released to its nodes, steps
  slice 0 while the workers step theirs, and gathers each worker's
  events handled, emissions, finish times, quiescence and next event
  time.  Frames cross the pipes as field tuples, not pickled
  :class:`~repro.network.packet.Packet` objects.  Eligibility requires
  ``max_Q <= T`` (quantum never longer than the minimum network
  latency), so every in-window emission is provably due at or beyond
  the barrier and no node can observe another mid-window, exactly like
  the serial ground-truth drain.  The parent sorts the merged batch into
  the serial emission order and routes it through the unchanged
  :class:`~repro.network.controller.NetworkController`.
* **The barrier spins, then blocks.**  A waiting side — the parent for
  replies, a worker for its next command — first polls its pipe without
  blocking, a bounded number of times, then falls back to a blocking
  poll that probes the other side's liveness.  It spins only when every
  shard process can have a CPU of its own (``os.sched_getaffinity``),
  and then binds each process to its own; with fewer CPUs, or when the
  set cannot be read or the binding is refused, spinning would only
  steal the CPU the awaited process needs, so it blocks at once.  A run
  inside a farm worker always blocks: its sibling runs share the CPU
  set, so it cannot own any of it.

Why every value is unchanged: each node's jitter stream is consumed in
the same order as serially (one draw per window, *count* per
fast-forward span, whichever process draws it), the per-element float
operations are the serial steppers' own, float ``max`` is insensitive
to grouping, and the emission sort restores the serial total order.  A
sharded run is therefore **bit-identical to the serial path** — the same
acceptance gate the vectorized stepper meets, enforced by the
``shards=k`` pairs of the differential oracle, ``tests/oracle.py``.

Configurations the drain contract cannot cover (traced, fault-injected,
sampled, or adaptive policies whose ``max_Q`` exceeds ``T``) fall back
to the serial driver, surfacing the reason like
``ParallelRunner.last_fallback_reason`` does; so does any mid-run worker
failure (the run is a pure function of its configuration, so the parent
simply rebuilds and reruns serially).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import select
import traceback
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from repro.analysis.invariants import CausalitySanitizer, InvariantViolation
from repro.core.cluster import ClusterSimulator, DeadlockError, RunResult
from repro.core.stepping import (
    Emission,
    NodeReport,
    VectorStepper,
    _earliest,
    nodes_quiescent,
)
from repro.engine.units import SimTime, format_time
from repro.network.packet import Packet
from repro.shard.partition import partition_nodes, resolve_shards

# Pipe protocol tags (parent -> worker commands, worker -> parent replies).
_WINDOW = "window"
_SPAN = "span"
_FINAL = "final"
_REPORT = "report"
_FINISH = "finish"
_EXIT = "exit"
_ERROR = "error"

#: Seconds between liveness probes while blocked on the other side.
_POLL_INTERVAL = 0.2

#: Non-blocking polls a waiting side makes before it blocks.  A count,
#: not a duration: one poll is well under a microsecond, so this spins a
#: few milliseconds at most — longer than the gap between two windows.
_SPIN_POLLS = 1 << 14

#: A packet's fields in declaration order: ``Packet(*_packet_fields(p))``
#: rebuilds *p* without drawing a fresh packet id.
_packet_fields = attrgetter(*(field.name for field in fields(Packet)))


class WorkerFailure(RuntimeError):
    """A shard worker died or raised; the run falls back to serial."""


@dataclass
class ShardOutcome:
    """What :func:`run_sharded` did and produced.

    Attributes:
        result: the finished run (bit-identical however it executed).
        shards: processes that stepped the run's nodes, the parent
            included (1 = the serial path).
        fallback_reason: why a requested sharded run degraded to serial
            (None when sharding was not requested or succeeded),
            mirroring ``ParallelRunner.last_fallback_reason``.
        simulator: the simulator instance that produced ``result`` —
            callers needing observers (trace collectors) read them here.
    """

    result: RunResult
    shards: int
    fallback_reason: Optional[str]
    simulator: ClusterSimulator


def _fork_available() -> bool:
    """Fork start method support (workers inherit the built simulator —
    node applications are live generators, which cannot be pickled)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _shard_cpus(processes: int) -> Optional[list[int]]:
    """One CPU of this process's affinity set per shard process, or None
    when the run cannot own them.  The barrier spins only with a CPU per
    process: otherwise a spinning waiter steals the CPU the process it
    waits for needs.

    None when the set is smaller or cannot be read, and always inside a
    ``multiprocessing`` child such as a :class:`ParallelRunner
    <repro.harness.parallel.ParallelRunner>` pool worker: its sibling
    runs would pick the same first CPUs of the same set, and their
    spinning shard processes would then share those CPUs while the rest
    of the host idles.
    """
    if multiprocessing.parent_process() is not None:
        return None
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # not Linux, or the set is unreadable
        return None
    return cpus[:processes] if len(cpus) >= processes else None


def _bind(cpu: Optional[int]) -> int:
    """Bind the calling process to *cpu*; return how many polls its waits
    spin: :data:`_SPIN_POLLS` once bound, else none.  A side spins
    only on a CPU of its own — unbound, two spinning shard processes were
    seen sharing one CPU for a whole run while the other CPU idled."""
    if cpu is None:
        return 0
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # the kernel refused the binding: block instead
        return 0
    return _SPIN_POLLS


def _ineligible_reason(sim: ClusterSimulator) -> Optional[str]:
    """Why *sim* must run serially (None when sharding is sound)."""
    if sim.collector is not None:
        return (
            "traced runs keep the serial interleaved stepper "
            "(tracing observes per-event order)"
        )
    if sim.injector is not None:
        return (
            "fault-injected runs keep the serial stepper (the injector "
            "consumes its verdict stream at serial call sites)"
        )
    if sim.config.sampling is not None:
        return "sampled host models keep the serial stepper"
    if sim.config.checkpoint is not None:
        return (
            "checkpointed runs keep the serial stepper (a snapshot is a "
            "complete cut of one process's state; sharded and serial "
            "execution are bit-identical, so nothing is lost)"
        )
    if sim.supervision is not None:
        return (
            "supervised runs keep the serial stepper (the watchdog beat "
            "must observe every quantum boundary in the supervised process)"
        )
    min_latency = sim.controller.latency_model.min_latency()
    if sim.policy.max_quantum > min_latency:
        return (
            f"policy max quantum {format_time(sim.policy.max_quantum)} exceeds "
            f"the minimum network latency {format_time(min_latency)}; windows "
            "are not independently drainable (Q <= T violated)"
        )
    if not _fork_available():
        return "fork start method unavailable; ran serially"
    return None


def run_sharded(
    sim_factory: Callable[[], ClusterSimulator],
    shards: Optional[int] = None,
) -> ShardOutcome:
    """Run one simulation, sharded across processes when possible.

    *sim_factory* must build a fresh, fully-wired simulator on every
    call (runs are pure functions of their configuration, which is what
    makes the serial retry after a mid-run worker failure sound).  The
    shard count is *shards* when given, else the built simulator's
    ``config.shards``, else ``REPRO_SHARDS`` (see
    :func:`~repro.shard.partition.resolve_shards`); it never enters any
    cache key because the result is bit-identical either way.
    """
    sim = sim_factory()
    requested = resolve_shards(shards if shards is not None else sim.config.shards)
    if requested <= 1:
        return ShardOutcome(sim.run(), 1, None, sim)
    reason = _ineligible_reason(sim)
    if reason is not None:
        return ShardOutcome(sim.run(), 1, reason, sim)
    actual = min(requested, len(sim.nodes))
    try:
        result = _run_sharded_attempt(sim, actual)
    except (InvariantViolation, DeadlockError):
        raise  # real run outcomes, not infrastructure failures
    except Exception as error:
        fresh = sim_factory()
        reason = (
            f"sharded run failed ({type(error).__name__}: {error}); "
            "re-ran serially"
        )
        return ShardOutcome(fresh.run(), 1, reason, fresh)
    return ShardOutcome(result, actual, None, sim)


# --------------------------------------------------------------------- #
# Both sides: the pipe end that spins before it blocks
# --------------------------------------------------------------------- #


class _Pipe:
    """One end of a parent-worker pipe, waited on spin-then-block.

    Messages are tuples pickled with plain ``pickle``: ``Connection.send``
    would go through ``ForkingPickler``, whose per-call reducer-table
    copy costs more than pickling a small message.
    """

    __slots__ = ("conn", "_spins", "_ready")

    def __init__(self, conn: Any, spins: int) -> None:
        self.conn = conn
        self._spins = spins
        self._ready: Callable[[int], list] = lambda timeout: []
        if spins:
            poller = select.poll()
            poller.register(conn.fileno(), select.POLLIN)
            self._ready = poller.poll

    def wait(self, alive: Callable[[], bool]) -> bool:
        """Wait until a message is readable; False once *alive* reports
        the other side gone.  Never a bare blocking ``recv``."""
        ready = self._ready
        for _ in range(self._spins):
            if ready(0):
                return True
        conn = self.conn
        while not conn.poll(_POLL_INTERVAL):
            if not alive():
                return False
        return True

    def send(self, message: tuple) -> None:
        self.conn.send_bytes(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))

    def recv(self) -> tuple:
        return pickle.loads(self.conn.recv_bytes())  # type: ignore[no-any-return]


# --------------------------------------------------------------------- #
# Parent (mediator and shard 0) side
# --------------------------------------------------------------------- #


def _run_sharded_attempt(sim: ClusterSimulator, shards: int) -> RunResult:
    """Fork the workers and run the quantum loop with sharded stepping."""
    slices = partition_nodes(len(sim.nodes), shards)
    ctx = multiprocessing.get_context("fork")
    # One CPU per shard when spinning pays, else no binding at all.
    cpus: Sequence[Optional[int]] = _shard_cpus(len(slices)) or [None] * len(slices)

    # The cluster-attached sanitizer audits node/clock state across the
    # whole cluster, most of which lives in other processes; replace it
    # with an unattached twin (same bounds) so every pure-number
    # invariant — window clamps, delivery decisions, accounting, the
    # ground-truth zero-straggler gate — still fires parent-side.  Every
    # shard, the parent included, audits its own slice.
    checking = sim.sanitizer is not None
    if checking:
        fresh = CausalitySanitizer(
            sim.policy.min_quantum,
            sim.policy.max_quantum,
            sim.controller.latency_model.min_latency(),
        )
        sim.sanitizer = fresh
        sim.controller.sanitizer = fresh
    # Every shard steps with the vectorized stepper, which reads each
    # node's activity from the simulator's busy mask: keep it current.
    sim._vectorized = True

    procs: list[Any] = []
    pipes: list[_Pipe] = []
    affinity = os.sched_getaffinity(0) if cpus[0] is not None else None
    try:
        spins = _bind(cpus[0])
        for shard, span in enumerate(slices[1:], start=1):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker,
                args=(sim, span, child_conn, cpus[shard], checking),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
            pipes.append(_Pipe(parent_conn, spins))
        sim._stepper = _ShardStepper(sim, slices, procs, pipes, checking)
        return sim.run()
    finally:
        if affinity is not None:
            os.sched_setaffinity(0, affinity)
        for pipe in pipes:
            try:
                pipe.send((_EXIT,))
            except OSError:
                pass
        for proc in procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        for pipe in pipes:
            pipe.conn.close()


def _recv(procs: list[Any], pipes: list[_Pipe], index: int) -> tuple:
    """One worker reply, translating shipped errors and dead workers."""
    pipe = pipes[index]
    if not pipe.wait(procs[index].is_alive):
        raise WorkerFailure(f"shard worker {index + 1} exited unexpectedly")
    try:
        reply = pipe.recv()
    except (EOFError, OSError) as error:
        raise WorkerFailure(f"shard worker {index + 1} hung up: {error}") from error
    if reply[0] == _ERROR:
        _, name, text, trace = reply
        if name == "InvariantViolation":
            # Re-raised under the parent's type so checked sharded runs
            # fail exactly like checked serial runs (never masked by the
            # serial-retry fallback).
            raise InvariantViolation("shard-worker", text)
        if name == "DeadlockError":
            raise DeadlockError(text)
        raise WorkerFailure(
            f"shard worker {index + 1} failed: {name}: {text}\n{trace}"
        )
    return reply


class _ShardStepper:
    """Steps slice 0 in this process and the other slices in the workers.

    The :class:`~repro.core.stepping.Stepper` that
    :meth:`ClusterSimulator.run` drives during a sharded run.  It owns no
    accounting — the loop charges costs and steps the policy exactly as
    it does serially — and only combines per-node facts across the
    barrier.  Workers are addressed as shards 1..k-1.
    """

    def __init__(
        self,
        sim: ClusterSimulator,
        slices: list[range],
        procs: list[Any],
        pipes: list[_Pipe],
        checking: bool,
    ) -> None:
        self._local = VectorStepper(sim, slices[0])
        self._procs = procs
        self._pipes = pipes
        self._checking = checking
        self._shard_of = [
            index for index, span in enumerate(slices) for _ in span
        ]
        # What each shard last reported about its slice, shard 0 being
        # this process's; before the first window the fork-time state of
        # every slice is exact.
        self._idle = [-math.inf] * len(slices)
        self._quiet = [
            nodes_quiescent(sim.nodes[node_id] for node_id in span)
            for span in slices
        ]
        self._next = [
            _earliest(sim.nodes[node_id].peek_time() for node_id in span)
            for span in slices
        ]
        #: Released frames per shard: slice 0's as packets, the workers'
        #: already encoded for the pipe.
        self._outbox: list[list[tuple[Any, SimTime]]] = [[] for _ in slices]
        self._start: SimTime = 0
        self._host = 0.0

    def _replies(self) -> list[tuple]:
        """One reply from every worker, in shard order."""
        return [
            _recv(self._procs, self._pipes, index)
            for index in range(len(self._pipes))
        ]

    def next_event_time(self) -> Optional[SimTime]:
        return min((t for t in self._next if t is not None), default=None)

    def open(self, start: SimTime, end: SimTime, host: float) -> None:
        # Every shard draws its own rates when it steps the window.
        self._start = start
        self._host = host

    def deliver(self, frames: Iterable[tuple[Packet, SimTime]]) -> None:
        shard_of = self._shard_of
        outbox = self._outbox
        for packet, deliver_time in frames:
            shard = shard_of[packet.dst]
            if shard:
                outbox[shard].append((_packet_fields(packet), deliver_time))
            else:
                outbox[0].append((packet, deliver_time))

    def step(self, end: SimTime) -> tuple[int, list[Emission], int, float]:
        start, host = self._start, self._host
        outbox = self._outbox
        for shard, pipe in enumerate(self._pipes, start=1):
            pipe.send((_WINDOW, start, end, host, outbox[shard]))
            outbox[shard] = []
        # Slice 0, while the workers step theirs.
        local = self._local
        local.open(start, end, host)
        frames, outbox[0] = outbox[0], []
        if self._checking:
            _check_handoff(local.span, frames, start, end)
        local.deliver(frames)
        handled, drained, stepped, stepped_finish = local.step(end)
        emissions = list(drained)
        self._idle[0] = local.idle_finish(end)
        self._quiet[0] = local.quiescent()
        self._next[0] = local.next_event_time()
        if self._checking:
            _audit_slice(local.sim, local, start, end)
        for shard in range(1, len(outbox)):
            _, count, emitted, shard_stepped, finish, idle, quiet, next_time = _recv(
                self._procs, self._pipes, shard - 1
            )
            handled += count
            # Each shard numbers its emissions in its own drain order:
            # per-node order is preserved and cross-node ties resolve on
            # node id before the order field is ever consulted.
            emissions.extend(
                (host_time, node_id, order, Packet(*values))
                for host_time, node_id, order, values in emitted
            )
            stepped += shard_stepped
            if finish > stepped_finish:
                stepped_finish = finish
            self._idle[shard] = idle
            self._quiet[shard] = quiet
            self._next[shard] = next_time
        return handled, emissions, stepped, stepped_finish

    def idle_finish(self, end: SimTime) -> float:
        return max(self._idle)

    def max_slowdowns(self, start: SimTime, lengths: np.ndarray) -> np.ndarray:
        # Arrays cross the pipe as raw bytes: an ndarray pickles several
        # times slower than the few quanta a typical span covers.
        for pipe in self._pipes:
            pipe.send((_SPAN, start, lengths.tobytes()))
        max_slow = self._local.max_slowdowns(start, lengths)
        for reply in self._replies():
            np.maximum(max_slow, np.frombuffer(reply[1]), out=max_slow)
        return max_slow

    def touch(self, node_id: int) -> None:
        # Every frame reaching the controller is due at or beyond the
        # barrier (the drain contract), which it resolves without asking
        # where the destination is.  A position query therefore means the
        # contract broke, and failing loudly beats a silently divergent
        # delivery race against clocks that live in other processes.
        raise RuntimeError(
            "mid-window position query during a sharded run — a frame was "
            "due before the barrier, breaking the Q <= min-latency contract"
        )

    def settle(self) -> None:
        pass  # every shard audits its own clocks; the loop reads none

    def quiescent(self) -> bool:
        return all(self._quiet)

    def blocked_names(self) -> list[str]:
        for pipe in self._pipes:
            pipe.send((_REPORT,))
        names = self._local.blocked_names()
        return names + [name for reply in self._replies() for name in reply[1]]

    def final_facts(self, start: SimTime, end: SimTime) -> tuple[SimTime, float]:
        for pipe in self._pipes:
            pipe.send((_FINAL, start, end))
        last, finish_host = self._local.final_facts(start, end)
        for _, shard_last, shard_finish in self._replies():
            last = max(last, shard_last)
            finish_host = max(finish_host, shard_finish)
        return last, finish_host

    def node_reports(self) -> list[NodeReport]:
        for pipe in self._pipes:
            pipe.send((_FINISH,))
        reports = self._local.node_reports()
        return reports + [report for reply in self._replies() for report in reply[1]]


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #


def _worker_recv(pipe: _Pipe) -> Optional[tuple]:
    """One parent command, or None when the parent is gone.

    The worker-side mirror of the parent's :func:`_recv`: every wait
    probes parent liveness, so an orphaned worker (the parent was
    SIGKILLed and its atexit cleanup never ran) exits within seconds
    instead of blocking on the pipe forever.
    """
    parent = multiprocessing.parent_process()
    if not pipe.wait(parent.is_alive if parent is not None else lambda: True):
        return None
    try:
        return pipe.recv()
    except (EOFError, OSError):
        return None


def _shard_worker(
    sim: ClusterSimulator,
    span: range,
    conn: Any,
    cpu: Optional[int],
    checking: bool,
) -> None:
    """One worker: owns nodes ``span`` of the forked simulator.

    The fork hands the worker the complete built simulator — live
    application generators, queues, clocks, host models, transports —
    and it drives the serial :class:`~repro.core.stepping.VectorStepper`
    over its slice only.  Per window it draws its nodes' rates, applies
    the parent's deliveries, drains each active node, and returns the
    emission batch with absolute host timestamps plus the slice's finish
    times, quiescence and next event time; per fast-forward span it
    returns the slice's per-quantum maximum slowdown.  The worker
    reports facts and keeps no accounts: whatever it counted would be
    lost with the process.
    """
    pipe = _Pipe(conn, _bind(cpu))
    try:
        stepper = VectorStepper(sim, span)
        while True:
            command = _worker_recv(pipe)
            if command is None:
                break  # the parent (mediator) died; don't block forever
            op = command[0]
            if op == _WINDOW:
                _, start, end, host, deliveries = command
                stepper.open(start, end, host)
                frames = [
                    (Packet(*values), deliver_time)
                    for values, deliver_time in deliveries
                ]
                if checking:
                    _check_handoff(span, frames, start, end)
                stepper.deliver(frames)
                sim._in_window = True
                handled, emissions, stepped, finish = stepper.step(end)
                sim._in_window = False
                idle = stepper.idle_finish(end)
                if checking:
                    _audit_slice(sim, stepper, start, end)
                pipe.send((
                    _WINDOW,
                    handled,
                    [
                        (host_time, node_id, order, _packet_fields(packet))
                        for host_time, node_id, order, packet in emissions
                    ],
                    stepped,
                    finish,
                    idle,
                    stepper.quiescent(),
                    stepper.next_event_time(),
                ))
            elif op == _SPAN:
                _, start, lengths = command
                max_slow = stepper.max_slowdowns(
                    start, np.frombuffer(lengths, dtype=np.int64)
                )
                pipe.send((_SPAN, max_slow.tobytes()))
            elif op == _FINAL:
                _, start, end = command
                shard_last, finish_host = stepper.final_facts(start, end)
                pipe.send((_FINAL, shard_last, finish_host))
            elif op == _REPORT:
                pipe.send((_REPORT, stepper.blocked_names()))
            elif op == _FINISH:
                pipe.send((_FINISH, stepper.node_reports()))
            else:  # _EXIT (or anything unknown): leave quietly
                break
    except Exception as error:  # ship the failure; the parent decides
        try:
            pipe.send((
                _ERROR, type(error).__name__, str(error),
                traceback.format_exc(),
            ))
        except OSError:
            pass
    finally:
        conn.close()


def _check_handoff(
    span: range, frames: list[tuple[Packet, SimTime]], start: SimTime, end: SimTime
) -> None:
    """Every frame handed to a shard belongs to its slice and its window."""
    for packet, deliver_time in frames:
        if not (packet.dst in span and start <= deliver_time <= end):
            raise InvariantViolation(
                "shard-handoff",
                f"delivery for node {packet.dst} at "
                f"{format_time(deliver_time)} does not belong to "
                f"shard nodes [{span.start}, {span.stop}) in "
                f"window [{format_time(start)}, {format_time(end)})",
                node=packet.dst,
                sim_time=deliver_time,
            )


def _audit_slice(
    sim: ClusterSimulator, stepper: VectorStepper, start: SimTime, end: SimTime
) -> None:
    """Per-shard barrier audit: the slice-local checks the attached
    sanitizer's ``on_quantum_end`` would run against the whole cluster
    (leftover events behind the barrier, clock anchors inside the
    window); the parent's unattached sanitizer covers everything else.
    """
    stepper.settle()
    for node_id in stepper.span:
        pending = sim.nodes[node_id].peek_time()
        if pending is not None and pending < end:
            raise InvariantViolation(
                "unprocessed-event",
                f"event at {format_time(pending)} left behind the barrier "
                f"at {format_time(end)}",
                node=node_id,
                sim_time=pending,
            )
        seg_sim = sim._clocks[node_id].seg_sim
        if not start <= seg_sim <= end:
            raise InvariantViolation(
                "clock-regression",
                f"clock segment anchored at {format_time(seg_sim)} outside "
                f"its window [{format_time(start)}, {format_time(end)}]",
                node=node_id,
                sim_time=seg_sim,
            )


__all__ = [
    "ShardOutcome",
    "WorkerFailure",
    "run_sharded",
]
