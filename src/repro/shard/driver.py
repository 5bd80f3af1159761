"""Sharded single-run execution: one cluster across many host processes.

This is the paper's own execution model applied to the reproduction
itself.  The original system ran *each simulated node* as a SimNow
process on a farm blade, with a central mediator releasing them quantum
by quantum; here the simulated nodes of one
:class:`~repro.core.cluster.ClusterSimulator` are partitioned across N
forked worker processes, and the parent process plays the mediator:

* **Per-quantum barrier.**  The parent runs the *same*
  :meth:`ClusterSimulator.run() <repro.core.cluster.ClusterSimulator.run>`
  loop a serial run does — horizon, fast-forward, host and barrier cost,
  quantum statistics, policy step, result — with this module's
  ``_ShardStepper`` installed as its stepping strategy: each window is
  one message round-trip per worker (the barrier).  Nothing of the
  loop's accounting is restated here.
* **Shared-memory arrays.**  Per-quantum busy/idle clock rates flow
  parent -> workers, and per-node next-event times plus the busy mask
  flow workers -> parent, through shared numpy arrays (no per-window
  serialization of hot state).  The parent draws every jitter value from
  its own host models, so the RNG stream consumption is identical to a
  serial run; workers never draw.
* **Window-boundary frame exchange.**  Workers queue the frames their
  nodes emit and hand them to the parent at the barrier, exactly like
  the serial ground-truth drain: eligibility requires ``max_Q <= T``
  (quantum never longer than the minimum network latency), so every
  in-window emission is provably due at or beyond the barrier and no
  node can observe another mid-window.  The parent sorts the merged
  batch into the serial emission order and routes it through the
  unchanged :class:`~repro.network.controller.NetworkController`.

Because the loop is the serial loop, the workers drain their slices with
the serial :class:`~repro.core.stepping.VectorStepper`, the rates are
the same doubles, the emission order is the same total order, and the
cost reduction is a float ``max`` (insensitive to grouping), a sharded
run is **bit-identical to the serial path** — the same acceptance gate
the vectorized stepper meets, enforced by ``tests/test_shard.py``.

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
import traceback
from ctypes import c_bool, c_double, c_int64
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

import numpy as np

from repro.analysis.invariants import CausalitySanitizer, InvariantViolation
from repro.core.cluster import ClusterSimulator, DeadlockError, RunResult
from repro.core.stepping import (
    Emission,
    NodeReport,
    Rates,
    VectorStepper,
    nodes_quiescent,
)
from repro.engine.units import SimTime, format_time
from repro.network.packet import Packet
from repro.node.hostmodel import BUSY
from repro.shard.partition import partition_nodes, resolve_shards

try:  # pragma: no cover - present on every supported CPython build
    from multiprocessing.sharedctypes import RawArray
except ImportError:  # pragma: no cover - stripped-down interpreters
    RawArray = None  # type: ignore[assignment]

# Pipe protocol tags (parent -> worker commands, worker -> parent replies).
_WINDOW = "window"
_FINAL = "final"
_REPORT = "report"
_FINISH = "finish"
_EXIT = "exit"
_ERROR = "error"

#: Barrier-protocol ownership of each shared-memory array: which side may
#: write its slots after the fork.  The parent publishes the per-window
#: clock rates; the workers publish next-event times and the busy mask.
#: simlint's shard-safety pass (rule SIM020) enforces this table
#: statically — writes from the non-owning side race the barrier.
SHM_OWNERS: dict[str, str] = {
    "busy_rates": "parent",
    "idle_rates": "parent",
    "times_arr": "worker",
    "busy_mask": "worker",
}

#: Seconds between liveness probes while waiting on a worker reply.
_POLL_INTERVAL = 0.2


class WorkerFailure(RuntimeError):
    """A shard worker died or raised; the run falls back to serial."""


@dataclass
class ShardOutcome:
    """What :func:`run_sharded` did and produced.

    Attributes:
        result: the finished run (bit-identical however it executed).
        shards: worker processes actually used (1 = the serial path).
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
    if RawArray is None:
        return "multiprocessing shared memory unavailable; ran serially"
    return None


def run_sharded(
    sim_factory: Callable[[], ClusterSimulator],
    shards: Optional[int] = None,
) -> ShardOutcome:
    """Run one simulation, sharded across worker processes when possible.

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
# Parent (mediator) side
# --------------------------------------------------------------------- #


def _run_sharded_attempt(sim: ClusterSimulator, shards: int) -> RunResult:
    """Fork the workers and run the quantum loop with remote stepping."""
    num_nodes = len(sim.nodes)
    slices = partition_nodes(num_nodes, shards)
    ctx = multiprocessing.get_context("fork")

    raw_busy_rates = RawArray(c_double, num_nodes)
    raw_idle_rates = RawArray(c_double, num_nodes)
    raw_times = RawArray(c_int64, num_nodes)
    raw_busy = RawArray(c_bool, num_nodes)
    busy_rates: np.ndarray = np.frombuffer(raw_busy_rates, dtype=np.float64)
    idle_rates: np.ndarray = np.frombuffer(raw_idle_rates, dtype=np.float64)
    times_arr: np.ndarray = np.frombuffer(raw_times, dtype=np.int64)
    busy_mask: np.ndarray = np.frombuffer(raw_busy, dtype=np.bool_)
    busy_rates[:] = 1.0
    idle_rates[:] = 1.0
    for node_id, node in enumerate(sim.nodes):
        t = node.peek_time()
        times_arr[node_id] = -1 if t is None else t
        busy_mask[node_id] = node.activity == BUSY

    # The cluster-attached sanitizer audits parent node/clock state, which
    # is stale the moment the workers fork; replace it with an unattached
    # twin (same bounds) so every pure-number invariant — window clamps,
    # delivery decisions, accounting, the ground-truth zero-straggler
    # gate — still fires parent-side.  Workers audit their own slices.
    checking = sim.sanitizer is not None
    if checking:
        fresh = CausalitySanitizer(
            sim.policy.min_quantum,
            sim.policy.max_quantum,
            sim.controller.latency_model.min_latency(),
        )
        sim.sanitizer = fresh
        sim.controller.sanitizer = fresh

    procs: list[Any] = []
    conns: list[Any] = []
    try:
        for span in slices:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker,
                args=(
                    sim, span, child_conn,
                    busy_rates, idle_rates, times_arr, busy_mask, checking,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
            conns.append(parent_conn)
        # Parent-only from here on: the loop reads activity from the
        # worker-published mask, and steps windows through the pipes.
        sim._busy_mask = busy_mask
        sim._stepper = _ShardStepper(
            sim, slices, procs, conns, busy_rates, idle_rates, times_arr
        )
        return sim.run()
    finally:
        for conn in conns:
            try:
                conn.send((_EXIT,))
            except OSError:
                pass
        for proc in procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        for conn in conns:
            conn.close()


def _recv(procs: list[Any], conns: list[Any], index: int) -> tuple:
    """One worker reply, translating shipped errors and dead workers."""
    conn = conns[index]
    while not conn.poll(_POLL_INTERVAL):
        if not procs[index].is_alive():
            raise WorkerFailure(f"shard worker {index} exited unexpectedly")
    try:
        reply = conn.recv()
    except (EOFError, OSError) as error:
        raise WorkerFailure(f"shard worker {index} hung up: {error}") from error
    if reply[0] == _ERROR:
        _, name, text, trace = reply
        if name == "InvariantViolation":
            # Re-raised under the parent's type so checked sharded runs
            # fail exactly like checked serial runs (never masked by the
            # serial-retry fallback).
            raise InvariantViolation("shard-worker", text)
        if name == "DeadlockError":
            raise DeadlockError(text)
        raise WorkerFailure(f"shard worker {index} failed: {name}: {text}\n{trace}")
    return reply


class _ShardStepper:
    """Steps each window in the workers: one pipe round trip per shard.

    The :class:`~repro.core.stepping.Stepper` that
    :meth:`ClusterSimulator.run` drives during a sharded run.  It owns no
    accounting — the loop charges costs and steps the policy exactly as
    it does serially — and only moves per-node facts across the barrier.
    """

    batched = True

    def __init__(
        self,
        sim: ClusterSimulator,
        slices: list[range],
        procs: list[Any],
        conns: list[Any],
        busy_rates: np.ndarray,
        idle_rates: np.ndarray,
        times_arr: np.ndarray,
    ) -> None:
        self._sim = sim
        self._procs = procs
        self._conns = conns
        self._rates = (busy_rates, idle_rates)
        self._times_arr = times_arr
        self._shard_of = [
            index for index, span in enumerate(slices) for _ in span
        ]
        self._quiet = [
            nodes_quiescent(sim.nodes[node_id] for node_id in span)
            for span in slices
        ]
        self._deliveries: list[list[tuple[Packet, SimTime]]] = [
            [] for _ in slices
        ]
        self._start: SimTime = 0
        self._host = 0.0

    def _replies(self) -> list[tuple]:
        """One reply from every worker, in shard order."""
        return [
            _recv(self._procs, self._conns, index)
            for index in range(len(self._conns))
        ]

    def next_event_time(self) -> Optional[SimTime]:
        pending = self._times_arr[self._times_arr >= 0]
        return int(pending.min()) if len(pending) else None

    def open(self, start: SimTime, end: SimTime, host: float) -> Rates:
        # The division happens parent-side, so workers read the identical
        # doubles a serial clock reset would be handed.
        busy_rates, idle_rates = self._rates
        busy, idle = self._sim._window_rates(start, end)
        busy_rates[:] = busy
        idle_rates[:] = idle
        self._start = start
        self._host = host
        return self._rates

    def deliver(self, frames: Iterable[tuple[Packet, SimTime]]) -> None:
        for frame in frames:
            self._deliveries[self._shard_of[frame[0].dst]].append(frame)

    def step(self, end: SimTime) -> tuple[int, list[Emission], list[int], float]:
        conns = self._conns
        for index in range(len(conns)):
            conns[index].send(
                (_WINDOW, self._start, end, self._host, self._deliveries[index])
            )
            self._deliveries[index] = []
        handled = 0
        emissions: list[Emission] = []
        stepped: list[int] = []
        stepped_finish = -math.inf
        for index in range(len(conns)):
            _, count, emitted, touched, finish, quiet = _recv(self._procs, conns, index)
            handled += count
            # Each worker numbers its emissions in its own drain order:
            # per-node order is preserved and cross-node ties resolve on
            # node id before the order field is ever consulted.
            emissions.extend(emitted)
            stepped.extend(touched)
            if finish > stepped_finish:
                stepped_finish = finish
            self._quiet[index] = quiet
        return handled, emissions, stepped, stepped_finish

    def touch(self, node_id: int) -> None:
        # Every frame reaching the controller is due at or beyond the
        # barrier (the drain contract), which it resolves without asking
        # where the destination is.  A position query therefore means the
        # contract broke, and failing loudly beats a silently divergent
        # delivery race against the parent's stale clocks.
        raise RuntimeError(
            "mid-window position query during a sharded run — a frame was "
            "due before the barrier, breaking the Q <= min-latency contract"
        )

    def settle(self) -> None:
        pass  # workers audit their own clocks; the parent's are never read

    def quiescent(self) -> bool:
        return all(self._quiet)

    def blocked_names(self) -> list[str]:
        for conn in self._conns:
            conn.send((_REPORT,))
        return [name for reply in self._replies() for name in reply[1]]

    def final_facts(self, start: SimTime, end: SimTime) -> tuple[SimTime, float]:
        for conn in self._conns:
            conn.send((_FINAL, start, end))
        replies = self._replies()
        return (
            max(shard_last for _, shard_last, _ in replies),
            max(finish_host for _, _, finish_host in replies),
        )

    def node_reports(self) -> list[NodeReport]:
        for conn in self._conns:
            conn.send((_FINISH,))
        return [report for reply in self._replies() for report in reply[1]]


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #


def _worker_recv(conn: Any) -> Optional[tuple]:
    """One parent command, or None when the parent is gone.

    The worker-side mirror of the parent's :func:`_recv`: never a bare
    blocking ``recv`` — every wait polls with a bounded timeout and
    probes parent liveness, so an orphaned worker (the parent was
    SIGKILLed and its atexit cleanup never ran) exits within seconds
    instead of blocking on the pipe forever.
    """
    parent = multiprocessing.parent_process()
    while not conn.poll(_POLL_INTERVAL):
        if parent is not None and not parent.is_alive():
            return None
    try:
        return conn.recv()  # type: ignore[no-any-return]
    except (EOFError, OSError):
        return None


def _shard_worker(
    sim: ClusterSimulator,
    span: range,
    conn: Any,
    busy_rates: np.ndarray,
    idle_rates: np.ndarray,
    times_arr: np.ndarray,
    busy_mask: np.ndarray,
    checking: bool,
) -> None:
    """One worker: owns nodes ``span`` of the forked simulator.

    The fork hands the worker the complete built simulator — live
    application generators, queues, clocks, transports — and it drives
    the serial :class:`~repro.core.stepping.VectorStepper` over its slice
    only.  Per window it applies the parent's cross-shard deliveries,
    loads the shared rate arrays, drains each active node, and returns
    the emission batch with absolute host timestamps; next-event times
    and the busy mask go back through the shared arrays.  The worker
    reports facts and keeps no accounts: whatever it counted would be
    lost with the process.
    """
    try:
        nodes = sim.nodes
        stepper = VectorStepper(sim, span)
        times = stepper.times
        while True:
            command = _worker_recv(conn)
            if command is None:
                break  # the parent (mediator) died; don't block forever
            op = command[0]
            if op == _WINDOW:
                _, start, end, host_start, deliveries = command
                stepper.load(start, host_start, busy_rates, idle_rates)
                if checking:
                    for packet, deliver_time in deliveries:
                        if not (
                            packet.dst in span and start <= deliver_time <= end
                        ):
                            raise InvariantViolation(
                                "shard-handoff",
                                f"delivery for node {packet.dst} at "
                                f"{format_time(deliver_time)} does not belong to "
                                f"shard nodes [{span.start}, {span.stop}) in "
                                f"window [{format_time(start)}, {format_time(end)})",
                                node=packet.dst,
                                sim_time=deliver_time,
                            )
                stepper.deliver(deliveries)
                sim._in_window = True
                handled, emissions = stepper.drain(end)
                sim._in_window = False
                for node_id in span:
                    t = times[node_id]
                    times_arr[node_id] = -1 if t is None else t
                    busy_mask[node_id] = nodes[node_id].activity == BUSY
                touched, finish = stepper.stepped(end)
                if checking:
                    _audit_slice(sim, stepper, start, end)
                conn.send(
                    (_WINDOW, handled, emissions, touched, finish, stepper.quiescent())
                )
            elif op == _FINAL:
                _, start, end = command
                shard_last, finish_host = stepper.final_facts(start, end)
                conn.send((_FINAL, shard_last, finish_host))
            elif op == _REPORT:
                conn.send((_REPORT, stepper.blocked_names()))
            elif op == _FINISH:
                conn.send((_FINISH, stepper.node_reports()))
            else:  # _EXIT (or anything unknown): leave quietly
                break
    except Exception as error:  # ship the failure; the parent decides
        try:
            conn.send((
                _ERROR, type(error).__name__, str(error),
                traceback.format_exc(),
            ))
        except OSError:
            pass
    finally:
        conn.close()


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
