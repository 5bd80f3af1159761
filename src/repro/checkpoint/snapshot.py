"""Deterministic snapshot/restore of a run at a quantum boundary.

Conservative quantum synchronization makes a barrier instant a complete
cut of the simulation: nothing is in flight except what the controller
holds for future windows, every node is exactly at the boundary, and all
randomness lives in named, restorable generator states.  A
:class:`SimSnapshot` captures that cut; :func:`restore_snapshot` rebuilds
it onto a freshly-constructed simulator so that running to completion is
**bit-identical** to the uninterrupted run — results, trace streams,
packet ids, and cache keys included.

What is captured, and why (see DESIGN.md for the full contract):

* **Loop state** — simulated/host time, the policy's ``q_state``, the
  accumulating :class:`~repro.core.quantum.QuantumStats`,
  :class:`~repro.core.stats.HostCostBreakdown`, timeline, and perf
  counters.  The driver resumes its main loop from these exact locals.
* **Event queues** — every live event per node (dead entries are
  dropped — compaction applied), plus the queue's sequence counter so
  future pushes tie-break identically.
* **Node state** — activity, finish/result fields, stats, the blocked
  receive, and the NIC and transport objects wholesale (mailboxes,
  reassembly, flow windows, RTO bookkeeping).  Everything is pickled in
  **one** payload so object identity is preserved: a packet sitting in
  an event queue and in a transport's unacked map stays one object.
* **Application generators** — live Python generators do not pickle, so
  each node records the exact sequence of values ever sent into its app
  (``None`` compute wakes and received ``Message`` objects).  Restore
  replays that input log into a freshly built generator, discarding the
  yields; generator-internal state (loop counters, MPI bookkeeping,
  app-private RNGs) is thereby rebuilt exactly.
* **Randomness** — every named RNG stream's ``bit_generator.state``,
  each host model's unconsumed jitter buffer (normalized across the
  scalar/vectorized prefetch layouts, which is what makes snapshots
  restore onto either driver), and the global packet-id counter.
* **Controller and observers** — routing stats, the held-frame heap,
  fault-injector counters, and the trace collector's ring, tallies and
  JSONL byte offset (the stream continues byte-identically).  Sanitizer
  tallies are *synthesized* from controller/injector stats on restore,
  so snapshots are independent of whether checking was enabled.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.engine.process import ProcessExit
from repro.engine.units import SimTime
from repro.network.controller import DeliveryKind
from repro.network.packet import packet_id_position, set_packet_ids
from repro.node.hostmodel import BUSY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cluster import ClusterSimulator

#: Bump whenever the captured-state schema changes; older snapshots are
#: then quarantined as stale instead of restored wrong.
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class SimSnapshot:
    """One verified-restorable cut of a run at a quantum boundary."""

    version: int
    sim_time: SimTime
    quanta: int
    payload: bytes

    @property
    def digest(self) -> str:
        """SHA-256 of the payload (stored and verified by the store)."""
        return hashlib.sha256(self.payload).hexdigest()


def _remaining_jitter(sim: "ClusterSimulator") -> list[np.ndarray]:
    """Each node's unconsumed jitter draws, in consumption order.

    The stepper's jitter feed prefetches *out of* the per-model buffers,
    so the draws still sitting in the feed's matrix precede the draws
    still sitting in a model's private buffer.  Folding both into one
    array (feed rows first) makes the snapshot independent of which
    stepper produced it: restore puts the remainder back as the model's
    buffer, the resumed run's stepper starts with a fresh (empty) feed,
    and either driver then consumes the identical sequence.  Snapshots
    are taken by serial runs, whose stepper owns every node.
    """
    # No stepper yet (the run has not started) means nothing prefetched.
    feed = getattr(sim._stepper, "feed", None)
    matrix = feed.pending() if feed is not None else np.empty((0, 0))
    remaining = []
    for index, model in enumerate(sim.host_models):
        buffered = model._buffer[model._cursor :]
        if len(matrix):
            remaining.append(np.concatenate((matrix[:, index], buffered)))
        else:
            remaining.append(np.array(buffered))
    return remaining


def capture_snapshot(
    sim: "ClusterSimulator",
    *,
    now: SimTime,
    host: float,
    q_state: float,
    quantum_stats: Any,
    breakdown: Any,
    timeline: Any,
) -> SimSnapshot:
    """Capture the run's complete state at the quantum boundary *now*.

    Called by the driver at the bottom of its main loop (and by tests
    through a custom ``checkpoint_sink``).  Never mutates live state.
    """
    if sim._in_window:
        raise RuntimeError("snapshots are only defined at quantum boundaries")
    nodes_state = []
    for node in sim.nodes:
        if node.app_log is None:
            raise RuntimeError(
                f"{node.name} has no application input log; snapshots require "
                "a simulator constructed with ClusterConfig.checkpoint set"
            )
        # The neutral queue API works for both engine backends; native
        # events pickle through a pure-python rebuild helper, so the
        # payload itself is backend-independent.
        events = node.queue.live_events()
        nodes_state.append(
            {
                "events": events,
                "next_seq": node.queue._next_seq,
                "activity": node.activity,
                "finished": node.finished,
                "app_finish_time": node.app_finish_time,
                "app_result": node.app_result,
                "stats": node.stats,
                "blocked_recv": node._blocked_recv,
                "blocked_since": node._blocked_since,
                "nic": node.nic,
                "transport": node.transport,
                "app_log": node.app_log,
            }
        )
    controller = sim.controller
    collector_state = None
    collector = sim.collector
    if collector is not None:
        sink = collector._sink
        offset: Optional[int] = None
        if sink is not None:
            sink.flush()
            offset = sink.tell()
        collector_state = {
            "events": list(collector.events),
            "dropped": collector.dropped,
            "counts": dict(collector.counts),
            "quantum_index": collector.quantum_index,
            "straggler_packets": collector.straggler_packets,
            "straggler_lag_total": collector.straggler_lag_total,
            "sink_offset": offset,
        }
    state = {
        "loop": {
            "now": now,
            "host": host,
            "q_state": q_state,
            "quantum_stats": quantum_stats,
            "breakdown": breakdown,
            "timeline": timeline,
        },
        "perf": sim.perf,
        "packet_id_position": packet_id_position(),
        "rng": {
            name: generator.bit_generator.state
            for name, generator in sorted(sim.rng._cache.items())
        },
        "jitter": _remaining_jitter(sim),
        "nodes": nodes_state,
        "controller": {
            "stats": controller.stats,
            "packets_this_quantum": controller.packets_this_quantum,
            "future": list(controller._future),
            "future_seq": controller._future_seq,
        },
        "injector_stats": sim.injector.stats if sim.injector is not None else None,
        "collector": collector_state,
    }
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    quanta = sim.perf.event_quanta + sim.perf.ff_quanta
    return SimSnapshot(
        version=SNAPSHOT_VERSION, sim_time=now, quanta=quanta, payload=payload
    )


def _replay_app_log(node: Any, values: list[Any]) -> None:
    """Re-drive a fresh application generator through its input history.

    The yields are discarded — their side effects (scheduled events, NIC
    and transport mutations) are overwritten wholesale by the snapshot —
    but executing the generator body rebuilds everything a pickle cannot
    reach: local variables, loop positions, MPI collective bookkeeping.
    """
    for value in values:
        try:
            node.process.step(value)
        except ProcessExit:
            break


def restore_snapshot(sim: "ClusterSimulator", snapshot: SimSnapshot) -> None:
    """Restore *snapshot* onto the freshly-constructed simulator *sim*.

    *sim* must have been built through the same construction path (same
    workload, configuration and seed) and not yet run; after restoring,
    ``sim.run()`` continues the run and its completion is bit-identical
    to the uninterrupted one.
    """
    if snapshot.version != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot version {snapshot.version} does not match "
            f"{SNAPSHOT_VERSION}"
        )
    perf = sim.perf
    if perf.event_quanta or perf.ff_quanta or perf.events:
        raise RuntimeError("snapshots restore only onto a fresh simulator")
    state = pickle.loads(snapshot.payload)

    # 1. Replay application input logs into the fresh generators.  Replay
    #    may consume app-private randomness; the named-stream restore in
    #    step 3 corrects every simulator-owned stream afterwards.
    for node, node_state in zip(sim.nodes, state["nodes"]):
        _replay_app_log(node, node_state["app_log"])

    # 2. Overwrite concrete node state from the snapshot's object graph.
    for node, node_state in zip(sim.nodes, state["nodes"]):
        # Rebuilt in place (the driver caches bound peek methods): the
        # (time, _seq) pairs are unique, so re-heapifying restores the
        # exact pop order of the captured queue.  The neutral API accepts
        # events from either backend — snapshots captured under one
        # restore under the other.
        node.queue.restore_events(node_state["events"], node_state["next_seq"])
        node.activity = node_state["activity"]
        node.finished = node_state["finished"]
        node.app_finish_time = node_state["app_finish_time"]
        node.app_result = node_state["app_result"]
        node.stats = node_state["stats"]
        node._blocked_recv = node_state["blocked_recv"]
        node._blocked_since = node_state["blocked_since"]
        node.nic = node_state["nic"]
        node.transport = node_state["transport"]
        node.app_log = node_state["app_log"]

    # 3. Randomness: named streams, jitter buffers, packet ids.
    for name, generator_state in state["rng"].items():
        sim.rng.stream(name).bit_generator.state = generator_state
    for model, buffered in zip(sim.host_models, state["jitter"]):
        model._buffer = buffered
        model._cursor = 0
    set_packet_ids(state["packet_id_position"])

    # 4. Controller: routing stats and the held-frame heap (the pickled
    #    list preserves the original heap's array order).
    controller = sim.controller
    controller_state = state["controller"]
    controller.stats = controller_state["stats"]
    controller.packets_this_quantum = controller_state["packets_this_quantum"]
    controller._future = controller_state["future"]
    controller._future_seq = controller_state["future_seq"]

    # 5. Fault injector counters ("faults" stream state came with step 3).
    if sim.injector is not None and state["injector_stats"] is not None:
        sim.injector.stats = state["injector_stats"]

    # 6. Driver-internal derived state.
    sim.perf = state["perf"]
    sim._busy_mask = np.array([node.activity == BUSY for node in sim.nodes])

    # 7. Sanitizer tallies are synthesized from the restored stats so a
    #    checked resume reconciles at run end exactly like an unbroken
    #    checked run — and snapshots stay independent of ``check``.
    sanitizer = sim.sanitizer
    if sanitizer is not None:
        stats = controller.stats
        sanitizer._counts = {
            DeliveryKind.EXACT_NOW: stats.exact_now,
            DeliveryKind.EXACT_FUTURE: stats.exact_future,
            DeliveryKind.STRAGGLER_NOW: stats.stragglers_now,
            DeliveryKind.STRAGGLER_NEXT_QUANTUM: stats.stragglers_next_quantum,
        }
        if sim.injector is not None:
            faults = sim.injector.stats
            sanitizer._fault_drops = {
                "loss": faults.frames_dropped,
                "partition": faults.partition_drops,
            }
        sanitizer.quantum_index = stats.quanta_seen
        sanitizer._last_end = state["loop"]["now"]
        sanitizer._in_window = False

    # 8. Trace collector: ring, tallies, and the JSONL stream position
    #    (truncate-and-continue keeps the byte stream identical to an
    #    uninterrupted traced run).
    collector_state = state["collector"]
    if collector_state is not None:
        collector = sim.collector
        if collector is None:
            raise RuntimeError(
                "snapshot carries trace state but the simulator is untraced"
            )
        collector.restore_ring(collector_state["events"], collector_state["dropped"])
        collector.counts = collector_state["counts"]
        collector.quantum_index = collector_state["quantum_index"]
        collector.straggler_packets = collector_state["straggler_packets"]
        collector.straggler_lag_total = collector_state["straggler_lag_total"]
        offset = collector_state["sink_offset"]
        if offset is not None:
            path = collector.config.jsonl_path
            assert path is not None
            handle = open(path, "r+", encoding="utf-8")
            handle.seek(offset)
            handle.truncate()
            collector._sink = handle

    # 9. Hand the driver its loop state; run() picks it up instead of
    #    starting from zero.
    sim._resume = dict(state["loop"])
