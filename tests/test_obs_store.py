"""The columnar trace ring: same events, same bytes, fewer bytes per event.

The collector's ring stores field values in typed columns and builds
event objects only on read.  These tests hold it to the behaviour of the
ring it replaced — a ``deque(maxlen=capacity)`` of event dataclasses —
and pin the bytes every reader produces from it.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import sys
from collections import Counter, deque
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import CheckpointConfig, restore_snapshot
from repro.core import ClusterConfig, ClusterSimulator
from repro.core.quantum import AdaptiveQuantumPolicy, FixedQuantumPolicy
from repro.engine.units import MICROSECOND as US
from repro.harness.configs import PolicySpec
from repro.harness.experiment import ExperimentRunner
from repro.network import PAPER_NETWORK, NetworkController
from repro.node import SimulatedNode
from repro.obs.collector import TraceCollector, TraceConfig
from repro.obs.events import (
    BarrierWait,
    FastForward,
    FaultTrace,
    PacketTrace,
    QuantumBegin,
    QuantumEnd,
    RequestTrace,
    TransportTrace,
)
from repro.obs.export import chrome_trace, write_jsonl
from repro.service import ArrivalProfile, ServiceWorkload
from repro.workloads import IsWorkload

SEED = 42
#: Small enough that the IS-4 run below sheds most of its 284 events.
SHED = 64

#: sha256 of the bytes the list-of-dataclasses ring produced for the runs
#: below; the columnar ring must reproduce them exactly.
PINNED = {
    "is_sink": "e873de559cddc6c48222ea55ce049a2fad3b4b946f116d01342cd35551b9e80f",
    "is_ring_jsonl": "0ad44c5a10a14b72374f97512c9fd45729eef0a33ab367f217dd6a914e533635",
    "is_chrome": "4106abaee280a07493f3d312bb6bdf98ef90bf2f71add78e02900af1cb7463b1",
    "service_sink": "993d70442e0f9d3284c6aa26a78d472c4e9bb6a09a58dd74762a6b60f9833d54",
}
#: The snapshot payloads of a traced, checkpointed IS-4 run.  A payload
#: also pickles ndarrays and slotted dataclasses, whose pickled form
#: depends on the numpy major and python minor version; pinned for the
#: pair it was recorded on.
SNAPSHOT_PAYLOADS = "34ca55da7e534125ddaa966d1654ad630e8f8f0216721cd306561e55d4cccc86"
SNAPSHOT_ENV = ((3, 11), "2")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _is4() -> IsWorkload:
    return IsWorkload(total_keys=2**15, iterations=2, ops_per_key=16)


def _dyn() -> PolicySpec:
    return PolicySpec("dyn", lambda: AdaptiveQuantumPolicy(US, 1000 * US))


def _is4_sim(capacity: int, directory: Path) -> ClusterSimulator:
    nodes = [SimulatedNode(rank, app) for rank, app in enumerate(_is4().build_apps(4))]
    config = ClusterConfig(
        seed=SEED,
        backend="python",
        trace=TraceConfig(capacity=capacity),
        checkpoint=CheckpointConfig(str(directory), every_quanta=25),
    )
    return ClusterSimulator(
        nodes, NetworkController(4, PAPER_NETWORK(4)), AdaptiveQuantumPolicy(US, 1000 * US), config
    )


class TestPinnedBytes:
    def test_is_jsonl_and_chrome_export(self, tmp_path):
        trace = TraceConfig(capacity=SHED, jsonl_path=str(tmp_path / "is.jsonl"))
        obs = ExperimentRunner(seed=SEED, trace=trace).run_spec(_is4(), 4, _dyn()).obs
        assert obs.dropped > 0 and len(obs) == SHED
        (sink,) = tmp_path.glob("is-*.jsonl")
        write_jsonl(obs, tmp_path / "ring.jsonl")
        assert _sha(sink.read_bytes()) == PINNED["is_sink"]
        assert _sha((tmp_path / "ring.jsonl").read_bytes()) == PINNED["is_ring_jsonl"]
        assert _sha(json.dumps(chrome_trace(obs)).encode()) == PINNED["is_chrome"]

    def test_service_jsonl(self, tmp_path):
        trace = TraceConfig(jsonl_path=str(tmp_path / "svc.jsonl"))
        service = ServiceWorkload(profile=ArrivalProfile(num_requests=100))
        obs = ExperimentRunner(seed=SEED, trace=trace).run_spec(service, 4, _dyn()).obs
        assert obs.total("request") == 200
        (sink,) = tmp_path.glob("svc-*.jsonl")
        assert _sha(sink.read_bytes()) == PINNED["service_sink"]

    @pytest.mark.skipif(
        (sys.version_info[:2], np.__version__.split(".")[0]) != SNAPSHOT_ENV,
        reason="payload digest pinned for python 3.11 / numpy 2",
    )
    def test_snapshot_payloads(self, tmp_path):
        sim = _is4_sim(SHED, tmp_path)
        snaps = []
        sim.checkpoint_sink = snaps.append
        sim.run()
        digest = hashlib.sha256()
        for snap in snaps:
            digest.update(snap.payload)
        assert len(snaps) == 4
        assert digest.hexdigest() == SNAPSHOT_PAYLOADS


class TestRestoreIntoSmallerRing:
    def test_shed_events_are_counted(self, tmp_path):
        sim = _is4_sim(1 << 20, tmp_path)
        snaps = []
        sim.checkpoint_sink = snaps.append
        sim.run()
        reference = sim.collector
        assert snaps and reference.dropped == 0

        resumed = _is4_sim(8, tmp_path)
        resumed.checkpoint_sink = lambda _snap: None
        restore_snapshot(resumed, snaps[-1])
        obs = resumed.collector
        assert len(obs) == 8 and obs.dropped > 0
        assert len(obs) + obs.dropped == sum(obs.counts.values())
        resumed.run()
        assert len(obs) + obs.dropped == sum(obs.counts.values())
        assert obs.counts == reference.counts
        # The newest events win: the resumed ring is the reference's tail.
        assert list(obs.events) == list(reference.events)[-8:]


class TestBytesPerEvent:
    def test_modes32_trace_configuration(self):
        """IS-32 at a fixed 1 us quantum, default TraceConfig (the modes32 cell)."""
        workload = IsWorkload(total_keys=2**22, iterations=5)
        nodes = [SimulatedNode(rank, app) for rank, app in enumerate(workload.build_apps(32))]
        config = ClusterConfig(seed=SEED, backend="python", trace=TraceConfig())
        sim = ClusterSimulator(
            nodes, NetworkController(32, PAPER_NETWORK(32)), FixedQuantumPolicy(US), config
        )
        sim.run()
        store = sim.collector.store
        assert len(store) > 40_000 and sim.collector.dropped == 0
        assert store.nbytes() <= 64 * len(store)
        # Deterministic: a function of what was appended, not of the allocator.
        clone = pickle.loads(pickle.dumps(sim.collector))
        assert clone.store.nbytes() == store.nbytes()


# --------------------------------------------------------------------- #
# Differential: random hook sequences against the dataclass deque ring
# --------------------------------------------------------------------- #


class ReferenceRing:
    """The ring the columnar store replaced: a deque of event objects."""

    def __init__(self, capacity: int) -> None:
        self.events: deque = deque(maxlen=capacity)
        self.counts: Counter = Counter()
        self.dropped = 0
        self.index = 0

    def emit(self, event) -> None:
        self.counts[event.kind] += 1
        if self.events.maxlen:
            if len(self.events) == self.events.maxlen:
                self.dropped += 1
            self.events.append(event)

    def quantum_begin(self, start, end):
        self.emit(QuantumBegin(start, end, self.index))

    def quantum_end(self, start, end, np_count, decision, next_quantum, cost, barrier):
        self.emit(QuantumEnd(end, start, self.index, end - start, np_count, decision,
                             next_quantum, cost, barrier))
        self.index += 1

    def barrier_wait(self, node, end, wait):
        self.emit(BarrierWait(end, self.index, node, wait))

    def fast_forward(self, start, span, quanta, cost, barrier):
        self.emit(FastForward(start, span, quanta, self.index, cost, barrier))
        self.index += quanta

    def on_packet(self, p, delivery):
        self.emit(PacketTrace(p.send_time, p.src, p.dst, p.size_bytes, p.due_time,
                              p.deliver_time, delivery, p.delay_error, p.straggler,
                              p.message_id, p.fragment, p.retransmit, p.kind,
                              p.packet_id, self.index))

    def on_fault(self, p, dst, action, extra):
        self.emit(FaultTrace(p.send_time, action, p.src, dst, p.message_id, p.fragment, extra))

    def on_request(self, now, action, request_id, node, latency, miss):
        self.emit(RequestTrace(now, action, request_id, node, latency, miss))

    def on_retransmit(self, node, frame, now):
        self.emit(TransportTrace(now, "retransmit", node, frame.dst, frame.message_id,
                                 frame.fragment, frame.retransmit))


#: Mostly small values, sometimes past int32 (the columns widen).
_ints = st.one_of(st.integers(0, 1000), st.integers(-(2**62), 2**62))
_floats = st.floats(allow_nan=False)
_words = st.sampled_from(["grow", "shrink", "hold", "final", "exact-now", "drop:loss", ""])


@st.composite
def _packets(draw):
    due, lag = draw(_ints), draw(st.integers(0, 10**6))
    return SimpleNamespace(
        send_time=draw(_ints), src=draw(_ints), dst=draw(_ints), size_bytes=draw(_ints),
        due_time=due, deliver_time=due + lag, delay_error=lag,
        straggler=draw(st.booleans()), message_id=draw(_ints), fragment=draw(_ints),
        retransmit=draw(_ints), kind=draw(_words), packet_id=draw(_ints),
    )


_calls = st.one_of(
    st.tuples(st.just("quantum_begin"), st.tuples(_ints, _ints)),
    st.tuples(st.just("quantum_end"),
              st.tuples(_ints, _ints, _ints, _words, _ints, _floats, _floats)),
    st.tuples(st.just("barrier_wait"), st.tuples(_ints, _ints, _floats)),
    st.tuples(st.just("fast_forward"),
              st.tuples(_ints, _ints, st.integers(1, 10**6), _floats, _floats)),
    st.tuples(st.just("on_packet"), st.tuples(_packets(), _words)),
    st.tuples(st.just("on_fault"), st.tuples(_packets(), _ints, _words, _ints)),
    st.tuples(st.just("on_request"),
              st.tuples(_ints, _words, _ints, _ints, _ints, st.booleans())),
    st.tuples(st.just("on_retransmit"), st.tuples(_ints, _packets(), _ints)),
)


def _same(collector: TraceCollector, reference: ReferenceRing) -> None:
    # repr tells True from 1 and 1.0 from 1, which == does not.
    assert repr(list(collector.events)) == repr(list(reference.events))
    assert len(collector) == len(reference.events)
    assert collector.counts == dict(reference.counts)
    assert collector.dropped == reference.dropped
    assert collector.quantum_index == reference.index
    for cls in (PacketTrace, QuantumEnd, BarrierWait, RequestTrace):
        expected = [event for event in reference.events if type(event) is cls]
        assert repr(collector.of_kind(cls.kind)) == repr(expected)


@settings(max_examples=150, deadline=None)
@given(capacity=st.sampled_from([0, 1, 7, 1 << 20]), calls=st.lists(_calls, max_size=60))
def test_columnar_ring_matches_the_deque_ring(capacity, calls):
    collector = TraceCollector(TraceConfig(capacity=capacity))
    reference = ReferenceRing(capacity)
    for name, args in calls:
        getattr(collector, name)(*args)
        getattr(reference, name)(*args)
    _same(collector, reference)
    clone = pickle.loads(pickle.dumps(collector))
    _same(clone, reference)
    # The clone keeps recording where the original left off.
    for name, args in calls[:5]:
        getattr(clone, name)(*args)
        getattr(reference, name)(*args)
    _same(clone, reference)
