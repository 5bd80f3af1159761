"""Per-run memory is O(N): independent of idle-span length and of how many
node pairs communicate.

* A fast-forward reduces the per-quantum maximum node by node, so a span
  of *count* quanta allocates O(count) floats, never an ``(N, count)``
  matrix, and leaves no span-sized draw behind in any host model.
* The controller's latency memo is keyed by frame size, so it holds one
  entry per distinct frame size whatever the traffic matrix.
* No host model ever keeps more than ``JITTER_BUFFER`` draws.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core import (
    AdaptiveQuantumPolicy,
    ClusterConfig,
    ClusterSimulator,
    FixedQuantumPolicy,
)
from repro.engine.units import MICROSECOND, MILLISECOND
from repro.faults.plan import FaultPlan, NodeStall
from repro.network import NetworkController, PAPER_NETWORK
from repro.node import ComputeTime, SimulatedNode
from repro.node.hostmodel import JITTER_BUFFER, HostModelParams
from repro.node.sampling import SamplingSchedule
from repro.workloads import IsWorkload

US = MICROSECOND
MIB = 1 << 20


def build(apps, *, quantum=1 * US, **options):
    nodes = [SimulatedNode(i, app) for i, app in enumerate(apps)]
    controller = NetworkController(len(nodes), PAPER_NETWORK(len(nodes)))
    config = ClusterConfig(seed=5, backend="python", **options)
    return ClusterSimulator(nodes, controller, FixedQuantumPolicy(quantum), config)


def run_keeping_feed(sim):
    """Run *sim*; also return its stepper's jitter feed, which run() drops."""
    feeds = []
    release = sim._release

    def releasing():
        feeds.append(sim._stepper.feed)
        release()

    sim._release = releasing
    return sim.run(), feeds[0]


def assert_jitter_bounded(sim, feed):
    assert max(len(model._buffer) for model in sim.host_models) <= JITTER_BUFFER
    assert len(feed._matrix) <= feed._BLOCK


def idle_apps(num_nodes, span):
    def app():
        yield ComputeTime(span)
        return "done"

    return [app() for _ in range(num_nodes)]


@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "vectorized"])
def test_fast_forward_allocates_independently_of_node_count(vectorized):
    """64 nodes, one 20 ms silence at Q = 1 us: the whole span is one
    fast-forward chunk of 21 000 quanta.  An ``(N, count)`` jitter matrix
    alone would be 10 MiB, and a span-sized draw kept per model as much
    again."""
    sim = build(idle_apps(64, 21 * MILLISECOND), vectorized=vectorized)
    measured = []
    fast_forward = sim._fast_forward

    def measuring(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        quanta = sim.perf.ff_quanta
        fast_forward(*args)
        current, peak = tracemalloc.get_traced_memory()
        measured.append((sim.perf.ff_quanta - quanta, peak - before, current - before))

    sim._fast_forward = measuring
    tracemalloc.start()
    try:
        result, feed = run_keeping_feed(sim)
    finally:
        tracemalloc.stop()
    assert result.completed
    quanta, peak, kept = max(measured)
    assert quanta >= 20_000
    assert peak < 1 * MIB
    assert kept < 64 * JITTER_BUFFER * 8 + 64 * 1024
    assert_jitter_bounded(sim, feed)


IS_MODES = {
    # Q = 1 us <= T: the vectorized stepper drains, submit_held_batch routes.
    "drain": {"vectorized": True},
    # The scalar stepper routes each frame through submit's unicast path.
    "interleaved": {"vectorized": False},
    # A sanitizer makes the controller route every frame through _decide.
    "checked": {"vectorized": True, "check": True},
}


@pytest.mark.parametrize("mode", sorted(IS_MODES))
def test_latency_memo_holds_one_entry_per_frame_size(mode):
    num_nodes = 16
    workload = IsWorkload(total_keys=2**12, iterations=1, ops_per_key=8)
    sim = build(workload.build_apps(num_nodes), **IS_MODES[mode])
    controller = sim.controller
    sizes = set()
    pairs = set()
    submit, submit_held_batch = controller.submit, controller.submit_held_batch

    def recording_submit(packet, host_time):
        sizes.add(packet.size_bytes)
        pairs.add((packet.src, packet.dst))
        return submit(packet, host_time)

    def recording_batch(pending):
        for _host, _node, _order, packet in pending:
            sizes.add(packet.size_bytes)
            pairs.add((packet.src, packet.dst))
        submit_held_batch(pending)

    controller.submit = recording_submit
    controller.submit_held_batch = recording_batch
    result, feed = run_keeping_feed(sim)
    assert result.completed
    # The alltoall really did touch every ordered pair.
    assert len(pairs) == num_nodes * (num_nodes - 1)
    memo = controller._latency_memo
    assert memo and set(memo) <= sizes
    assert_jitter_bounded(sim, feed)


BOUNDED_RUNS = {
    "adaptive": {"policy": AdaptiveQuantumPolicy(1 * US, 1000 * US)},
    "sampled": {"sampling": SamplingSchedule(period=200 * US)},
    "stalled": {"faults": FaultPlan(stalls=(NodeStall(node=1, start=0, end=500 * US),))},
    "no-jitter": {"host_params": HostModelParams(jitter_sigma=0.0)},
}


@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "vectorized"])
@pytest.mark.parametrize("run", sorted(BOUNDED_RUNS))
def test_no_host_model_keeps_more_draws_than_the_bound(run, vectorized):
    options = dict(BOUNDED_RUNS[run])
    policy = options.pop("policy", FixedQuantumPolicy(1 * US))
    workload = IsWorkload(total_keys=2**12, iterations=2, ops_per_key=2000)
    nodes = [SimulatedNode(i, app) for i, app in enumerate(workload.build_apps(8))]
    config = ClusterConfig(seed=5, backend="python", vectorized=vectorized, **options)
    sim = ClusterSimulator(nodes, NetworkController(8, PAPER_NETWORK(8)), policy, config)
    result, feed = run_keeping_feed(sim)
    assert result.completed
    assert sim.perf.ff_spans
    assert_jitter_bounded(sim, feed)
