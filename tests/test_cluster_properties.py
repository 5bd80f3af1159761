"""Property-based invariants of the full cluster-simulation stack.

Random SPMD programs (same global op sequence on every rank, so they are
deadlock-free by construction) run under randomly drawn quantum policies
and seeds; the invariants hold for every combination:

* runs complete, and with Q <= T (minimum latency) there are no stragglers;
* every routed frame is delivered exactly once, never early;
* straggler handling can only *delay* an application: any configuration's
  makespan is >= the ground truth's;
* the same (workload, policy, seed) replays identically;
* the fast-forward accelerator is observationally equivalent to the
  event-by-event path.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    AdaptiveQuantumPolicy,
    ClusterConfig,
    ClusterSimulator,
    FixedQuantumPolicy,
)
from repro.engine.units import MICROSECOND
from repro.mpi.api import MpiRank, spmd_apps
from repro.network import NetworkController, PAPER_NETWORK
from repro.node import SimulatedNode
from repro.node.requests import Compute

US = MICROSECOND

# ---------------------------------------------------------------------- #
# Random SPMD program generator
# ---------------------------------------------------------------------- #

_op = st.one_of(
    st.tuples(st.just("compute"), st.integers(min_value=10_000, max_value=3_000_000)),
    st.tuples(st.just("barrier"), st.just(0)),
    st.tuples(st.just("allreduce"), st.integers(min_value=8, max_value=4096)),
    st.tuples(st.just("alltoall"), st.integers(min_value=8, max_value=20_000)),
    st.tuples(st.just("ring"), st.integers(min_value=8, max_value=20_000)),
    st.tuples(st.just("fanout"), st.integers(min_value=8, max_value=20_000)),
)

program_schedules = st.lists(_op, min_size=1, max_size=5)
cluster_sizes = st.integers(min_value=2, max_value=5)
seeds = st.integers(min_value=0, max_value=2**31)

policies = st.one_of(
    st.sampled_from([US, 10 * US, 100 * US, 1000 * US]).map(FixedQuantumPolicy),
    st.tuples(
        st.floats(min_value=1.01, max_value=1.4),
        st.floats(min_value=0.02, max_value=0.9),
    ).map(lambda p: AdaptiveQuantumPolicy(US, 1000 * US, inc=p[0], dec=p[1])),
)


def make_program(schedule):
    def program(mpi: MpiRank):
        for op, arg in schedule:
            if op == "compute":
                # Rank-skewed compute keeps nodes at different positions.
                yield Compute(ops=arg * (1 + 0.3 * mpi.rank))
            elif op == "barrier":
                yield from mpi.barrier()
            elif op == "allreduce":
                yield from mpi.allreduce(arg, float(mpi.rank), lambda a, b: a + b)
            elif op == "alltoall":
                yield from mpi.alltoall(arg)
            elif op == "ring":
                right = (mpi.rank + 1) % mpi.size
                left = (mpi.rank - 1) % mpi.size
                yield from mpi.send(right, arg, tag=5)
                yield from mpi.recv(src=left, tag=5)
            elif op == "fanout":
                if mpi.rank == 0:
                    for dst in range(1, mpi.size):
                        yield from mpi.send(dst, arg, tag=6)
                else:
                    yield from mpi.recv(src=0, tag=6)
        return "done"

    return program


def run_cluster(schedule, size, policy, seed, fast_forward=True):
    apps = spmd_apps(size, make_program(schedule))
    nodes = [SimulatedNode(rank, app) for rank, app in enumerate(apps)]
    controller = NetworkController(size, PAPER_NETWORK(size))
    config = ClusterConfig(seed=seed, fast_forward=fast_forward)
    return ClusterSimulator(nodes, controller, policy, config).run()


COMMON = dict(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------- #
# Invariants
# ---------------------------------------------------------------------- #


@settings(**COMMON)
@given(schedule=program_schedules, size=cluster_sizes, policy=policies, seed=seeds)
def test_every_run_completes_and_conserves_packets(schedule, size, policy, seed):
    result = run_cluster(schedule, size, policy, seed)
    assert result.completed
    assert all(r == "done" for r in result.app_results)
    stats = result.controller_stats
    # Every routed frame was delivered exactly once.
    delivered = sum(node.deliveries for node in result.node_stats)
    assert delivered == stats.packets_routed
    # Delivery accounting is a partition of the routed frames.
    assert (
        stats.exact_now + stats.exact_future + stats.stragglers
        == stats.packets_routed
    )
    # Frames are never delivered early.
    assert stats.total_delay_error >= 0
    assert stats.max_delay_error >= 0


@settings(**COMMON)
@given(schedule=program_schedules, size=cluster_sizes, seed=seeds)
def test_ground_truth_quantum_never_stragglers(schedule, size, seed):
    result = run_cluster(schedule, size, FixedQuantumPolicy(US), seed)
    assert result.controller_stats.stragglers == 0
    assert result.controller_stats.total_delay_error == 0


@settings(**COMMON)
@given(schedule=program_schedules, size=cluster_sizes, seed=seeds)
def test_ground_truth_metric_is_seed_independent(schedule, size, seed):
    first = run_cluster(schedule, size, FixedQuantumPolicy(US), seed)
    second = run_cluster(schedule, size, FixedQuantumPolicy(US), seed // 2 + 1)
    assert first.makespan == second.makespan


@settings(**COMMON)
@given(schedule=program_schedules, size=cluster_sizes, policy=policies, seed=seeds)
def test_stragglers_only_delay(schedule, size, policy, seed):
    """Late delivery can only push application progress later, so no
    configuration beats the ground truth's makespan."""
    truth = run_cluster(schedule, size, FixedQuantumPolicy(US), seed)
    other = run_cluster(schedule, size, policy, seed)
    assert other.makespan >= truth.makespan


@settings(**COMMON)
@given(schedule=program_schedules, size=cluster_sizes, policy=policies, seed=seeds)
def test_runs_replay_identically(schedule, size, policy, seed):
    first = run_cluster(schedule, size, policy, seed)
    second = run_cluster(schedule, size, policy, seed)
    assert first.makespan == second.makespan
    assert first.host_time == second.host_time
    assert first.controller_stats.stragglers == second.controller_stats.stragglers
    assert first.quantum_stats.quanta == second.quantum_stats.quanta


@settings(deadline=None, max_examples=12, suppress_health_check=[HealthCheck.too_slow])
@given(schedule=program_schedules, size=cluster_sizes, policy=policies, seed=seeds)
def test_fast_forward_is_observationally_equivalent(schedule, size, policy, seed):
    fast = run_cluster(schedule, size, policy, seed, fast_forward=True)
    slow = run_cluster(schedule, size, policy, seed, fast_forward=False)
    assert fast.makespan == slow.makespan
    assert fast.sim_time == slow.sim_time
    assert abs(fast.host_time - slow.host_time) <= 1e-9 * max(fast.host_time, 1.0)
    assert fast.controller_stats.packets_routed == slow.controller_stats.packets_routed
    assert fast.controller_stats.stragglers == slow.controller_stats.stragglers
    assert fast.quantum_stats.quanta == slow.quantum_stats.quanta


@settings(**COMMON)
@given(
    schedule=program_schedules,
    size=cluster_sizes,
    seed=seeds,
    quanta=st.tuples(
        st.sampled_from([10 * US, 100 * US]), st.sampled_from([100 * US, 1000 * US])
    ),
)
def test_quantum_bounds_delay_error(schedule, size, seed, quanta):
    """No single frame can be delayed by more than ~one quantum: straggler
    delivery happens at the destination's current position (inside the
    window) or snaps to the next boundary."""
    small_q, big_q = quanta
    result = run_cluster(schedule, size, FixedQuantumPolicy(big_q), seed)
    assert result.controller_stats.max_delay_error <= big_q
