"""Differential equivalence across drivers *and* engine backends.

``ClusterConfig.vectorized`` switches the driver onto the numpy window
stepper, the subset fast-forward, and the ground-truth drain path;
``ClusterConfig.backend`` swaps the engine hot core for the compiled C
implementation.  All of them are *accelerations*, not approximations:
every test here runs the same configuration through the full
backend x driver grid (python/native x scalar/vectorized — native rows
only when the compiled module is importable) and asserts the results are
equal field-for-field — including the structured trace stream when
tracing is on.

Coverage:

* a deterministic sweep of 45+ configurations (three paper workloads x
  three cluster sizes x five quantum policies, plus traced, faulted,
  sanitized, and recovery-transport variants), each swept over the grid,
* a Hypothesis property over random SPMD programs, policies, and seeds,
  with tracing enabled so the event streams are compared too,
* a regression guard that the subset fast-forward never fires when every
  node holds a pending application event in every window.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    AdaptiveQuantumPolicy,
    ClusterConfig,
    ClusterSimulator,
    FixedQuantumPolicy,
)
from repro.engine.backend import native_available
from repro.engine.units import MICROSECOND
from repro.faults.plan import load_plan
from repro.mpi.api import spmd_apps
from repro.network import NetworkController, PAPER_NETWORK
from repro.node import SimulatedNode
from repro.node.requests import Compute
from repro.node.transport import RecoveryConfig, TransportConfig
from repro.obs.collector import TraceConfig
from repro.workloads import EpWorkload, IsWorkload, NamdWorkload

from tests.test_cluster_properties import make_program, program_schedules

US = MICROSECOND

# Without a compiler (or before `python -m repro.engine.backend --build`)
# the grid degrades to the python column: the pure-python path is the
# reference and must pass on its own.
BACKENDS = ("python", "native") if native_available() else ("python",)

SIZES = (2, 4, 8)

POLICIES = {
    "1us": lambda: FixedQuantumPolicy(US),
    "10us": lambda: FixedQuantumPolicy(10 * US),
    "100us": lambda: FixedQuantumPolicy(100 * US),
    "dyn 1.03": lambda: AdaptiveQuantumPolicy(US, 1000 * US, inc=1.03, dec=0.02),
    "dyn 1.05": lambda: AdaptiveQuantumPolicy(US, 1000 * US, inc=1.05, dec=0.02),
}

WORKLOADS = {
    "EP": lambda size: EpWorkload().build_apps(size),
    "IS": lambda size: IsWorkload().build_apps(size),
    "NAMD": lambda size: NamdWorkload().build_apps(size),
}


def _run(
    apps_factory,
    size,
    policy_factory,
    *,
    vectorized,
    seed=7,
    faults=None,
    trace=False,
    transport=None,
    check=None,
    backend="python",
    timeline_bucket=None,
):
    nodes = [
        SimulatedNode(i, app, transport=transport)
        for i, app in enumerate(apps_factory(size))
    ]
    controller = NetworkController(size, PAPER_NETWORK(size))
    config = ClusterConfig(
        seed=seed,
        vectorized=vectorized,
        faults=faults,
        trace=TraceConfig() if trace else None,
        check=check,
        backend=backend,
        timeline_bucket=timeline_bucket,
    )
    sim = ClusterSimulator(nodes, controller, policy_factory(), config)
    result = sim.run()
    events = list(sim.collector.events) if sim.collector is not None else None
    counts = dict(sim.collector.counts) if sim.collector is not None else None
    return result, sim, events, counts


def _assert_equivalent(apps_factory, size, policy_factory, **kwargs):
    """Sweep the backend x driver grid; every cell must equal the first.

    The scalar pure-python run is the reference implementation; the
    vectorized driver and the compiled backend (in every combination)
    must reproduce it field-for-field, trace stream included.
    """
    reference = None
    for backend in BACKENDS:
        for vectorized in (False, True):
            result, _, events, counts = _run(
                apps_factory, size, policy_factory,
                vectorized=vectorized, backend=backend, **kwargs
            )
            assert result.completed
            if reference is None:
                reference = (result, events, counts)
                continue
            assert result == reference[0], (backend, vectorized)
            assert events == reference[1], (backend, vectorized)
            assert counts == reference[2], (backend, vectorized)


# ---------------------------------------------------------------------- #
# Deterministic configuration sweep (the >= 40 config equivalence matrix)
# ---------------------------------------------------------------------- #


def test_paper_matrix_is_bit_identical():
    """3 workloads x 3 sizes x 5 policies = 45 configurations."""
    configs = 0
    for apps_factory in WORKLOADS.values():
        for size in SIZES:
            for policy_factory in POLICIES.values():
                _assert_equivalent(apps_factory, size, policy_factory)
                configs += 1
    assert configs == 45


def test_traced_runs_are_bit_identical():
    """Tracing forces the interleaved stepper; streams must match exactly."""
    for name in ("1us", "dyn 1.03"):
        for apps_factory in WORKLOADS.values():
            _assert_equivalent(apps_factory, 4, POLICIES[name], trace=True)


def test_checked_runs_are_bit_identical():
    """The causality sanitizer audits both paths without changing results."""
    for name in ("1us", "dyn 1.03"):
        _assert_equivalent(WORKLOADS["IS"], 4, POLICIES[name], check=True)


def test_faulted_runs_are_bit_identical():
    """Fault injection (loss + jitter) disables the drain path; the
    vectorized driver must still reproduce the scalar run exactly."""
    transport = TransportConfig(recovery=RecoveryConfig())
    for preset in ("lossy-1", "jittery"):
        faults = load_plan(preset)
        for name in ("1us", "dyn 1.03"):
            _assert_equivalent(
                WORKLOADS["IS"], 4, POLICIES[name], faults=faults,
                transport=transport,
            )


def test_recovery_transport_runs_are_bit_identical():
    """Delayed-ack and RTO timer events flow through the fused window
    drain; recovery-transport runs must stay equivalent (and this covers
    the drain path's timer dispatch)."""
    transport = TransportConfig(recovery=RecoveryConfig())
    for name in ("1us", "dyn 1.03"):
        _assert_equivalent(
            WORKLOADS["IS"], 4, POLICIES[name], transport=transport
        )


def test_timeline_runs_are_bit_identical():
    """The host-cost timeline is part of the result: two identical runs
    compare equal (value equality on ``BucketTimeline``), and every driver
    fills the same buckets with the same doubles."""
    for name in ("1us", "dyn 1.03"):
        first, second = (
            _run(WORKLOADS["IS"], 4, POLICIES[name], vectorized=False,
                 timeline_bucket=50 * US)[0]
            for _ in range(2)
        )
        assert len(first.timeline) > 1
        assert first == second
        for apps_factory in WORKLOADS.values():
            _assert_equivalent(
                apps_factory, 4, POLICIES[name], timeline_bucket=50 * US
            )


# ---------------------------------------------------------------------- #
# Property: random programs, policies, seeds — results and traces match
# ---------------------------------------------------------------------- #

_policy_factories = st.one_of(
    st.sampled_from([US, 10 * US, 100 * US, 1000 * US]).map(
        lambda q: (lambda: FixedQuantumPolicy(q))
    ),
    st.tuples(
        st.floats(min_value=1.01, max_value=1.4),
        st.floats(min_value=0.02, max_value=0.9),
    ).map(lambda p: (lambda: AdaptiveQuantumPolicy(US, 1000 * US, inc=p[0], dec=p[1]))),
)


@settings(deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    schedule=program_schedules,
    size=st.integers(min_value=2, max_value=5),
    policy_factory=_policy_factories,
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_vectorized_is_bit_identical(schedule, size, policy_factory, seed):
    def apps_factory(n):
        return spmd_apps(n, make_program(schedule))

    _assert_equivalent(
        apps_factory, size, policy_factory, seed=seed, trace=True
    )


# ---------------------------------------------------------------------- #
# Subset fast-forward engagement guards
# ---------------------------------------------------------------------- #


def test_subset_fast_forward_never_fires_when_every_node_is_busy():
    """When every node holds a pending application event in every window,
    nothing can be skipped: the subset fast-forward must stay silent."""

    def app():
        # ~300 ns per compute chunk at the default 2.6 GHz: strictly more
        # than one event per node per 1 us ground-truth window.
        for _ in range(400):
            yield Compute(ops=780.0)

    size = 4
    nodes = [SimulatedNode(i, app()) for i in range(size)]
    controller = NetworkController(size, PAPER_NETWORK(size))
    config = ClusterConfig(seed=3, vectorized=True)
    sim = ClusterSimulator(nodes, controller, FixedQuantumPolicy(US), config)
    result = sim.run()
    assert result.completed
    assert sim.perf.stepped_node_quanta > 0
    assert sim.perf.subset_windows == 0
    assert sim.perf.skipped_node_quanta == 0


def test_subset_fast_forward_fires_on_imbalanced_nodes():
    """Sanity check of the counter itself: with one busy rank and idle
    peers (blocked in Recv), windows must skip the idle subset."""

    def program(mpi):
        if mpi.rank == 0:
            yield Compute(ops=2_600_000.0)  # ~1 ms alone
            for peer in range(1, mpi.size):
                yield from mpi.send(peer, 64, tag=9)
        else:
            yield from mpi.recv(src=0, tag=9)
        return "done"

    size = 4
    nodes = [
        SimulatedNode(i, app) for i, app in enumerate(spmd_apps(size, program))
    ]
    controller = NetworkController(size, PAPER_NETWORK(size))
    config = ClusterConfig(seed=3, vectorized=True)
    sim = ClusterSimulator(nodes, controller, FixedQuantumPolicy(US), config)
    result = sim.run()
    assert result.completed
    assert sim.perf.subset_windows > 0
    assert sim.perf.skipped_node_quanta > 0
