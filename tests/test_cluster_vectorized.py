"""The vectorized stepper's differential cases, and its subset fast-forward.

``ClusterConfig.vectorized`` switches the driver onto the numpy window
stepper, the subset fast-forward, and the ground-truth drain path.  It is
an acceleration, not an approximation: the declared configurations of
``tests/oracle.py`` run it (on either engine core) against scalar-python.
The matrix tests here check the oracle's pairs they name (``PAIRS``).

Unique to this file:

* a Hypothesis property over random SPMD programs, policies and seeds,
  traced, run through every variant the oracle declares for it;
* guards that the subset fast-forward fires on imbalanced nodes and never
  when every node is busy in every window.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mpi.api import spmd_apps
from repro.node.requests import Compute

from tests import oracle
from tests.test_cluster_properties import make_program, policies, program_schedules, seeds

KERNEL_CELLS = [f"{kernel}-{size}-{label}" for kernel in oracle.KERNELS
                for size in (2, 4, 8) for label in oracle.POLICIES]
PAPER = oracle.pairs(*KERNEL_CELLS, group="grid")
OBSERVED = [f"{kernel}-4-{label}" for kernel in oracle.KERNELS for label in ("1us", "dyn1.03")]
TRACED = oracle.pairs(*[f"{name}-traced" for name in OBSERVED], group="grid")
CHECKED = oracle.pairs("IS-4-1us", "IS-4-dyn1.03", group="checked")
FAULTED = oracle.pairs(*[f"IS-4-{label}-{preset}" for label in ("1us", "dyn1.03")
                         for preset in ("lossy-1", "jittery")], group="grid")
RECOVERY = oracle.pairs("IS-4-1us-recovery", "IS-4-dyn1.03-recovery", group="grid")
TIMELINE = oracle.pairs(*[f"{name}-timeline" for name in OBSERVED], group="grid")
#: Every oracle pair the tests here check.
PAIRS = PAPER + TRACED + CHECKED + FAULTED + RECOVERY + TIMELINE


def test_paper_matrix_is_bit_identical():
    """3 workloads x 3 sizes x 5 policies = 45 configurations."""
    assert len(set(KERNEL_CELLS) & set(oracle.CONFIGS)) == 45
    oracle.check(*PAPER)


def test_traced_runs_are_bit_identical():
    """Tracing forces the interleaved stepper; streams must match exactly."""
    oracle.check(*TRACED)


def test_checked_runs_are_bit_identical():
    """The causality sanitizer audits a run without changing results."""
    oracle.check(*CHECKED)


def test_faulted_runs_are_bit_identical():
    """Fault injection (loss + jitter) disables the drain path; the
    vectorized driver must still reproduce the scalar run exactly."""
    oracle.check(*FAULTED)


def test_recovery_transport_runs_are_bit_identical():
    """Delayed-ack and RTO timer events flow through the fused window
    drain; recovery-transport runs must stay equivalent."""
    oracle.check(*RECOVERY)


def test_timeline_runs_are_bit_identical():
    """The host-cost timeline is part of the result: two identical runs
    compare equal (value equality on ``BucketTimeline``), and every driver
    fills the same buckets with the same doubles."""
    for name in ("IS-4-1us-timeline", "IS-4-dyn1.03-timeline"):
        first = oracle.reference(name).result
        assert len(first.timeline.series()) > 1
        assert oracle.build(oracle.CONFIGS[name]).run() == first
    oracle.check(*TIMELINE)


@settings(deadline=None, max_examples=15, suppress_health_check=[HealthCheck.too_slow])
@given(schedule=program_schedules, size=st.integers(min_value=2, max_value=5),
       policy=policies, seed=seeds)
def test_property_vectorized_is_bit_identical(schedule, size, policy, seed):
    config = oracle.Config("spmd", lambda n: spmd_apps(n, make_program(schedule)), size,
                           lambda: policy, "grid checked", seed=seed, options=oracle.TRACED)
    expected = oracle.scalar_python(config)
    for variant in oracle.VARIANTS:
        if oracle.runs_under(config, variant):
            oracle.verify(config, variant, expected)


def test_subset_fast_forward_never_fires_when_every_node_is_busy():
    """When every node holds a pending application event in every window,
    nothing can be skipped: the subset fast-forward must stay silent."""

    def app():
        # ~300 ns per compute chunk at the default 2.6 GHz: strictly more
        # than one event per node per 1 us ground-truth window.
        for _ in range(400):
            yield Compute(ops=780.0)

    def apps(size):
        return [app() for _ in range(size)]

    sim = oracle.build(oracle.Config("busy", apps, 4, oracle.fixed(1), seed=3),
                       vectorized=True)
    assert sim.run().completed
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

    config = oracle.Config("imbalanced", lambda n: spmd_apps(n, program), 4,
                           oracle.fixed(1), seed=3)
    sim = oracle.build(config, vectorized=True)
    assert sim.run().completed
    assert sim.perf.subset_windows > 0
    assert sim.perf.skipped_node_quanta > 0
