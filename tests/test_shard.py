"""Sharded single-run execution: partitioning, bit-identity, fallbacks.

The acceptance gate of :mod:`repro.shard` is the same as the vectorized
stepper's: sharded execution is an *acceleration*, never an
approximation.  The matrix here runs 30+ configurations (paper workloads
x cluster sizes x quantum policies x shard counts, including checked,
recovery-transport, traced, and faulted variants) through
:func:`repro.shard.run_sharded` and asserts the :class:`RunResult` is
equal field-for-field to a serial run of the identical configuration —
whether the run actually sharded or degraded to the serial fallback
(whose reason is asserted too).

Also covered: the partitioner's exactly-once/deterministic guarantees and
``REPRO_SHARDS`` resolution.  That the shard count never enters a harness
cache key is ``tests/test_harness_settings.py``'s per-field test.
"""

from __future__ import annotations

import pytest

from repro.core import (
    ClusterConfig,
    ClusterSimulator,
    DeadlockError,
    FixedQuantumPolicy,
)
from repro.core.quantum import AdaptiveQuantumPolicy
from repro.engine.units import MICROSECOND
from repro.faults.plan import load_plan
from repro.harness.configs import ground_truth_policy
from repro.harness.experiment import ExperimentRunner
from repro.network import NetworkController, PAPER_NETWORK
from repro.node import ComputeTime, Recv, SimulatedNode
from repro.node.hostmodel import HostModelParams
from repro.node.transport import RecoveryConfig, TransportConfig
from repro.obs.collector import TraceConfig
from repro.shard import SHARDS_ENV, partition_nodes, resolve_shards, run_sharded
import repro.shard.driver as shard_driver
from repro.workloads import EpWorkload, IsWorkload, NamdWorkload

US = MICROSECOND

WORKLOADS = {
    "EP": lambda size: EpWorkload().build_apps(size),
    "IS": lambda size: IsWorkload().build_apps(size),
    "NAMD": lambda size: NamdWorkload().build_apps(size),
}


def _factory(
    apps_factory,
    size,
    policy_factory,
    *,
    seed=7,
    check=None,
    faults=None,
    trace=False,
    transport=None,
    shards=None,
    **options,
):
    def build():
        nodes = [
            SimulatedNode(i, app, transport=transport)
            for i, app in enumerate(apps_factory(size))
        ]
        controller = NetworkController(size, PAPER_NETWORK(size))
        config = ClusterConfig(
            seed=seed,
            check=check,
            faults=faults,
            trace=TraceConfig() if trace else None,
            shards=shards,
            **options,
        )
        return ClusterSimulator(nodes, controller, policy_factory(), config)

    return build


def _assert_identical(
    apps_factory,
    size,
    policy_factory,
    shards,
    *,
    expect_sharded=True,
    expect_reason=None,
    expect_completed=True,
    **kwargs,
):
    build = _factory(apps_factory, size, policy_factory, **kwargs)
    serial = build().run()
    outcome = run_sharded(build, shards=shards)
    if expect_sharded:
        assert outcome.fallback_reason is None
        assert outcome.shards == min(shards, size)
    else:
        assert outcome.shards == 1
        assert outcome.fallback_reason is not None
        if expect_reason is not None:
            assert expect_reason in outcome.fallback_reason
    assert serial.completed is expect_completed
    assert serial == outcome.result


# ---------------------------------------------------------------------- #
# Partitioner
# ---------------------------------------------------------------------- #


def test_partition_covers_every_node_exactly_once():
    for num_nodes in range(1, 40):
        for shards in range(1, 10):
            slices = partition_nodes(num_nodes, shards)
            assert len(slices) == min(shards, num_nodes)
            flat = [node for span in slices for node in span]
            assert flat == list(range(num_nodes))  # exactly once, in order
            sizes = [len(span) for span in slices]
            assert max(sizes) - min(sizes) <= 1  # balanced


def test_partition_is_deterministic():
    # Pure integer arithmetic — no dict/set iteration, no hashing — so
    # repeated calls (and any interpreter) yield the identical layout.
    expected = [range(0, 16), range(16, 32), range(32, 48), range(48, 64)]
    for _ in range(3):
        assert partition_nodes(64, 4) == expected
    assert partition_nodes(10, 3) == [range(0, 4), range(4, 7), range(7, 10)]


def test_partition_rejects_invalid_inputs():
    with pytest.raises(ValueError):
        partition_nodes(0, 2)
    with pytest.raises(ValueError):
        partition_nodes(8, 0)


def test_resolve_shards(monkeypatch):
    monkeypatch.delenv(SHARDS_ENV, raising=False)
    assert resolve_shards() == 1
    assert resolve_shards(3) == 3
    monkeypatch.setenv(SHARDS_ENV, "4")
    assert resolve_shards() == 4
    assert resolve_shards(2) == 2  # explicit beats environment
    monkeypatch.setenv(SHARDS_ENV, "not-a-number")
    assert resolve_shards() == 1
    monkeypatch.setenv(SHARDS_ENV, "0")
    assert resolve_shards() == 1
    with pytest.raises(ValueError):
        resolve_shards(0)


# ---------------------------------------------------------------------- #
# Bit-identity matrix (30+ configurations with the fallback tests below)
# ---------------------------------------------------------------------- #


def test_sharded_matrix_is_bit_identical():
    """3 workloads x 3 sizes x 3 shard counts = 27 truly-sharded configs
    (at size 2 the count clamps to 2 workers), all at the ground-truth
    quantum where every window is a drain window."""
    configs = 0
    for apps_factory in WORKLOADS.values():
        for size in (2, 4, 8):
            for shards in (2, 3, 4):
                _assert_identical(
                    apps_factory, size, lambda: FixedQuantumPolicy(US), shards
                )
                configs += 1
    assert configs == 27


def test_checked_sharded_runs_are_bit_identical():
    """The causality sanitizer audits both sides of the barrier split
    (per-shard queue/clock invariants in the workers, window/accounting
    invariants in the parent) without changing results."""
    for apps_factory in WORKLOADS.values():
        for shards in (2, 4):
            _assert_identical(
                apps_factory, 4, lambda: FixedQuantumPolicy(US), shards,
                check=True,
            )


def test_recovery_transport_sharded_runs_are_bit_identical():
    """Delayed-ack/RTO timer events drain inside shard workers, and the
    per-node transport stats are reassembled across shard boundaries."""
    transport = TransportConfig(recovery=RecoveryConfig())
    for shards in (2, 4):
        _assert_identical(
            WORKLOADS["IS"], 8, lambda: FixedQuantumPolicy(US), shards,
            transport=transport,
        )


def test_sharded_loop_options_are_bit_identical():
    """The sharded run is the serial quantum loop with remote stepping, so
    every loop-level option behaves as it does serially: the host-cost
    timeline, a time limit that stops the run mid-way, jitter-free host
    models (no draws consumed on either side), and the accelerator off."""
    for apps_factory in (WORKLOADS["IS"], WORKLOADS["NAMD"]):
        for config in (
            {"timeline_bucket": 50 * US},
            {"host_params": HostModelParams(jitter_sigma=0)},
        ):
            _assert_identical(
                apps_factory, 4, lambda: FixedQuantumPolicy(US), 2, **config
            )
    # Every quantum a barrier round trip: a small input keeps it to ~900.
    _assert_identical(
        lambda size: IsWorkload(total_keys=2**15, iterations=2).build_apps(size),
        4, lambda: FixedQuantumPolicy(US), 2, fast_forward=False,
    )
    finished = _factory(WORKLOADS["IS"], 4, lambda: FixedQuantumPolicy(US))().run()
    _assert_identical(
        WORKLOADS["IS"], 4, lambda: FixedQuantumPolicy(US), 2,
        sim_time_limit=finished.sim_time // 2, timeline_bucket=50 * US,
        expect_completed=False,
    )


def test_sharded_deadlock_reports_like_serial():
    def apps(size):
        def waiter(peer):
            yield ComputeTime(5 * US)
            yield Recv(src=peer)

        def silent():
            yield ComputeTime(10 * US)

        return [waiter(3), silent(), waiter(1), silent()]

    build = _factory(apps, 4, lambda: FixedQuantumPolicy(US))
    with pytest.raises(DeadlockError) as serial:
        build().run()
    with pytest.raises(DeadlockError) as sharded:
        run_sharded(build, shards=2)
    assert "node0, node2" in str(serial.value)
    assert str(sharded.value) == str(serial.value)


# ---------------------------------------------------------------------- #
# Serial fallbacks: bit-identical, and the reason is surfaced
# ---------------------------------------------------------------------- #


def test_wide_quantum_policies_fall_back_serially():
    # Q > T: windows are not drain windows, so nodes could interact
    # mid-window and the shard split would be unsound.  10 us fixed and
    # the adaptive policy (max 1000 us) both exceed T = 1.053 us.
    _assert_identical(
        WORKLOADS["IS"], 4, lambda: FixedQuantumPolicy(10 * US), 2,
        expect_sharded=False, expect_reason="exceeds the minimum network latency",
    )
    _assert_identical(
        WORKLOADS["NAMD"], 4,
        lambda: AdaptiveQuantumPolicy(US, 1000 * US, inc=1.03, dec=0.02), 2,
        expect_sharded=False, expect_reason="exceeds the minimum network latency",
    )


def test_traced_runs_fall_back_serially():
    _assert_identical(
        WORKLOADS["IS"], 4, lambda: FixedQuantumPolicy(US), 2,
        trace=True, expect_sharded=False, expect_reason="traced",
    )


def test_faulted_runs_fall_back_serially():
    _assert_identical(
        WORKLOADS["IS"], 4, lambda: FixedQuantumPolicy(US), 2,
        faults=load_plan("lossy-1"),
        transport=TransportConfig(recovery=RecoveryConfig()),
        expect_sharded=False, expect_reason="fault-injected",
    )


def test_shards_one_is_the_plain_serial_path():
    build = _factory(WORKLOADS["IS"], 4, lambda: FixedQuantumPolicy(US))
    outcome = run_sharded(build, shards=1)
    assert outcome.shards == 1
    assert outcome.fallback_reason is None  # not a fallback: never requested


def test_env_shards_is_honored(monkeypatch):
    monkeypatch.setenv(SHARDS_ENV, "2")
    build = _factory(WORKLOADS["IS"], 8, lambda: FixedQuantumPolicy(US))
    serial = _factory(WORKLOADS["IS"], 8, lambda: FixedQuantumPolicy(US))().run()
    outcome = run_sharded(build)  # no explicit count: config None -> env
    assert outcome.shards == 2
    assert serial == outcome.result


def test_fork_unavailable_falls_back(monkeypatch):
    monkeypatch.setattr(shard_driver, "_fork_available", lambda: False)
    _assert_identical(
        WORKLOADS["IS"], 4, lambda: FixedQuantumPolicy(US), 2,
        expect_sharded=False, expect_reason="fork start method unavailable",
    )


def test_midflight_worker_failure_reruns_serially(monkeypatch):
    def boom(*args, **kwargs):
        raise OSError("synthetic pipe failure")

    # Workers are forked and the loop is running when the first barrier
    # reply is awaited.
    monkeypatch.setattr(shard_driver, "_recv", boom)
    build = _factory(WORKLOADS["IS"], 8, lambda: FixedQuantumPolicy(US))
    serial = build().run()
    outcome = run_sharded(build, shards=2)
    assert outcome.shards == 1
    assert "re-ran serially" in outcome.fallback_reason
    assert "synthetic pipe failure" in outcome.fallback_reason
    assert serial == outcome.result


# ---------------------------------------------------------------------- #
# Harness integration
# ---------------------------------------------------------------------- #


def test_experiment_runner_shards_are_bit_identical():
    workload = IsWorkload()
    serial = ExperimentRunner(seed=7).run_spec(
        workload, 8, ground_truth_policy()
    )
    runner = ExperimentRunner(seed=7, shards=2)
    sharded = runner.run_spec(workload, 8, ground_truth_policy())
    assert runner.last_shard_fallback_reason is None
    assert serial.result == sharded.result
    assert serial.metric == sharded.metric


def test_experiment_runner_surfaces_fallback_reason():
    from repro.harness.configs import PolicySpec

    runner = ExperimentRunner(seed=7, shards=2)
    spec = PolicySpec("10", lambda: FixedQuantumPolicy(10 * US))
    serial = ExperimentRunner(seed=7).run_spec(IsWorkload(), 4, spec)
    record = runner.run_spec(IsWorkload(), 4, spec)
    assert runner.last_shard_fallback_reason is not None
    assert "exceeds the minimum network latency" in runner.last_shard_fallback_reason
    assert serial.result == record.result
