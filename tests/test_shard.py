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

Also covered: the process layout (the parent steps slice 0 itself and
audits it under the sanitizer), the pipe encoding of frames, the spin
gate of the barrier, the partitioner's exactly-once/deterministic
guarantees and ``REPRO_SHARDS`` resolution.  That the shard count never
enters a harness cache key is ``tests/test_harness_settings.py``'s
per-field test.
"""

from __future__ import annotations

import dataclasses
import os
import pickle

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.network.packet import BROADCAST, Packet, packet_id_position
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


def small_is(size):
    """An IS run of about a thousand quanta, for per-window checks."""
    return IsWorkload(total_keys=2**15, iterations=2).build_apps(size)


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
    serial=None,
    expect_sharded=True,
    expect_reason=None,
    expect_completed=True,
    **kwargs,
):
    """Sharded equals serial; pass *serial* to reuse a reference run."""
    build = _factory(apps_factory, size, policy_factory, **kwargs)
    if serial is None:
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
    (at size 2 the count clamps to 2 shards), all at the ground-truth
    quantum where every window is a drain window.  Each (workload, size)
    runs its serial reference once."""
    configs = 0
    for apps_factory in WORKLOADS.values():
        for size in (2, 4, 8):
            policy = lambda: FixedQuantumPolicy(US)  # noqa: E731
            serial = _factory(apps_factory, size, policy)().run()
            for shards in (2, 3, 4):
                _assert_identical(apps_factory, size, policy, shards, serial=serial)
                configs += 1
    assert configs == 27


@pytest.fixture
def layouts(monkeypatch):
    """Records each sharded run's ``(slice the parent steps, workers)``."""
    seen = []

    class Recording(shard_driver._ShardStepper):
        def __init__(self, sim, slices, procs, pipes, checking):
            super().__init__(sim, slices, procs, pipes, checking)
            seen.append((self._local.span, len(procs)))

    monkeypatch.setattr(shard_driver, "_ShardStepper", Recording)
    return seen


def test_parent_steps_slice_zero_of_uneven_partitions(layouts):
    """The parent is shard 0: it steps the first (largest) slice itself
    and forks one worker per other slice, so k shards are k processes.
    A run that bound the parent to one CPU gives its affinity back."""
    policy = lambda: FixedQuantumPolicy(US)  # noqa: E731
    affinity = os.sched_getaffinity(0)
    for size in (5, 9):
        serial = _factory(small_is, size, policy)().run()
        for shards in (2, 3, 4):
            layouts.clear()
            _assert_identical(small_is, size, policy, shards, serial=serial)
            slices = partition_nodes(size, shards)
            assert layouts == [(slices[0], shards - 1)]
            assert os.sched_getaffinity(0) == affinity


def test_per_shard_feeds_are_bit_identical(layouts):
    """Each shard draws its own nodes' jitter from a feed over its slice:
    without jitter (no draws on any side), and with the accelerator off
    (every quantum a window: one draw per node per quantum, in every
    shard), over uneven slices."""
    for apps_factory, config in (
        (WORKLOADS["NAMD"], {"host_params": HostModelParams(jitter_sigma=0)}),
        (small_is, {"fast_forward": False}),
    ):
        _assert_identical(
            apps_factory, 5, lambda: FixedQuantumPolicy(US), 3, **config
        )
    assert [span for span, _ in layouts] == [range(0, 2)] * 2


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


def test_checked_parent_audits_its_own_slice(monkeypatch):
    """Under the sanitizer the parent audits slice 0 at every window
    barrier, with the same per-shard audit the workers run."""
    parent = os.getpid()
    audited = []
    audit = shard_driver._audit_slice

    def recording(sim, stepper, start, end):
        if os.getpid() == parent:
            audited.append(stepper.span)
        audit(sim, stepper, start, end)

    monkeypatch.setattr(shard_driver, "_audit_slice", recording)
    build = _factory(small_is, 5, lambda: FixedQuantumPolicy(US), check=True)
    serial = build().run()
    outcome = run_sharded(build, shards=3)
    assert outcome.shards == 3 and outcome.fallback_reason is None
    assert outcome.result == serial
    assert set(audited) == {range(0, 2)}
    assert len(audited) == outcome.simulator.perf.event_quanta


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
        small_is, 4, lambda: FixedQuantumPolicy(US), 2, fast_forward=False,
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
# The barrier: pipe encoding and the spin gate
# ---------------------------------------------------------------------- #

payloads = st.recursive(
    st.none() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=8,
)
stamps = st.none() | st.integers(0, 2**62)


@st.composite
def packets(draw):
    src = draw(st.integers(0, 1023))
    dst = draw(st.integers(BROADCAST, 1023).filter(lambda dst: dst != src))
    return Packet(
        src=src,
        dst=dst,
        size_bytes=draw(st.integers(1, 9066)),
        send_time=draw(st.integers(0, 2**62)),
        message_id=draw(st.integers(0, 2**40)),
        fragment=draw(st.integers(0, 1000)),
        last_fragment=draw(st.booleans()),
        payload=draw(payloads),
        due_time=draw(stamps),
        deliver_time=draw(stamps),
        straggler=draw(st.booleans()),
        kind=draw(st.sampled_from(["data", "ack"])),
        retransmit=draw(st.integers(0, 8)),
        packet_id=draw(st.integers(0, 2**40)),
    )


@settings(deadline=None)
@given(packet=packets())
def test_frame_encoding_round_trips_every_field(packet):
    """A frame crosses a pipe as its field tuple: every slot survives the
    pickle round trip, and decoding draws no fresh packet id."""
    values = shard_driver._packet_fields(packet)
    assert len(values) == len(Packet.__slots__)
    before = packet_id_position()
    decoded = Packet(*pickle.loads(pickle.dumps(values)))
    assert packet_id_position() == before
    for field in dataclasses.fields(Packet):
        assert getattr(decoded, field.name) == getattr(packet, field.name), field.name
    assert decoded == packet


def test_barrier_spins_only_with_a_cpu_per_process(monkeypatch):
    def affinity(cpus):
        monkeypatch.setattr(shard_driver.os, "sched_getaffinity", lambda pid: cpus)

    affinity({3, 1})
    assert shard_driver._shard_cpus(2) == [1, 3]
    assert shard_driver._shard_cpus(3) is None  # fewer CPUs than processes
    affinity({0})
    assert shard_driver._shard_cpus(2) is None

    def unreadable(pid):
        raise OSError("no affinity here")

    monkeypatch.setattr(shard_driver.os, "sched_getaffinity", unreadable)
    assert shard_driver._shard_cpus(2) is None

    # A multiprocessing child (a farm worker) never owns CPUs, however
    # many it sees.
    affinity({0, 1, 2, 3})
    monkeypatch.setattr(
        shard_driver.multiprocessing, "parent_process", lambda: object()
    )
    assert shard_driver._shard_cpus(2) is None


def test_farm_workers_never_spin(monkeypatch, tmp_path):
    """Concurrent sharded runs in a 2-worker farm neither spin nor bind:
    every one of them would otherwise take the same first CPUs."""
    from repro.harness.configs import PolicySpec
    from repro.harness.parallel import ParallelRunner

    monkeypatch.delenv("REPRO_PARALLEL", raising=False)
    log = tmp_path / "spins"

    class Recording(shard_driver._Pipe):
        # Pool and shard processes are forked, so they inherit this class
        # and append to the shared log.
        def __init__(self, conn, spin_polls):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()} {spin_polls}\n")
            super().__init__(conn, spin_polls)

    monkeypatch.setattr(shard_driver, "_Pipe", Recording)
    spec = PolicySpec("1", lambda: FixedQuantumPolicy(US))
    requests = [(IsWorkload(), size, spec) for size in (4, 8)]
    farm = ParallelRunner(seed=7, shards=2, max_workers=2, use_cache=False)
    records = farm.run_many(requests)
    assert [source for *_, source in farm.last_batch_report] == ["worker"] * 2
    serial = ExperimentRunner(seed=7)
    for (workload, size, _), record in zip(requests, records):
        assert serial.run_spec(workload, size, spec).result == record.result
    pipes = log.read_text().split("\n")[:-1]
    # One pipe end in each run's parent and one in its worker.
    assert len(pipes) == 4
    assert all(line.split()[1] == "0" for line in pipes)


def test_slice_steppers_refuse_to_interleave():
    """A window a shard cannot drain would walk nodes living in other
    processes; the slice stepper refuses it instead."""
    from repro.core.stepping import VectorStepper

    sim = _factory(WORKLOADS["IS"], 4, lambda: FixedQuantumPolicy(10 * US))()
    stepper = VectorStepper(sim, range(0, 2))
    stepper.open(0, 10 * US, 0.0)
    with pytest.raises(RuntimeError, match="can only drain"):
        stepper.step(10 * US)


def test_one_cpu_blocks_instead_of_spinning(monkeypatch):
    """Pinned to one CPU, a 2-shard run never spins (a spinning waiter
    would hold the only CPU the awaited process needs) and still matches
    serial."""
    cpu = min(os.sched_getaffinity(0))
    monkeypatch.setattr(shard_driver.os, "sched_getaffinity", lambda pid: {cpu})
    spins = []

    class Recording(shard_driver._Pipe):
        def __init__(self, conn, spin_polls):
            spins.append(spin_polls)
            super().__init__(conn, spin_polls)

    monkeypatch.setattr(shard_driver, "_Pipe", Recording)
    _assert_identical(WORKLOADS["IS"], 4, lambda: FixedQuantumPolicy(US), 2)
    assert spins == [0]


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
