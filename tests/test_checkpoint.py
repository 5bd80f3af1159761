"""Kill/resume bit-identity: the checkpoint subsystem's acceptance gate.

Every test follows the same shape: run a configuration to completion
while collecting a snapshot at every quantum boundary, then rebuild a
fresh simulator, restore an intermediate snapshot, run it to completion,
and require the resumed result to be *bit-identical* (``asdict``
equality, byte-identical trace streams) to the uninterrupted reference.
The matrix spans the drivers ({scalar, vectorized, sharded}) crossed
with the observation modes ({plain, checked, traced, faulted}).
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointConfig,
    CheckpointStore,
    capture_snapshot,
    restore_snapshot,
)
from repro.core import (
    ClusterConfig,
    ClusterSimulator,
    FixedQuantumPolicy,
)
from repro.engine import RngStreams
from repro.engine.backend import native_available
from repro.engine.units import MICROSECOND
from repro.faults.plan import FaultPlan
from repro.network import NetworkController, PAPER_NETWORK
from repro.node import ComputeTime, Recv, Send, SimulatedNode
from repro.node.hostmodel import JITTER_BUFFER, HostModelParams
from repro.node.transport import RecoveryConfig, TransportConfig
from repro.obs.collector import TraceConfig
from repro.shard import run_sharded
from repro.workloads import IsWorkload

US = MICROSECOND

BACKENDS = [
    "python",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(), reason="compiled engine core not built"
        ),
    ),
]


def pingpong_apps(rounds, gap=50 * US, nbytes=64):
    def pinger():
        for _ in range(rounds):
            yield Send(dst=1, nbytes=nbytes)
            yield Recv(src=1)
            yield ComputeTime(gap)
        return "ping-done"

    def ponger():
        for _ in range(rounds):
            yield Recv(src=0)
            yield Send(dst=0, nbytes=nbytes)
        return "pong-done"

    return [pinger(), ponger()]


def build_sim(
    tmp_path,
    *,
    apps=None,
    num_nodes=2,
    seed=7,
    vectorized=False,
    window=10 * US,
    transport=None,
    **config_kwargs,
):
    apps = apps if apps is not None else pingpong_apps(20)
    nodes = [
        SimulatedNode(i, app, transport=transport) for i, app in enumerate(apps)
    ]
    controller = NetworkController(num_nodes, PAPER_NETWORK(num_nodes))
    config = ClusterConfig(
        seed=seed,
        vectorized=vectorized,
        checkpoint=CheckpointConfig(directory=str(tmp_path), every_quanta=1),
        **config_kwargs,
    )
    return ClusterSimulator(nodes, controller, FixedQuantumPolicy(window), config)


def run_collecting(factory):
    """Run a fresh simulator, returning (result, per-quantum snapshots)."""
    sim = factory()
    snaps = []
    sim.checkpoint_sink = snaps.append
    return sim.run(), snaps


def resume_from(factory, snapshot):
    """Rebuild, restore *snapshot*, run to completion."""
    sim = factory()
    sim.checkpoint_sink = lambda _snap: None
    restore_snapshot(sim, snapshot)
    return sim.run()


def assert_identical(reference, resumed):
    assert dataclasses.asdict(reference) == dataclasses.asdict(resumed)


def probe_points(snaps):
    """First, middle, and last snapshot — the interesting resume points."""
    assert snaps, "run produced no snapshots"
    return sorted({0, len(snaps) // 2, len(snaps) - 1})


class TestScalarResume:
    def test_checked_pingpong_resumes_bit_identically(self, tmp_path):
        factory = lambda: build_sim(tmp_path, check=True)
        reference, snaps = run_collecting(factory)
        assert reference.completed
        for index in probe_points(snaps):
            assert_identical(reference, resume_from(factory, snaps[index]))

    def test_checkpointing_itself_changes_nothing(self, tmp_path):
        plain = ClusterSimulator(
            [SimulatedNode(i, app) for i, app in enumerate(pingpong_apps(20))],
            NetworkController(2, PAPER_NETWORK(2)),
            FixedQuantumPolicy(10 * US),
            ClusterConfig(seed=7),
        ).run()
        checkpointed, _ = run_collecting(lambda: build_sim(tmp_path))
        assert_identical(plain, checkpointed)

    def test_faulted_recovery_run_resumes_bit_identically(self, tmp_path):
        faults = FaultPlan(drop_rate=0.03, jitter_rate=0.02, jitter_max=5000)
        factory = lambda: build_sim(
            tmp_path,
            apps=pingpong_apps(30),
            transport=TransportConfig(recovery=RecoveryConfig()),
            faults=faults,
            check=True,
        )
        reference, snaps = run_collecting(factory)
        assert reference.completed
        assert reference.fault_stats is not None
        for index in probe_points(snaps):
            assert_identical(reference, resume_from(factory, snaps[index]))

    def test_traced_run_resumes_with_byte_identical_jsonl(self, tmp_path):
        def factory(path):
            return lambda: build_sim(
                tmp_path, trace=TraceConfig(jsonl_path=str(path))
            )

        ref_path = tmp_path / "ref.jsonl"
        sim = factory(ref_path)()
        snaps = []
        sim.checkpoint_sink = snaps.append
        reference = sim.run()
        assert sim.collector is not None
        sim.collector.close()
        ref_bytes = ref_path.read_bytes()

        for index in probe_points(snaps):
            resumed_path = tmp_path / f"resumed-{index}.jsonl"
            # Crash-resume semantics: the interrupted run's sink is on
            # disk, holding at least the snapshot's byte offset (usually
            # more — quanta past the snapshot already streamed).  The
            # restore truncates it back to the offset and continues.
            resumed_path.write_bytes(ref_bytes)
            resumed_sim = factory(resumed_path)()
            resumed_sim.checkpoint_sink = lambda _snap: None
            restore_snapshot(resumed_sim, snaps[index])
            resumed = resumed_sim.run()
            assert resumed_sim.collector is not None
            resumed_sim.collector.close()
            assert_identical(reference, resumed)
            # The trace *stream* continues byte-identically: the restore
            # seeks the sink to the captured offset and truncates.
            assert resumed_path.read_bytes() == ref_bytes


class TestCrossDriverResume:
    """Snapshots are driver-independent: capture under either stepper,
    restore onto either stepper, same bits (the jitter-stream remainder
    is normalized into the per-node model buffers at capture time)."""

    @pytest.mark.parametrize("capture_vec", [False, True])
    @pytest.mark.parametrize("restore_vec", [False, True])
    def test_all_capture_restore_combinations(
        self, tmp_path, capture_vec, restore_vec
    ):
        workload = IsWorkload(total_keys=2**12, iterations=2, ops_per_key=8)

        def factory(vec):
            return build_sim(
                tmp_path,
                apps=workload.build_apps(8),
                num_nodes=8,
                vectorized=vec,
                window=5 * US,
            )

        reference, snaps = run_collecting(lambda: factory(capture_vec))
        index = len(snaps) // 2
        resumed = resume_from(lambda: factory(restore_vec), snaps[index])
        assert_identical(reference, resumed)


def with_long_remainder(snapshot, extra):
    """*snapshot* as a writer whose host models kept *extra* more draws
    would have written it: each node's jitter remainder grows by the next
    *extra* draws of its stream, and the stream's saved state moves past
    them (chunk invariance makes both layouts the same numbers)."""
    state = pickle.loads(snapshot.payload)
    sigma = HostModelParams().jitter_sigma
    for node_id, remainder in enumerate(state["jitter"]):
        name = f"host-jitter[{node_id}]"
        stream = RngStreams(0).fresh(name)
        stream.bit_generator.state = state["rng"][name]
        more = np.exp(stream.normal(-sigma**2 / 2, sigma, size=extra))
        state["jitter"][node_id] = np.concatenate((remainder, more))
        state["rng"][name] = stream.bit_generator.state
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    return dataclasses.replace(snapshot, payload=payload)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "vectorized"])
def test_remainder_longer_than_the_buffer_bound_restores(tmp_path, backend, vectorized):
    """Snapshots written while a host model could keep up to 4 096
    unconsumed draws (more than ``JITTER_BUFFER``) restore and continue
    bit-identically on either stepper and backend.  The run consumes
    past the lengthened remainder, so the moved stream state is read too."""
    workload = IsWorkload(total_keys=2**12, iterations=2, ops_per_key=20_000)

    def factory(vec, backend):
        return build_sim(
            tmp_path, apps=workload.build_apps(8), num_nodes=8, vectorized=vec,
            window=5 * US, backend=backend,
        )

    reference, snaps = run_collecting(lambda: factory(True, "python"))
    snapshot = with_long_remainder(snaps[len(snaps) // 2], extra=300)
    sim = factory(vectorized, backend)
    sim.checkpoint_sink = lambda _snap: None
    restore_snapshot(sim, snapshot)
    assert min(len(model._buffer) for model in sim.host_models) > JITTER_BUFFER
    assert_identical(reference, sim.run())


class TestShardedInteraction:
    def test_checkpointed_run_falls_back_to_serial(self, tmp_path):
        """Sharding a checkpointed run degrades to serial (bit-identical
        anyway) with a reported reason, like traced/faulted runs do."""
        outcome = run_sharded(lambda: build_sim(tmp_path), shards=2)
        assert outcome.shards == 1
        assert outcome.fallback_reason is not None
        assert "checkpoint" in outcome.fallback_reason

    def test_supervised_run_falls_back_to_serial(self):
        def factory():
            sim = ClusterSimulator(
                [SimulatedNode(i, a) for i, a in enumerate(pingpong_apps(5))],
                NetworkController(2, PAPER_NETWORK(2)),
                FixedQuantumPolicy(10 * US),
                ClusterConfig(seed=7),
            )
            sim.supervision = lambda now, window: None
            return sim

        outcome = run_sharded(factory, shards=2)
        assert outcome.shards == 1
        assert outcome.fallback_reason is not None
        assert "supervised" in outcome.fallback_reason

    def test_snapshot_restores_identically_regardless_of_shard_request(
        self, tmp_path
    ):
        """A snapshot taken under a shard-requesting config restores and
        completes bit-identically: sharded execution is serial-identical,
        so 'restore onto either driver' holds by construction."""
        factory = lambda: build_sim(tmp_path, shards=2)
        reference, snaps = run_collecting(factory)
        resumed = resume_from(factory, snaps[len(snaps) // 2])
        assert_identical(reference, resumed)


class TestCadence:
    def test_quantum_cadence_counts_boundaries(self, tmp_path):
        sim = build_sim(tmp_path)
        sim.config = dataclasses.replace(
            sim.config,
            checkpoint=CheckpointConfig(directory=str(tmp_path), every_quanta=4),
        )
        snaps = []
        sim.checkpoint_sink = snaps.append
        result = sim.run()
        total = result.quantum_stats.quanta
        assert 0 < len(snaps) <= total // 4 + 1

    def test_sim_time_cadence(self, tmp_path):
        sim = build_sim(tmp_path)
        sim.config = dataclasses.replace(
            sim.config,
            checkpoint=CheckpointConfig(
                directory=str(tmp_path), every_sim_time=100 * US
            ),
        )
        snaps = []
        sim.checkpoint_sink = snaps.append
        result = sim.run()
        assert snaps
        assert len(snaps) <= result.sim_time // (100 * US) + 1
        # Snapshots are ordered by simulated time and spaced >= the cadence.
        times = [snap.sim_time for snap in snaps]
        assert times == sorted(times)
        assert all(b - a >= 100 * US for a, b in zip(times, times[1:]))

    def test_default_sink_writes_to_the_store(self, tmp_path):
        result, _ = (build_sim(tmp_path).run(), None)
        store = CheckpointStore(tmp_path)
        snapshot = store.load("run")
        assert snapshot is not None
        assert snapshot.sim_time <= result.sim_time
        resumed = resume_from(lambda: build_sim(tmp_path), snapshot)
        assert resumed.completed


class TestGuards:
    def test_capture_requires_app_log(self):
        # A simulator built without a checkpoint config records no app
        # input log, so there is nothing sound to capture.
        sim = ClusterSimulator(
            [SimulatedNode(i, a) for i, a in enumerate(pingpong_apps(2))],
            NetworkController(2, PAPER_NETWORK(2)),
            FixedQuantumPolicy(10 * US),
            ClusterConfig(seed=7),
        )
        with pytest.raises(RuntimeError, match="input log"):
            capture_snapshot(
                sim,
                now=0,
                host=0.0,
                q_state=sim.policy.initial(),
                quantum_stats=None,
                breakdown=None,
                timeline=None,
            )

    def test_restore_requires_fresh_simulator(self, tmp_path):
        factory = lambda: build_sim(tmp_path)
        _, snaps = run_collecting(factory)
        used = factory()
        used.run()
        with pytest.raises(RuntimeError, match="fresh"):
            restore_snapshot(used, snaps[0])
