"""Kill/resume bit-identity: the checkpoint subsystem's acceptance gate.

A resume pair of ``tests/oracle.py`` runs a configuration to completion
while collecting a snapshot at every quantum boundary, restores its
first, middle or last snapshot onto a fresh simulator — under either
stepper and either engine core — and requires the resumed result to equal
the scalar-python run, which was never checkpointed.  The tests here name
the pairs they cover; the unique cases are the byte-identical trace
stream, the jitter remainder, the interaction with sharding, the cadence
and the guards.
"""

import dataclasses
import pickle
from functools import partial

import numpy as np
import pytest

from repro.checkpoint import CheckpointConfig, CheckpointStore, capture_snapshot, restore_snapshot
from repro.engine import RngStreams
from repro.node.hostmodel import JITTER_BUFFER, HostModelParams
from repro.obs.collector import TraceConfig
from repro.shard import run_sharded
from repro.workloads import IsWorkload

from tests import oracle

PINGPONG = oracle.CONFIGS["pingpong-10us"]
CHECKED = oracle.pairs("pingpong-10us-checked", group="resume")
FAULTED = oracle.pairs("pingpong30-faulted", group="resume")
UNCHECKPOINTED = "pingpong-10us[resume@first]"
#: Captured under one stepper and resumed under another, by test case.
STEPPER_SWAPS = [f"{one}>{other}" for one in ("scalar", "vectorized")
                 for other in ("scalar", "vectorized")]
CROSS_DRIVER = {swap: f"IS-8-5us[resume@mid{'' if swap == 'scalar>scalar' else ':' + swap}]"
                for swap in STEPPER_SWAPS}
#: Every oracle pair the tests here check.
PAIRS = CHECKED + FAULTED + [UNCHECKPOINTED] + list(CROSS_DRIVER.values())


def build_sim(tmp_path, config=PINGPONG, **options):
    """*config* checkpointing every quantum into *tmp_path*, on the oracle's
    shard and resume core unless *options* say otherwise."""
    checkpoint = CheckpointConfig(directory=str(tmp_path), every_quanta=1)
    return oracle.build(config, checkpoint=checkpoint, **{**oracle.CORE, **options})


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


class TestScalarResume:
    def test_checked_pingpong_resumes_bit_identically(self):
        oracle.check(*CHECKED)

    def test_checkpointing_itself_changes_nothing(self):
        """Every resume pair first asserts that its checkpointing run
        equals the reference, which was not checkpointed."""
        oracle.check(UNCHECKPOINTED)

    def test_faulted_recovery_run_resumes_bit_identically(self):
        assert oracle.reference("pingpong30-faulted").result.fault_stats is not None
        oracle.check(*FAULTED)

    def test_traced_run_resumes_with_byte_identical_jsonl(self, tmp_path):
        def factory(path):
            return lambda: build_sim(tmp_path, trace=TraceConfig(jsonl_path=str(path)))

        ref_path = tmp_path / "ref.jsonl"
        sim = factory(ref_path)()
        snaps = []
        sim.checkpoint_sink = snaps.append
        reference = sim.run()
        assert sim.collector is not None
        sim.collector.close()
        ref_bytes = ref_path.read_bytes()

        for index in sorted({0, len(snaps) // 2, len(snaps) - 1}):
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
            assert dataclasses.asdict(reference) == dataclasses.asdict(resumed)
            # The trace *stream* continues byte-identically: the restore
            # seeks the sink to the captured offset and truncates.
            assert resumed_path.read_bytes() == ref_bytes


class TestCrossDriverResume:
    """Snapshots are driver-independent: capture under either stepper,
    restore onto either stepper, same bits (the jitter-stream remainder
    is normalized into the per-node model buffers at capture time)."""

    @pytest.mark.parametrize("capture_vec", [False, True])
    @pytest.mark.parametrize("restore_vec", [False, True])
    def test_all_capture_restore_combinations(self, capture_vec, restore_vec):
        stepper = {False: "scalar", True: "vectorized"}
        oracle.check(CROSS_DRIVER[f"{stepper[capture_vec]}>{stepper[restore_vec]}"])


def with_long_remainder(snapshot, extra):
    """*snapshot* as a writer whose host models kept *extra* more draws
    would have written it: each node's jitter remainder grows by the next
    *extra* draws of its stream, and the stream's saved state moves past
    them (chunk invariance makes both layouts the same numbers)."""
    state = pickle.loads(snapshot.payload)
    sigma = HostModelParams().jitter_sigma
    for node_id, remainder in enumerate(state["jitter"]):
        name = f"host-jitter[{node_id}]"
        stream = RngStreams(0).stream(name)
        stream.bit_generator.state = state["rng"][name]
        more = np.exp(stream.normal(-sigma**2 / 2, sigma, size=extra))
        state["jitter"][node_id] = np.concatenate((remainder, more))
        state["rng"][name] = stream.bit_generator.state
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    return dataclasses.replace(snapshot, payload=payload)


@pytest.mark.parametrize("backend", oracle.BACKENDS)
@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "vectorized"])
def test_remainder_longer_than_the_buffer_bound_restores(tmp_path, backend, vectorized):
    """Snapshots written while a host model could keep up to 4 096
    unconsumed draws (more than ``JITTER_BUFFER``) restore and continue
    bit-identically on either stepper and backend.  The run consumes
    past the lengthened remainder, so the moved stream state is read too."""
    config = dataclasses.replace(oracle.CONFIGS["IS-8-5us"], apps=oracle.workload(
        IsWorkload, total_keys=2**12, iterations=2, ops_per_key=20_000))
    reference, snaps = run_collecting(lambda: build_sim(tmp_path, config, vectorized=True))
    snapshot = with_long_remainder(snaps[len(snaps) // 2], extra=300)
    resumed = build_sim(tmp_path, config, vectorized=vectorized, backend=backend)
    resumed.checkpoint_sink = lambda _snap: None
    restore_snapshot(resumed, snapshot)
    assert min(len(model._buffer) for model in resumed.host_models) > JITTER_BUFFER
    assert resumed.run() == reference


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
            sim = oracle.build(dataclasses.replace(
                PINGPONG, apps=partial(oracle.pingpong_apps, rounds=5)))
            sim.supervision = lambda now, window: None
            return sim

        outcome = run_sharded(factory, shards=2)
        assert outcome.shards == 1
        assert outcome.fallback_reason is not None
        assert "supervised" in outcome.fallback_reason

    def test_snapshot_restores_identically_regardless_of_shard_request(self, tmp_path):
        """A snapshot taken under a shard-requesting config restores and
        completes bit-identically: sharded execution is serial-identical,
        so 'restore onto either driver' holds by construction."""
        def factory():
            return build_sim(tmp_path, shards=2)

        reference, snaps = run_collecting(factory)
        assert resume_from(factory, snaps[len(snaps) // 2]) == reference


class TestCadence:
    def test_quantum_cadence_counts_boundaries(self, tmp_path):
        checkpoint = CheckpointConfig(directory=str(tmp_path), every_quanta=4)
        result, snaps = run_collecting(lambda: oracle.build(PINGPONG, checkpoint=checkpoint))
        assert 0 < len(snaps) <= result.quantum_stats.quanta // 4 + 1

    def test_sim_time_cadence(self, tmp_path):
        checkpoint = CheckpointConfig(directory=str(tmp_path), every_sim_time=100 * oracle.US)
        result, snaps = run_collecting(lambda: oracle.build(PINGPONG, checkpoint=checkpoint))
        assert snaps
        assert len(snaps) <= result.sim_time // (100 * oracle.US) + 1
        # Snapshots are ordered by simulated time and spaced >= the cadence.
        times = [snap.sim_time for snap in snaps]
        assert times == sorted(times)
        assert all(b - a >= 100 * oracle.US for a, b in zip(times, times[1:]))

    def test_default_sink_writes_to_the_store(self, tmp_path):
        result = build_sim(tmp_path).run()
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
        sim = oracle.build(PINGPONG)
        with pytest.raises(RuntimeError, match="input log"):
            capture_snapshot(sim, now=0, host=0.0, q_state=sim.policy.initial(),
                             quantum_stats=None, breakdown=None, timeline=None)

    def test_restore_requires_fresh_simulator(self, tmp_path):
        _, snaps = run_collecting(lambda: build_sim(tmp_path))
        used = build_sim(tmp_path)
        used.run()
        with pytest.raises(RuntimeError, match="fresh"):
            restore_snapshot(used, snaps[0])
