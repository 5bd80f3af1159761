"""The trace collector: zero observable effect, exact accounting.

The load-bearing property is acceptance-critical: installing (or not
installing) a collector must never change simulation results, and the
collector's tallies must reconcile exactly with the controller's own
statistics.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core.quantum import AdaptiveQuantumPolicy, FixedQuantumPolicy
from repro.engine.units import MICROSECOND
from repro.harness.configs import PolicySpec, ground_truth_policy
from repro.harness.experiment import ExperimentRunner
from repro.harness.parallel import Uncacheable, record_to_json
from repro.obs.collector import TraceCollector, TraceConfig, run_slug
from repro.obs.events import PacketTrace, QuantumEnd
from repro.workloads import EpWorkload, IsWorkload

SEED = 7


def _ep():
    return EpWorkload(total_ops=2e7, chunks=4)


def _is():
    return IsWorkload(total_keys=2**15, iterations=2, ops_per_key=16)


def _adaptive():
    return PolicySpec(
        "dyn", lambda: AdaptiveQuantumPolicy(MICROSECOND, 1000 * MICROSECOND)
    )


def _fixed(us: int):
    return PolicySpec(f"{us}us", lambda: FixedQuantumPolicy(us * MICROSECOND))


class TestTracingIsObservational:
    def test_results_identical_with_and_without_tracing(self):
        """EP/IS matrix: traced and untraced runs report the same RunResult."""
        specs = [ground_truth_policy(), _adaptive(), _fixed(100)]
        for factory, sizes in [(_ep, (2, 4)), (_is, (2, 4))]:
            for size in sizes:
                for spec in specs:
                    plain = ExperimentRunner(seed=SEED)
                    traced = ExperimentRunner(seed=SEED, trace=TraceConfig())
                    a = plain.run_spec(factory(), size, spec)
                    b = traced.run_spec(factory(), size, spec)
                    assert b.obs is not None and a.obs is None
                    assert a.result == b.result, (factory, size, spec.label)
                    assert a.metric == b.metric

    def test_traced_records_refuse_to_serialize(self):
        runner = ExperimentRunner(seed=SEED, trace=TraceConfig())
        record = runner.run_spec(_ep(), 2, _adaptive())
        with pytest.raises(Uncacheable):
            record_to_json(record)


class TestReconciliation:
    def test_straggler_tallies_match_controller_stats(self):
        # A 100us fixed quantum far above T guarantees stragglers on IS.
        runner = ExperimentRunner(seed=SEED, trace=TraceConfig(), check=True)
        record = runner.run_spec(_is(), 4, _fixed(100))
        stats = record.result.controller_stats
        obs = record.obs
        assert stats.stragglers > 0
        assert obs.straggler_packets == stats.stragglers
        assert obs.straggler_lag_total == stats.total_delay_error
        # The per-event lags in the ring agree with the exact tallies.
        lags = [e.lag for e in obs.packet_events() if e.straggler]
        assert len(lags) == obs.straggler_packets
        assert sum(lags) == obs.straggler_lag_total
        # Every routed data frame was observed.
        assert obs.total("packet") == stats.packets_routed

    def test_quantum_index_matches_quantum_stats(self):
        runner = ExperimentRunner(seed=SEED, trace=TraceConfig())
        record = runner.run_spec(_ep(), 2, _adaptive())
        assert record.obs.quantum_index == record.result.quantum_stats.quanta

    def test_quantum_spans_tile_the_run(self):
        runner = ExperimentRunner(seed=SEED, trace=TraceConfig())
        record = runner.run_spec(_is(), 2, _adaptive())
        quanta = record.obs.quantum_events()
        assert quanta, "expected quantum events in the ring"
        for event in quanta:
            assert event.quantum == event.time - event.start > 0
        # Adaptive decisions follow Algorithm 1's vocabulary.
        assert {e.decision for e in quanta} <= {"grow", "shrink", "hold", "final"}
        starts = [e.start for e in quanta]
        assert starts == sorted(starts)


class TestCollectorMechanics:
    def test_ring_bound_and_exact_counts(self):
        runner = ExperimentRunner(seed=SEED, trace=TraceConfig(capacity=64))
        record = runner.run_spec(_is(), 2, _adaptive())
        obs = record.obs
        assert len(obs) == 64
        assert obs.dropped > 0
        total = sum(obs.counts.values())
        assert total == len(obs) + obs.dropped
        # Exact tallies are unaffected by shedding.
        assert obs.total("packet") == record.result.controller_stats.packets_routed

    def test_zero_capacity_disables_ring(self):
        runner = ExperimentRunner(seed=SEED, trace=TraceConfig(capacity=0))
        record = runner.run_spec(_ep(), 2, _adaptive())
        obs = record.obs
        assert len(obs) == 0 and obs.dropped == 0
        assert obs.total("quantum-end") > 0  # counts still exact

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceConfig(capacity=-1)

    def test_jsonl_stream_is_complete_and_parseable(self, tmp_path):
        path = tmp_path / "run.jsonl"
        runner = ExperimentRunner(
            seed=SEED, trace=TraceConfig(capacity=16, jsonl_path=str(path))
        )
        record = runner.run_spec(_ep(), 2, _adaptive())
        obs = record.obs
        # The per-run path is derived from the shared config's path.
        files = sorted(tmp_path.glob("run-*.jsonl"))
        assert len(files) == 1
        lines = files[0].read_text().splitlines()
        events = [json.loads(line) for line in lines]
        # The stream holds every event, not just the ring's survivors.
        assert len(events) == sum(obs.counts.values()) > len(obs)
        kinds = {e["kind"] for e in events}
        assert "quantum-end" in kinds
        for event in events:
            assert "time" in event and "kind" in event

    def test_repeated_traced_run_writes_identical_jsonl(self, tmp_path):
        """Packet ids are per run: a traced run's JSONL bytes do not
        depend on what ran before it in the same process."""

        def traced_bytes(name):
            path = tmp_path / f"{name}.jsonl"
            runner = ExperimentRunner(
                seed=SEED, trace=TraceConfig(capacity=0, jsonl_path=str(path))
            )
            runner.run_spec(_is(), 4, _adaptive())
            (written,) = tmp_path.glob(f"{name}-*.jsonl")
            return written.read_bytes()

        first = traced_bytes("first")
        ExperimentRunner(seed=SEED).run_spec(_is(), 4, _fixed(100))
        assert b'"packet_id"' in first
        assert traced_bytes("second") == first

    def test_for_run_uniquifies_jsonl_paths(self):
        config = TraceConfig(jsonl_path="traces/batch.jsonl")
        a = config.for_run("IS", 4, "dyn 1:100")
        b = config.for_run("EP", 2, "1")
        assert a.jsonl_path != b.jsonl_path
        assert a.jsonl_path.endswith("batch-IS-n4-dyn-1-100.jsonl")
        assert config.for_run("IS", 4, "dyn 1:100").jsonl_path == a.jsonl_path
        # No JSONL sink: nothing to uniquify.
        assert TraceConfig().for_run("IS", 4, "x") == TraceConfig()

    def test_run_slug_is_filesystem_safe(self):
        slug = run_slug("IS", 64, "dyn 1.30:0.90 / fast")
        assert slug == "IS-n64-dyn-1.30-0.90-fast"

    def test_pickle_round_trip_drops_sink_and_listeners(self, tmp_path):
        config = TraceConfig(jsonl_path=str(tmp_path / "t.jsonl"))
        collector = TraceCollector(config)
        collector.add_packet_listener(lambda *a: None)
        collector.quantum_end(0, 10, 0, "hold", 10, 0.1, 0.0)
        clone = pickle.loads(pickle.dumps(collector))
        assert clone._sink is None and clone._packet_listeners == []
        assert clone.counts == collector.counts
        assert [e.kind for e in clone.events] == [e.kind for e in collector.events]
        collector.close()


class TestTrafficTraceRebase:
    def test_conduit_keeps_no_events(self):
        runner = ExperimentRunner(seed=SEED, record_traffic=True)
        record = runner.run_spec(_ep(), 2, _adaptive())
        # record_traffic alone does not expose a collector on the record...
        assert record.obs is None
        assert runner.traced_runs == []
        # ...and the trace itself carries the traffic series: the listener
        # saw every frame the controller routed.
        assert record.trace.total_packets > 0
        assert (
            record.trace.total_packets
            == record.result.controller_stats.packets_routed
        )


class TestParallelFarm:
    def test_pool_ships_collectors_back_in_request_order(self, tmp_path):
        from repro.harness.parallel import ParallelRunner

        requests = [
            (_ep(), 2, _adaptive()),
            (_is(), 2, _fixed(100)),
            (_ep(), 2, _fixed(100)),
        ]
        pooled = ParallelRunner(
            seed=SEED, max_workers=3, trace=TraceConfig(),
            cache_dir=tmp_path / "cache",
        )
        records = pooled.run_many(requests)
        assert all(record.obs is not None for record in records)
        # Worker-side collectors are registered in request order, not in
        # pool completion order.
        assert pooled.traced_runs == records
        serial = ParallelRunner(
            seed=SEED, max_workers=1, trace=TraceConfig(),
            cache_dir=tmp_path / "cache",
        )
        for pool_rec, serial_rec in zip(records, serial.run_many(requests)):
            assert pool_rec.result == serial_rec.result
            assert pool_rec.obs.counts == serial_rec.obs.counts
            assert pool_rec.obs.straggler_lag_total == serial_rec.obs.straggler_lag_total
        # Tracing disabled caching: the cache directory holds no entries.
        assert not list((tmp_path / "cache").rglob("*.json"))


class TestEventShape:
    def test_packet_identity_and_dict_round_trip(self):
        runner = ExperimentRunner(seed=SEED, trace=TraceConfig())
        record = runner.run_spec(_is(), 2, _adaptive())
        packets = record.obs.packet_events()
        assert packets
        for event in packets[:50]:
            identity = event.identity()
            assert identity == (
                event.src,
                event.dst,
                event.message_id,
                event.fragment,
                event.packet_kind,
                event.retransmit,
            )
            encoded = event.to_dict()
            assert encoded["kind"] == "packet"
            assert encoded["time"] == event.time
        quanta = record.obs.quantum_events()
        assert all(isinstance(e, QuantumEnd) for e in quanta)
        assert all(isinstance(e, PacketTrace) for e in packets)
