"""Chrome trace-event export and per-quantum CSV: structure and fidelity."""

from __future__ import annotations

import json

from repro.core.quantum import AdaptiveQuantumPolicy, FixedQuantumPolicy
from repro.engine.units import MICROSECOND
from repro.harness.configs import PolicySpec
from repro.harness.experiment import ExperimentRunner
from repro.obs.collector import TraceConfig
from repro.obs.export import chrome_trace, write_chrome_trace, write_jsonl
from repro.service import ArrivalProfile, ServiceWorkload
from repro.workloads import IsWorkload

SEED = 7


def _dyn():
    return PolicySpec("dyn", lambda: AdaptiveQuantumPolicy(MICROSECOND, 1000 * MICROSECOND))


def _record(policy_us=None, size=2):
    runner = ExperimentRunner(seed=SEED, trace=TraceConfig(), check=True)
    workload = IsWorkload(total_keys=2**15, iterations=2, ops_per_key=16)
    if policy_us is None:
        spec = _dyn()
    else:
        spec = PolicySpec(
            f"{policy_us}us", lambda: FixedQuantumPolicy(policy_us * MICROSECOND)
        )
    return runner.run_spec(workload, size, spec)


class TestChromeTrace:
    def test_structure_and_metadata(self):
        record = _record()
        trace = chrome_trace(record.obs, num_nodes=record.size, label="is-dyn")
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert trace["otherData"]["label"] == "is-dyn"
        events = trace["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in metadata}
        assert {"network-controller", "cluster-nodes", "quanta", "packets"} <= names
        assert {"node 0", "node 1"} <= names
        # Every non-metadata event has the required keys and a pid we own.
        for event in events:
            if event["ph"] == "M":
                continue
            assert event["pid"] in (0, 1)
            assert "ts" in event and "name" in event

    def test_quantum_slices_cover_the_run(self):
        record = _record()
        trace = chrome_trace(record.obs, num_nodes=record.size)
        slices = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "quantum"
        ]
        quanta = record.result.quantum_stats.quanta
        # One slice per quantum (fast-forwarded spans aggregate many).
        aggregated = sum(e["args"].get("quanta", 1) for e in slices)
        assert aggregated == quanta
        # ts/dur are microseconds of simulated time: the slices tile the
        # run from 0 to the final quantum's nominal end (the run may stop
        # inside that last window, so the overshoot is below one slice).
        total_us = sum(e["dur"] for e in slices)
        sim_us = record.result.sim_time / 1000
        longest = max(e["dur"] for e in slices)
        assert sim_us <= total_us + 1e-6
        assert total_us < sim_us + longest + 1e-6

    def test_flow_events_pair_up(self):
        record = _record()
        trace = chrome_trace(record.obs, num_nodes=record.size)
        starts = [e for e in trace["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in trace["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == len(finishes) > 0
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}
        # Flows land on node tracks within range.
        for event in starts + finishes:
            assert event["pid"] == 1
            assert 0 <= event["tid"] < record.size

    def test_straggler_lags_reconcile_with_controller_stats(self):
        """Acceptance: per-packet lag in the exported trace reconciles
        exactly with ControllerStats.stragglers / total_delay_error."""
        record = _record(policy_us=100, size=4)
        stats = record.result.controller_stats
        assert stats.stragglers > 0
        trace = chrome_trace(record.obs, num_nodes=record.size)
        in_flight = [
            e for e in trace["traceEvents"]
            if e.get("cat") == "packet" and e["ph"] == "X" and e["pid"] == 0
        ]
        straggler_lags = [
            e["args"]["lag_ns"] for e in in_flight if e["args"]["straggler"]
        ]
        assert len(straggler_lags) == stats.stragglers
        assert sum(straggler_lags) == stats.total_delay_error
        assert all(
            e["args"]["lag_ns"] == 0 for e in in_flight if not e["args"]["straggler"]
        )

    def test_write_is_deterministic(self, tmp_path):
        record = _record()
        a = write_chrome_trace(record.obs, tmp_path / "a.json", num_nodes=record.size)
        b = write_chrome_trace(record.obs, tmp_path / "b.json", num_nodes=record.size)
        assert a.read_bytes() == b.read_bytes()
        json.loads(a.read_text())  # well-formed

    def test_request_edges_are_frontend_instants(self):
        service = ServiceWorkload(profile=ArrivalProfile(num_requests=100))
        runner = ExperimentRunner(seed=SEED, trace=TraceConfig())
        record = runner.run_spec(service, 4, _dyn())
        requests = record.obs.of_kind("request")
        assert len(requests) == record.obs.total("request") == 200
        instants = [
            e for e in chrome_trace(record.obs)["traceEvents"] if e.get("cat") == "request"
        ]
        assert [(e["name"], e["tid"], e["ts"]) for e in instants] == [
            (f"request {r.action}", r.node, r.time / 1000) for r in requests
        ]
        assert all(e["ph"] == "i" and e["pid"] == 1 for e in instants)
        assert [e["args"] for e in instants] == [
            {"request_id": r.request_id, "latency_ns": r.latency, "slo_miss": r.slo_miss}
            for r in requests
        ]
        assert sum(e["name"] == "request completed" for e in instants) == 100
        # A trace of request edges alone still gets its frontend tracks.
        names = {
            e["args"]["name"] for e in chrome_trace(requests)["traceEvents"] if e["ph"] == "M"
        }
        assert {f"node {r.node}" for r in requests} <= names


class TestJsonlExport:
    def test_round_trips_ring_events(self, tmp_path):
        record = _record()
        path = write_jsonl(record.obs, tmp_path / "events.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(record.obs)
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds == [event.kind for event in record.obs.events]
