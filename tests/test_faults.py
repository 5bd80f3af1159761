"""Tests for deterministic fault injection and transport recovery.

The load-bearing guarantees of :mod:`repro.faults`:

* **Reproducibility** — a faulted run is a pure function of
  (configuration, seed): bit-identical on replay, bit-identical between
  the serial and the process-pool paths, and an all-zero plan consumes
  zero RNG draws so its runs are bit-identical to fault-free runs while
  still hashing to a distinct cache key.
* **Recovery** — the per-flow RTO/retransmission transport delivers
  every workload through 1% and 5% uniform loss, through partitions,
  and through duplication, with bounded retries.
* **Accounting** — injector statistics, transport recovery counters, and
  the causality sanitizer's independent tallies all reconcile.
"""

import dataclasses
import json

import pytest

from repro.analysis.invariants import CausalitySanitizer, InvariantViolation
from repro.core import ClusterConfig, ClusterSimulator, FixedQuantumPolicy
from repro.core.cluster import RunResult
from repro.core.quantum import QuantumStats
from repro.core.stats import HostCostBreakdown
from repro.engine.units import MICROSECOND
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultStats,
    LinkPartition,
    NodeStall,
    PRESETS,
    load_plan,
)
from repro.harness.configs import PolicySpec
from repro.harness.parallel import (
    ParallelRunner,
    RunnerSettings,
    record_from_json,
    record_to_json,
)
from repro.network import NetworkController, PAPER_NETWORK
from repro.network.controller import ControllerStats
from repro.node import SimulatedNode
from repro.node.transport import (
    RecoveryConfig,
    RetryExhausted,
    TransportConfig,
    TransportStats,
)
from repro.engine.rng import RngStreams
from tests.test_robustness import SMALL

US = MICROSECOND

RECOVERY = TransportConfig(recovery=RecoveryConfig())


def run(workload, size, plan, transport=None, seed=6, check=True, **config_kwargs):
    nodes = [
        SimulatedNode(i, app, transport=transport)
        for i, app in enumerate(workload.build_apps(size))
    ]
    controller = NetworkController(size, PAPER_NETWORK(size))
    config = ClusterConfig(seed=seed, faults=plan, check=check, **config_kwargs)
    sim = ClusterSimulator(nodes, controller, FixedQuantumPolicy(US), config)
    return sim.run()


def small_is():
    return SMALL["IS"]()


def fingerprint(result):
    """Everything observable about a run, for bit-identity comparisons."""
    return (
        result.sim_time,
        result.host_time,
        result.makespan,
        dataclasses.asdict(result.controller_stats),
        [dataclasses.asdict(s) for s in result.node_stats],
        result.app_finish_times,
    )


# --------------------------------------------------------------------- #
# The declarative plan
# --------------------------------------------------------------------- #


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(duplicate_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(jitter_rate=0.5)  # jitter_max missing

    def test_partition_validated(self):
        with pytest.raises(ValueError):
            LinkPartition(start=5, end=5, nodes=(0,))
        with pytest.raises(ValueError):
            LinkPartition(start=0, end=10, nodes=())
        with pytest.raises(ValueError):
            LinkPartition(start=0, end=10, nodes=(1, 1))

    def test_stall_validated(self):
        with pytest.raises(ValueError):
            NodeStall(node=0, start=10, end=5)
        with pytest.raises(ValueError):
            NodeStall(node=0, start=0, end=10, factor=0.5)

    def test_partition_cuts_only_across_the_cut(self):
        partition = LinkPartition(start=100, end=200, nodes=(0, 1))
        assert partition.cuts(0, 2, 150)  # crosses the cut
        assert partition.cuts(2, 1, 150)
        assert not partition.cuts(0, 1, 150)  # both inside
        assert not partition.cuts(2, 3, 150)  # both outside
        assert not partition.cuts(0, 2, 99)  # before the window
        assert not partition.cuts(0, 2, 200)  # window is half-open

    def test_round_trips_through_json(self):
        plan = PRESETS["flaky"]
        rebuilt = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert rebuilt == plan
        nested = FaultPlan(
            partitions=(LinkPartition(start=1, end=2, nodes=(0,)),),
            stalls=(NodeStall(node=1, start=3, end=4, factor=2.0),),
        )
        assert FaultPlan.from_dict(json.loads(json.dumps(nested.to_dict()))) == nested

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault plan keys"):
            FaultPlan.from_dict({"drop_rate": 0.1, "packet_loss": 0.2})

    def test_requires_recovery(self):
        assert FaultPlan(drop_rate=0.01).requires_recovery()
        assert FaultPlan(duplicate_rate=0.01).requires_recovery()
        assert FaultPlan(
            partitions=(LinkPartition(start=0, end=1, nodes=(0,)),)
        ).requires_recovery()
        assert not FaultPlan(jitter_rate=0.5, jitter_max=100).requires_recovery()
        assert not FaultPlan(
            stalls=(NodeStall(node=0, start=0, end=1),)
        ).requires_recovery()

    def test_load_plan_resolves_presets_and_files(self, tmp_path):
        assert load_plan("lossy-5") is PRESETS["lossy-5"]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"drop_rate": 0.03, "jitter_rate": 0.1,
                                    "jitter_max": 1000}))
        assert load_plan(str(path)) == FaultPlan(
            drop_rate=0.03, jitter_rate=0.1, jitter_max=1000
        )
        with pytest.raises(ValueError, match="neither a preset"):
            load_plan("no-such-plan")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="cannot parse"):
            load_plan(str(bad))


# --------------------------------------------------------------------- #
# Determinism
# --------------------------------------------------------------------- #


class TestDeterminism:
    def test_null_plan_bit_identical_to_no_plan(self):
        """An all-zero plan consumes zero RNG draws: same bits as no plan."""
        assert fingerprint(run(small_is(), 4, None)) == fingerprint(
            run(small_is(), 4, FaultPlan())
        )

    def test_same_seed_same_plan_replays_identically(self):
        first = run(small_is(), 4, PRESETS["flaky"], transport=RECOVERY)
        second = run(small_is(), 4, PRESETS["flaky"], transport=RECOVERY)
        assert fingerprint(first) == fingerprint(second)
        assert dataclasses.asdict(first.fault_stats) == dataclasses.asdict(
            second.fault_stats
        )

    def test_different_seeds_draw_different_faults(self):
        plan = FaultPlan(drop_rate=0.3)
        a = run(small_is(), 4, plan, transport=RECOVERY, seed=1)
        b = run(small_is(), 4, plan, transport=RECOVERY, seed=2)
        assert fingerprint(a) != fingerprint(b)

    def test_serial_and_pool_runs_are_bit_identical(self, tmp_path):
        """Same seed + plan -> identical records from -j 1 and -j 3."""
        spec = PolicySpec("1us", lambda: FixedQuantumPolicy(US))
        requests = [
            (SMALL["IS"](), 4, spec),
            (SMALL["EP"](), 4, spec),
            (SMALL["CG"](), 4, spec),
        ]

        def batch(workers, cache_dir):
            runner = ParallelRunner(
                seed=11,
                faults=PRESETS["lossy-1"],
                transport=RECOVERY,
                max_workers=workers,
                cache_dir=cache_dir,
            )
            return runner.run_many(requests)

        serial = batch(1, tmp_path / "serial")
        pooled = batch(3, tmp_path / "pooled")
        assert serial == pooled

    def test_null_plan_distinct_cache_key_identical_result(self, tmp_path):
        """FaultPlan() caches separately from faults=None, same payload bits."""
        none_settings = RunnerSettings(seed=3, faults=None)
        null_settings = RunnerSettings(seed=3, faults=FaultPlan())
        assert "faults" not in none_settings.key_fragment(4)
        assert null_settings.key_fragment(4)["faults"] == json.loads(
            json.dumps(FaultPlan().to_dict())
        )
        assert none_settings.key_fragment(4) != null_settings.key_fragment(4)

    def test_fault_free_key_fragment_unchanged_by_this_layer(self):
        """Pre-fault cache keys survive: no recovery block, no faults block."""
        fragment = RunnerSettings(
            transport=TransportConfig(window_bytes=8192)
        ).key_fragment(2)
        assert "recovery" not in fragment["transport"]
        assert "faults" not in fragment
        recovered = RunnerSettings(transport=RECOVERY).key_fragment(2)
        assert recovered["transport"]["recovery"] is not None


# --------------------------------------------------------------------- #
# Recovery under loss, duplication, partitions
# --------------------------------------------------------------------- #


class TestRecovery:
    @pytest.mark.parametrize("name", sorted(SMALL))
    @pytest.mark.parametrize("rate", [0.01, 0.05])
    def test_every_workload_survives_uniform_loss(self, name, rate):
        result = run(SMALL[name](), 4, FaultPlan(drop_rate=rate), transport=RECOVERY)
        assert result.completed
        sent = sum(node.messages_sent for node in result.node_stats)
        received = sum(node.messages_received for node in result.node_stats)
        assert sent == received  # every application message delivered
        if result.fault_stats.total_drops > 0:
            assert sum(t.retransmits for t in result.transport_stats) > 0

    def test_partition_heals_and_traffic_resumes(self):
        plan = FaultPlan(
            partitions=(LinkPartition(start=10_000, end=60_000, nodes=(0,)),)
        )
        result = run(small_is(), 4, plan, transport=RECOVERY)
        assert result.completed
        assert result.fault_stats.partition_drops > 0
        assert sum(t.retransmits for t in result.transport_stats) > 0

    def test_duplicates_are_suppressed_before_reassembly(self):
        result = run(
            small_is(), 4, FaultPlan(duplicate_rate=0.5), transport=RECOVERY
        )
        assert result.completed
        assert result.fault_stats.frames_duplicated > 0
        dropped = sum(t.duplicates_dropped for t in result.transport_stats)
        assert 0 < dropped <= result.fault_stats.frames_duplicated
        sent = sum(node.messages_sent for node in result.node_stats)
        received = sum(node.messages_received for node in result.node_stats)
        assert sent == received  # no double-delivery into the applications

    def test_total_loss_exhausts_retries(self):
        with pytest.raises(RetryExhausted):
            run(small_is(), 2, FaultPlan(drop_rate=1.0), transport=RECOVERY)

    def test_loss_without_recovery_transport_is_rejected_up_front(self):
        with pytest.raises(ValueError, match="recovery-enabled transport"):
            run(small_is(), 4, PRESETS["lossy-1"])
        with pytest.raises(ValueError, match="recovery-enabled transport"):
            run(small_is(), 4, PRESETS["lossy-1"],
                transport=TransportConfig())  # transport without recovery

    def test_plan_naming_missing_node_is_rejected(self):
        plan = FaultPlan(stalls=(NodeStall(node=9, start=0, end=1_000),))
        with pytest.raises(ValueError, match="names nodes \\[9\\]"):
            run(small_is(), 4, plan)

    def test_jitter_needs_no_recovery_transport(self):
        result = run(small_is(), 4, PRESETS["jittery"])
        assert result.completed
        assert result.fault_stats.frames_delayed > 0
        assert result.fault_stats.extra_delay_total > 0
        assert result.transport_stats is None  # plain NIC path throughout


# --------------------------------------------------------------------- #
# Node stalls
# --------------------------------------------------------------------- #


class TestNodeStalls:
    PLAN = FaultPlan(stalls=(NodeStall(node=0, start=10_000, end=50_000, factor=8.0),))

    def test_stall_costs_host_time_not_sim_time(self):
        base = run(small_is(), 4, None)
        stalled = run(small_is(), 4, self.PLAN)
        assert stalled.completed
        assert stalled.fault_stats.stall_quanta > 0
        assert stalled.sim_time == base.sim_time  # simulated behaviour intact
        assert stalled.makespan == base.makespan
        assert stalled.host_time > base.host_time  # the farm pays for it

    def test_stall_fast_forward_observationally_equivalent(self):
        # EP's long compute phases engage the accelerator; the stall factor
        # must multiply the vectorised path exactly like the event path.
        fast = run(SMALL["EP"](), 4, self.PLAN, fast_forward=True)
        slow = run(SMALL["EP"](), 4, self.PLAN, fast_forward=False)
        assert fast.sim_time == slow.sim_time
        assert fast.makespan == slow.makespan
        assert fast.fault_stats.stall_quanta == slow.fault_stats.stall_quanta
        assert abs(fast.host_time - slow.host_time) <= 1e-9 * max(fast.host_time, 1.0)


# --------------------------------------------------------------------- #
# Injector draw discipline
# --------------------------------------------------------------------- #


class TestInjectorDrawDiscipline:
    def test_null_plan_consumes_zero_draws(self):
        rng = RngStreams(1)
        injector = FaultInjector(FaultPlan(), rng)
        probe_before = RngStreams(1).stream("faults").random()
        from repro.network.packet import Packet

        packet = Packet(src=0, dst=1, size_bytes=100, send_time=0)
        for _ in range(50):
            verdict = injector.link_verdict(packet, 1)
            assert not verdict.drop and not verdict.duplicate
            assert verdict.extra_latency == 0
        assert injector._rng.random() == probe_before  # stream untouched

    def test_partitions_consume_no_draws(self):
        plan = FaultPlan(partitions=(LinkPartition(start=0, end=1_000, nodes=(0,)),))
        rng = RngStreams(1)
        injector = FaultInjector(plan, rng)
        probe_before = RngStreams(1).stream("faults").random()
        from repro.network.packet import Packet

        dropped = injector.link_verdict(
            Packet(src=0, dst=1, size_bytes=64, send_time=500), 1
        )
        assert dropped.drop and dropped.drop_reason == "partition"
        assert injector._rng.random() == probe_before


# --------------------------------------------------------------------- #
# Sanitizer fault invariants
# --------------------------------------------------------------------- #


def fault_sanitizer():
    return CausalitySanitizer(min_quantum=US, max_quantum=US, min_latency=2 * US)


def fault_result(fault_stats=None, transport_stats=None):
    return RunResult(
        sim_time=0,
        host_time=0.0,
        completed=True,
        breakdown=HostCostBreakdown(),
        quantum_stats=QuantumStats(),
        controller_stats=ControllerStats(),
        node_stats=[],
        app_results=[],
        app_finish_times=[],
        timeline=None,
        fault_stats=fault_stats,
        transport_stats=transport_stats,
    )


class TestSanitizerFaultInvariants:
    def test_unknown_drop_reason_rejected(self):
        from repro.network.packet import Packet

        sanitizer = fault_sanitizer()
        with pytest.raises(InvariantViolation) as excinfo:
            sanitizer.on_fault_drop(
                Packet(src=0, dst=1, size_bytes=10, send_time=0), 1, "gremlins"
            )
        assert excinfo.value.invariant == "fault-accounting"

    def test_drop_without_plan_rejected_at_run_end(self):
        from repro.network.packet import Packet

        sanitizer = fault_sanitizer()
        sanitizer.on_fault_drop(
            Packet(src=0, dst=1, size_bytes=10, send_time=0), 1, "loss"
        )
        with pytest.raises(InvariantViolation) as excinfo:
            sanitizer.on_run_end(fault_result(fault_stats=None))
        assert excinfo.value.invariant == "fault-accounting"

    def test_drop_counter_drift_rejected(self):
        sanitizer = fault_sanitizer()  # witnessed zero drops
        stats = FaultStats(frames_dropped=2)
        with pytest.raises(InvariantViolation) as excinfo:
            sanitizer.on_run_end(fault_result(fault_stats=stats))
        assert excinfo.value.invariant == "fault-accounting"

    def test_inconsistent_delay_counters_rejected(self):
        sanitizer = fault_sanitizer()
        stats = FaultStats(frames_delayed=3, extra_delay_total=0)
        with pytest.raises(InvariantViolation) as excinfo:
            sanitizer.on_run_end(fault_result(fault_stats=stats))
        assert excinfo.value.invariant == "fault-accounting"

    def test_timeout_retransmit_mismatch_rejected(self):
        sanitizer = fault_sanitizer()
        transports = [TransportStats(timeouts=2, retransmits=1)]
        with pytest.raises(InvariantViolation) as excinfo:
            sanitizer.on_run_end(fault_result(transport_stats=transports))
        assert excinfo.value.invariant == "recovery-accounting"

    def test_excess_duplicate_suppression_rejected(self):
        sanitizer = fault_sanitizer()
        transports = [TransportStats(duplicates_dropped=5)]
        stats = FaultStats(frames_duplicated=1)
        with pytest.raises(InvariantViolation) as excinfo:
            sanitizer.on_run_end(
                fault_result(fault_stats=stats, transport_stats=transports)
            )
        assert excinfo.value.invariant == "recovery-accounting"

    def test_consistent_fault_run_passes(self):
        sanitizer = fault_sanitizer()
        stats = FaultStats(frames_delayed=2, extra_delay_total=900)
        transports = [TransportStats(timeouts=1, retransmits=1)]
        sanitizer.on_run_end(
            fault_result(fault_stats=stats, transport_stats=transports)
        )


# --------------------------------------------------------------------- #
# Reporting and serialization
# --------------------------------------------------------------------- #


class TestReporting:
    def test_summary_carries_fault_and_recovery_blocks(self):
        result = run(small_is(), 4, PRESETS["lossy-5"], transport=RECOVERY)
        text = result.summary()
        assert "faults[" in text and "recovery[" in text

    def test_record_round_trips_fault_stats(self, tmp_path):
        runner = ParallelRunner(
            seed=9,
            faults=PRESETS["lossy-1"],
            transport=RECOVERY,
            max_workers=1,
            cache_dir=tmp_path,
        )
        spec = PolicySpec("1us", lambda: FixedQuantumPolicy(US))
        record = runner.run_spec(SMALL["IS"](), 4, spec)
        rebuilt = record_from_json(json.loads(json.dumps(record_to_json(record))))
        assert rebuilt == record
        assert rebuilt.result.fault_stats == record.result.fault_stats
        assert rebuilt.result.transport_stats == record.result.transport_stats
        # ... and the second runner replays it from disk, stats included.
        warm = ParallelRunner(
            seed=9,
            faults=PRESETS["lossy-1"],
            transport=RECOVERY,
            max_workers=1,
            cache_dir=tmp_path,
        )
        cached = warm.run_spec(SMALL["IS"](), 4, spec)
        assert cached == record
        assert warm.cache is not None and warm.cache.hits == 1

    def test_fault_free_record_json_has_no_fault_keys(self):
        record = ParallelRunner(seed=9, max_workers=1, use_cache=False).run_spec(
            SMALL["EP"](), 2, PolicySpec("1us", lambda: FixedQuantumPolicy(US))
        )
        payload = record_to_json(record)
        assert "fault_stats" not in payload["result"]
        assert "transport_stats" not in payload["result"]
