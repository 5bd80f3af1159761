"""End-to-end tests for the open-loop service workload.

Covers the subsystem's whole contract: deterministic completion on every
driver (scalar, vectorized, sharded, checkpoint-resumed), the
``metric_kind="percentile"`` accuracy path, request-lifecycle tracing,
live progress reporting, and — critically — that adding the subsystem
changed no pre-existing cache key (locked against golden hashes).
"""

import dataclasses
import pickle

import pytest

from repro.core import ClusterConfig, ClusterSimulator, FixedQuantumPolicy
from repro.engine.units import MICROSECOND, MILLISECOND
from repro.harness.configs import ground_truth_policy, paper_policies
from repro.harness.parallel import (
    DiskResultCache,
    RunnerSettings,
    RunSpec,
    record_from_json,
    record_to_json,
)
from repro.harness.report import service_report
from repro.harness.supervise import RunTimeout
from repro.network import NetworkController, PAPER_NETWORK
from repro.node import SimulatedNode
from repro.obs.collector import TraceConfig
from repro.service import (
    ArrivalProfile,
    BurstWindow,
    ServiceWorkload,
    TierModel,
    TierPlan,
    service_stats,
)
from repro.service.tiers import hash01
from repro.shard import run_sharded
from repro.workloads import EpWorkload, IsWorkload

US = MICROSECOND


def small_workload(**overrides):
    defaults = dict(
        profile=ArrivalProfile(rate_per_sec=50_000.0, num_requests=150),
        tier_weights=(1, 2),
        slo_ns=150_000,
    )
    defaults.update(overrides)
    return ServiceWorkload(**defaults)


def build_sim(workload, size, policy=None, **config_kwargs):
    nodes = [
        SimulatedNode(i, app) for i, app in enumerate(workload.build_apps(size))
    ]
    controller = NetworkController(size, PAPER_NETWORK(size))
    return ClusterSimulator(
        nodes,
        controller,
        policy if policy is not None else FixedQuantumPolicy(US),
        ClusterConfig(seed=7, **config_kwargs),
    )


# --------------------------------------------------------------------- #
# Tier topology and service-time models
# --------------------------------------------------------------------- #


class TestTiers:
    def test_layout_splits_all_server_ranks(self):
        plan = TierPlan.layout(8, (1, 2, 4))
        assert plan.tiers == ((1,), (2, 3), (4, 5, 6, 7))
        assert plan.tier_of(0) == -1
        assert plan.tier_of(5) == 2

    def test_layout_requires_one_rank_per_tier(self):
        with pytest.raises(ValueError):
            TierPlan.layout(3, (1, 2, 4))
        plan = TierPlan.layout(4, (1, 2, 4))
        assert all(len(tier) == 1 for tier in plan.tiers)

    def test_route_is_deterministic_and_clamped(self):
        plan = TierPlan.layout(8, (1, 2, 4))
        first = plan.route(11, 1, 2)
        assert first == plan.route(11, 1, 2)
        assert len(first) == 2
        assert set(first) <= set(plan.tiers[2])
        assert len(plan.route(11, 1, 99)) == len(plan.tiers[2])

    def test_service_time_is_pure_and_bounded(self):
        model = TierModel(base_ns=5_000, jitter_ns=2_000, tail_prob=0.5, tail_factor=3.0)
        times = [model.service_time(r, 1, 4) for r in range(200)]
        assert times == [model.service_time(r, 1, 4) for r in range(200)]
        assert all(5_000 <= t <= 3 * 7_000 for t in times)
        # The heavy tail actually fires for some requests and not others.
        assert len({t >= 15_000 for t in times}) == 2

    def test_hash01_range(self):
        values = [hash01(r, 2, 5, salt=1) for r in range(500)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.3 < sum(values) / len(values) < 0.7


# --------------------------------------------------------------------- #
# Completion and bit-identity across drivers
# --------------------------------------------------------------------- #


class TestDeterminism:
    def test_completes_and_serves_every_request(self):
        workload = small_workload()
        result = build_sim(workload, 4).run()
        assert result.completed
        source = result.app_results[0]
        assert source["issued"] == 150
        assert len(source["latencies"]) == 150
        assert all(lat > 0 for lat in source["latencies"])
        served = [result.app_results[r]["served"] for r in range(1, 4)]
        assert served[0] == 150  # the single frontend serves everything

    def test_scalar_vectorized_bit_identical(self):
        results = []
        for vectorized in (False, True):
            workload = small_workload()
            results.append(
                build_sim(workload, 4, vectorized=vectorized).run()
            )
        assert dataclasses.asdict(results[0]) == dataclasses.asdict(results[1])

    def test_repeat_runs_bit_identical(self):
        first = build_sim(small_workload(), 4).run()
        second = build_sim(small_workload(), 4).run()
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_sharded_bit_identical_to_serial(self):
        def build():
            return build_sim(small_workload(), 4, shards=2)

        serial = build_sim(small_workload(), 4).run()
        outcome = run_sharded(build, shards=2)
        assert outcome.fallback_reason is None
        assert serial == outcome.result

    def test_checkpoint_resume_bit_identical(self, tmp_path):
        from repro.checkpoint import CheckpointConfig, restore_snapshot

        def factory():
            return build_sim(
                small_workload(),
                4,
                policy=FixedQuantumPolicy(100 * US),
                checkpoint=CheckpointConfig(directory=str(tmp_path), every_quanta=5),
            )

        sim = factory()
        snaps = []
        sim.checkpoint_sink = snaps.append
        reference = sim.run()
        assert reference.completed and snaps
        resumed_sim = factory()
        resumed_sim.checkpoint_sink = lambda _snap: None
        restore_snapshot(resumed_sim, snaps[len(snaps) // 2])
        resumed = resumed_sim.run()
        assert dataclasses.asdict(reference) == dataclasses.asdict(resumed)

    def test_modulated_profile_end_to_end(self):
        workload = small_workload(
            profile=ArrivalProfile(
                rate_per_sec=50_000.0,
                num_requests=120,
                diurnal_amplitude=0.4,
                diurnal_period=2 * MILLISECOND,
                bursts=(BurstWindow(MILLISECOND, 2 * MILLISECOND, 2.0),),
            )
        )
        result = build_sim(workload, 4).run()
        assert result.completed
        assert len(result.app_results[0]["latencies"]) == 120


# --------------------------------------------------------------------- #
# Percentile metric and accuracy path
# --------------------------------------------------------------------- #


class TestPercentileMetric:
    def test_metric_is_p99_in_microseconds(self):
        workload = small_workload()
        result = build_sim(workload, 4).run()
        latencies = sorted(result.app_results[0]["latencies"])
        expected_ns = latencies[min(990 * len(latencies) // 1000, len(latencies) - 1)]
        assert workload.metric(result) == expected_ns / 1000.0
        assert workload.metric_kind == "percentile"

    def test_accuracy_error_vs_ground_truth(self):
        truth_workload = small_workload()
        truth = build_sim(truth_workload, 4).run()
        coarse = build_sim(
            small_workload(), 4, policy=FixedQuantumPolicy(1000 * US)
        ).run()
        assert truth_workload.accuracy_error(truth, truth) == 0.0
        # Coarse quanta defer deliveries, so the client-observed tail
        # must dilate — a nonzero accuracy error against Q<=T.
        assert truth_workload.accuracy_error(coarse, truth) > 0.0

    def test_configurable_percentile_point(self):
        workload = small_workload(percentile=50.0)
        result = build_sim(workload, 4).run()
        latencies = sorted(result.app_results[0]["latencies"])
        assert workload.metric(result) == latencies[len(latencies) // 2] / 1000.0

    def test_service_summary_consistent_with_metric(self):
        workload = small_workload()
        result = build_sim(workload, 4).run()
        stats = workload.service_summary(result)
        assert stats.completed == stats.issued == 150
        assert stats.percentiles[99.0] / 1000.0 == workload.metric(result)
        assert 0.0 <= stats.slo_miss_rate <= 1.0

    def test_record_json_round_trip(self):
        # The latency sample must survive the disk result cache.
        from repro.harness.experiment import ExperimentRecord

        workload = small_workload()
        result = build_sim(workload, 4).run()
        record = ExperimentRecord(
            workload_name=workload.name,
            size=4,
            policy_label="1",
            seed=7,
            metric=workload.metric(result),
            result=result,
        )
        restored = record_from_json(record_to_json(record))
        assert workload.metric(restored.result) == record.metric
        assert restored.result.app_results[0]["latencies"] == (
            result.app_results[0]["latencies"]
        )


# --------------------------------------------------------------------- #
# Zero-request and rendering edge cases
# --------------------------------------------------------------------- #


class TestStatsRendering:
    def test_zero_request_stats(self):
        stats = service_stats([], issued=0, slo_ns=100_000)
        assert stats.slo_miss_rate == 0.0
        assert stats.max_latency_ns == 0

    def test_zero_request_report_renders_dashes(self):
        empty = service_stats([], issued=5, slo_ns=100_000)
        full = service_stats([50_000, 200_000], issued=2, slo_ns=100_000)
        table = service_report([("empty", empty), ("full", full)])
        assert "0/5" in table and "-" in table
        assert "2/2" in table and "50.00%" in table

    def test_single_sample_stats(self):
        stats = service_stats([42_000], issued=1, slo_ns=100_000)
        assert set(stats.percentiles.values()) == {42_000}
        assert stats.slo_misses == 0
        assert stats.mean_latency_ns == 42_000.0

    def test_report_empty_input_is_empty_string(self):
        assert service_report([]) == ""

    def test_stats_is_frozen(self):
        stats = service_stats([1], issued=1, slo_ns=10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.completed = 5


# --------------------------------------------------------------------- #
# Cache keys: pre-existing keys locked, service keys stable
# --------------------------------------------------------------------- #


class TestCacheKeys:
    # Computed on the tree *before* this subsystem existed; the underscore
    # attribute filter and dataclass serialization added for the service
    # workload must not move any pre-existing key.
    GOLDEN_EP = "5d64e9c396161e33a4d4e252962789bb"
    GOLDEN_IS = "acbc3f3241b370e88d78e55463e3f9f9"

    @staticmethod
    def key_of(workload, size, policy, label="1"):
        spec = RunSpec(
            workload=workload,
            size=size,
            policy=policy,
            label=label,
            settings=RunnerSettings(),
        )
        return DiskResultCache.key_of(spec.key_payload())

    def test_pre_existing_keys_unchanged(self):
        assert self.key_of(EpWorkload(), 8, ground_truth_policy().build()) == (
            self.GOLDEN_EP
        )
        assert self.key_of(IsWorkload(), 4, paper_policies()[4].build()) == (
            self.GOLDEN_IS
        )

    def test_service_key_ignores_derived_state(self):
        workload = ServiceWorkload()
        policy = ground_truth_policy().build()
        before = self.key_of(workload, 8, policy)
        workload.build_apps(8)  # populates _plan/_arrivals/_query_manager
        assert self.key_of(workload, 8, policy) == before

    def test_service_key_depends_on_profile(self):
        policy = ground_truth_policy().build()
        base = self.key_of(ServiceWorkload(), 8, policy)
        other = self.key_of(
            ServiceWorkload(profile=ArrivalProfile(num_requests=999)), 8, policy
        )
        assert base != other

    def test_pickling_drops_derived_state(self):
        workload = ServiceWorkload()
        workload.build_apps(8)
        clone = pickle.loads(pickle.dumps(workload))
        assert clone._arrivals is None and clone._query_manager is None
        # The clone rebuilds everything and still runs.
        result = build_sim(clone, 8).run()
        assert result.completed


# --------------------------------------------------------------------- #
# Tracing and progress
# --------------------------------------------------------------------- #


class TestTracingAndProgress:
    def test_request_trace_events(self):
        workload = small_workload()
        sim = build_sim(workload, 4, trace=TraceConfig())
        workload.attach_trace(sim.collector)
        result = sim.run()
        assert result.completed
        events = sim.collector.of_kind("request")
        issued = [e for e in events if e.action == "issued"]
        completed = [e for e in events if e.action == "completed"]
        assert len(issued) == len(completed) == 150
        assert sim.collector.total("request") == 300
        assert all(e.latency > 0 for e in completed)
        assert {e.slo_miss for e in completed} <= {True, False}

    def test_requests_flag_disables_the_events(self):
        workload = small_workload()
        sim = build_sim(workload, 4, trace=TraceConfig(requests=False))
        workload.attach_trace(sim.collector)
        sim.run()
        assert sim.collector.total("request") == 0

    def test_tracing_never_changes_results(self):
        plain = build_sim(small_workload(), 4).run()
        workload = small_workload()
        sim = build_sim(workload, 4, trace=TraceConfig())
        workload.attach_trace(sim.collector)
        traced = sim.run()
        assert dataclasses.asdict(plain) == dataclasses.asdict(traced)

    def test_progress_summary_live_counters(self):
        workload = small_workload()
        assert workload.progress_summary() is None
        result = build_sim(workload, 4).run()
        assert result.completed
        progress = workload.progress_summary()
        assert "150/150 requests issued" in progress
        assert "0 in flight" in progress

    def test_incomplete_run_leaves_partial_progress(self):
        # A run cut off by the simulated-time limit must leave the live
        # counters visible — that is what the harness interpolates into
        # its "hit the simulated-time limit (app progress: ...)" error.
        workload = small_workload()
        result = build_sim(workload, 4, sim_time_limit=MILLISECOND).run()
        assert not result.completed
        progress = workload.progress_summary()
        assert "requests issued" in progress
        assert "in flight" in progress
        manager = workload._query_manager
        assert manager.completed < 150

    def test_run_timeout_carries_progress_detail(self):
        error = RunTimeout(
            "stall",
            label="SVC n=4",
            sim_time=1_000,
            detail="10/150 requests issued, 3 served, 0 delivered, 7 in flight",
        )
        assert "7 in flight" in str(error)
        revived = pickle.loads(pickle.dumps(error))
        assert revived.detail == error.detail
        assert "7 in flight" in str(revived)


# --------------------------------------------------------------------- #
# Constructor validation
# --------------------------------------------------------------------- #


class TestWorkloadValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ServiceWorkload(fanout=0)
        with pytest.raises(ValueError):
            ServiceWorkload(slo_ns=0)
        with pytest.raises(ValueError):
            ServiceWorkload(percentile=123.0)
        with pytest.raises(ValueError):
            ServiceWorkload(tier_weights=(1, 2), tier_models=(TierModel(),))

    def test_program_requires_build(self):
        workload = ServiceWorkload()
        with pytest.raises(RuntimeError):
            workload.program(None)
