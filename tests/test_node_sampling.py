"""Tests for the sampling schedule and its host-model integration."""

import numpy as np
import pytest

from repro.core import ClusterConfig, ClusterSimulator, FixedQuantumPolicy
from repro.engine import RngStreams
from repro.engine.units import MICROSECOND, MILLISECOND
from repro.network import NetworkController, PAPER_NETWORK
from repro.node import HostModelParams, SimulatedNode
from repro.node.hostmodel import BUSY, IDLE
from repro.node.sampling import SampledHostExecutionModel, SamplingSchedule
from repro.workloads import EpWorkload

US = MICROSECOND


def make_model(schedule, node_id=0, jitter=0.0):
    params = HostModelParams(jitter_sigma=jitter, hetero_sigma=0.0)
    return SampledHostExecutionModel(node_id, params, RngStreams(1), schedule)


class TestSamplingSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingSchedule(period=1)
        with pytest.raises(ValueError):
            SamplingSchedule(detail_fraction=0.0)
        with pytest.raises(ValueError):
            SamplingSchedule(detail_fraction=1.5)
        with pytest.raises(ValueError):
            SamplingSchedule(functional_slowdown=0)
        with pytest.raises(ValueError):
            SamplingSchedule(phase_stagger=-1)

    def test_detail_window(self):
        schedule = SamplingSchedule(period=1000, detail_fraction=0.25)
        assert schedule.detail_window == 250


class TestSampledHostModel:
    def test_detailed_vs_functional_windows(self):
        schedule = SamplingSchedule(
            period=1000, detail_fraction=0.3, functional_slowdown=2.0
        )
        model = make_model(schedule)
        assert model.busy_base_at(0) == 20.0
        assert model.busy_base_at(299) == 20.0
        assert model.busy_base_at(300) == 2.0
        assert model.busy_base_at(999) == 2.0
        assert model.busy_base_at(1000) == 20.0  # next period

    def test_idle_unaffected(self):
        schedule = SamplingSchedule(period=1000, detail_fraction=0.3)
        model = make_model(schedule)
        busy_det, idle = model.slowdown_pair(0)
        busy_fun, idle2 = model.slowdown_pair(500)
        assert busy_det == 20.0 and busy_fun == schedule.functional_slowdown
        assert idle == idle2 == 1.0

    def test_phase_stagger_offsets_nodes(self):
        schedule = SamplingSchedule(period=1000, detail_fraction=0.3, phase_stagger=500)
        node0 = make_model(schedule, node_id=0)
        node1 = make_model(schedule, node_id=1)
        assert node0.busy_base_at(0) != node1.busy_base_at(0)

    def test_vectorised_matches_scalar(self):
        schedule = SamplingSchedule(period=1000, detail_fraction=0.5)
        model = make_model(schedule)
        times = np.array([0, 250, 499, 500, 750, 1000, 1250])
        vector = model.busy_bases_at(times)
        scalar = [model.busy_base_at(int(t)) for t in times]
        assert list(vector) == scalar

    def test_slowdowns_use_times_for_busy(self):
        schedule = SamplingSchedule(period=1000, detail_fraction=0.5, functional_slowdown=2.0)
        model = make_model(schedule)
        times = np.array([0, 600])
        draws = model.slowdowns(2, BUSY, times)
        assert list(draws) == [20.0, 2.0]
        idle_draws = model.slowdowns(2, IDLE, times)
        assert list(idle_draws) == [1.0, 1.0]


def run_ep(sampling=None, seed=3, quantum=100 * US):
    workload = EpWorkload(total_ops=2e8)
    nodes = [SimulatedNode(i, app) for i, app in enumerate(workload.build_apps(4))]
    controller = NetworkController(4, PAPER_NETWORK(4))
    config = ClusterConfig(seed=seed, sampling=sampling)
    sim = ClusterSimulator(nodes, controller, FixedQuantumPolicy(quantum), config)
    return sim.run()


class TestClusterIntegration:
    def test_sampling_accelerates_busy_simulation(self):
        plain = run_ep()
        sampled = run_ep(SamplingSchedule(period=5 * MILLISECOND, detail_fraction=0.2))
        assert sampled.host_time < plain.host_time

    def test_ground_truth_timing_unchanged_by_sampling(self):
        # At Q <= T every delivery is exact, so sampling changes how fast
        # we simulate, not what we simulate: identical target timeline.
        plain = run_ep(quantum=US)
        sampled = run_ep(
            SamplingSchedule(period=5 * MILLISECOND, detail_fraction=0.2), quantum=US
        )
        assert sampled.makespan == plain.makespan
        assert sampled.host_time < plain.host_time

    def test_speedup_bounded_by_schedule(self):
        schedule = SamplingSchedule(period=5 * MILLISECOND, detail_fraction=0.2,
                                    functional_slowdown=3.0)
        plain = run_ep()
        sampled = run_ep(schedule)
        gain = plain.host_time / sampled.host_time
        ceiling = 20.0 / (0.2 * 20.0 + 0.8 * 3.0)  # over the mean busy slowdown
        assert 1.0 < gain < ceiling * 1.2
