"""Tests for the alternative-synchronization baselines."""

import pytest

from repro.core import ClusterConfig, ClusterSimulator, FixedQuantumPolicy
from repro.core.baselines import (
    free_running,
    null_message_estimate,
    optimistic_estimate,
)
from repro.engine.units import MICROSECOND, SECOND
from repro.network import NetworkController, PAPER_NETWORK
from repro.node import SimulatedNode
from repro.workloads import PingPongWorkload

US = MICROSECOND


def build_cluster(workload, size, seed):
    nodes = [SimulatedNode(i, app) for i, app in enumerate(workload.build_apps(size))]
    controller = NetworkController(size, PAPER_NETWORK(size))
    return nodes, controller, ClusterConfig(seed=seed)


def ground_truth(workload, size, seed=1):
    nodes, controller, config = build_cluster(workload, size, seed)
    sim = ClusterSimulator(nodes, controller, FixedQuantumPolicy(US), config)
    return sim.run()


class TestFreeRunning:
    def run_free(self, seed):
        workload = PingPongWorkload(rounds=10)
        nodes, controller, config = build_cluster(workload, 2, seed)
        result = free_running(nodes, controller, config).run()
        return workload, result

    def test_functional_correctness_preserved(self):
        workload, result = self.run_free(seed=1)
        assert result.completed
        # Every round trip completed: the app exchanged all its messages.
        assert result.node_stats[0].messages_received == 10
        assert result.node_stats[1].messages_received == 10

    def test_timing_is_indeterminable(self):
        """The paper's point: without synchronization the simulated time
        depends on host speeds, so different seeds give different answers
        (while the ground truth is seed-independent)."""
        metrics = set()
        for seed in (1, 2, 3):
            workload, result = self.run_free(seed)
            metrics.add(workload.metric(result))
        assert len(metrics) == 3

    def test_no_barrier_cost(self):
        _, result = self.run_free(seed=1)
        assert result.breakdown.barrier == 0.0

    def test_much_faster_than_ground_truth(self):
        workload = PingPongWorkload(rounds=10)
        truth = ground_truth(workload, 2)
        _, result = self.run_free(seed=1)
        assert result.host_time < truth.host_time / 20


class TestNullMessageEstimate:
    def test_quadratic_in_nodes(self):
        truth = ground_truth(PingPongWorkload(rounds=5), 2)
        two = null_message_estimate(truth, 2, lookahead=US)
        eight = null_message_estimate(truth, 8, lookahead=US)
        # N(N-1): 8 nodes cost 56/2 = 28x the protocol messages of 2 nodes.
        assert eight.sync_overhead == pytest.approx(28 * two.sync_overhead)

    def test_longer_lookahead_cheaper(self):
        truth = ground_truth(PingPongWorkload(rounds=5), 2)
        short = null_message_estimate(truth, 2, lookahead=US)
        long = null_message_estimate(truth, 2, lookahead=10 * US)
        assert long.sync_overhead == pytest.approx(short.sync_overhead / 10)

    def test_validation(self):
        truth = ground_truth(PingPongWorkload(rounds=5), 2)
        with pytest.raises(ValueError):
            null_message_estimate(truth, 2, lookahead=0)
        with pytest.raises(ValueError):
            null_message_estimate(truth, 1, lookahead=US)


class TestOptimisticEstimate:
    def test_checkpointing_dominates(self):
        """The paper's Section 3 argument: 30-40s per checkpoint makes an
        optimistic approach hopeless for full-system simulation."""
        truth = ground_truth(PingPongWorkload(rounds=5), 2)
        estimate = optimistic_estimate(
            truth, 2, checkpoint_interval=100 * US, checkpoint_cost=35.0
        )
        # Checkpoint cost alone dwarfs the whole quantum-synchronized run.
        assert estimate.host_time > 100 * truth.host_time

    def test_rollbacks_priced(self):
        truth = ground_truth(PingPongWorkload(rounds=5), 2)
        quiet = optimistic_estimate(
            truth, 2, checkpoint_interval=SECOND, rollbacks=0
        )
        busy = optimistic_estimate(
            truth, 2, checkpoint_interval=SECOND, rollbacks=100
        )
        assert busy.host_time > quiet.host_time

    def test_defaults_use_observed_stragglers(self):
        truth = ground_truth(PingPongWorkload(rounds=5), 2)
        assert truth.controller_stats.stragglers == 0
        estimate = optimistic_estimate(truth, 2, checkpoint_interval=SECOND)
        assert "0 rollbacks" in estimate.detail

    def test_validation(self):
        truth = ground_truth(PingPongWorkload(rounds=5), 2)
        with pytest.raises(ValueError):
            optimistic_estimate(truth, 2, checkpoint_interval=0)
        with pytest.raises(ValueError):
            optimistic_estimate(truth, 2, checkpoint_interval=US, checkpoint_cost=-1)
