"""Cross-cutting robustness checks: odd sizes, transport windows, doctests."""

import doctest

import pytest

from repro.core import ClusterConfig, ClusterSimulator, FixedQuantumPolicy
from repro.engine.units import MICROSECOND
from repro.network import NetworkController
from repro.node import SimulatedNode
from repro.node.transport import TransportConfig
from repro.workloads import (
    CgWorkload,
    EpWorkload,
    IsWorkload,
    LuWorkload,
    MgWorkload,
    NamdWorkload,
)

US = MICROSECOND

SMALL = {
    "EP": lambda: EpWorkload(total_ops=1e7, chunks=2),
    "IS": lambda: IsWorkload(total_keys=2**14, iterations=2, ops_per_key=8),
    "CG": lambda: CgWorkload(iterations=2, nonzeros=1e6, vector_bytes=16_384),
    "MG": lambda: MgWorkload(cycles=1, levels=3, fine_points=5e5),
    "LU": lambda: LuWorkload(timesteps=2, sweep_ops=4e6, planes=2, residual_every=1),
    "NAMD": lambda: NamdWorkload(timesteps=2, step_ops=8e6, max_partners=3),
}


def run(workload, size, transport=None, seed=6):
    nodes = [
        SimulatedNode(i, app, transport=transport)
        for i, app in enumerate(workload.build_apps(size))
    ]
    from repro.network import PAPER_NETWORK

    controller = NetworkController(size, PAPER_NETWORK(size))
    sim = ClusterSimulator(
        nodes, controller, FixedQuantumPolicy(US), ClusterConfig(seed=seed)
    )
    return sim.run()


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("size", [3, 6])
class TestOddClusterSizes:
    """Every workload must be deadlock-free off the power-of-two path."""

    def test_completes(self, name, size):
        result = run(SMALL[name](), size)
        assert result.completed
        assert result.controller_stats.stragglers == 0


class TestTransportConservation:
    @pytest.mark.parametrize("window", [4_096, 16_384, 1 << 20])
    def test_all_bytes_arrive_under_any_window(self, window):
        result = run(
            SMALL["IS"](), 4, transport=TransportConfig(window_bytes=window)
        )
        assert result.completed
        sent = sum(node.messages_sent for node in result.node_stats)
        received = sum(node.messages_received for node in result.node_stats)
        assert sent == received  # acks are not messages; every message lands


class TestDoctests:
    def test_module_doctests(self):
        import repro.engine.units as units

        failures, _ = doctest.testmod(units)
        assert failures == 0
