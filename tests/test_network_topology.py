"""Topology latency structure: the closed-form minimum against a pair scan."""

from __future__ import annotations

import pytest

from repro.network.topology import StarTopology


class TestMinExtraLatencyAgainstBruteForce:
    """Every topology's minimum must equal the exhaustive pair scan."""

    @pytest.mark.parametrize("num_nodes", [2, 3, 8])
    @pytest.mark.parametrize("switch_latency", [0, 500])
    def test_star(self, num_nodes, switch_latency):
        topo = StarTopology(num_nodes, switch_latency=switch_latency)
        assert topo.min_extra_latency() == min(
            topo.extra_latency(src, dst)
            for src in range(num_nodes)
            for dst in range(num_nodes)
            if src != dst
        )
