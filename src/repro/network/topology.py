"""Network topologies: per-pair switch latency and hop counts.

The paper models "a perfect switch with infinite bandwidth and zero latency"
— the :class:`StarTopology` with zero per-hop cost.  The controller is the
natural place to model "any kind of network/switch/router topology"
(Section 3); another fabric is a :class:`Topology` subclass.

A topology answers two questions about an (src, dst) pair:
``hops`` — how many store-and-forward stages a frame crosses, and
``extra_latency`` — the fixed switching latency for the path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.engine.units import SimTime


class Topology(ABC):
    """Latency structure of the cluster fabric."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 2:
            raise ValueError(f"a cluster needs at least 2 nodes, got {num_nodes}")
        self.num_nodes = num_nodes

    def validate_pair(self, src: int, dst: int) -> None:
        for node in (src, dst):
            if not 0 <= node < self.num_nodes:
                raise ValueError(f"node id {node} out of range [0, {self.num_nodes})")
        if src == dst:
            raise ValueError(f"no path from node {src} to itself")

    @abstractmethod
    def hops(self, src: int, dst: int) -> int:
        """Number of switch traversals between *src* and *dst*."""

    @abstractmethod
    def extra_latency(self, src: int, dst: int) -> SimTime:
        """Fixed path latency added by the fabric (beyond the NICs)."""

    @abstractmethod
    def min_extra_latency(self) -> SimTime:
        """Lower bound of :meth:`extra_latency` over all pairs.

        The conservative quantum bound `Q <= T` uses the *minimum* network
        latency, and callers re-derive it per run (the sanitizer, the
        farm's cache-key calibration probe), so it must be cheap.
        """


class StarTopology(Topology):
    """All nodes hang off one central switch (the paper's configuration).

    With ``switch_latency=0`` this is the paper's perfect switch.
    """

    def __init__(self, num_nodes: int, switch_latency: SimTime = 0) -> None:
        super().__init__(num_nodes)
        if switch_latency < 0:
            raise ValueError("switch latency must be non-negative")
        self.switch_latency = switch_latency

    def hops(self, src: int, dst: int) -> int:
        self.validate_pair(src, dst)
        return 1

    def extra_latency(self, src: int, dst: int) -> SimTime:
        self.validate_pair(src, dst)
        return self.switch_latency

    def min_extra_latency(self) -> SimTime:
        return self.switch_latency
