"""Network substrate: packets, latency models, topologies, and the controller.

The paper bridges every node's simulated NIC to a centralized *network
controller* that plays the role of a perfect link-layer (MAC-to-MAC) switch:
it routes packets functionally and attaches a timing model to each hop.  This
subpackage provides

* the :class:`~repro.network.packet.Packet` wire unit (jumbo Ethernet frames),
* latency models combining NIC serialisation, NIC minimum latency, and
  switch/topology latency (:mod:`repro.network.latency`),
* the paper's perfect star switch and the :class:`Topology` interface
  other fabrics implement (:mod:`repro.network.topology`), and
* the :class:`~repro.network.controller.NetworkController` itself, which
  routes packets, holds packets due in future quanta, implements the
  straggler delivery policy of Figure 3, and counts per-quantum traffic for
  the adaptive quantum algorithm.
"""

from repro.network.controller import DeliveryDecision, DeliveryKind, NetworkController
from repro.network.latency import (
    LatencyModel,
    NicSwitchLatencyModel,
    UniformLatencyModel,
    PAPER_NETWORK,
)
from repro.network.packet import BROADCAST, JUMBO_FRAME_BYTES, Packet
from repro.network.topology import (
    StarTopology,
    Topology,
)

__all__ = [
    "Packet",
    "BROADCAST",
    "JUMBO_FRAME_BYTES",
    "LatencyModel",
    "NicSwitchLatencyModel",
    "UniformLatencyModel",
    "PAPER_NETWORK",
    "Topology",
    "StarTopology",
    "NetworkController",
    "DeliveryDecision",
    "DeliveryKind",
]
