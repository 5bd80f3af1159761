"""Alternative synchronization strategies, for comparison.

The paper positions adaptive quantum synchronization against three
alternatives, each of which this module makes measurable:

* **No synchronization** (Section 3: "even without synchronizing the nodes'
  simulated time, the functional simulation of the cluster would still
  behave correctly ... however, the simulated time would be
  indeterminable").  :func:`free_running` configures the cluster driver
  with one effectively-infinite quantum and a free barrier: packets still
  flow (functional correctness), but every delivery is at the destination's
  arbitrary current position — timing becomes a function of host speeds.

* **Conservative null-message PDES** (Chandy-Misra).  With a star topology
  and all-to-all reachability, every LP must exchange channel-clock
  promises with every other LP each lookahead window — O(N^2) messages per
  ``T`` of simulated time, against the quantum scheme's O(N) barrier.
  Because conservative simulation reproduces the ground-truth timeline
  exactly, :func:`null_message_estimate` prices that protocol analytically
  on top of a ground-truth run rather than re-simulating it.

* **Optimistic (Time Warp) simulation** (Section 3: checkpointing a
  full-system simulator costs 30-40 s per node, "clearly not affordable").
  :func:`optimistic_estimate` prices checkpoint + rollback against a run's
  observed straggler rate: every straggler the quantum scheme tolerated
  would have been a rollback.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.barrier import BarrierModel
from repro.core.cluster import ClusterConfig, ClusterSimulator, RunResult
from repro.core.quantum import FixedQuantumPolicy
from repro.engine.units import SECOND, SimTime
from repro.network.controller import NetworkController
from repro.node.node import SimulatedNode


def free_running(
    nodes: list[SimulatedNode],
    controller: NetworkController,
    config: ClusterConfig,
    horizon: SimTime = 100 * SECOND,
) -> ClusterSimulator:
    """A cluster with no time synchronization.

    One quantum as long as the whole run and a zero-cost barrier: nodes
    race freely, the controller delivers every packet at whatever simulated
    time the destination happens to have reached.  Applications still
    complete (data-flow causality holds); reported timing is meaningless
    and seed-dependent — exactly the paper's argument for why *some*
    synchronization is required.
    """
    unsync_config = ClusterConfig(
        seed=config.seed,
        host_params=config.host_params,
        barrier=BarrierModel.free(),
        sim_time_limit=config.sim_time_limit,
        timeline_bucket=config.timeline_bucket,
        fast_forward=config.fast_forward,
        fast_forward_min_quanta=config.fast_forward_min_quanta,
        chunk=config.chunk,
    )
    return ClusterSimulator(
        nodes, controller, FixedQuantumPolicy(horizon), unsync_config
    )


@dataclass(frozen=True)
class SyncCostEstimate:
    """Host-time estimate for an alternative synchronization protocol."""

    strategy: str
    host_time: float
    sync_overhead: float
    detail: str


def null_message_estimate(
    ground_truth: RunResult,
    num_nodes: int,
    lookahead: SimTime,
    per_message_cost: float = 30e-6,
) -> SyncCostEstimate:
    """Price Chandy-Misra null messages over the ground-truth timeline.

    Conservative PDES reproduces the exact ground-truth event order, so the
    node-simulation component of the cost is the ground truth's; what
    changes is the synchronization traffic: each lookahead window of
    *lookahead* simulated time requires every LP to update every other LP's
    channel clock — ``N * (N - 1)`` protocol messages at *per_message_cost*
    host seconds each (a socket round half-trip; cheaper than a full
    barrier turnaround but quadratic in fan-out).
    """
    if lookahead < 1:
        raise ValueError("lookahead must be at least 1 ns")
    if num_nodes < 2:
        raise ValueError("need at least two nodes")
    windows = ground_truth.sim_time / lookahead
    messages = windows * num_nodes * (num_nodes - 1)
    overhead = messages * per_message_cost
    host = ground_truth.breakdown.node_simulation + overhead
    return SyncCostEstimate(
        strategy="null-message",
        host_time=host,
        sync_overhead=overhead,
        detail=(
            f"{messages:.0f} null messages over {windows:.0f} lookahead windows "
            f"of {lookahead} ns"
        ),
    )


def optimistic_estimate(
    reference: RunResult,
    num_nodes: int,
    checkpoint_interval: SimTime,
    checkpoint_cost: float = 35.0,
    rollback_cost: float = 35.0,
    rollbacks: int | None = None,
) -> SyncCostEstimate:
    """Price Time Warp checkpoint/rollback for a full-system simulator.

    The paper measured 30-40 host seconds to checkpoint one node (machine
    memory + disk journal); we default to 35 s for both saving and
    restoring.  Each node checkpoints every *checkpoint_interval* of
    simulated time; every straggler the quantum-synchronized run observed
    (or an explicit *rollbacks* count) becomes a rollback: restore the
    checkpoint, then re-simulate up to half the interval on average.
    """
    if checkpoint_interval < 1:
        raise ValueError("checkpoint interval must be at least 1 ns")
    if checkpoint_cost < 0 or rollback_cost < 0:
        raise ValueError("costs must be non-negative")
    checkpoints = (reference.sim_time / checkpoint_interval) * num_nodes
    rollback_count = (
        reference.controller_stats.stragglers if rollbacks is None else rollbacks
    )
    # Re-simulation after a rollback: half an interval of busy simulation
    # per rollback, priced at the reference's average per-node rate.
    per_node_rate = reference.breakdown.node_simulation / max(
        reference.sim_time / SECOND, 1e-12
    )
    recompute = rollback_count * (checkpoint_interval / SECOND / 2) * per_node_rate
    overhead = checkpoints * checkpoint_cost + rollback_count * rollback_cost + recompute
    host = reference.breakdown.node_simulation + overhead
    return SyncCostEstimate(
        strategy="optimistic",
        host_time=host,
        sync_overhead=overhead,
        detail=(
            f"{checkpoints:.0f} checkpoints @ {checkpoint_cost:.0f}s, "
            f"{rollback_count} rollbacks @ {rollback_cost:.0f}s"
        ),
    )
