"""The paper's contribution: quantum-synchronized cluster simulation.

This subpackage contains

* the quantum policies — :class:`~repro.core.quantum.FixedQuantumPolicy`
  (classic lock-step conservative PDES, the paper's baselines) and
  :class:`~repro.core.quantum.AdaptiveQuantumPolicy` (the paper's
  Algorithm 1, "driving over speed bumps"), plus the AIMD ablation
  :class:`~repro.core.quantum.AimdQuantumPolicy`,
* the barrier cost model (:mod:`repro.core.barrier`),
* the co-simulation driver :class:`~repro.core.cluster.ClusterSimulator`
  which interleaves the per-node simulators in host time, applies the
  controller's delivery policy, runs the barrier, and fast-forwards
  packet-free regions, and
* alternative synchronization strategies used as comparison baselines
  (:mod:`repro.core.baselines`): free-running (no synchronization),
  null-message conservative PDES, and an optimistic checkpoint/rollback
  *cost model* (the paper argues full-system checkpointing is unaffordably
  expensive; we let you measure exactly how unaffordable).
"""

from repro.core.barrier import BarrierModel
from repro.core.baselines import (
    SyncCostEstimate,
    free_running,
    null_message_estimate,
    optimistic_estimate,
)
from repro.core.cluster import (
    AUTO_VECTORIZE_MIN_NODES,
    ClusterConfig,
    ClusterSimulator,
    DeadlockError,
    RunResult,
    resolve_vectorized,
)
from repro.core.quantum import (
    AdaptiveQuantumPolicy,
    AimdQuantumPolicy,
    FixedQuantumPolicy,
    QuantumPolicy,
    QuantumStats,
)
from repro.core.stats import BucketTimeline, HostCostBreakdown

__all__ = [
    "QuantumPolicy",
    "FixedQuantumPolicy",
    "AdaptiveQuantumPolicy",
    "AimdQuantumPolicy",
    "QuantumStats",
    "BarrierModel",
    "ClusterSimulator",
    "ClusterConfig",
    "RunResult",
    "DeadlockError",
    "AUTO_VECTORIZE_MIN_NODES",
    "resolve_vectorized",
    "BucketTimeline",
    "HostCostBreakdown",
    "free_running",
    "null_message_estimate",
    "optimistic_estimate",
    "SyncCostEstimate",
]
