"""Sharded single-run execution: one simulated cluster, many host cores.

The paper ran each simulated node as its own SimNow process under a
central quantum mediator; this subpackage applies the same decomposition
to the reproduction.  :func:`~repro.shard.driver.run_sharded` partitions
a cluster's nodes into slices
(:func:`~repro.shard.partition.partition_nodes`), steps the first in the
parent and each other one in a forked worker, keeps the unchanged
quantum policy and network controller in the parent (the mediator), and
exchanges frames only at window boundaries under the conservative
``Q <= T`` contract — producing results bit-identical to the serial
driver, or falling back to it with a surfaced reason when the contract
cannot hold.
"""

from repro.shard.driver import ShardOutcome, WorkerFailure, run_sharded
from repro.shard.partition import SHARDS_ENV, partition_nodes, resolve_shards

__all__ = [
    "SHARDS_ENV",
    "ShardOutcome",
    "WorkerFailure",
    "partition_nodes",
    "resolve_shards",
    "run_sharded",
]
