"""Checkpoint cadence configuration (leaf module, importable from anywhere).

:class:`CheckpointConfig` is carried by
:class:`~repro.core.cluster.ClusterConfig` the same way ``check``/``trace``
are: a frozen, hashable knob that changes *how* a run executes, never
*what* it computes.  Checkpointed runs are bit-identical to plain ones,
so the setting is deliberately excluded from every cache key (see the
execution-only group of ``RunnerSettings`` in :mod:`repro.harness.settings`).

This module is a leaf (no simulator imports) so
:mod:`repro.core.cluster` can import it at module top without a cycle;
the heavy capture/restore machinery lives in
:mod:`repro.checkpoint.snapshot`, which the driver imports lazily only
when a checkpoint is actually due.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.engine.units import SimTime

#: Default quantum-count cadence when a directory is given without one.
DEFAULT_EVERY_QUANTA = 256


@dataclass(frozen=True)
class CheckpointConfig:
    """When and where a run writes its snapshots.

    Attributes:
        directory: directory that receives the snapshot file.  One file
            per run label, atomically replaced at each cadence point, so
            disk usage is bounded by one snapshot per run.
        every_quanta: write a snapshot every N processed quanta (event
            and fast-forwarded quanta both count).  Defaults to
            :data:`DEFAULT_EVERY_QUANTA` when neither cadence is given.
        every_sim_time: write a snapshot every N simulated nanoseconds.
        label: file stem of the snapshot (the harness derives one per
            run via :func:`~repro.obs.collector.run_slug`).
        key: opaque configuration fingerprint stored in the snapshot
            header; a resume only accepts a snapshot whose key matches,
            so a stale snapshot from a different configuration can never
            seed a run.
    """

    directory: str
    every_quanta: Optional[int] = None
    every_sim_time: Optional[SimTime] = None
    label: str = "run"
    key: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.directory:
            raise ValueError("checkpoint directory must be non-empty")
        if self.every_quanta is None and self.every_sim_time is None:
            object.__setattr__(self, "every_quanta", DEFAULT_EVERY_QUANTA)
        if self.every_quanta is not None and self.every_quanta < 1:
            raise ValueError("checkpoint cadence must be at least 1 quantum")
        if self.every_sim_time is not None and self.every_sim_time < 1:
            raise ValueError("checkpoint cadence must be at least 1 ns")
        if not self.label:
            raise ValueError("checkpoint label must be non-empty")
