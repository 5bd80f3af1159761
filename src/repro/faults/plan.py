"""Declarative fault plans: *what* goes wrong, decided before the run.

The paper assumes a perfect link layer (footnote 1: retransmissions
"rarely happen") and perfectly healthy hosts.  A :class:`FaultPlan`
relaxes both assumptions declaratively — the plan is a frozen, hashable,
JSON-round-trippable value listing

* **link faults** — uniform packet loss, duplication, latency
  spikes/jitter, and deterministic :class:`LinkPartition` windows, and
* **node faults** — :class:`NodeStall` intervals during which one node's
  simulator (and therefore the whole barrier-synchronized cluster) runs
  slower,

so a faulted run stays a pure function of ``(configuration, seed)``: the
plan hashes into the experiment farm's cache keys, and the stochastic
draws it triggers come from one dedicated named RNG stream (see
:mod:`repro.faults.injector`).

Plans that can *lose* frames (``drop_rate > 0`` or any partition) require
every node to run a recovery-enabled transport
(``TransportConfig(recovery=RecoveryConfig())``) — otherwise a blocked
receive would deadlock the workload; the driver enforces this up front.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.engine.units import MICROSECOND, MILLISECOND, SimTime


@dataclass(frozen=True)
class LinkPartition:
    """A network partition: *nodes* are severed from the rest of the
    cluster for frames sent during ``[start, end)`` (simulated time).

    Only frames *crossing* the cut are dropped; traffic inside either
    side of the partition is untouched.  Partition drops are decided
    purely by timestamps — they consume no RNG draws.
    """

    start: SimTime
    end: SimTime
    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"partition window [{self.start}, {self.end}) is empty")
        if not self.nodes:
            raise ValueError("a partition must isolate at least one node")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"duplicate node ids in partition: {self.nodes}")
        if any(node < 0 for node in self.nodes):
            raise ValueError(f"negative node id in partition: {self.nodes}")

    def cuts(self, src: int, dst: int, send_time: SimTime) -> bool:
        """True when a ``src -> dst`` frame sent at *send_time* is severed."""
        if not self.start <= send_time < self.end:
            return False
        return (src in self.nodes) != (dst in self.nodes)


@dataclass(frozen=True)
class NodeStall:
    """Node *node* runs *factor* times slower during ``[start, end)``.

    Models a degraded host in the simulation farm (thermal throttling, a
    noisy neighbour, a paging storm).  Under barrier synchronization the
    slowest node sets the pace, so one stalled node drags the whole
    cluster — exactly the heterogeneity the paper's host model studies,
    but as a *transient* instead of a static calibration.
    """

    node: int
    start: SimTime
    end: SimTime
    factor: float = 8.0

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"negative node id {self.node}")
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"stall window [{self.start}, {self.end}) is empty")
        if self.factor < 1.0:
            raise ValueError(f"stall factor must be >= 1, got {self.factor}")

    def overlaps(self, start: SimTime, end: SimTime) -> bool:
        """True when the stall intersects the half-open span ``[start, end)``."""
        return self.start < end and start < self.end


@dataclass(frozen=True)
class FaultPlan:
    """The complete declarative fault configuration of one run.

    Attributes:
        drop_rate: probability each unicast frame is lost in the switch.
        duplicate_rate: probability each delivered unicast frame arrives
            twice (the copy is routed independently).
        jitter_rate: probability a delivered frame suffers an extra
            latency spike.
        jitter_max: maximum extra latency of a spike; the actual delay is
            drawn uniformly from ``[1, jitter_max]``.
        partitions: deterministic :class:`LinkPartition` windows.
        stalls: deterministic :class:`NodeStall` slowdown intervals.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    jitter_rate: float = 0.0
    jitter_max: SimTime = 0
    partitions: tuple[LinkPartition, ...] = ()
    stalls: tuple[NodeStall, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "stalls", tuple(self.stalls))
        for name in ("drop_rate", "duplicate_rate", "jitter_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.jitter_max < 0:
            raise ValueError(f"jitter_max must be non-negative, got {self.jitter_max}")
        if self.jitter_rate > 0.0 and self.jitter_max < 1:
            raise ValueError("jitter_rate > 0 requires jitter_max >= 1 ns")

    # -- classification ------------------------------------------------- #

    def requires_recovery(self) -> bool:
        """True when the plan needs the reliable transport on every node.

        Loss (``drop_rate``, partitions) needs retransmission or a blocked
        receive deadlocks the workload; duplication needs the receiver's
        duplicate suppression or NIC reassembly would double-count
        fragments.  Jitter and stalls are safe on the plain transport.
        """
        return self.drop_rate > 0.0 or self.duplicate_rate > 0.0 or bool(self.partitions)

    # -- (de)serialization ---------------------------------------------- #

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError(f"fault plan must be a JSON object, got {type(data).__name__}")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault plan keys: {sorted(unknown)}")
        kwargs: dict[str, Any] = dict(data)
        if "partitions" in kwargs:
            kwargs["partitions"] = tuple(
                p if isinstance(p, LinkPartition) else LinkPartition(**p)
                for p in kwargs["partitions"]
            )
        if "stalls" in kwargs:
            kwargs["stalls"] = tuple(
                s if isinstance(s, NodeStall) else NodeStall(**s)
                for s in kwargs["stalls"]
            )
        return cls(**kwargs)

    def describe(self) -> str:
        parts = []
        if self.drop_rate:
            parts.append(f"drop={100 * self.drop_rate:g}%")
        if self.duplicate_rate:
            parts.append(f"dup={100 * self.duplicate_rate:g}%")
        if self.jitter_rate:
            parts.append(
                f"jitter={100 * self.jitter_rate:g}%<=+{self.jitter_max}ns"
            )
        if self.partitions:
            parts.append(f"partitions={len(self.partitions)}")
        if self.stalls:
            parts.append(f"stalls={len(self.stalls)}")
        return " ".join(parts) or "null"


#: Named off-the-shelf plans, usable as ``--faults <name>`` on the CLI.
PRESETS: dict[str, FaultPlan] = {
    "lossy-1": FaultPlan(drop_rate=0.01),
    "lossy-5": FaultPlan(drop_rate=0.05),
    "jittery": FaultPlan(jitter_rate=0.2, jitter_max=200 * MICROSECOND),
    "flaky": FaultPlan(
        drop_rate=0.02,
        duplicate_rate=0.01,
        jitter_rate=0.05,
        jitter_max=50 * MICROSECOND,
    ),
    "partitioned": FaultPlan(
        partitions=(
            LinkPartition(start=2 * MILLISECOND, end=3 * MILLISECOND, nodes=(0,)),
        ),
    ),
    "degraded-node": FaultPlan(
        stalls=(
            NodeStall(node=0, start=5 * MILLISECOND, end=15 * MILLISECOND, factor=8.0),
        ),
    ),
}


def load_plan(spec: str) -> FaultPlan:
    """Resolve a ``--faults`` argument: a preset name or a JSON file path."""
    preset = PRESETS.get(spec)
    if preset is not None:
        return preset
    path = Path(spec)
    if not path.is_file():
        raise ValueError(
            f"--faults {spec!r} is neither a preset "
            f"({', '.join(sorted(PRESETS))}) nor a readable JSON file"
        )
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ValueError(f"cannot parse fault plan {spec!r}: {error}") from error
    try:
        return FaultPlan.from_dict(data)
    except (TypeError, ValueError) as error:
        raise ValueError(f"invalid fault plan {spec!r}: {error}") from error
