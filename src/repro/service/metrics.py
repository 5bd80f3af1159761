"""Per-request latency aggregation: tail percentiles and SLO misses.

The service workload's first-class metrics are the ones serving systems
are judged by: nearest-rank p50/p90/p99/p99.9 of the client-observed
request latency, and the fraction of requests that missed the SLO.  The
percentile estimator is the shared nearest-rank helper
(:mod:`repro.metrics.percentiles`) — the same rule the trace diff uses
for straggler lag — so a percentile is always an actual observed sample
and round-trips exactly through the JSON result cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.engine.units import SimTime, format_time
from repro.metrics.percentiles import SERVICE_POINTS, nearest_rank_percentiles


@dataclass(frozen=True)
class ServiceStats:
    """Latency/SLO summary of one finished service run."""

    #: Requests the feeder issued (and, for a completed run, served).
    issued: int
    #: Requests whose response reached the client (the source/sink rank).
    completed: int
    #: SLO threshold, simulated ns (latencies above it are misses).
    slo_ns: SimTime
    #: Completed requests whose latency exceeded ``slo_ns``.
    slo_misses: int
    #: Nearest-rank latency percentiles, ns, keyed by point (50.0...99.9).
    percentiles: dict[float, SimTime]
    #: Mean and maximum completed-request latency, ns.
    mean_latency_ns: float
    max_latency_ns: SimTime

    @property
    def slo_miss_rate(self) -> float:
        """Fraction of completed requests that missed the SLO (0 when no
        request completed — a zero-request run misses nothing)."""
        if self.completed == 0:
            return 0.0
        return self.slo_misses / self.completed

    def render(self) -> str:
        """One summary line, safe for zero-request runs."""
        if self.completed == 0:
            return f"service: 0/{self.issued} requests completed"
        points = " ".join(
            f"p{point:g}={format_time(self.percentiles[point])}"
            for point in sorted(self.percentiles)
        )
        return (
            f"service: {self.completed}/{self.issued} requests, {points}, "
            f"mean={format_time(round(self.mean_latency_ns))}, "
            f"SLO({format_time(self.slo_ns)}) miss "
            f"{100 * self.slo_miss_rate:.2f}%"
        )


def service_stats(
    latencies_ns: Sequence[SimTime],
    issued: int,
    slo_ns: SimTime,
    points: Sequence[float] = SERVICE_POINTS,
) -> ServiceStats:
    """Aggregate completed-request latencies into a :class:`ServiceStats`.

    Safe on an empty sample: percentiles, mean, and max all report 0 and
    the miss rate is 0 — the rendering contract the harness report relies
    on (always printable, never a division error).
    """
    completed = len(latencies_ns)
    percentiles = nearest_rank_percentiles(latencies_ns, tuple(points))
    return ServiceStats(
        issued=issued,
        completed=completed,
        slo_ns=slo_ns,
        slo_misses=sum(1 for latency in latencies_ns if latency > slo_ns),
        percentiles=percentiles,
        mean_latency_ns=(sum(latencies_ns) / completed) if completed else 0.0,
        max_latency_ns=max(latencies_ns) if completed else 0,
    )
