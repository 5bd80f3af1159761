"""Run-level accounting: host-cost breakdown and time-series buckets.

:class:`HostCostBreakdown` splits modelled host time into node simulation
versus barrier overhead — the two quantities whose ratio the whole paper is
about.  :class:`BucketTimeline` accumulates host cost per simulated-time
bucket, which is what the speedup-over-time curves of the paper's Figure 9
are made of (host cost per unit of simulated progress, normalised against
the baseline's average).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.units import SECOND, SimTime


@dataclass
class HostCostBreakdown:
    """Modelled host seconds, split by cause."""

    node_simulation: float = 0.0
    barrier: float = 0.0

    @property
    def total(self) -> float:
        return self.node_simulation + self.barrier

    @property
    def barrier_fraction(self) -> float:
        return self.barrier / self.total if self.total > 0 else 0.0

    def add(self, node_simulation: float, barrier: float) -> None:
        self.node_simulation += node_simulation
        self.barrier += barrier


class BucketTimeline:
    """Host cost accumulated per fixed-width simulated-time bucket."""

    def __init__(self, bucket_width: SimTime) -> None:
        if bucket_width < 1:
            raise ValueError("bucket width must be at least 1 ns")
        self.bucket_width = bucket_width
        self._buckets: dict[int, float] = {}

    def __eq__(self, other: object) -> bool:
        """Value equality, so a :class:`~repro.core.cluster.RunResult`
        carrying a timeline compares equal to an identical run's."""
        if not isinstance(other, BucketTimeline):
            return NotImplemented
        return (
            self.bucket_width == other.bucket_width
            and self._buckets == other._buckets
        )

    def add_span(self, start: SimTime, end: SimTime, host_cost: float) -> None:
        """Distribute *host_cost* proportionally over [start, end); an empty
        span charges it all to the bucket containing *start*."""
        if host_cost < 0:
            raise ValueError("host cost must be non-negative")
        end = max(end, start + 1)
        span = end - start
        first = start // self.bucket_width
        last = (end - 1) // self.bucket_width
        for index in range(first, last + 1):
            bucket_start = max(start, index * self.bucket_width)
            bucket_end = min(end, (index + 1) * self.bucket_width)
            share = (bucket_end - bucket_start) / span
            self._buckets[index] = self._buckets.get(index, 0.0) + host_cost * share

    def series(self) -> list[tuple[SimTime, float]]:
        """(bucket start time, host seconds) pairs in time order."""
        return [
            (index * self.bucket_width, cost)
            for index, cost in sorted(self._buckets.items())
        ]

    def speedup_series(self, baseline_host_per_sim_second: float) -> list[tuple[SimTime, float]]:
        """Instantaneous speedup vs. a baseline's average cost rate.

        For each bucket: ``baseline_rate / (host_cost / bucket_sim_seconds)``
        — exactly the paper's Figure 9 right-hand charts ("simulation speedup
        over the average speed of a 1 us-quantum simulation").
        """
        if baseline_host_per_sim_second <= 0:
            raise ValueError("baseline rate must be positive")
        bucket_seconds = self.bucket_width / SECOND
        series = []
        for start, cost in self.series():
            if cost <= 0:
                continue
            rate = cost / bucket_seconds
            series.append((start, baseline_host_per_sim_second / rate))
        return series
