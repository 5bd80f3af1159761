"""Packet traffic traces (the paper's Figure 9, left-hand charts).

The figure plots one horizontal line per node against time, with a line
drawn from source to destination for each exchanged packet.  We record
``(send_time, src, dst, size)`` tuples, bucket them over time, and render
either CSV (for external plotting) or an ASCII chart (nodes x time, a mark
wherever a node sent or received in the bucket) that makes the traffic
shape — EP's silence, IS's periodic bursts, NAMD's continuous wall —
visible in a terminal.

The harness feeds a trace by registering :meth:`TrafficTrace.record` as a
packet listener on the run's :class:`repro.obs.collector.TraceCollector`
(a zero-ring conduit when only traffic is wanted), so traffic recording
and full structured tracing share one controller code path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.units import SimTime, format_time


@dataclass(frozen=True)
class TrafficSample:
    time: SimTime
    src: int
    dst: int
    size: int


class TrafficTrace:
    """Bounded recorder for packet send events.

    When the number of samples exceeds *max_samples* the trace thins itself
    by dropping every other sample and doubling the sampling stride, so
    memory stays bounded while coverage stays uniform.
    """

    def __init__(self, num_nodes: int, max_samples: int = 200_000) -> None:
        if num_nodes < 2:
            raise ValueError("need at least two nodes")
        if max_samples < 2:
            raise ValueError("max_samples must be at least 2")
        self.num_nodes = num_nodes
        self.max_samples = max_samples
        self.samples: list[TrafficSample] = []
        self.total_packets = 0
        self.total_bytes = 0
        self._stride = 1
        self._countdown = 1

    def record(self, time: SimTime, src: int, dst: int, size: int) -> None:
        """Controller trace hook: account every packet, sample a subset."""
        self.total_packets += 1
        self.total_bytes += size
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self._stride
        self.samples.append(TrafficSample(time, src, dst, size))
        if len(self.samples) > self.max_samples:
            self.samples = self.samples[::2]
            self._stride *= 2
            self._countdown = self._stride

    def time_span(self) -> tuple[SimTime, SimTime]:
        if not self.samples:
            return (0, 0)
        times = [sample.time for sample in self.samples]
        return (min(times), max(times))

    def density(self, buckets: int = 60) -> list[int]:
        """Sampled packets per time bucket across the trace's span."""
        if buckets < 1:
            raise ValueError("buckets must be positive")
        start, end = self.time_span()
        if end <= start:
            return [len(self.samples)] + [0] * (buckets - 1)
        width = (end - start) / buckets
        counts = [0] * buckets
        for sample in self.samples:
            index = min(int((sample.time - start) / width), buckets - 1)
            counts[index] += 1
        return counts

    def busy_fraction(self, buckets: int = 200) -> float:
        """Fraction of time buckets containing any traffic.

        NAMD's Figure 9(c) trace has no visible gap (fraction ~1.0); EP's
        9(a) is mostly silent (fraction << 1).
        """
        density = self.density(buckets)
        return sum(1 for count in density if count > 0) / len(density)

    def ascii_chart(self, width: int = 72, max_rows: int = 32) -> str:
        """Nodes-by-time chart in the spirit of Figure 9 (left).

        Rows are nodes (subsampled beyond *max_rows*), columns are time
        buckets; ``|`` marks a node sending or receiving in that bucket.
        """
        if not self.samples:
            return "(no traffic)"
        start, end = self.time_span()
        span = max(end - start, 1)
        rows = min(self.num_nodes, max_rows)
        node_stride = max(1, (self.num_nodes + rows - 1) // rows)
        grid = [[" "] * width for _ in range(rows)]
        for sample in self.samples:
            column = min(int((sample.time - start) / span * width), width - 1)
            for node in (sample.src, sample.dst):
                if node < 0:
                    continue
                row = min(node // node_stride, rows - 1)
                grid[row][column] = "|"
        lines = [
            f"node{row * node_stride:>4} {''.join(grid[row])}" for row in range(rows)
        ]
        header = (
            f"traffic {self.total_packets} packets, "
            f"{format_time(start)}..{format_time(end)}"
        )
        return "\n".join([header] + lines)
