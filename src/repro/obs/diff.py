"""Ground-truth trace diff: Section 5's timing error, per packet.

The paper argues (Section 5) that the adaptive quantum's only accuracy
cost is *straggler* frames — deliveries pushed past their exact due time
when the destination already simulated ahead.  The aggregate counters
(`ControllerStats.stragglers`, `total_delay_error`) state that; this
module makes it inspectable frame by frame:

* **lag** — the run's own ``deliver_time - due_time`` (zero unless the
  frame was a straggler; the conservative Q <= T ground truth has zero lag
  everywhere by construction).
* **skew** — ``deliver_time(run) - deliver_time(truth)`` for the same
  frame, after aligning the two traces by packet identity
  ``(src, dst, message_id, fragment, kind, retransmit)`` and occurrence.
  Skew compounds lag with the knock-on timing drift lag causes upstream
  (a late frame delays the reply it triggers).

Frames present on only one side (fault-dropped, duplicated, or emitted on
a diverged execution path) are counted, not matched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.engine.units import SimTime, format_time
from repro.obs.collector import TraceCollector
from repro.obs.events import PacketTrace

#: Alignment key: identity tuple + occurrence ordinal among equal keys.
PacketKey = tuple[int, int, int, int, str, int]


@dataclass(frozen=True)
class PacketLag:
    """One matched frame's timing error."""

    key: PacketKey
    occurrence: int
    send_time: SimTime
    lag: SimTime
    skew: SimTime
    straggler: bool
    delivery: str


@dataclass(frozen=True)
class PhaseRow:
    """Lag attribution for one simulated-time phase of the run."""

    start: SimTime
    end: SimTime
    packets: int
    stragglers: int
    lag_total: SimTime
    skew_total: SimTime


@dataclass
class TraceDiff:
    """An adaptive run's packet timing, aligned against its ground truth."""

    run_label: str
    truth_label: str
    matched: list[PacketLag]
    only_in_run: int
    only_in_truth: int

    # -- headline numbers ---------------------------------------------- #

    @property
    def straggler_count(self) -> int:
        return sum(1 for lag in self.matched if lag.straggler)

    @property
    def lag_total(self) -> SimTime:
        return sum(lag.lag for lag in self.matched)

    @property
    def max_lag(self) -> SimTime:
        return max((lag.lag for lag in self.matched), default=0)

    def non_straggler_lag_violations(self) -> list[PacketLag]:
        """Matched non-straggler frames with nonzero lag (must be empty:
        exact deliveries land at their due time by definition)."""
        return [lag for lag in self.matched if lag.lag != 0 and not lag.straggler]

    def lag_percentiles(self, points: tuple[int, ...] = (50, 90, 99)) -> dict[int, SimTime]:
        """Lag percentiles over the *straggler* population (nearest-rank)."""
        # Imported lazily: repro.metrics pulls in workload machinery that
        # itself imports repro.obs at package-init time.
        from repro.metrics.percentiles import nearest_rank_percentiles

        lags = [lag.lag for lag in self.matched if lag.straggler]
        return nearest_rank_percentiles(lags, points)

    # -- per-phase attribution ----------------------------------------- #

    def phase_attribution(self, phases: int = 8) -> list[PhaseRow]:
        """Bucket matched frames into *phases* equal simulated-time slices.

        Shows *where in the run* the timing error accumulates — e.g. IS's
        all-to-all bursts concentrate the lag, EP's silent stretches
        contribute none (the shape Figure 9 plots for speedup).
        """
        if phases < 1:
            raise ValueError("phases must be positive")
        if not self.matched:
            return []
        first = min(lag.send_time for lag in self.matched)
        last = max(lag.send_time for lag in self.matched)
        span = max(last - first, 1)
        rows = [
            {"packets": 0, "stragglers": 0, "lag": 0, "skew": 0}
            for _ in range(phases)
        ]
        for lag in self.matched:
            index = min((lag.send_time - first) * phases // span, phases - 1)
            row = rows[index]
            row["packets"] += 1
            row["stragglers"] += 1 if lag.straggler else 0
            row["lag"] += lag.lag
            row["skew"] += abs(lag.skew)
        width = span // phases
        return [
            PhaseRow(
                start=first + index * width,
                end=first + (index + 1) * width if index < phases - 1 else last,
                packets=row["packets"],
                stragglers=row["stragglers"],
                lag_total=row["lag"],
                skew_total=row["skew"],
            )
            for index, row in enumerate(rows)
        ]

    # -- rendering ------------------------------------------------------ #

    def render(self, phases: int = 8) -> str:
        from repro.harness.report import format_table

        matched = len(self.matched)
        percentiles = self.lag_percentiles()
        lines = [
            f"trace diff: {self.run_label} vs {self.truth_label} (ground truth)",
            f"  matched {matched} frames"
            f" (+{self.only_in_run} only in run,"
            f" +{self.only_in_truth} only in truth)",
            f"  stragglers {self.straggler_count}"
            f" ({100 * self.straggler_count / matched:.2f}%)"
            if matched
            else "  stragglers 0",
            f"  lag total {format_time(self.lag_total)}"
            f" max {format_time(self.max_lag)}"
            f" p50/p90/p99 {format_time(percentiles[50])}/"
            f"{format_time(percentiles[90])}/{format_time(percentiles[99])}",
            f"  non-straggler lag violations: "
            f"{len(self.non_straggler_lag_violations())} (must be 0)",
        ]
        rows = self.phase_attribution(phases)
        if rows:
            table = format_table(
                ["phase", "packets", "stragglers", "lag", "|skew|"],
                [
                    [
                        f"{format_time(row.start)}..{format_time(row.end)}",
                        row.packets,
                        row.stragglers,
                        format_time(row.lag_total),
                        format_time(row.skew_total),
                    ]
                    for row in rows
                ],
                "Per-phase error attribution",
            )
            lines.extend(["", table])
        return "\n".join(lines)


def _packet_events(
    source: Union[TraceCollector, list[PacketTrace]],
) -> list[PacketTrace]:
    if isinstance(source, TraceCollector):
        packets = source.packet_events()
        if source.dropped and source.total("packet") > len(packets):
            raise ValueError(
                "collector ring shed events; diff needs the full packet set — "
                "raise TraceConfig.capacity or diff from the JSONL stream"
            )
        return packets
    return list(source)


def diff_traces(
    run: Union[TraceCollector, list[PacketTrace]],
    truth: Union[TraceCollector, list[PacketTrace]],
    run_label: str = "run",
    truth_label: str = "truth",
) -> TraceDiff:
    """Align *run* against *truth* by packet identity; see module docs."""
    run_events = _packet_events(run)
    truth_index: dict[PacketKey, list[PacketTrace]] = {}
    for event in _packet_events(truth):
        truth_index.setdefault(event.identity(), []).append(event)

    matched: list[PacketLag] = []
    only_in_run = 0
    seen: dict[PacketKey, int] = {}
    for event in run_events:
        key = event.identity()
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        partners = truth_index.get(key)
        if partners is None or occurrence >= len(partners):
            only_in_run += 1
            continue
        partner = partners[occurrence]
        matched.append(
            PacketLag(
                key=key,
                occurrence=occurrence,
                send_time=event.time,
                lag=event.lag,
                skew=event.deliver_time - partner.deliver_time,
                straggler=event.straggler,
                delivery=event.delivery,
            )
        )
    total_truth = sum(len(partners) for partners in truth_index.values())
    only_in_truth = total_truth - len(matched)
    return TraceDiff(
        run_label=run_label,
        truth_label=truth_label,
        matched=matched,
        only_in_run=only_in_run,
        only_in_truth=only_in_truth,
    )
