"""Fixed-width text tables for the paper's figures and tables."""

from __future__ import annotations

import unicodedata
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.metrics import ServiceStats


def display_width(text: str) -> int:
    """Terminal cell count of *text*: CJK wide/fullwidth glyphs span two."""
    return sum(
        2 if unicodedata.east_asian_width(char) in ("W", "F") else 1
        for char in text
    )


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render a simple aligned table (first column left, rest right).

    Column widths are measured in terminal display cells (see
    :func:`display_width`), so wide-unicode labels stay aligned.
    """
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [display_width(header) for header in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(f"row width {len(row)} != header width {len(headers)}")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], display_width(cell))

    def render(cells: Sequence[str]) -> str:
        parts = []
        for index, cell in enumerate(cells):
            pad = " " * (widths[index] - display_width(cell))
            if index == 0:
                parts.append(cell + pad)
            else:
                parts.append(pad + cell)
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(render(headers))
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(render(row) for row in rendered_rows)
    return "\n".join(lines)


def percent(value: float, digits: int = 2) -> str:
    return f"{100 * value:.{digits}f}%"


def times(value: float, digits: int = 1) -> str:
    return f"{value:.{digits}f}x"


def microseconds(value_ns: float, digits: int = 1) -> str:
    return f"{value_ns / 1000:.{digits}f}us"


def service_report(results: Iterable[tuple[str, "ServiceStats"]]) -> str:
    """Table of per-run service latency percentiles and SLO misses.

    Accepts ``(label, stats)`` pairs; a run that completed no requests
    renders dashes for the latency columns.  Returns an empty string for
    an empty input, so callers can append it unconditionally.
    """
    pairs = list(results)
    if not pairs:
        return ""
    points = sorted({point for _, stats in pairs for point in stats.percentiles})
    rows = []
    for label, stats in pairs:
        if stats.completed == 0:
            cells: list[object] = [f"0/{stats.issued}", *(["-"] * (len(points) + 2))]
        else:
            cells = [
                f"{stats.completed}/{stats.issued}",
                *(microseconds(stats.percentiles[point]) for point in points),
                microseconds(stats.mean_latency_ns),
                percent(stats.slo_miss_rate),
            ]
        rows.append([label, *cells])
    headers = ["run", "completed", *(f"p{point:g}" for point in points), "mean", "SLO miss"]
    return format_table(headers, rows, "Service latency and SLO")
