"""Simulated-time units.

All simulated time in the library is kept as **integer nanoseconds**.  The
paper works at microsecond granularity (quanta of 1 us .. 1000 us, a minimum
network latency of 1 us), so nanoseconds give three decimal digits of
headroom below the finest interesting scale while staying exact: integer
arithmetic means two runs of the same seed produce bit-identical schedules,
which the ground-truth determinism argument (Section 4 of the paper) relies
on.

Host (wall-clock) time, by contrast, is a *model output* rather than a
schedule key requiring exactness, and is carried as float seconds throughout.
"""

from __future__ import annotations

SimTime = int

NANOSECOND: SimTime = 1
MICROSECOND: SimTime = 1_000
MILLISECOND: SimTime = 1_000_000
SECOND: SimTime = 1_000_000_000


def format_time(time: SimTime) -> str:
    """Render a simulated time with a human-appropriate unit.

    >>> format_time(1500)
    '1.500us'
    >>> format_time(2_500_000_000)
    '2.500s'
    """
    if time < 0:
        return "-" + format_time(-time)
    if time < MICROSECOND:
        return f"{time}ns"
    if time < MILLISECOND:
        return f"{time / MICROSECOND:.3f}us"
    if time < SECOND:
        return f"{time / MILLISECOND:.3f}ms"
    return f"{time / SECOND:.3f}s"
