"""Target CPU timing model.

Converts application work (instruction counts) into simulated time.  The
paper's nodes are 2.6 GHz Opterons; we default to that frequency with an
effective IPC of 1.0, so one "op" costs one cycle.  Workload models express
their compute phases in ops, which keeps them independent of the clock the
experimenter configures.
"""

from __future__ import annotations

from repro.engine.units import SECOND, SimTime


class CpuModel:
    """A single-core target CPU with a fixed frequency and effective IPC."""

    def __init__(self, frequency_hz: float = 2.6e9, ipc: float = 1.0) -> None:
        if frequency_hz <= 0:
            raise ValueError("CPU frequency must be positive")
        if ipc <= 0:
            raise ValueError("IPC must be positive")
        self.frequency_hz = frequency_hz
        self.ipc = ipc

    @property
    def ops_per_second(self) -> float:
        return self.frequency_hz * self.ipc

    def compute_time(self, ops: float) -> SimTime:
        """Simulated time to retire *ops* instructions (at least 1 ns)."""
        if ops < 0:
            raise ValueError("ops must be non-negative")
        if ops == 0:
            return 0
        time = round(ops / self.ops_per_second * SECOND)
        return max(time, 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CpuModel({self.frequency_hz/1e9:.2f}GHz, ipc={self.ipc})"
