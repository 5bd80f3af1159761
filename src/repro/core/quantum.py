"""Quantum policies: how long the next synchronization quantum is.

The driver asks the policy for the next quantum length after every barrier,
passing the number of packets the network controller saw in the quantum that
just ended (``np``).  Policies are *pure*: they transform a float quantum
state, which makes them unit-testable and lets the driver evolve them in
closed form over long packet-free spans.

``AdaptiveQuantumPolicy`` is the paper's Algorithm 1 verbatim::

    Q = min_Q
    repeat
        if np == 0 then Q *= inc else Q *= dec
        clamp Q to [min_Q, max_Q]
    until end of simulation

The paper's best configurations grow slowly (inc = 1.03 or 1.05) and shrink
violently (dec = 0.02 ~= 1/sqrt(1000)) — "driving over speed bumps".
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.engine.units import SimTime


@dataclass
class QuantumStats:
    """Distribution of quantum lengths actually used by a run."""

    quanta: int = 0
    total_quantum_time: SimTime = 0
    min_used: SimTime = 0
    max_used: SimTime = 0
    shrink_events: int = 0
    grow_events: int = 0

    def record(self, length: SimTime, count: int = 1) -> None:
        if count <= 0:
            return
        if self.quanta == 0:
            self.min_used = length
            self.max_used = length
        else:
            self.min_used = min(self.min_used, length)
            self.max_used = max(self.max_used, length)
        self.quanta += count
        self.total_quantum_time += length * count

    def record_lengths(self, lengths: np.ndarray) -> None:
        if len(lengths) == 0:
            return
        low = int(lengths.min())
        high = int(lengths.max())
        if self.quanta == 0:
            self.min_used = low
            self.max_used = high
        else:
            self.min_used = min(self.min_used, low)
            self.max_used = max(self.max_used, high)
        self.quanta += len(lengths)
        self.total_quantum_time += int(lengths.sum())

    @property
    def mean_quantum(self) -> float:
        return self.total_quantum_time / self.quanta if self.quanta else 0.0


class QuantumPolicy(ABC):
    """Maps (current quantum, np of last quantum) -> next quantum."""

    def __init__(self, min_quantum: SimTime, max_quantum: SimTime) -> None:
        if min_quantum < 1:
            raise ValueError("min quantum must be at least 1 ns")
        if max_quantum < min_quantum:
            raise ValueError("max quantum must be >= min quantum")
        self.min_quantum = min_quantum
        self.max_quantum = max_quantum

    @abstractmethod
    def initial(self) -> float:
        """Quantum length for the first window."""

    @abstractmethod
    def next(self, quantum: float, np_count: int) -> float:
        """Quantum length for the following window."""

    def clamp(self, quantum: float) -> float:
        return min(max(quantum, float(self.min_quantum)), float(self.max_quantum))

    def window(self, quantum: float) -> SimTime:
        """Integer window length the driver should use for state *quantum*."""
        return max(1, round(quantum))

    def idle_chunk(
        self, quantum: float, span: SimTime, max_windows: int
    ) -> tuple[np.ndarray, float]:
        """Window lengths for consecutive packet-free quanta fitting in *span*.

        Starting from state *quantum*, produce up to *max_windows* integer
        window lengths ``L_0, L_1, ...`` such that the windows fit entirely
        inside *span* (``sum(L_j) <= span``), evolving the state with
        ``np = 0`` between windows.  Returns the lengths and the state for
        the window after the last generated one.  Generating zero windows is
        valid (the first window does not fit or limits are zero).

        The default implementation iterates :meth:`next`; subclasses with
        simple idle dynamics may vectorise, and tier-1 holds each closed
        form to this reference.
        """
        lengths = []
        remaining = span
        state = quantum
        while len(lengths) < max_windows:
            window = self.window(state)
            if window > remaining:
                break
            lengths.append(window)
            remaining -= window
            state = self.next(state, 0)
        return np.asarray(lengths, dtype=np.int64), state

    def describe(self) -> str:
        """Short configuration label for tables and legends."""
        return type(self).__name__


class FixedQuantumPolicy(QuantumPolicy):
    """Classic lock-step conservative synchronization with constant Q.

    With ``quantum <= T`` (minimum network latency) this is the
    deterministic ground-truth configuration of the paper.
    """

    def __init__(self, quantum: SimTime) -> None:
        super().__init__(quantum, quantum)
        self.quantum = quantum

    def initial(self) -> float:
        return float(self.quantum)

    def next(self, quantum: float, np_count: int) -> float:
        return float(self.quantum)

    def idle_chunk(
        self, quantum: float, span: SimTime, max_windows: int
    ) -> tuple[np.ndarray, float]:
        count = min(int(span // self.quantum), max_windows)
        lengths = np.full(count, self.quantum, dtype=np.int64)
        return lengths, float(self.quantum)

    def describe(self) -> str:
        from repro.engine.units import format_time

        return f"fixed {format_time(self.quantum)}"


class AdaptiveQuantumPolicy(QuantumPolicy):
    """The paper's Algorithm 1: multiplicative grow on silence, crash on traffic."""

    def __init__(
        self,
        min_quantum: SimTime,
        max_quantum: SimTime,
        inc: float = 1.03,
        dec: float = 0.02,
    ) -> None:
        super().__init__(min_quantum, max_quantum)
        if inc <= 1.0:
            raise ValueError("inc must be > 1 (the quantum must be able to grow)")
        if not 0.0 < dec < 1.0:
            raise ValueError("dec must be in (0, 1)")
        self.inc = inc
        self.dec = dec

    def initial(self) -> float:
        # "The network controller controls the dynamic quantum duration,
        # which starts at its minimum value."
        return float(self.min_quantum)

    def next(self, quantum: float, np_count: int) -> float:
        if np_count == 0:
            return self.clamp(quantum * self.inc)
        return self.clamp(quantum * self.dec)

    def idle_chunk(
        self, quantum: float, span: SimTime, max_windows: int
    ) -> tuple[np.ndarray, float]:
        if max_windows <= 0 or span < self.window(quantum):
            return np.empty(0, dtype=np.int64), quantum
        # Upper-bound the candidate count: growth means windows only get
        # longer, so span // window(quantum) bounds how many can fit.
        candidates = min(int(span // self.window(quantum)), max_windows)
        # Growth saturates at max_quantum after `saturation` steps; padding
        # with the cap avoids overflowing inc**k for very long spans.
        if quantum >= self.max_quantum:
            saturation = 0
        else:
            saturation = math.ceil(
                math.log(self.max_quantum / quantum) / math.log(self.inc)
            )
        growing = np.arange(min(candidates, saturation), dtype=np.float64)
        states = np.concatenate(
            [
                np.minimum(quantum * self.inc**growing, float(self.max_quantum)),
                np.full(candidates - len(growing), float(self.max_quantum)),
            ]
        )
        lengths = np.maximum(1, np.rint(states)).astype(np.int64)
        fits = np.cumsum(lengths) <= span
        count = int(fits.sum())
        lengths = lengths[:count]
        if count == 0:
            return lengths, quantum
        final_state = self.clamp(float(states[count - 1]) * self.inc)
        return lengths, final_state

    def describe(self) -> str:
        from repro.engine.units import format_time

        return (
            f"dyn [{format_time(self.min_quantum)}:{format_time(self.max_quantum)}] "
            f"{self.inc:.2f}:{self.dec:.2f}"
        )


class AimdQuantumPolicy(QuantumPolicy):
    """Ablation: additive increase, multiplicative decrease (TCP-style).

    Not in the paper; included to test whether Algorithm 1's *multiplicative*
    growth matters.  Grows by a fixed step on silence, multiplies by ``dec``
    on traffic.
    """

    def __init__(
        self,
        min_quantum: SimTime,
        max_quantum: SimTime,
        step: SimTime = 1_000,
        dec: float = 0.02,
    ) -> None:
        super().__init__(min_quantum, max_quantum)
        if step < 1:
            raise ValueError("step must be at least 1 ns")
        if not 0.0 < dec < 1.0:
            raise ValueError("dec must be in (0, 1)")
        self.step = step
        self.dec = dec

    def initial(self) -> float:
        return float(self.min_quantum)

    def next(self, quantum: float, np_count: int) -> float:
        if np_count == 0:
            return self.clamp(quantum + self.step)
        return self.clamp(quantum * self.dec)

    def idle_chunk(
        self, quantum: float, span: SimTime, max_windows: int
    ) -> tuple[np.ndarray, float]:
        if max_windows <= 0 or span < self.window(quantum):
            return np.empty(0, dtype=np.int64), quantum
        candidates = min(int(span // self.window(quantum)), max_windows)
        exponents = np.arange(candidates, dtype=np.float64)
        states = np.minimum(quantum + self.step * exponents, float(self.max_quantum))
        lengths = np.maximum(1, np.rint(states)).astype(np.int64)
        fits = np.cumsum(lengths) <= span
        count = int(fits.sum())
        lengths = lengths[:count]
        if count == 0:
            return lengths, quantum
        final_state = self.clamp(float(states[count - 1]) + self.step)
        return lengths, final_state

    def describe(self) -> str:
        from repro.engine.units import format_time

        return f"aimd +{format_time(self.step)}:{self.dec:.2f}"
