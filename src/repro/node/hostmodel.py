"""Host execution model: how fast the simulator of one node runs.

The paper (Section 1, Section 3) observes that "the internal simulated time
of a node depends on many facts, such as the type of application that it is
running", and that host-side factors make node simulators advance their
simulated clocks "not only skewed with respect to each other, but ... with
dynamically changing speeds".  Those changing relative speeds are what create
stragglers, and the cost of simulating each node (plus the barrier) is what
the speedup measurements are made of.  This module models both with three
ingredients:

* **activity-dependent slowdown** — simulating busy target code through a
  dynamic-translation emulator with a timing model costs ~``busy_slowdown``
  host seconds per simulated second, while halted/idle target time is nearly
  free (emulators fast-forward HLT loops), costing ``idle_slowdown``.  This
  asymmetry is essential: a run whose *simulated* duration is dilated by
  straggler delays is mostly dilated with idle time, so it is not
  proportionally more expensive to simulate — which is why huge quanta still
  pay off in wall-clock even at terrible accuracy (paper Figure 6).
* **per-node heterogeneity** — a fixed lognormal factor per node (host cores
  are not perfectly identical in load).
* **per-quantum jitter** — a lognormal factor redrawn every quantum (host
  scheduling, caches, interrupts).  Mean-one, so average speed is unbiased.

Slowdowns are *host seconds per simulated second*.  The reciprocal, scaled
to nanoseconds, is the ``rate`` used for the affine simulated-time/host-time
maps in the cluster driver.

Draws are buffered internally: the scalar per-quantum path and the
vectorised fast-forward path consume the *same* jitter stream in the same
order, so a run is deterministic regardless of how the driver batches
quanta.  The buffer is bounded: a model holds at most :data:`JITTER_BUFFER`
unconsumed draws, a request longer than that is drawn exactly and never
stored, and an exhausted buffer is dropped — so the host models of N
nodes hold at most N x :data:`JITTER_BUFFER` draws however long a
fast-forwarded span is.  Batching never changes a value, because
``Generator.normal`` is chunk-invariant: one draw of *n* equals any split
of *n* into consecutive draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.engine.rng import RngStreams
from repro.engine.units import SimTime

#: Activity labels used across the node runtime and the cluster driver.
BUSY = "busy"
IDLE = "idle"

#: Most unconsumed jitter draws one host model keeps between requests.
JITTER_BUFFER = 256

_EMPTY = np.empty(0)


@dataclass(frozen=True)
class HostModelParams:
    """Calibration constants of the host execution model.

    Attributes:
        busy_slowdown: host seconds to simulate one busy simulated second.
        idle_slowdown: host seconds to simulate one idle simulated second.
        hetero_sigma: sigma of the per-node lognormal speed factor.
        jitter_sigma: sigma of the per-quantum lognormal jitter.
    """

    busy_slowdown: float = 20.0
    idle_slowdown: float = 1.0
    hetero_sigma: float = 0.05
    jitter_sigma: float = 0.20

    def __post_init__(self) -> None:
        if self.busy_slowdown <= 0 or self.idle_slowdown <= 0:
            raise ValueError("slowdowns must be positive")
        if self.hetero_sigma < 0 or self.jitter_sigma < 0:
            raise ValueError("sigmas must be non-negative")


class HostExecutionModel:
    """Samples per-quantum slowdowns for one node."""

    def __init__(self, node_id: int, params: HostModelParams, rng: RngStreams) -> None:
        self.node_id = node_id
        self.params = params
        self._rng = rng.spawn("host-jitter", node_id)
        self._buffer = _EMPTY
        self._cursor = 0
        if params.hetero_sigma > 0:
            hetero_rng = rng.spawn("host-hetero", node_id)
            # Mean-one lognormal: exp(N(-sigma^2/2, sigma)).
            self.node_factor = float(
                np.exp(hetero_rng.normal(-params.hetero_sigma**2 / 2, params.hetero_sigma))
            )
        else:
            self.node_factor = 1.0

    def _base(self, activity: str) -> float:
        if activity == BUSY:
            return self.params.busy_slowdown
        if activity == IDLE:
            return self.params.idle_slowdown
        raise ValueError(f"unknown activity {activity!r}")

    def _draw(self, size: int) -> np.ndarray:
        sigma = self.params.jitter_sigma
        return np.exp(self._rng.normal(-sigma**2 / 2, sigma, size=size))

    def _take_jitter(self, count: int) -> np.ndarray:
        """Consume *count* mean-one lognormal draws from the buffered stream.

        Served from the buffer while it lasts.  The shortfall of a request
        that exhausts it comes from one fresh block of
        :data:`JITTER_BUFFER` draws, whose rest is kept, or — when the
        shortfall alone is that long — from one exact draw that is not kept.
        """
        if self.params.jitter_sigma == 0:
            return np.ones(count)
        buffer = self._buffer
        cursor = self._cursor
        end = cursor + count
        if end < len(buffer):
            self._cursor = end
            return buffer[cursor:end]
        head = buffer[cursor:]
        need = end - len(buffer)
        self._buffer = _EMPTY
        self._cursor = 0
        if need == 0:
            return head
        if need < JITTER_BUFFER:
            self._buffer = self._draw(JITTER_BUFFER)
            self._cursor = need
            tail = self._buffer[:need]
        else:
            tail = self._draw(need)
        return np.concatenate((head, tail)) if len(head) else tail

    def take_jitter(self, count: int) -> np.ndarray:
        """Consume *count* per-quantum jitter draws from this node's stream.

        Public entry point for drivers that batch jitter across nodes (the
        vectorised stepper prefetches one row per quantum); consumes exactly
        the same stream positions as :meth:`slowdown_pair` /
        :meth:`slowdowns`, so batched and per-call consumption interleave
        without desynchronising the stream.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        return self._take_jitter(count)

    def busy_base_at(self, sim_time: SimTime) -> float:
        """Busy slowdown baseline at *sim_time* (constant here; subclasses
        such as the sampling model vary it over simulated time)."""
        return self.params.busy_slowdown

    def slowdown(self, activity: str, sim_time: SimTime = 0) -> float:
        """Draw this node's slowdown for the quantum starting at *sim_time*."""
        base = self.busy_base_at(sim_time) if activity == BUSY else self._base(activity)
        return base * self.node_factor * float(self._take_jitter(1)[0])

    def slowdown_pair(self, sim_time: SimTime = 0) -> tuple[float, float]:
        """Draw the (busy, idle) slowdowns for the coming quantum.

        Both share one jitter draw: the host factors (scheduling, load) the
        jitter models affect the node simulator as a whole, and consuming a
        single draw per quantum keeps the event path and the vectorised
        fast-forward path on the same stream position.
        """
        jitter = float(self._take_jitter(1)[0]) * self.node_factor
        return (
            self.busy_base_at(sim_time) * jitter,
            self.params.idle_slowdown * jitter,
        )

    def slowdowns(
        self, count: int, activity: str, times: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Vectorised draw of *count* consecutive per-quantum slowdowns.

        Used by the fast-forward span accelerator; consumes the same jitter
        stream as :meth:`slowdown`.  *times* carries each skipped quantum's
        start in simulated time (required by time-varying subclasses).
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        return self.slowdowns_from(self._take_jitter(count), activity, times)

    def slowdowns_from(
        self, jitter: np.ndarray, activity: str, times: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """:meth:`slowdowns` for jitter draws already taken from the stream.

        Lets a driver that prefetched jitter (see :meth:`take_jitter`)
        apply exactly the slowdown formula of :meth:`slowdowns` — same
        elementwise operation order, so results are bit-identical.
        """
        if activity == BUSY and times is not None:
            return self.busy_bases_at(times) * self.node_factor * jitter
        return self._base(activity) * self.node_factor * jitter

    def busy_bases_at(self, times: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`busy_base_at` (constant here)."""
        return np.full(len(times), self.params.busy_slowdown)

    def expected_max_slowdown(self, activity: str, num_nodes: int) -> float:
        """Crude estimate of E[max over nodes] used only for reporting.

        For mean-one lognormal jitter the max of *n* draws scales like
        ``exp(sigma * sqrt(2 ln n))``; good enough for progress displays.
        """
        if num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        sigma = self.params.jitter_sigma
        if num_nodes == 1 or sigma == 0:
            return self._base(activity)
        return self._base(activity) * math.exp(sigma * math.sqrt(2 * math.log(num_nodes)))
