"""Simulation sampling: the paper's stated future work, implemented.

Section 7: "we also plan to combine this technique with 'sampling' of the
individual node simulators to take further advantage of another
accuracy/speed tradeoff.  We believe that the combination of these
techniques will open up a much wider application space for full-system
simulation."  The authors' own dynamic-sampling simulator (Falcón et al.,
ISPASS 2007) alternates each node between *detailed* simulation (full
timing model, slow) and *functional* fast-forwarding with warming (cheap),
in a periodic SMARTS-like schedule.

For the synchronization layer, sampling is a change in the *host cost* of
busy simulated time: during a detailed window a node simulates at the full
``busy_slowdown``; between windows it runs at the much smaller
``functional_slowdown``.  The quantum algorithm is oblivious to the mode —
which is exactly why the two techniques compose: sampling accelerates the
*busy* portions that the adaptive quantum cannot help with, while the
adaptive quantum removes the synchronization overhead that sampling cannot
help with.  The ``extension_sampling`` artefact (``repro-cluster
sampling``) measures the composition.

(The timing-estimation error that sampling itself introduces inside a node
is a property of the node simulator, orthogonal to synchronization, and is
not modelled — see the paper's ISPASS 2007 reference for that analysis.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.rng import RngStreams
from repro.engine.units import SimTime
from repro.node.hostmodel import HostExecutionModel, HostModelParams


@dataclass(frozen=True)
class SamplingSchedule:
    """A periodic detailed-window sampling schedule.

    Attributes:
        period: schedule period in simulated time.
        detail_fraction: fraction of each period simulated in detail.
        functional_slowdown: host seconds per busy simulated second while
            fast-forwarding functionally (warming caches/branch predictors
            but running no timing model).
        phase_stagger: offset each node's schedule by
            ``node_id * phase_stagger`` so detailed windows do not align
            across the cluster (aligning them would make the whole cluster
            slow at the same instants, wasting the max-over-nodes rule).
    """

    period: SimTime = 10_000_000  # 10 ms
    detail_fraction: float = 0.2
    functional_slowdown: float = 3.0
    phase_stagger: SimTime = 0

    def __post_init__(self) -> None:
        if self.period < 2:
            raise ValueError("period must be at least 2 ns")
        if not 0.0 < self.detail_fraction <= 1.0:
            raise ValueError("detail fraction must be in (0, 1]")
        if self.functional_slowdown <= 0:
            raise ValueError("functional slowdown must be positive")
        if self.phase_stagger < 0:
            raise ValueError("phase stagger must be non-negative")

    @property
    def detail_window(self) -> SimTime:
        return max(1, round(self.period * self.detail_fraction))

    def mean_busy_slowdown(self, detailed_slowdown: float) -> float:
        """Long-run average busy slowdown under this schedule."""
        f = self.detail_fraction
        return f * detailed_slowdown + (1 - f) * self.functional_slowdown


class SampledHostExecutionModel(HostExecutionModel):
    """Host model whose busy slowdown follows a sampling schedule."""

    def __init__(
        self,
        node_id: int,
        params: HostModelParams,
        rng: RngStreams,
        schedule: SamplingSchedule,
    ) -> None:
        super().__init__(node_id, params, rng)
        self.schedule = schedule
        self._offset = node_id * schedule.phase_stagger

    def _in_detail(self, sim_time: SimTime) -> bool:
        phase = (sim_time + self._offset) % self.schedule.period
        return phase < self.schedule.detail_window

    def busy_base_at(self, sim_time: SimTime) -> float:
        if self._in_detail(sim_time):
            return self.params.busy_slowdown
        return self.schedule.functional_slowdown

    def busy_bases_at(self, times: np.ndarray) -> np.ndarray:
        phases = (times + self._offset) % self.schedule.period
        return np.where(
            phases < self.schedule.detail_window,
            self.params.busy_slowdown,
            self.schedule.functional_slowdown,
        )
