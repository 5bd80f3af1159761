"""Workload abstractions and application metrics.

A workload is a factory of SPMD programs plus the *application-specific
metric* the paper uses to measure accuracy: "The accuracy measurement is
derived from the application-specific metric reported by the benchmarks
themselves ... NAMD reports wall-clock time and NAS reports MOPS."  The
metric is computed from the application's own simulated timeline (the
makespan), so straggler-delayed messages distort it exactly the way a
dilated guest run distorts the benchmark's self-reported numbers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Generator, Iterable, Optional

from repro.core.cluster import RunResult
from repro.engine.units import SECOND
from repro.mpi.api import MpiRank, spmd_apps
from repro.node.requests import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.collector import TraceCollector


def harmonic_mean(values: Iterable[float]) -> float:
    """Harmonic mean, the NAS suite's aggregation rule for MOPS."""
    values = list(values)
    if not values:
        raise ValueError("harmonic mean of no values")
    if any(value <= 0 for value in values):
        raise ValueError("harmonic mean requires positive values")
    return len(values) / sum(1.0 / value for value in values)


class Workload(ABC):
    """A distributed application model."""

    #: Short identifier used in tables ("EP", "IS", ..., "NAMD").
    name: str = "workload"
    #: Human name of the application metric ("MOPS", "wall-clock s").
    metric_name: str = "metric"
    #: "rate" metrics (MOPS) improve upward; "time" metrics downward;
    #: "percentile" metrics are latency-distribution points (service
    #: workloads' p99) — like "time" they improve downward, but they
    #: summarise a per-request sample rather than the makespan.
    metric_kind: str = "rate"

    @abstractmethod
    def program(self, mpi: MpiRank) -> Generator[Request, Any, Any]:
        """The SPMD body for one rank."""

    def build_apps(self, size: int) -> list[Generator[Request, Any, Any]]:
        """One fresh application generator per rank."""
        return spmd_apps(size, self.program)

    @abstractmethod
    def metric(self, result: RunResult) -> float:
        """The application-reported performance number for a finished run."""

    def accuracy_error(self, result: RunResult, ground_truth: RunResult) -> float:
        """Relative error of this run's metric vs. the ground-truth run's.

        This is the paper's accuracy measure: the experiment with the
        smallest quantum is the reference, and each configuration's
        application-reported metric is compared against it.
        """
        reference = self.metric(ground_truth)
        if reference == 0:
            raise ValueError("ground-truth metric is zero")
        return abs(self.metric(result) - reference) / abs(reference)

    def exec_time_ratio(self, result: RunResult, ground_truth: RunResult) -> float:
        """Simulated execution-time dilation vs. ground truth.

        The paper reports this for NAS-IS at 64 nodes ("Simulated Exec.
        Ratio vs. 1 us"), where the MOPS error saturates at ~100 % and stops
        being informative.
        """
        if ground_truth.makespan == 0:
            raise ValueError("ground-truth run has zero makespan")
        return result.makespan / ground_truth.makespan

    def attach_trace(self, collector: Optional["TraceCollector"]) -> None:
        """Offer the run's trace collector to the workload (or ``None`` to
        detach it).

        Most workloads ignore tracing; workloads that emit application-level
        trace events (the service workload's request lifecycle) override
        this.  The harness detaches the collector while replaying a
        checkpoint's application log so replayed steps are not re-emitted.
        """

    def progress_summary(self) -> Optional[str]:
        """A one-line live progress report, or ``None`` if the workload
        tracks none.

        Used by the harness watchdog and incomplete-run diagnostics to
        report application progress (e.g. requests completed/in flight)
        alongside simulated time.  Only meaningful in the process that ran
        ``build_apps``; sharded workers each see their own copy.
        """
        return None


class NasWorkload(Workload):
    """Common machinery for the NAS kernels: MOPS from a fixed op budget.

    NAS benchmarks report Millions of Operations Per Second where the
    operation count is defined by the problem class, not by the wall clock;
    a timing-dilated run therefore reports proportionally lower MOPS.
    """

    metric_name = "MOPS"
    metric_kind = "rate"

    def __init__(self, reference_ops: float) -> None:
        if reference_ops <= 0:
            raise ValueError("reference op count must be positive")
        self.reference_ops = reference_ops

    def metric(self, result: RunResult) -> float:
        makespan_seconds = result.makespan / SECOND
        if makespan_seconds <= 0:
            raise ValueError("run has no makespan; did it complete?")
        return self.reference_ops / 1e6 / makespan_seconds
