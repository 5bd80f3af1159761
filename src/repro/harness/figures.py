"""Orchestration of every figure and table in the paper's evaluation.

Each ``figureN``/``sectionN`` function runs the experiments behind one
artefact, returns the structured numbers, and renders the paper-style text
table.  The benchmark files under ``benchmarks/`` and the CLI both call
these, so a figure is regenerated identically everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.engine.units import MICROSECOND, MILLISECOND
from repro.harness.configs import (
    PAPER_SIZES,
    PolicySpec,
    ScaleoutConfig,
    ground_truth_policy,
    namd_workload,
    nas_suite,
    paper_policies,
)
from repro.harness.experiment import ComparisonRow, ExperimentRunner
from repro.harness.report import format_table, microseconds, percent, times
from repro.metrics.accuracy import nas_aggregate_error
from repro.metrics.pareto import ParetoPoint, distance_to_front, pareto_front
from repro.metrics.traffic import TrafficTrace
from repro.workloads.base import Workload


# --------------------------------------------------------------------- #
# Figure 6: NAS accuracy and speedup (2/4/8 nodes, all configurations)
# --------------------------------------------------------------------- #


@dataclass
class SuiteCell:
    """Aggregate NAS numbers for one (policy, size)."""

    policy_label: str
    size: int
    accuracy_error: float
    speedup: float
    per_benchmark: list[ComparisonRow] = field(default_factory=list)


@dataclass
class SuiteResult:
    cells: list[SuiteCell]

    def cell(self, policy_label: str, size: int) -> SuiteCell:
        for cell in self.cells:
            if cell.policy_label == policy_label and cell.size == size:
                return cell
        raise KeyError(f"no cell for {policy_label!r} at {size} nodes")

    def render(self, title: str) -> str:
        sizes = sorted({cell.size for cell in self.cells})
        labels = []
        for cell in self.cells:
            if cell.policy_label not in labels:
                labels.append(cell.policy_label)
        accuracy_rows = []
        speedup_rows = []
        for label in labels:
            accuracy_rows.append(
                [label] + [percent(self.cell(label, s).accuracy_error) for s in sizes]
            )
            speedup_rows.append(
                [label] + [times(self.cell(label, s).speedup) for s in sizes]
            )
        headers = ["config"] + [f"{s} procs" for s in sizes]
        return "\n\n".join(
            [
                format_table(headers, accuracy_rows, f"{title} — accuracy error"),
                format_table(headers, speedup_rows, f"{title} — speedup vs 1us"),
            ]
        )


def run_nas_suite_matrix(
    runner: ExperimentRunner,
    sizes: tuple[int, ...] = PAPER_SIZES,
    specs: Optional[list[PolicySpec]] = None,
    suite: Optional[list[Workload]] = None,
) -> SuiteResult:
    """Figure 6: aggregate the five NAS kernels per (policy, size).

    Accuracy is the error of the harmonic-mean MOPS (the NAS aggregation);
    speed is the whole-suite host-time speedup (total host seconds of the
    suite under the configuration vs. under the ground truth).
    """
    specs = specs if specs is not None else paper_policies()
    suite = suite if suite is not None else nas_suite()

    # Express the whole matrix as one batch so a ParallelRunner fans it
    # out over worker processes in a single wave; results come back in
    # request order, so the assembly below just walks an iterator.
    requests: list[tuple[Workload, int, PolicySpec]] = []
    for size in sizes:
        for workload in suite:
            if not runner.has_ground_truth(workload, size):
                requests.append((workload, size, ground_truth_policy()))
        for spec in specs:
            for workload in suite:
                requests.append((workload, size, spec))
    records = iter(runner.run_many(requests))

    cells = []
    for size in sizes:
        truth_mops = {}
        truth_host = 0.0
        for workload in suite:
            if not runner.has_ground_truth(workload, size):
                runner.adopt_ground_truth(workload, next(records))
            truth = runner.ground_truth(workload, size)
            truth_mops[workload.name] = truth.metric
            truth_host += truth.result.host_time
        for spec in specs:
            config_mops = {}
            config_host = 0.0
            rows = []
            for workload in suite:
                record = next(records)
                config_mops[workload.name] = record.metric
                config_host += record.result.host_time
                rows.append(runner.compare(workload, record))
            cells.append(
                SuiteCell(
                    policy_label=spec.label,
                    size=size,
                    accuracy_error=nas_aggregate_error(config_mops, truth_mops),
                    speedup=truth_host / config_host,
                    per_benchmark=rows,
                )
            )
    return SuiteResult(cells)


def figure6(runner: ExperimentRunner, sizes: tuple[int, ...] = PAPER_SIZES) -> SuiteResult:
    return run_nas_suite_matrix(runner, sizes)


# --------------------------------------------------------------------- #
# Figure 7: NAMD accuracy and speedup
# --------------------------------------------------------------------- #


def figure7(
    runner: ExperimentRunner, sizes: tuple[int, ...] = PAPER_SIZES
) -> SuiteResult:
    """Figure 7 is the Figure 6 matrix for NAMD alone."""
    workload = namd_workload()
    return SuiteResult(
        [
            SuiteCell(
                policy_label=row.policy_label,
                size=row.size,
                accuracy_error=row.accuracy_error,
                speedup=row.speedup,
                per_benchmark=[row],
            )
            for row in runner.run_matrix(workload, sizes, paper_policies())
        ]
    )


# --------------------------------------------------------------------- #
# Figure 8: Pareto optimality at 8 nodes
# --------------------------------------------------------------------- #


@dataclass
class ParetoResult:
    points: list[ParetoPoint]
    front: list[ParetoPoint]

    def adaptive_points(self) -> list[ParetoPoint]:
        return [point for point in self.points if "dyn" in point.label]

    def max_adaptive_distance(self) -> float:
        distances = [
            distance_to_front(point, self.front) for point in self.adaptive_points()
        ]
        return max(distances) if distances else 0.0

    def render(self) -> str:
        front_set = {(p.label, p.error, p.speedup) for p in self.front}
        rows = [
            [
                point.label,
                percent(point.error),
                times(point.speedup),
                "*" if (point.label, point.error, point.speedup) in front_set else "",
            ]
            for point in sorted(self.points, key=lambda p: p.error)
        ]
        return format_table(
            ["experiment", "error", "speedup", "pareto"],
            rows,
            "Figure 8 — speed vs accuracy, 8 nodes (* = on Pareto front)",
        )


def figure8(
    runner: ExperimentRunner,
    size: int = 8,
    nas: Optional[SuiteResult] = None,
    namd: Optional[SuiteResult] = None,
) -> ParetoResult:
    """The 8-node speed/accuracy scatter and its Pareto front.

    Reuses already-computed Figure 6/7 results when given (the paper's
    Figure 8 is a re-plot of the same experiments).
    """
    nas = nas if nas is not None else run_nas_suite_matrix(runner, (size,))
    namd = namd if namd is not None else figure7(runner, (size,))
    points = []
    for cell in nas.cells:
        if cell.size == size:
            points.append(
                ParetoPoint(f"NAS {cell.policy_label}", cell.accuracy_error, cell.speedup)
            )
    for cell in namd.cells:
        if cell.size == size:
            points.append(
                ParetoPoint(f"NAMD {cell.policy_label}", cell.accuracy_error, cell.speedup)
            )
    return ParetoResult(points=points, front=pareto_front(points))


# --------------------------------------------------------------------- #
# Section 6: 64-node scale-out tables
# --------------------------------------------------------------------- #


@dataclass
class ScaleoutRow:
    label: str
    speedup: float
    accuracy_error: float
    exec_time_ratio: float
    mean_quantum: float


@dataclass
class ScaleoutResult:
    name: str
    rows: list[ScaleoutRow]
    paper_rows: dict

    def row(self, label: str) -> ScaleoutRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    def render(self) -> str:
        table_rows = []
        for row in self.rows:
            table_rows.append(
                [
                    row.label,
                    times(row.speedup),
                    percent(row.accuracy_error),
                    times(row.exec_time_ratio, 2),
                    microseconds(row.mean_quantum),
                ]
            )
        return format_table(
            ["quantum", "accel vs 1us", "accuracy err", "exec ratio", "mean Q"],
            table_rows,
            f"Section 6 — NAS/{self.name} at 64 nodes"
            if self.name != "NAMD"
            else "Section 6 — NAMD at 64 nodes",
        )


def section6(runner: ExperimentRunner, config: ScaleoutConfig) -> ScaleoutResult:
    """One of the paper's three 64-node case-study tables.

    All runs (ground truth included) go through one ``run_matrix`` batch,
    so a :class:`~repro.harness.parallel.ParallelRunner` computes the
    whole table in a single process-pool wave.
    """
    from repro.core.quantum import FixedQuantumPolicy

    workload = config.workload_factory()
    specs = [
        PolicySpec(
            f"{quantum // MICROSECOND}us", lambda q=quantum: FixedQuantumPolicy(q)
        )
        for quantum in config.fixed_quanta
    ]
    specs.append(PolicySpec(config.dyn_label, config.dyn_factory))
    rows = [
        ScaleoutRow(
            label=comparison.policy_label,
            speedup=comparison.speedup,
            accuracy_error=comparison.accuracy_error,
            exec_time_ratio=comparison.exec_time_ratio,
            mean_quantum=comparison.mean_quantum,
        )
        for comparison in runner.run_matrix(workload, (config.size,), specs)
    ]
    return ScaleoutResult(name=config.name, rows=rows, paper_rows=config.paper_rows)


# --------------------------------------------------------------------- #
# Figure 9: traffic and speedup over time at 64 nodes
# --------------------------------------------------------------------- #


@dataclass
class TimelineResult:
    name: str
    trace: TrafficTrace
    speedup_series: list[tuple[int, float]]
    busy_fraction: float

    def render(self, chart_width: int = 72) -> str:
        series_preview = ", ".join(
            f"{t / 1_000_000:.1f}ms:{s:.1f}x" for t, s in self.speedup_series[:8]
        )
        lines = [
            f"Figure 9 — {self.name} at 64 nodes",
            f"traffic busy fraction: {self.busy_fraction:.2f}",
            self.trace.ascii_chart(width=chart_width),
            f"speedup-over-time (first buckets): {series_preview}",
        ]
        return "\n".join(lines)


def figure9(
    runner: ExperimentRunner,
    config: ScaleoutConfig,
    bucket: int = MILLISECOND,
) -> TimelineResult:
    """Traffic trace (left chart) and adaptive speedup over time (right).

    Traces and timelines are per-run artefacts, so each of the two runs
    gets a runner of its own, derived from *runner*'s settings; their
    traced runs are reported on *runner*.  Both are single in-process,
    uncacheable runs, so a farm runner's pool and cache have no part in them.
    """

    def per_run(record_traffic: bool) -> ExperimentRunner:
        derived = type(runner)(
            runner.settings, record_traffic=record_traffic, timeline_bucket=bucket
        )
        derived.traced_runs = runner.traced_runs
        return derived

    # Ground-truth run gives the baseline host-per-sim-second rate and the
    # traffic trace (the paper's left charts show the application's own
    # traffic, which the ground truth renders undistorted).  The traffic
    # samples come from the run's obs collector: record_traffic installs a
    # TrafficTrace as a packet listener on it (see ExperimentRunner.run).
    truth_runner = per_run(record_traffic=True)
    workload = config.workload_factory()
    truth = truth_runner.ground_truth(workload, config.size)
    assert truth.trace is not None and truth.result.timeline is not None
    baseline_rate = truth.result.host_per_sim_second

    dyn = per_run(record_traffic=False).run_spec(
        workload, config.size, PolicySpec(config.dyn_label, config.dyn_factory)
    )
    assert dyn.result.timeline is not None
    series = dyn.result.timeline.speedup_series(baseline_rate)
    return TimelineResult(
        name=config.name,
        trace=truth.trace,
        speedup_series=series,
        busy_fraction=truth.trace.busy_fraction(),
    )
