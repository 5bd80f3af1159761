"""Tests for the experiment harness: runner, artefacts, sweeps, reports, CLI.

Everything runs on deliberately small workload instances — the point is to
exercise the machinery (ground-truth caching, comparisons, aggregation,
rendering), not to regenerate the paper numbers (the benchmarks do that).
"""

import pytest

from repro.core.quantum import FixedQuantumPolicy
from repro.engine.units import MICROSECOND
from repro.harness import artefacts
from repro.harness.artefacts import ARTEFACTS, inc_dec_specs, sweep_text
from repro.harness.configs import (
    PAPER_SIZES,
    PolicySpec,
    ground_truth_policy,
    nas_suite,
    paper_policies,
    scaleout_configs,
)
from repro.harness.experiment import ExperimentRunner
from repro.harness.report import format_table, microseconds, percent, times
from repro.metrics.pareto import pareto_front
from repro.workloads import EpWorkload, PhaseWorkload

US = MICROSECOND


def entry(name):
    return next(artefact for artefact in ARTEFACTS if artefact.name == name)


def small_suite():
    from repro.workloads import CgWorkload, IsWorkload

    return [
        EpWorkload(total_ops=2e7, chunks=4),
        IsWorkload(total_keys=2**15, iterations=2, ops_per_key=16),
        CgWorkload(iterations=3, nonzeros=2e6, vector_bytes=32_768),
    ]


class TestConfigs:
    def test_paper_policy_labels(self):
        labels = [spec.label for spec in paper_policies()]
        assert labels == ["10", "100", "1k", "dyn 1k 1.03:0.02", "dyn 1k 1.05:0.02"]

    def test_ground_truth_is_1us_fixed(self):
        policy = ground_truth_policy().build()
        assert isinstance(policy, FixedQuantumPolicy)
        assert policy.quantum == US

    def test_policy_factories_make_fresh_objects(self):
        spec = paper_policies()[0]
        assert spec.build() is not spec.build()

    def test_nas_suite_names(self):
        assert [w.name for w in nas_suite()] == ["EP", "IS", "CG", "MG", "LU"]

    def test_paper_sizes(self):
        assert PAPER_SIZES == (2, 4, 8)

    def test_scaleout_configs(self):
        configs = scaleout_configs()
        assert [c.name for c in configs] == ["EP", "IS", "NAMD"]
        assert all(c.size == 64 for c in configs)
        assert all(c.paper_rows for c in configs)


class TestExperimentRunner:
    def test_ground_truth_cached(self):
        runner = ExperimentRunner(seed=3)
        workload = EpWorkload(total_ops=2e7)
        first = runner.ground_truth(workload, 2)
        second = runner.ground_truth(workload, 2)
        assert first is second

    def test_comparison_row_fields(self):
        runner = ExperimentRunner(seed=3)
        workload = EpWorkload(total_ops=2e7)
        spec = PolicySpec("1k", lambda: FixedQuantumPolicy(1000 * US))
        row = runner.run_and_compare(workload, 2, spec)
        assert row.policy_label == "1k"
        assert row.speedup > 1.0
        assert row.accuracy_error >= 0.0
        assert row.exec_time_ratio >= 1.0
        assert "speedup" in row.describe()

    def test_seeds_change_speed_not_truth_metric(self):
        workload = EpWorkload(total_ops=2e7)
        a = ExperimentRunner(seed=1).ground_truth(workload, 2)
        b = ExperimentRunner(seed=2).ground_truth(workload, 2)
        assert a.metric == b.metric
        assert a.result.host_time != b.result.host_time

    def test_run_matrix_covers_grid(self):
        runner = ExperimentRunner(seed=3)
        specs = paper_policies()[:2]
        rows = runner.run_matrix(EpWorkload(total_ops=2e7), (2, 4), specs)
        assert len(rows) == 4
        assert {(r.size, r.policy_label) for r in rows} == {
            (2, "10"),
            (2, "100"),
            (4, "10"),
            (4, "100"),
        }

    def test_traffic_recording(self):
        runner = ExperimentRunner(seed=3, record_traffic=True)
        record = runner.ground_truth(EpWorkload(total_ops=2e7), 2)
        assert record.trace is not None
        assert record.trace.total_packets == record.result.controller_stats.packets_routed


class TestFigures:
    """The artefact entries' builders and renderers on shrunk workloads."""

    def test_nas_suite_matrix_small(self, monkeypatch):
        monkeypatch.setattr(artefacts, "nas_suite", small_suite)
        monkeypatch.setattr(artefacts, "paper_policies", lambda: paper_policies()[:2])
        runner = ExperimentRunner(seed=3)
        cells = entry("fig6_nas").build(runner, (2,))
        assert len(cells) == 2
        cell = cells["10", 2]
        assert cell.accuracy_error < 0.2
        assert cell.speedup > 2
        assert all(runner.has_ground_truth(workload, 2) for workload in small_suite())
        text = entry("fig6_nas").render(cells)
        assert "accuracy error" in text and "speedup" in text

    def test_suite_cell_lookup_error(self, monkeypatch):
        monkeypatch.setattr(artefacts, "nas_suite", lambda: [EpWorkload(total_ops=2e7)])
        monkeypatch.setattr(artefacts, "paper_policies", lambda: paper_policies()[:1])
        cells = entry("fig6_nas").build(ExperimentRunner(seed=3), (2,))
        with pytest.raises(KeyError):
            cells["nope", 2]

    def test_figure8_front_contains_extremes(self, monkeypatch):
        monkeypatch.setattr(artefacts, "nas_suite", lambda: [EpWorkload(total_ops=2e7)])
        monkeypatch.setattr(artefacts, "namd_workload", lambda: EpWorkload(total_ops=2e7))
        monkeypatch.setattr(artefacts, "paper_policies", lambda: paper_policies()[:3])
        points = entry("fig8_pareto").build(ExperimentRunner(seed=3), ())
        assert [p.label for p in points][:3] == ["NAS 10", "NAS 100", "NAS 1k"]
        assert pareto_front(points)
        rendered = entry("fig8_pareto").render(points)
        assert "pareto" in rendered.lower()

    def test_section6_rows(self, monkeypatch):
        from repro.harness.configs import ScaleoutConfig
        from repro.core.quantum import AdaptiveQuantumPolicy

        config = ScaleoutConfig(
            name="EP",
            workload_factory=lambda: EpWorkload(total_ops=4e7),
            size=4,
            fixed_quanta=(100 * US,),
            dyn_label="dyn 1:100",
            dyn_factory=lambda: AdaptiveQuantumPolicy(US, 100 * US),
            paper_rows={"100us": (72.7, "0.10%")},
        )
        monkeypatch.setattr(artefacts, "scaleout_configs", lambda: [config])
        rows = entry("sec6_ep").build(ExperimentRunner(seed=3), ())
        assert list(rows) == ["100us", "dyn 1:100"]
        assert rows["100us"].speedup > rows["dyn 1:100"].speedup * 0.1
        assert "Section 6" in entry("sec6_ep").render(rows)

    def test_figure9_produces_series_and_trace(self, monkeypatch):
        from repro.harness.configs import ScaleoutConfig
        from repro.core.quantum import AdaptiveQuantumPolicy

        config = ScaleoutConfig(
            name="EP",
            workload_factory=lambda: PhaseWorkload(phases=3, compute_ops=2e6),
            size=4,
            fixed_quanta=(),
            dyn_label="dyn",
            dyn_factory=lambda: AdaptiveQuantumPolicy(US, 100 * US),
        )
        monkeypatch.setattr(artefacts, "scaleout_configs", lambda: [config])
        data = entry("fig9a_ep").build(ExperimentRunner(seed=3), ())
        assert data.trace.total_packets > 0
        assert data.series
        assert all(speedup > 0 for speedup in data.speedups)
        assert "Figure 9" in entry("fig9a_ep").render(data)


class TestSweep:
    def test_sweep_grid_and_bests(self):
        """Another inc/dec grid through ablation A1's grid function."""
        runner = ExperimentRunner(seed=3)
        workload = PhaseWorkload(phases=3, compute_ops=5e6)
        specs = inc_dec_specs((1.03, 1.30), (0.02, 0.90))
        assert [spec.label for spec in specs] == [
            "dyn 1.03:0.02", "dyn 1.03:0.90", "dyn 1.30:0.02", "dyn 1.30:0.90",
        ]
        rows = runner.run_matrix(workload, (2,), specs)
        assert len(rows) == 4
        best_err = min(rows, key=lambda row: row.accuracy_error)
        best_speed = max(rows, key=lambda row: row.speedup)
        assert best_err.accuracy_error <= best_speed.accuracy_error
        text = sweep_text({workload.name: {row.policy_label[4:]: row for row in rows}})
        assert "inc/dec sweep" in text and "1.30:0.90" in text


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 22]], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[2].startswith("-")
        assert lines[3].startswith("a ")
        assert lines[4].startswith("long-name")

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "extra"]])

    def test_format_table_empty_rows(self):
        # No data rows: just the (optional) title, header, and separator.
        text = format_table(["col-a", "b"], [])
        lines = text.splitlines()
        assert lines == ["col-a  b", "-----  -"]
        titled = format_table(["col-a", "b"], [], "Empty")
        assert titled.splitlines()[0] == "Empty"

    def test_format_table_wide_unicode_alignment(self):
        # CJK glyphs occupy two terminal cells; columns must still line up.
        from repro.harness.report import display_width

        assert display_width("節點") == 4
        assert display_width("ascii") == 5
        text = format_table(
            ["name", "value"], [["節點", 1], ["ascii-node", 22]]
        )
        lines = text.splitlines()
        widths = {display_width(line) for line in lines[1:]}
        # Both data rows end at the same display column (value is
        # right-aligned; trailing whitespace is stripped).
        assert len(widths) == 1
        assert lines[2].endswith(" 1") and lines[3].endswith("22")

    def test_helpers(self):
        assert percent(0.1234) == "12.34%"
        assert times(2.5) == "2.5x"
        assert microseconds(1500) == "1.5us"


class TestCli:
    def test_cli_sweep_smoke(self, capsys, monkeypatch):
        from repro.harness import cli

        # The ablation_incdec entry on shrunk workloads.
        monkeypatch.setattr(artefacts, "IsWorkload", lambda: PhaseWorkload(phases=3))
        monkeypatch.setattr(artefacts, "EpWorkload", lambda: EpWorkload(total_ops=2e7))
        parser_exit = cli.main(["--seed", "3", "sweep", "-j", "1", "--no-cache"])
        assert parser_exit == 0
        out = capsys.readouterr().out
        assert "inc/dec sweep — PHASES at 8 nodes" in out
        assert "inc/dec sweep — EP at 8 nodes" in out

    def test_cli_unknown_case_rejected(self):
        from repro.harness import cli

        with pytest.raises(SystemExit):
            cli.main(["sec6", "--case", "XX"])
