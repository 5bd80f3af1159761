"""Figure 9: 64-node traffic (left charts) and speedup over time (right).

The paper plots, per benchmark, the packet traffic across nodes over time
and the instantaneous simulation speedup of the adaptive run against the
average speed of the 1us-quantum baseline.  We regenerate both as data
series (plus an ASCII traffic chart) and assert the paper's reading:

* EP (9a): long silent stretches -> the speedup curve rides high.
* IS (9b): periodic all-to-all bursts -> speedup collapses during bursts.
* NAMD (9c): "no visible interval where the application is not exchanging
  data" -> continuous traffic caps the speedup curve below ~10x.
"""

from __future__ import annotations

import statistics

from repro.engine.units import MILLISECOND
from repro.harness import figures
from repro.harness.configs import scaleout_configs
from repro.harness.experiment import ExperimentRunner
from repro.obs.collector import TraceConfig
from repro.obs.export import write_chrome_trace

from conftest import BENCH_SEED


def run_case(name: str, trace: bool = False):
    """Regenerate one Figure 9 case; optionally with structured tracing.

    The traffic series always flows through the run's obs collector (the
    harness installs the TrafficTrace as a packet listener on it); *trace*
    additionally keeps the full event ring on every run so the adaptive
    run can be exported as a Chrome trace artifact.
    """
    config = next(c for c in scaleout_configs() if c.name == name)
    runner = ExperimentRunner(
        seed=BENCH_SEED, trace=TraceConfig() if trace else None
    )
    result = figures.figure9(runner, config, bucket=MILLISECOND // 2)
    # figure9's two per-run runners report their traced runs on *runner*.
    return result, runner.traced_runs


def render(result):
    series = ", ".join(f"{t/1e6:.1f}ms:{s:.1f}x" for t, s in result.speedup_series)
    return "\n".join(
        [
            result.render(chart_width=72),
            "",
            f"full speedup-over-time series: {series}",
        ]
    )


def test_fig9a_ep_trace(benchmark, save_artifact, artifact_dir):
    result, traced = benchmark.pedantic(
        lambda: run_case("EP", trace=True), rounds=1, iterations=1
    )
    save_artifact("fig9a_ep", render(result))
    # Export the adaptive run as a Perfetto-openable Chrome trace.
    adaptive = next(r for r in traced if r.policy_label != "1")
    write_chrome_trace(
        adaptive.obs,
        artifact_dir / "fig9a_ep.trace.json",
        num_nodes=adaptive.size,
        label=f"EP n={adaptive.size} {adaptive.policy_label}",
    )
    # EP: mostly silent wire.
    assert result.busy_fraction < 0.25
    # The adaptive run rides high through the silent middle of the run.
    speedups = [s for _, s in result.speedup_series]
    assert max(speedups) > 20


def test_fig9b_is_trace(benchmark, save_artifact):
    result, _ = benchmark.pedantic(lambda: run_case("IS"), rounds=1, iterations=1)
    save_artifact("fig9b_is", render(result))
    # IS: periodic bursts — busier than EP (~0.01), quieter than NAMD.
    assert 0.05 < result.busy_fraction < 0.6
    speedups = [s for _, s in result.speedup_series]
    # The curve swings: compute stretches accelerate, all-to-all bursts
    # drag the quantum (and the speedup) down.
    assert max(speedups) > 4 * min(speedups)


def test_fig9c_namd_trace(benchmark, save_artifact):
    result, _ = benchmark.pedantic(lambda: run_case("NAMD"), rounds=1, iterations=1)
    save_artifact("fig9c_namd", render(result))
    # NAMD: the wire is busy through most of the run (the only quiet
    # stretches are the sub-ms tails of each step's integration).
    assert result.busy_fraction > 0.6
    # Continuous packets cap the speedup curve (paper: below 10x).
    speedups = [s for _, s in result.speedup_series]
    assert statistics.median(speedups) < 12
