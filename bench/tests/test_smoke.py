"""The benchmark end to end on tiny inputs: every declared metric appears."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from bench import compare, registry

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "bench" / "run.py")]


def test_smoke_produces_every_declared_metric(tmp_path: Path) -> None:
    report_path = tmp_path / "smoke.json"
    finished = subprocess.run(
        [*RUN, "--smoke", "--seed", "7", "--out", str(report_path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert finished.returncode == 0, finished.stdout[-2000:] + finished.stderr[-2000:]
    report = json.loads(report_path.read_text())
    assert set(report["workloads"]) == set(registry.WORKLOAD_NAMES)
    for name, passes in report["workloads"].items():
        assert tuple(passes["end_to_end"]["metrics"]) == registry.END_TO_END_NAMES, name
        assert tuple(passes["per_layer"]["metrics"]) == registry.PER_LAYER_NAMES, name
        for kind, detail in passes.items():
            assert detail["correct"] and detail["failed"] == 0, (name, kind, detail["problems"])
            assert detail["attempted"] >= 1
        for metric in registry.END_TO_END_NAMES:
            assert passes["end_to_end"]["metrics"][metric]["value"] > 0, (name, metric)
        assert (ROOT / passes["per_layer"]["trace_file"]).is_file()
        assert f"{name}  seed=7" in finished.stdout
    for matrix in ("paper8_matrix", "farm_matrix"):
        exact = report["workloads"][matrix]["end_to_end"]["exact"]
        assert exact["accuracy_err_pct"] >= 0 and exact["modelled_speedup_x"] > 0
    # A report agrees with itself: nothing regressed, every count identical.
    assert compare.compare(report, report) == 0


def test_driver_form_prints_one_json_result_line(tmp_path: Path) -> None:
    for trace, declared in ((0, registry.END_TO_END_NAMES), (1, registry.PER_LAYER_NAMES)):
        finished = subprocess.run(
            [*RUN, "--workload", "service8_py", "--seed", "3", "--seconds", "0",
             "--smoke", "--trace", str(trace)],
            capture_output=True, text=True, cwd=tmp_path, timeout=120,
        )
        assert finished.returncode == 0, finished.stderr[-2000:]
        result = json.loads(finished.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert tuple(result["metrics"]) == declared
        for name, entry in result["metrics"].items():
            assert set(entry) == {"value", "unit"}
            assert entry["unit"] == registry.BY_NAME[name].unit


def test_refuses_to_run_without_the_simulator_source(tmp_path: Path) -> None:
    import shutil

    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    finished = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gt64_py", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert finished.returncode != 0
    assert not finished.stdout.strip()


def test_compare_flags_a_regression_and_a_failed_share_rise() -> None:
    def report(wall: float, failed_share: float = 0.0) -> dict:
        end_to_end = {
            "metrics": {
                name: {"value": wall if name == "wall_s" else 1.0, "unit": "s"}
                for name in registry.END_TO_END_NAMES
            },
            "exact": {"failed_share": failed_share},
            "result_digest": "abc",
            "spread": {"wall_s": {"median": wall, "q1": wall * 0.99, "q3": wall * 1.01,
                                  "n": 5, "samples": [wall] * 5}},
        }
        per_layer = {"metrics": {n: {"value": 0.0} for n in registry.PER_LAYER_NAMES}}
        return {"workloads": {
            name: {"end_to_end": end_to_end, "per_layer": per_layer}
            for name in registry.WORKLOAD_NAMES
        }}

    assert compare.compare(report(1.0), report(1.05)) == 0
    assert compare.compare(report(1.0), report(1.5)) == 1
    assert compare.compare(report(1.0), report(1.0, failed_share=0.1)) == 1
    assert compare.compare(report(1.0), report(0.5)) == 0
