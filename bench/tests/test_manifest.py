"""BENCHMARK.json: generated from the registry and inside the driver's limits."""

from __future__ import annotations

import json
import re
from pathlib import Path

from bench import registry

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_manifest_file_matches_the_registry() -> None:
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == registry.manifest(), "run: python bench/run.py --write-manifest"


def test_manifest_is_inside_the_contract_limits() -> None:
    manifest = registry.manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert manifest["paths"] == ["bench"]
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 1 <= manifest["run_seconds"] <= 60
    names = [
        entry["name"]
        for group in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[group]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in manifest["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in manifest["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in manifest["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    setup = [e for e in manifest["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert len(json.dumps(manifest, indent=2)) < 64 * 1024


def test_every_per_layer_metric_says_what_it_should_move() -> None:
    for metric in registry.PER_LAYER:
        assert metric.moves, metric.name


def test_readme_names_every_workload_and_metric() -> None:
    readme = (ROOT / "bench" / "README.md").read_text()
    for name in (*registry.WORKLOAD_NAMES, *registry.BY_NAME):
        assert f"`{name}`" in readme, f"{name} is missing from bench/README.md"
