"""The CI workflow must parse and must only name files that exist.

``.github/workflows/ci.yml`` went unparseable for five PRs (an unquoted
colon in a step name) and kept gating on a benchmark script after it
stopped being the repository's instrument; nothing in tier-1 noticed
either.  ``tools/ci_local.py`` executes the same steps this test reads.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent
JOBS = (
    "lint", "tests", "backend-degrade", "native-sanitizers", "sharded-smoke",
    "crash-recovery-smoke", "perf-smoke",
)
#: A source file under a tracked directory, or a data/doc file at the root.
_PATH = re.compile(
    r"(?:src|tests|tools|bench|benchmarks|examples)/[\w./-]+\.(?:py|c|pyi|json)"
    r"|(?<![\w./-])[\w-]+\.(?:json|toml|baseline|md)\b"
)


def _run_steps() -> list[tuple[str, str]]:
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "ci.yml").read_text())
    assert tuple(workflow["jobs"]) == JOBS
    return [
        (f"{name}/{step.get('name', '?')}", step["run"])
        for name, job in workflow["jobs"].items()
        for step in job["steps"]
        if "run" in step
    ]


def test_every_run_step_is_a_script():
    steps = _run_steps()
    assert steps
    for label, script in steps:
        assert isinstance(script, str) and script.strip(), label


def test_perf_smoke_gates_only_through_the_exact_checker():
    """The parent-vs-head step prints ``bench/compare.py``'s timing report
    without gating on it; its status is ``tools/perf_gate.py``'s, over the
    same two reports."""
    (script,) = [
        script for label, script in _run_steps()
        if label.startswith("perf-smoke/") and "bench/compare.py" in script
    ]
    lines = [line.strip() for line in script.strip().splitlines()]
    reports = "bench/out/parent.json bench/out/head.json"
    assert f"python bench/compare.py {reports} || true" in lines
    assert lines[-1] == f"python tools/perf_gate.py {reports}"


def test_sharded_smoke_runs_the_shard_suite_on_one_cpu():
    """The barrier spins only with a CPU per shard process; one job step
    holds the shard suite to the blocking path by pinning it to one CPU."""
    pinned = [
        script.split()
        for label, script in _run_steps()
        if label.startswith("sharded-smoke/") and "taskset" in script
    ]
    assert pinned == [
        "taskset -c 0 env PYTHONPATH=src python -m pytest -x -q tests/test_shard.py "
        "tests/test_oracle.py".split()
    ]


def test_tests_job_runs_the_artefact_claims_and_diffs_the_tables():
    """The paper artefacts' shape claims run in CI, and the committed tables
    they regenerate must come out byte-identical."""
    claims = [
        [line.strip() for line in script.strip().splitlines()]
        for label, script in _run_steps()
        if label.startswith("tests/") and "benchmarks/" in script
    ]
    assert claims == [[
        "PYTHONPATH=src python -m pytest -q benchmarks/",
        "git diff --exit-code benchmarks/out/",
    ]]


def test_simlint_gates_once_per_lint_row_without_retired_options():
    """One strict simlint step per ``lint`` matrix row; the warm-cache
    timing guard and the SARIF export went with the project index."""
    steps = _run_steps()
    strict = [
        label.split("/")[0]
        for label, script in steps
        if "repro.analysis.simlint" in script and "--strict" in script.split()
    ]
    assert strict == ["lint"]
    for label, script in steps:
        words = " ".join(script.split())
        assert "--max-seconds" not in words, label
        assert "--format sarif" not in words, label


def test_steps_name_only_files_that_exist():
    for label, script in _run_steps():
        for path in _PATH.findall(script):
            # Reports a step writes live under a git-ignored out/ directory.
            if "/out/" not in path:
                assert (ROOT / path).is_file(), f"{label} mentions missing {path}"
