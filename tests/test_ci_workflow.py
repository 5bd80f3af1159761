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


def test_steps_name_only_files_that_exist():
    for label, script in _run_steps():
        for path in _PATH.findall(script):
            # Reports a step writes live under a git-ignored out/ directory.
            if "/out/" not in path:
                assert (ROOT / path).is_file(), f"{label} mentions missing {path}"
