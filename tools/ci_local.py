#!/usr/bin/env python3
"""Run here what CI would run: ``python tools/ci_local.py [job]``.

Executes the ``run:`` steps of every job in ``.github/workflows/ci.yml`` (or
of the named job) the way the hosted runner does: ``bash -eo pipefail``, one
fresh checkout per job.  The checkout is a clone with the working tree's
uncommitted state laid over it, so what is checked is what is about to be
committed, and a job's side effects (the ASan build overwrites the compiled
core, the benches write reports) reach neither the next job nor this tree.
``uses:`` steps, the Python matrix and ``if:`` conditions are ignored.

One line per step: ``passed``, ``failed`` (followed by its output) or ``not
run: <reason>`` — a step that installs packages is never run, one that calls a
tool missing from PATH reads ``not run: no <tool>``.  Exits with the status of
the first failed step.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
#: Commands a step may need that a development container may lack.
TOOLS = ("gcc", "ruff", "mypy")


def _files(tree: Path, *which: str) -> list[str]:
    done = subprocess.run(
        ["git", "ls-files", "-z", *which], cwd=tree, check=True, capture_output=True, text=True
    )
    return [name for name in done.stdout.split("\0") if name]


def checkout(target: Path) -> None:
    """Clone HEAD into *target*, then make it equal to the working tree."""
    subprocess.run(["git", "clone", "--quiet", str(ROOT), str(target)], check=True)
    for name in _files(target):
        if not (ROOT / name).is_file():
            (target / name).unlink()
    for name in _files(ROOT, "--cached", "--others", "--exclude-standard"):
        if (ROOT / name).is_file():
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, target / name)


def why_not(script: str) -> str | None:
    """The reason *script* cannot run in this container, if there is one."""
    if re.search(r"\bpip install\b", script):
        return "installs packages"
    for tool in TOOLS:
        if re.search(rf"\b{tool}\b", script) and shutil.which(tool) is None:
            return f"no {tool}"
    return None


def run_job(name: str, job: dict, env: dict[str, str]) -> int:
    """Run one job in a fresh checkout; stops at its first failed step, as CI does."""
    with tempfile.TemporaryDirectory(prefix=f"ci-{name}-") as folder:
        checkout(Path(folder))
        for step in job["steps"]:
            script = step.get("run")
            if script is None:
                continue
            label = f"{name}: {step.get('name', script.split()[0])}"
            reason = why_not(script)
            if reason is not None:
                print(f"{label}: not run: {reason}", flush=True)
                continue
            done = subprocess.run(
                ["bash", "-eo", "pipefail", "-c", script], cwd=folder, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            print(f"{label}: {'failed' if done.returncode else 'passed'}", flush=True)
            if done.returncode:
                print(textwrap.indent(done.stdout, "    "))
                return done.returncode
    return 0


def main(argv: list[str]) -> int:
    jobs = yaml.safe_load((ROOT / ".github/workflows/ci.yml").read_text())["jobs"]
    if len(argv) > 1 or (argv and argv[0] not in jobs):
        sys.exit(f"usage: ci_local.py [{' | '.join(jobs)}]")
    # A clean runner has no PYTHONPATH; the steps that need one set it.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    results = [run_job(name, jobs[name], env) for name in argv or jobs]
    return next(filter(None, results), 0)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
