#!/usr/bin/env python3
"""List the ``def``s of ``src/repro`` the product surface never calls: ``tools/reach.py [--tier1]``.

Each ``SURFACE`` command runs under ``REPRO_BACKEND=python`` with a generated ``sitecustomize``
that logs each code object's first call under the root per process, forks, spawns and threads
included, line-buffered as workers leave through ``os._exit``.  ``--tier1`` tags each unreached
def ``test-only`` or ``nothing``.  CPython silently drops a profile function that raises (an
``interrupt_main`` landing in it does), so ``lost hook`` names each process whose hook was gone.
"""

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI, SERIAL = ("-m", "repro.harness.cli"), ("-j", "1", "--no-cache")
SURFACE = (
    ("-m", "pytest", "-q", "benchmarks"),  # every ARTEFACTS entry
    *((str(path),) for path in sorted(ROOT.glob("examples/*.py"))),
    *(CLI + (command, *SERIAL) for command in ("fig8", "transport", "sampling")),
    *(CLI + ("fig7", "--sizes", "2", "4", "-j", "2", "--cache-dir", "{tmp}/c"),) * 2,
    CLI + ("sweep", "-j", "2", "--no-cache", "--trace", "{tmp}/t", "--trace-diff"),
    CLI + ("fig7", "--sizes", "2", *SERIAL, "--trace", "{tmp}/t", "--trace-format", "jsonl"),
    *(CLI + ("fig7", "--sizes", "2", *SERIAL, "--checkpoint-dir", "{tmp}/k", *resume)
      for resume in ((), ("--resume",))),
    CLI + ("sec6", "--case", "EP", *SERIAL, "--shards", "2", "--check"),
    CLI + ("fig7", "--sizes", "3", *SERIAL, "--faults", "flaky", "--check", "--trace", "{tmp}/f"),
    CLI + ("fig7", "--sizes", "2", *SERIAL, "--faults", "degraded-node", "--retries", "1"),
    CLI + ("fig7", "--sizes", "2", *SERIAL, "--faults", "partitioned", "--backend", "native"),
    CLI + ("fig9", "--case", "EP", *SERIAL, "--run-timeout", "0.001"),
    CLI + ("service", "--requests", "300", "--burst", "0:1:3", *SERIAL, "--trace", "{tmp}/s"),
    CLI + ("service", "--requests", "300", "-j", "1", "--cache-dir", "{tmp}/c"),
    ("bench/run.py", "--smoke", "--out", "{tmp}/bench.json"),
    ("-m", "repro.analysis.simlint", "--strict", "src", "tests", "benchmarks", "examples"),
    ("-m", "repro.engine.backend", "--build", "--info"),
)
TIER1 = [("-m", "pytest", "-q", str(test)) for test in sorted(ROOT.glob("tests/test_*.py"))]
HOOK = '''import atexit, os, sys, threading
def _start():
    global _out, _seen
    _out, _seen = open(os.path.join({log!r}, f"{{os.getpid()}}.log"), "a", buffering=1), set()
def _hook(frame, event, arg):
    if event == "call" and frame.f_code not in _seen:
        _seen.add(frame.f_code)
        if frame.f_code.co_filename.startswith({root!r} + os.sep):
            _out.write(f"{{frame.f_code.co_filename}}:{{frame.f_code.co_firstlineno}}\\n")
def _finish(*status, _exit=os._exit):
    _out.write("exit ok\\n" if sys.getprofile() is _hook else "exit lost\\n")
    if status:
        _exit(*status)
_start()
os.register_at_fork(after_in_child=_start)
atexit.register(_finish)
os._exit = _finish
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def probe(commands, root: Path, cwd: Path = ROOT):
    """Run *commands*: the (file, first line) of code under *root* they called, and lost hooks."""
    hits, lost = set(), []
    with tempfile.TemporaryDirectory() as tmp:
        for index, command in enumerate(commands):
            (site := Path(tmp, str(index))).mkdir()
            (site / "sitecustomize.py").write_text(HOOK.format(root=str(root), log=str(site)))
            path = os.pathsep.join((str(site), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")))
            env = {**os.environ, "PYTHONPATH": path, "REPRO_BACKEND": "python"}
            argv = [sys.executable, *(arg.format(tmp=tmp) for arg in command)]
            subprocess.run(argv, cwd=cwd, env=env, capture_output=True)
            for pid in site.glob("*.log"):
                for line in pid.read_text().splitlines():
                    if line == "exit lost":
                        lost.append(f"lost hook: pid {pid.stem} of {' '.join(command)}")
                    elif line != "exit ok":
                        name, first = line.rsplit(":", 1)
                        hits.add((name, int(first)))
    return hits, lost


def unreached(root: Path, hits, tier1=None):
    """Defs under *root*, those reached, and (file, line, name, body lines, tag) per unreached."""
    keys, found = [], []
    def walk(node, path, prefix, outer_hit):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix
                walk(child, path, inner, outer_hit)
                continue
            key = (path, min([child.lineno] + [d.lineno for d in child.decorator_list]))
            keys.append(key)
            if outer_hit and key not in hits:
                tag = "" if tier1 is None else "test-only" if key in tier1 else "nothing"
                body = child.end_lineno - child.body[0].lineno + 1
                found.append((*key, prefix + child.name, body, tag))
            walk(child, path, f"{prefix}{child.name}.", outer_hit and key in hits)

    for path in sorted(root.rglob("*.py")):
        walk(ast.parse(path.read_text()), str(path), "", True)
    return len(keys), sum(key in hits for key in keys), found


def main(argv: list[str]) -> None:
    root = ROOT / "src" / "repro"
    hits, lost = probe(SURFACE, root)
    tier1, lost_in_tests = probe(TIER1, root) if "--tier1" in argv else (None, [])
    total, reached, found = unreached(root, hits, tier1)
    print(f"reached {reached} of {total} defs", *lost, *lost_in_tests, sep="\n")
    for tag in sorted({entry[4] for entry in found}):
        bodies = [entry[3] for entry in found if entry[4] == tag]
        print(f"unreached{' ' + tag if tag else ''}: {len(bodies)} defs, {sum(bodies)} body lines")
    for path, line, name, body, tag in found:
        print(f"{Path(path).relative_to(ROOT)}:{line} {name} {body} {tag}".rstrip())


if __name__ == "__main__":
    main(sys.argv[1:])
