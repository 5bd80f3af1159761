"""A run is a pure function of its config: checked by running it.

The farm, the disk cache and every bit-identity test assume that a run
depends on its configuration and on nothing else in the process.  This
file executes that contract instead of arguing it.  One fixed set of
small runs (:func:`child_main`) runs in a fresh child process per
variant; each child starts from a scrubbed environment (``PATH``,
``PYTHONPATH``, ``PYTHONHASHSEED=0``) plus one perturbation of an
ambient input, and must reproduce the reference child's ``RunResult``s,
trace bytes and cache key exactly:

================ =========================================================
variant          invariant it runs
================ =========================================================
hashseed         str hashing and set order never reach a result or trace
junk-env         unrelated env vars are ignored; ``REPRO_CHECK=1`` and
                 ``REPRO_BACKEND=python`` are result-neutral
no-native-shards ``REPRO_NO_NATIVE=1`` and ``REPRO_SHARDS=2`` are
                 result-neutral
native           ``REPRO_BACKEND=native`` is result-neutral (when built)
cwd              the working directory reaches nothing (nor does the
                 checkpoint store's pid-named temp file)
cpu-1, cpu-64    ``os.cpu_count`` / ``sched_getaffinity`` shape execution
                 (pool width, shard CPU binding) only
clock            wall-clock reads (shifted by 10**6 s) time things only
pool-2           a two-process farm equals the serial one
================ =========================================================

:func:`test_seeded_bug_is_caught` proves the check can fail: each bug
class the retired whole-program taint rules (SIM011-SIM014) were written
for is injected at run time through a preamble, and the variant named
for it must see the difference.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.core.quantum import AdaptiveQuantumPolicy, FixedQuantumPolicy
from repro.engine.backend import native_available
from repro.engine.units import MICROSECOND as US
from repro.harness.configs import PolicySpec, ground_truth_policy
from repro.harness.experiment import ExperimentRunner
from repro.harness.parallel import DiskResultCache, ParallelRunner, RunSpec
from repro.obs.collector import TraceConfig
from repro.service import ArrivalProfile, ServiceWorkload
from repro.workloads import IsWorkload

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def _is() -> IsWorkload:
    return IsWorkload(total_keys=2**15, iterations=2, ops_per_key=16)


def _dyn() -> PolicySpec:
    return PolicySpec("dyn", lambda: AdaptiveQuantumPolicy(US, 1000 * US))


def child_main(work: str, pool: int) -> None:
    """The fixed run set; pickles what it observed to ``<work>/out.pickle``."""
    out: dict = {}
    specs = [ground_truth_policy(), PolicySpec("100", lambda: FixedQuantumPolicy(100 * US)),
             _dyn()]
    farm = ParallelRunner(seed=SEED, max_workers=pool, use_cache=False)
    out["batch"] = [r.result for r in farm.run_many([(_is(), 8, s) for s in specs])]

    trace = TraceConfig(capacity=0, jsonl_path=os.path.join(work, "trace.jsonl"))
    out["traced"] = ExperimentRunner(seed=SEED, trace=trace).run_spec(_is(), 4, _dyn()).result
    (jsonl,) = Path(work).glob("trace-*.jsonl")
    out["trace"] = jsonl.read_bytes()

    sharded = ExperimentRunner(seed=SEED, shards=2)
    out["sharded"] = sharded.run_spec(_is(), 8, ground_truth_policy()).result
    checkpointed = ExperimentRunner(
        seed=SEED, checkpoint_dir=os.path.join(work, "ckpt"), checkpoint_every_quanta=50
    )
    out["checkpointed"] = checkpointed.run_spec(_is(), 4, _dyn()).result
    service = ServiceWorkload(profile=ArrivalProfile(num_requests=200))
    out["service"] = ExperimentRunner(seed=SEED).run_spec(service, 4, _dyn()).result

    spec = RunSpec(_is(), 8, _dyn().build(), "dyn", farm.settings)
    out["key"] = DiskResultCache.key_of(spec.key_payload())
    Path(work, "out.pickle").write_bytes(pickle.dumps(out))


class Variant(NamedTuple):
    env: dict = {}
    preamble: str = ""
    elsewhere: bool = False  # run from a scratch directory, not the repo root
    pool: int = 1


def _cpus(count: int) -> str:
    return (f"import os\nos.cpu_count = lambda: {count}\n"
            f"os.sched_getaffinity = lambda pid: set(range({count}))\n")


CLOCK_SHIFT = """
import time
for _name in ("time", "monotonic", "perf_counter"):
    for _suffix, _shift in (("", 10**6), ("_ns", 10**15)):
        _real = getattr(time, _name + _suffix)
        setattr(time, _name + _suffix, lambda _real=_real, _shift=_shift: _real() + _shift)
"""

JUNK_ENV = {
    "REPRO_CHECK": "1", "REPRO_BACKEND": "python", "REPRO_JUNK": "x" * 64,
    "LANG": "C", "LC_ALL": "C", "TZ": "Pacific/Kiritimati", "HOME": "/nonexistent",
}

VARIANTS = {
    "reference": Variant(),
    "hashseed": Variant(env={"PYTHONHASHSEED": "12345"}),
    "junk-env": Variant(env=JUNK_ENV),
    "no-native-shards": Variant(env={"REPRO_NO_NATIVE": "1", "REPRO_SHARDS": "2"}),
    "native": Variant(env={"REPRO_BACKEND": "native"}),
    "cwd": Variant(elsewhere=True),
    "cpu-1": Variant(preamble=_cpus(1)),
    "cpu-64": Variant(preamble=_cpus(64)),
    "clock": Variant(preamble=CLOCK_SHIFT),
    "pool-2": Variant(pool=2),
}

#: Each retired whole-program rule's bug class, injected at run time: the
#: pair of variants that must disagree once it is in, and where.
SEEDED_BUGS = {
    # An os.environ read stored into RunResult (SIM011's sink).
    "sim011_runresult_taint": ("reference", "junk-env", "batch", """
import dataclasses, os
from repro.core.cluster import ClusterSimulator
_run = ClusterSimulator.run
ClusterSimulator.run = lambda self: dataclasses.replace(
    _run(self), host_time=float(len(os.environ)))
"""),
    # hash(<str>) in a trace-event payload.
    "sim012_trace_taint": ("reference", "hashseed", "trace", """
from repro.obs.events import PacketTrace
_to_dict = PacketTrace.to_dict
PacketTrace.to_dict = lambda self: {**_to_dict(self), "route": hash(f"{self.src}>{self.dst}")}
"""),
    # A wall-clock day stamp laundered into key_fragment.
    "sim013_cachekey_launder": ("reference", "clock", "key", """
import time
from repro.harness.settings import RunnerSettings
_fragment = RunnerSettings.key_fragment
RunnerSettings.key_fragment = lambda self, size: {
    **_fragment(self, size), "day": int(time.time() // 86400)}
"""),
    # os.cpu_count() reaching a scheduled delivery time.
    "sim014_ambient_reach": ("cpu-1", "cpu-64", "batch", """
import os
from repro.network.latency import NicSwitchLatencyModel
_latency = NicSwitchLatencyModel.latency
NicSwitchLatencyModel.latency = lambda self, packet, dst: (
    _latency(self, packet, dst) + (os.cpu_count() or 1))
"""),
}


def _run_child(name: str, tmp_path: Path, bug: str = "") -> dict:
    variant = VARIANTS[name]
    work = tmp_path / name
    work.mkdir()
    env = {
        "PATH": os.environ.get("PATH", ""),
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        "PYTHONHASHSEED": "0",
        **variant.env,
    }
    code = (
        f"{variant.preamble}\n{bug}\n"
        "from tests.test_determinism_perturbation import child_main\n"
        f"child_main({str(work)!r}, {variant.pool})\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=work if variant.elsewhere else ROOT,
        capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, f"{name} child failed:\n{proc.stderr.decode()[-3000:]}"
    return pickle.loads((work / "out.pickle").read_bytes())


def _run_children(names: list[str], tmp_path: Path, bug: str = "") -> list[dict]:
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(lambda name: _run_child(name, tmp_path, bug), names))


def _differences(a: dict, b: dict) -> list[str]:
    return sorted(name for name in a if a[name] != b[name])


def test_runs_are_pure_functions_of_their_config(tmp_path: Path) -> None:
    names = [name for name in VARIANTS if name != "native" or native_available()]
    reference, *others = _run_children(names, tmp_path)
    assert b'"packet_id"' in reference["trace"]
    diverged = {
        name: diff
        for name, observed in zip(names[1:], others)
        if (diff := _differences(reference, observed))
    }
    assert diverged == {}, f"ambient input reached a run: {diverged}"


@pytest.mark.parametrize("bug", sorted(SEEDED_BUGS))
def test_seeded_bug_is_caught(bug: str, tmp_path: Path) -> None:
    base, perturbed, sink, preamble = SEEDED_BUGS[bug]
    first, second = _run_children([base, perturbed], tmp_path, preamble)
    assert sink in _differences(first, second), f"{perturbed} did not catch {bug}"
