"""The repository's benchmark: seven workloads, end to end and by layer.

Two ways in:

``python bench/run.py [--seed 42] [--repeats N] [--workload NAME] [--smoke]``
    runs every workload (or the named ones) in its own sequential child
    process, first with tracing off for the end-to-end metrics, then the
    traced attribution pass, prints every metric by name with its unit,
    checks outputs against the scalar-python reference, and writes
    ``bench/out/results.json`` for ``bench/compare.py``.

``python bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    is the form the PR driver calls: one workload, one pass, and as the
    last line of stdout one JSON object
    ``{"correct", "attempted", "failed", "metrics"}`` holding every
    end-to-end metric (``--trace 0``) or every per-layer metric
    (``--trace 1``) declared in ``bench/registry.py`` / ``BENCHMARK.json``.

The benchmark imports ``repro`` from the ``src/`` tree next to it and
nowhere else; it exits non-zero without a result when that tree is absent.
Everything it writes goes under ``bench/out/`` (plus the git-ignored
compiled engine module the native workloads build).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"bench/run.py: no simulator source at {SRC}; nothing to benchmark")
for _path in (SRC, ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy  # noqa: E402
from repro.engine.backend import build_native  # noqa: E402
from repro.service.workload import nearest_rank_us  # noqa: E402

from bench import layers, registry, spans, workloads  # noqa: E402

#: Operator knobs of the simulator that must not leak into a measurement.
_ENV_KNOBS = (
    "REPRO_CHECK", "REPRO_SHARDS", "REPRO_BACKEND", "REPRO_PARALLEL",
    "REPRO_CACHE_DIR", "REPRO_NO_NATIVE",
)


def prepare_environment() -> None:
    # Pool workers and the import-timing children import the same tree.
    os.environ["PYTHONPATH"] = os.pathsep.join((str(SRC), str(ROOT)))
    for knob in _ENV_KNOBS:
        os.environ.pop(knob, None)
    OUT.mkdir(parents=True, exist_ok=True)


def host_info() -> dict[str, Any]:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "load_avg_1m": os.getloadavg()[0],
    }


# --------------------------------------------------------------------- #
# Output check and operation accounting
# --------------------------------------------------------------------- #


class Tally:
    """Attempted / failed operations of one invocation.

    An operation is one simulator run (one matrix cell); service runs add
    one operation per issued request, failed when it never completed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check(self, key: str, result: Any, reference: Any) -> None:
        self.attempted += 1
        if result is None:
            self.fail(f"{key}: no result")
            return
        if not result.completed:
            self.fail(f"{key}: ended with completed=False")
        elif result != reference:
            self.fail(f"{key}: RunResult differs from the scalar-python reference")
        requests = workloads.service_requests(result)
        if requests is not None:
            issued, completed = requests
            self.attempted += issued
            if completed < issued:
                self.failed += issued - completed
                self.problems.append(f"{key}: {issued - completed} requests never completed")

    def check_repeat(self, cells: list, repeat: Any, reference: dict) -> None:
        for cell in cells:
            self.check(cell.key, repeat.results.get(cell.key), reference[cell.ref][0])
        for problem in repeat.degraded:
            # A degraded run is a failure, never a quiet timing of another path.
            self.fail(f"degraded: {problem}")


def reference_pass(spec: Any, seed: int, scratch: Path, smoke: bool) -> dict[str, tuple[Any, int]]:
    """``{ref: (RunResult, events)}`` from the scalar-python stepper, one
    run per distinct configuration of the workload."""
    reference: dict[str, tuple[Any, int]] = {}
    for cell in spec.cells(smoke):
        if cell.ref in reference:
            continue
        run = workloads.run_cell(
            workloads.reference_cell(cell), seed, "python", scratch, vectorized=False
        )
        if not run.result.completed:
            sys.exit(f"{spec.name}: reference run {cell.ref} did not complete")
        reference[cell.ref] = (run.result, run.sim.perf.events)
    return reference


def digest_of(results: dict[str, Any]) -> str:
    sha = hashlib.sha256()
    for key in sorted(results):
        sha.update(key.encode())
        sha.update(repr(results[key]).encode())
    return sha.hexdigest()


def ensure_native(force: bool) -> float:
    """Build the compiled engine core; returns the seconds it took."""
    started = time.perf_counter()
    try:
        build_native(force=force)
    except (RuntimeError, FileNotFoundError) as error:
        sys.exit(f"native build failed, refusing to time another path: {error}")
    return time.perf_counter() - started


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # Linux reports KiB


def summary(samples: list[float]) -> dict[str, Any]:
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


# --------------------------------------------------------------------- #
# The two passes of one workload
# --------------------------------------------------------------------- #


def end_to_end(
    spec: Any, seed: int, seconds: float, repeats: Optional[int], smoke: bool, scratch: Path
) -> dict[str, Any]:
    """Tracing off: reference pass, one warm-up repeat, then timed repeats
    for *seconds* (at least ``MIN_REPEATS``, or exactly *repeats*)."""
    build_s = ensure_native(force=not smoke) if spec.backend == "native" else 0.0
    import_s = layers.import_seconds(1 if smoke else 3)
    cells = spec.cells(smoke)
    reference = reference_pass(spec, seed, scratch, smoke)
    events = sum(reference[cell.ref][1] for cell in cells)

    tally = Tally()
    warm = spec.repeat(spec, seed, scratch, smoke)
    tally.check_repeat(cells, warm, reference)

    minimum = 2 if smoke else registry.MIN_REPEATS
    timed = []
    started = time.perf_counter()
    while True:
        repeat = spec.repeat(spec, seed, scratch, smoke)
        tally.check_repeat(cells, repeat, reference)
        timed.append(repeat)
        if repeats is not None:
            if len(timed) >= repeats:
                break
        elif len(timed) >= minimum and time.perf_counter() - started >= seconds:
            break

    wall = summary([r.wall_s for r in timed])
    construct = summary([r.setup_s for r in timed])
    metrics = {
        "wall_s": wall["median"],
        "events_per_s": events / wall["median"],
        "peak_rss_mb": peak_rss_mb(spec.uses_workers),
        "setup_s": import_s + build_s + construct["median"],
    }
    exact = {"failed_share": tally.failed / tally.attempted, **warm.simulated}
    return {
        "metrics": metrics,
        "exact": exact,
        "tally": tally,
        "events": events,
        "result_digest": digest_of(warm.results),
        "spread": {
            "wall_s": wall,
            "events_per_s": summary([events / r.wall_s for r in timed]),
            "construction_s": construct,
        },
        "setup_parts": {"import_s": import_s, "native_build_s": build_s,
                        "construction_s": construct["median"]},
    }


def counts_of(runs: list) -> dict[str, float]:
    """Exact counts of a pass over a workload's cells: identical traced or
    not, and identical between two commits unless behaviour changed."""
    perf = [run.sim.perf for run in runs]
    stats = [run.result.controller_stats for run in runs]
    event_quanta = sum(p.event_quanta for p in perf)
    ff_quanta = sum(p.ff_quanta for p in perf)
    stepped = sum(p.stepped_node_quanta for p in perf)
    skipped = sum(p.skipped_node_quanta for p in perf)
    packets = sum(s.packets_routed for s in stats)
    completed, p99 = 0, 0.0
    for run in runs:
        requests = workloads.service_requests(run.result)
        if requests is not None:
            completed += requests[1]
            p99 = nearest_rank_us(run.result.app_results[0]["latencies"], 99.0)
    collectors = [run.sim.collector for run in runs if run.sim.collector is not None]
    return {
        "core.event_quanta": event_quanta,
        "core.ff_quanta": ff_quanta,
        "core.ff_spans": sum(p.ff_spans for p in perf),
        "core.ff_quanta_ratio": ff_quanta / max(1, event_quanta + ff_quanta),
        "core.subset_windows": sum(p.subset_windows for p in perf),
        "core.skipped_node_quanta_ratio": skipped / max(1, stepped + skipped),
        "engine.events": sum(p.events for p in perf),
        "network.packets_routed": packets,
        "network.straggler_ratio": sum(s.stragglers for s in stats) / max(1, packets),
        "service.completed_requests": completed,
        "service.p99_us": p99,
        "obs.events_emitted": sum(sum(c.counts.values()) for c in collectors),
        "obs.events_dropped": sum(c.dropped for c in collectors),
        "checkpoint.snapshots": sum(run.snapshots for run in runs),
        "shard.fallbacks": sum(
            1 for run in runs if run.degraded and "shards" in run.degraded
        ),
    }


def traced(spec: Any, seed: int, smoke: bool, scratch: Path) -> dict[str, Any]:
    """The attribution pass: the workload's cells untraced, then with
    spans around every layer boundary, plus the isolated microbenchmarks."""
    ensure_native(force=False)  # the native microbenchmarks need the module
    cells = spec.cells(smoke)
    every = workloads.snapshot_cadence(smoke)

    def one_pass(recorder: Any) -> list:
        return [
            workloads.run_cell(
                cell, seed, spec.backend, scratch,
                checkpoint_every=every, recorder=recorder, count_snapshots=True,
            )
            for cell in cells
        ]

    plain = one_pass(None)
    recorder = spans.SpanRecorder()
    spanned = one_pass(recorder)

    tally = Tally()
    for cell, before, after in zip(cells, plain, spanned):
        tally.check(cell.key, after.result, before.result)
        for run in (before, after):
            if run.degraded:
                tally.fail(f"degraded: {cell.key}: {run.degraded}")
    counts = counts_of(plain)
    if counts_of(spanned) != counts:
        tally.fail("exact counts differ between the traced and the untraced pass")

    metrics = dict.fromkeys(registry.PER_LAYER_NAMES, 0.0)
    metrics.update(counts)
    self_ns, total_ns = recorder.self_times()
    metrics.update(spans.shares(self_ns, total_ns))
    quanta = counts["core.event_quanta"] + counts["core.ff_quanta"]
    step_ns = sum(self_ns.get(name, 0) for name in spans.SHARE_SPANS["node.step_share"])
    metrics["core.driver_us_per_quantum"] = self_ns.get(spans.ROOT, 0) / 1e3 / quanta
    metrics["node.us_per_event"] = step_ns / 1e3 / counts["engine.events"]
    wall_plain = sum(run.wall_s for run in plain)
    metrics["bench.trace_overhead_x"] = sum(run.wall_s for run in spanned) / wall_plain

    if spec.layers is not None:
        metrics.update(spec.layers(spec, seed, scratch, smoke, plain, recorder))
    micro = layers.Layers(seed, scratch, smoke)
    metrics.update(micro.run_all())

    trace_file = OUT / f"trace_{spec.name}.json"
    recorder.dump(trace_file, workload=spec.name, seed=seed, backend=spec.backend)
    return {
        "metrics": metrics,
        "exact": {"failed_share": tally.failed / tally.attempted},
        "tally": tally,
        "result_digest": digest_of({c.key: r.result for c, r in zip(cells, plain)}),
        "trace_file": str(trace_file.relative_to(ROOT)),
        "layer_spreads": micro.spreads,
    }


def run_one(
    name: str, seed: int, seconds: float, repeats: Optional[int], smoke: bool, trace: int
) -> dict[str, Any]:
    """Run one pass of one workload; prints its metrics, returns the detail."""
    spec = workloads.SPECS[name]
    load = os.getloadavg()[0]
    with tempfile.TemporaryDirectory(prefix="scratch-", dir=OUT) as scratch:
        if trace:
            outcome = traced(spec, seed, smoke, Path(scratch))
        else:
            outcome = end_to_end(spec, seed, seconds, repeats, smoke, Path(scratch))
    declared = registry.PER_LAYER_NAMES if trace else registry.END_TO_END_NAMES
    assert tuple(outcome["metrics"]) == declared, "metric set drifted from bench/registry.py"
    tally = outcome.pop("tally")
    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "load_avg_1m": load,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems[:20],
        **outcome,
        "metrics": {
            metric: {"value": value, "unit": registry.BY_NAME[metric].unit}
            for metric, value in outcome["metrics"].items()
        },
    }
    print_detail(detail)
    return detail


def print_detail(detail: dict[str, Any]) -> None:
    kind = "per-layer (traced)" if detail["trace"] else "end-to-end (tracing off)"
    print(f"== {detail['workload']}  seed={detail['seed']}  {kind}"
          f"  load={detail['load_avg_1m']:.2f}")
    spread = detail.get("spread", {})
    for metric, entry in detail["metrics"].items():
        note = registry.BY_NAME[metric].kind
        if metric in spread:
            s = spread[metric]
            note += f"  q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}"
        print(f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']:<6} {note}")
    for metric, value in detail["exact"].items():
        unit = registry.BY_NAME[metric].unit
        print(f"  {metric:<34} {value:>14.6g} {unit:<6} exact")
    print(f"  {'operations':<34} {detail['attempted']:>14} attempted, {detail['failed']} failed")
    print(f"  {'result_digest':<34} {detail['result_digest'][:16]}")
    for problem in detail["problems"]:
        print(f"  PROBLEM: {problem}")


# --------------------------------------------------------------------- #
# All workloads
# --------------------------------------------------------------------- #


def run_child(name: str, args: argparse.Namespace, trace: int) -> dict[str, Any]:
    """One pass of one workload in its own process (clean RSS, clean caches)."""
    with tempfile.TemporaryDirectory(prefix="detail-", dir=OUT) as folder:
        detail = Path(folder) / "detail.json"
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--detail", str(detail),
        ]
        if args.repeats is not None:
            command += ["--repeats", str(args.repeats)]
        finished = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        # Everything but the driver's JSON line is for the reader.
        sys.stdout.write("".join(finished.stdout.splitlines(keepends=True)[:-1]))
        sys.stdout.flush()
        if finished.returncode != 0:
            sys.exit(f"{name} (trace={trace}) exited with {finished.returncode}")
        return json.loads(detail.read_text())


def run_all(names: list[str], args: argparse.Namespace) -> int:
    report: dict[str, Any] = {
        "schema": "repro-bench-layers/1",
        "seed": args.seed,
        "smoke": args.smoke,
        "host": host_info(),
        "workloads": {},
    }
    print("host:", json.dumps(report["host"]))
    for name in names:
        if args.smoke:
            # Tiny inputs, one process: the smoke run checks plumbing and
            # metric names, not numbers, so process isolation buys nothing.
            passes = [run_one(name, args.seed, 0.0, 2, True, trace) for trace in (0, 1)]
        else:
            passes = [run_child(name, args, trace) for trace in (0, 1)]
        report["workloads"][name] = {"end_to_end": passes[0], "per_layer": passes[1]}
    target = Path(args.out) if args.out else OUT / "results.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(report, indent=1) + "\n")
    print(f"[saved to {target}]")
    failed = [
        f"{name}/{kind}"
        for name, passes in report["workloads"].items()
        for kind, detail in passes.items()
        if not detail["correct"]
    ]
    if failed:
        print("FAILED output checks:", ", ".join(failed))
    return 1 if failed else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=registry.WORKLOAD_NAMES,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=float(registry.RUN_SECONDS),
                        help="how long the timed repeats of one pass run")
    parser.add_argument("--repeats", type=int, default=None,
                        help="exact number of timed repeats (overrides --seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver form: one pass, JSON result as the last line")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; checks plumbing and metric names")
    parser.add_argument("--detail", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--out", default=None,
                        help="where the all-workloads report goes "
                             "(default bench/out/results.json)")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from bench/registry.py and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(registry.manifest(), indent=2) + "\n")
        return 0
    prepare_environment()
    if args.trace is None:
        return run_all(args.workload or list(registry.WORKLOAD_NAMES), args)
    if not args.workload or len(args.workload) != 1:
        parser.error("--trace needs exactly one --workload")
    detail = run_one(
        args.workload[0], args.seed, args.seconds, args.repeats, args.smoke, args.trace
    )
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail))
    print(json.dumps({key: detail[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
