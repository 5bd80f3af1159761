"""The seven benchmark workloads, built from the simulator's public API.

A workload is a list of :class:`Cell` — one simulator run each — plus the
way a timed repeat executes them: directly (``ClusterSimulator.run`` /
``run_sharded``) for the single-run workloads, through
``ExperimentRunner.run_many`` / ``ParallelRunner.run_many`` for the two
matrices.  The same cell list drives the scalar-python reference pass and
the traced pass, so every path is checked against, and attributed on,
identical configurations.

Sizes are fixed here and stated in ``bench/README.md``; they are about
half the defaults of the paper kernels so that five or more repeats of
every workload fit the driver's per-run budget.
"""

from __future__ import annotations

import math
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Optional

from repro import (
    AdaptiveQuantumPolicy,
    CgWorkload,
    EpWorkload,
    ExperimentRunner,
    FixedQuantumPolicy,
    IsWorkload,
    LuWorkload,
    MgWorkload,
    NamdWorkload,
    NetworkController,
    ParallelRunner,
    PAPER_NETWORK,
    PolicySpec,
    SimulatedNode,
    TraceConfig,
    ground_truth_policy,
    paper_policies,
)
import repro.checkpoint.snapshot as snapshot_module
from repro.checkpoint import CheckpointConfig, CheckpointStore
from repro.core.cluster import ClusterConfig, ClusterSimulator, RunResult
from repro.service import ArrivalProfile, ServiceWorkload
from repro.shard import run_sharded

from bench import spans

US = 1_000
FARM_WORKERS = 2
SHARDS = 2


def _fixed(quantum_us: int) -> Callable[[], Any]:
    return lambda: FixedQuantumPolicy(quantum_us * US)


def _dyn(inc: float) -> Callable[[], Any]:
    return lambda: AdaptiveQuantumPolicy(US, 1000 * US, inc=inc, dec=0.02)


# --------------------------------------------------------------------- #
# Cells: one simulator run, built directly
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Cell:
    """One simulator run of a workload.

    ``ref`` names the configuration whose scalar-python result this run
    must reproduce; cells that differ only in a result-neutral ``mode``
    share it.
    """

    key: str
    ref: str
    workload: Callable[[int], Any]  # seed -> fresh repro Workload
    size: int
    policy: Callable[[], Any]
    mode: str = "plain"  # plain | trace | checkpoint | check | shard
    label: str = ""


@dataclass
class CellRun:
    result: RunResult
    setup_s: float
    wall_s: float
    sim: ClusterSimulator
    degraded: Optional[str] = None
    snapshots: int = 0


def build_sim(
    cell: Cell,
    seed: int,
    backend: str,
    vectorized: bool | str,
    scratch: Path,
    checkpoint_every: int,
) -> ClusterSimulator:
    apps = cell.workload(seed).build_apps(cell.size)
    nodes = [SimulatedNode(rank, app) for rank, app in enumerate(apps)]
    controller = NetworkController(cell.size, PAPER_NETWORK(cell.size))
    checkpoint = None
    if cell.mode == "checkpoint":
        checkpoint = CheckpointConfig(
            str(scratch / "ckpt"),
            every_quanta=checkpoint_every,
            label=cell.key.replace("/", "-"),
        )
    config = ClusterConfig(
        seed=seed,
        vectorized=vectorized,
        backend=backend,
        # Explicit, so no number depends on REPRO_CHECK / REPRO_SHARDS.
        check=cell.mode == "check",
        shards=1,
        trace=TraceConfig() if cell.mode == "trace" else None,
        checkpoint=checkpoint,
    )
    return ClusterSimulator(nodes, controller, cell.policy(), config)


def run_cell(
    cell: Cell,
    seed: int,
    backend: str,
    scratch: Path,
    *,
    vectorized: bool | str = "auto",
    checkpoint_every: int = 10_000,
    recorder: Any = None,
    count_snapshots: bool = False,
) -> CellRun:
    """Build (timed as set-up) and run (timed as wall) one cell.

    With *recorder* the built simulator is span-instrumented first.  A
    run that silently took another path than the cell asked for comes
    back with ``degraded`` set — the caller counts it as a failure.
    """
    started = time.perf_counter()
    sim = build_sim(cell, seed, backend, vectorized, scratch, checkpoint_every)
    snapshots = [0]
    if cell.mode == "checkpoint" and (count_snapshots or recorder is not None):
        # Same behaviour as the driver's default sink, but countable (and
        # wrappable): ``checkpoint_sink`` is the public hook for this.
        checkpoint = sim.config.checkpoint
        store = CheckpointStore(checkpoint.directory)
        save = store.save
        if recorder is not None:
            save = recorder.wrapper("checkpoint.store_save", save)

        def sink(snapshot: Any) -> None:
            snapshots[0] += 1
            save(checkpoint.label, snapshot, key=checkpoint.key)

        sim.checkpoint_sink = sink
    if recorder is not None:
        spans.instrument(sim, recorder)
    setup_s = time.perf_counter() - started

    degraded = None
    if sim.backend != backend:
        degraded = f"asked for backend {backend}, {sim.backend} ran"
    if cell.mode == "shard":
        # run_sharded takes a factory so it can re-run serially after a
        # worker failure; here that fallback is a failed operation, so the
        # factory hands out the one pre-built simulator and a second call
        # raises.
        built = [sim]
        started = time.perf_counter()
        if recorder is not None:
            with recorder.span(spans.ROOT):
                outcome = run_sharded(built.pop, shards=SHARDS)
        else:
            outcome = run_sharded(built.pop, shards=SHARDS)
        wall_s = time.perf_counter() - started
        result = outcome.result
        if outcome.shards != SHARDS or outcome.fallback_reason:
            degraded = f"asked for {SHARDS} shards, got {outcome.shards}: {outcome.fallback_reason}"
    else:
        started = time.perf_counter()
        if recorder is not None and cell.mode == "checkpoint":
            with spans.patched(
                snapshot_module, "capture_snapshot", recorder, "checkpoint.capture"
            ):
                result = sim.run()
        else:
            result = sim.run()
        wall_s = time.perf_counter() - started
    if sim.collector is not None:
        sim.collector.close()
    return CellRun(result, setup_s, wall_s, sim, degraded, snapshots[0])


# --------------------------------------------------------------------- #
# Repeats: what one timed pass of a workload executes
# --------------------------------------------------------------------- #


@dataclass
class Repeat:
    setup_s: float = 0.0
    wall_s: float = 0.0
    results: dict[str, RunResult] = field(default_factory=dict)
    degraded: list[str] = field(default_factory=list)
    #: accuracy_err_pct / modelled_speedup_x (matrix workloads only).
    simulated: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Spec:
    name: str
    backend: str
    cells: Callable[[bool], list[Cell]]
    repeat: Callable[["Spec", int, Path, bool], Repeat]
    #: The simulators live in worker processes (pool / shards), so peak
    #: RSS is the largest of this process and its children.
    uses_workers: bool = False
    #: Workload-derived per-layer metrics of the traced pass:
    #: ``(spec, seed, scratch, smoke, untraced runs, recorder) -> metrics``.
    layers: Optional[Callable[..., dict[str, float]]] = None


def snapshot_cadence(smoke: bool) -> int:
    """Snapshot cadence in quanta: three snapshots per modes32 run."""
    return 100 if smoke else 10_000


def direct_repeat(spec: Spec, seed: int, scratch: Path, smoke: bool) -> Repeat:
    out = Repeat()
    for cell in spec.cells(smoke):
        run = run_cell(
            cell, seed, spec.backend, scratch, checkpoint_every=snapshot_cadence(smoke)
        )
        out.setup_s += run.setup_s
        out.wall_s += run.wall_s
        out.results[cell.key] = run.result
        if run.degraded:
            out.degraded.append(f"{cell.key}: {run.degraded}")
    return out


def _requests(cells: list[Cell], seed: int) -> list[list[tuple[Any, int, PolicySpec]]]:
    """The cells as harness requests, one batch per kernel (the grouping
    ``run_matrix`` uses: one ``run_many`` wave per workload)."""
    batches: dict[Any, list] = {}
    for cell in cells:
        # A kernel's cells share one factory, hence one workload instance.
        batch = batches.setdefault(cell.workload, [])
        workload = batch[0][0] if batch else cell.workload(seed)
        batch.append((workload, cell.size, PolicySpec(cell.label, cell.policy)))
    return list(batches.values())


def _simulated(runner: ExperimentRunner, batches: list, records: list) -> dict[str, float]:
    """Mean accuracy error and geometric-mean modelled speedup of the
    adaptive rows against the 1 us ground truth of their (kernel, size)."""
    flat = [request for batch in batches for request in batch]
    truth_label = ground_truth_policy().label
    for (workload, _size, spec), record in zip(flat, records):
        if spec.label == truth_label:
            runner.adopt_ground_truth(workload, record)
    errors, speedups = [], []
    for (workload, _size, spec), record in zip(flat, records):
        if spec.label.startswith("dyn"):
            row = runner.compare(workload, record)
            errors.append(100.0 * row.accuracy_error)
            speedups.append(row.speedup)
    return {
        "accuracy_err_pct": sum(errors) / len(errors),
        "modelled_speedup_x": math.exp(sum(math.log(s) for s in speedups) / len(speedups)),
    }


def _matrix_repeat(
    runner: ExperimentRunner, cells: list[Cell], seed: int, out: Repeat
) -> Repeat:
    batches = _requests(cells, seed)
    records = []
    started = time.perf_counter()
    for batch in batches:
        records.extend(runner.run_many(batch))
        for reason in (
            getattr(runner, "last_fallback_reason", None),
            runner.last_backend_fallback_reason,
            runner.last_shard_fallback_reason,
        ):
            if reason:
                out.degraded.append(f"{batch[0][0].name}: {reason}")
    out.wall_s = time.perf_counter() - started
    out.results = {cell.key: record.result for cell, record in zip(cells, records)}
    out.simulated = _simulated(runner, batches, records)
    return out


def paper_repeat(spec: Spec, seed: int, scratch: Path, smoke: bool) -> Repeat:
    out = Repeat()
    started = time.perf_counter()
    runner = ExperimentRunner(seed=seed, check=False, shards=1, backend=spec.backend)
    cells = spec.cells(smoke)
    out.setup_s = time.perf_counter() - started
    return _matrix_repeat(runner, cells, seed, out)


def farm_runner(seed: int, backend: str, cache_dir: Path, workers: int) -> ParallelRunner:
    return ParallelRunner(
        seed=seed, check=False, shards=1, backend=backend,
        max_workers=workers, cache_dir=cache_dir,
    )


def farm_repeat(spec: Spec, seed: int, scratch: Path, smoke: bool) -> Repeat:
    out = Repeat()
    cache_dir = scratch / "farm-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)  # cold: every cell recomputes
    started = time.perf_counter()
    runner = farm_runner(seed, spec.backend, cache_dir, FARM_WORKERS)
    cells = spec.cells(smoke)
    out.setup_s = time.perf_counter() - started
    return _matrix_repeat(runner, cells, seed, out)


# --------------------------------------------------------------------- #
# Workload-derived per-layer metrics (traced pass only)
# --------------------------------------------------------------------- #


def _sim_metrics(simulated: dict[str, float]) -> dict[str, float]:
    return {f"sim.{name}": value for name, value in simulated.items()}


def paper_layers(
    spec: Spec, seed: int, scratch: Path, smoke: bool, runs: list[CellRun], recorder: Any
) -> dict[str, float]:
    return _sim_metrics(spec.repeat(spec, seed, scratch, smoke).simulated)


def modes_layers(
    spec: Spec, seed: int, scratch: Path, smoke: bool, runs: list[CellRun], recorder: Any
) -> dict[str, float]:
    """Each mode's wall against one plain run of the same simulator."""
    cells = spec.cells(smoke)
    plain = run_cell(reference_cell(cells[0]), seed, spec.backend, scratch)
    wall = {cell.mode: run.wall_s for cell, run in zip(cells, runs)}
    quanta = plain.sim.perf.event_quanta + plain.sim.perf.ff_quanta
    return {
        "core.plain_wall_s": plain.wall_s,
        "obs.overhead_x": wall["trace"] / plain.wall_s,
        "checkpoint.overhead_x": wall["checkpoint"] / plain.wall_s,
        "analysis.check_overhead_x": wall["check"] / plain.wall_s,
        "shard.speedup_x": plain.wall_s / wall["shard"],
        "shard.barrier_us_per_quantum": 1e6 * (wall["shard"] - plain.wall_s) / quanta,
    }


def farm_layers(
    spec: Spec, seed: int, scratch: Path, smoke: bool, runs: list[CellRun], recorder: Any
) -> dict[str, float]:
    """The farm path itself: cold 2-worker pass (cache calls spanned in the
    parent), warm reruns over the filled cache, and the serial pass the
    farm is a speedup over."""
    cells = spec.cells(smoke)
    cache_dir = scratch / "farm-layers"
    runner = farm_runner(seed, spec.backend, cache_dir, FARM_WORKERS)
    recorder.wrap(runner.cache, "get", "harness.cache_get")
    recorder.wrap(runner.cache, "put", "harness.cache_put")
    with recorder.span("harness.run_many"):
        cold = _matrix_repeat(runner, cells, seed, Repeat())
    hits, misses = runner.cache.hits, runner.cache.misses
    warm = [
        _matrix_repeat(runner, cells, seed, Repeat()).wall_s
        for _ in range(3 if smoke else 20)
    ]
    hits, misses = runner.cache.hits - hits, runner.cache.misses - misses
    serial = _matrix_repeat(
        farm_runner(seed, spec.backend, scratch / "farm-serial", 1), cells, seed, Repeat()
    )
    return {
        "harness.farm_speedup_x": serial.wall_s / cold.wall_s,
        "harness.warm_matrix_ms": 1e3 * statistics.median(warm),
        "harness.cache_hit_ratio": hits / (hits + misses),
        "harness.pool_fallbacks": len(cold.degraded),
        **_sim_metrics(cold.simulated),
    }


# --------------------------------------------------------------------- #
# The workloads
# --------------------------------------------------------------------- #


def kernels(smoke: bool) -> dict[str, Callable[[int], Any]]:
    """The paper's six kernels at the benchmark's sizes (seed unused: the
    kernels are deterministic programs; the seed reaches the host model)."""
    if smoke:
        return {
            "EP": lambda seed: EpWorkload(total_ops=1.6e8, chunks=2),
            "IS": lambda seed: IsWorkload(total_keys=2**16, iterations=1),
            "CG": lambda seed: CgWorkload(iterations=1),
            "MG": lambda seed: MgWorkload(cycles=1, levels=2),
            "LU": lambda seed: LuWorkload(timesteps=1),
            "NAMD": lambda seed: NamdWorkload(timesteps=1),
        }
    return {
        "EP": lambda seed: EpWorkload(),
        "IS": lambda seed: IsWorkload(iterations=5),
        "CG": lambda seed: CgWorkload(iterations=8),
        "MG": lambda seed: MgWorkload(cycles=2),
        "LU": lambda seed: LuWorkload(timesteps=10),
        "NAMD": lambda seed: NamdWorkload(timesteps=6),
    }


def _matrix_cells(sizes: tuple[int, ...], specs: list[PolicySpec], smoke: bool) -> list[Cell]:
    truth = ground_truth_policy()
    cells = []
    for kernel, factory in kernels(smoke).items():
        for size in sizes:
            for spec in [truth, *specs]:
                key = f"{kernel}/n{size}/{spec.label}"
                cells.append(Cell(key, key, factory, size, spec.factory, label=spec.label))
    return cells


def gt64_cells(smoke: bool) -> list[Cell]:
    if smoke:
        size = 8
        runs = {
            "IS": lambda seed: IsWorkload(total_keys=2**16, iterations=1),
            "NAMD": lambda seed: NamdWorkload(timesteps=1),
        }
    else:
        size = 64
        runs = {
            "IS": lambda seed: IsWorkload(total_keys=2**24, iterations=3),
            "NAMD": lambda seed: NamdWorkload(timesteps=6),
        }
    return [
        Cell(f"{name}/n{size}/1", f"{name}/n{size}/1", factory, size, _fixed(1))
        for name, factory in runs.items()
    ]


def service_workload(num_requests: int) -> Callable[[int], Any]:
    profile = ArrivalProfile(
        rate_per_sec=400_000.0, num_requests=num_requests, diurnal_amplitude=0.3
    )
    return lambda seed: ServiceWorkload(profile=profile, seed=seed)


def service8_cells(smoke: bool) -> list[Cell]:
    requests = 100 if smoke else 2_500
    key = f"SVC{requests}/n8/1k"
    return [Cell(key, key, service_workload(requests), 8, _fixed(1000))]


def paper8_cells(smoke: bool) -> list[Cell]:
    specs = [
        PolicySpec("dyn 1k 1.03:0.02", _dyn(1.03)),
        PolicySpec("dyn 1k 1.05:0.02", _dyn(1.05)),
        PolicySpec("1k", _fixed(1000)),
    ]
    return _matrix_cells((8,), specs, smoke)


def farm_cells(smoke: bool) -> list[Cell]:
    return _matrix_cells((2, 4), paper_policies(), smoke)


def modes32_cells(smoke: bool) -> list[Cell]:
    if smoke:
        size, factory = 16, lambda seed: IsWorkload(total_keys=2**16, iterations=1)
    else:
        size, factory = 32, lambda seed: IsWorkload(total_keys=2**22, iterations=5)
    ref = f"IS/n{size}/1"
    return [
        Cell(f"{ref}/{mode}", ref, factory, size, _fixed(1), mode=mode)
        for mode in ("trace", "checkpoint", "check", "shard")
    ]


SPECS = {
    spec.name: spec
    for spec in (
        Spec("gt64_py", "python", gt64_cells, direct_repeat),
        Spec("gt64_native", "native", gt64_cells, direct_repeat),
        Spec("service8_py", "python", service8_cells, direct_repeat),
        Spec("service8_native", "native", service8_cells, direct_repeat),
        Spec("paper8_matrix", "python", paper8_cells, paper_repeat, layers=paper_layers),
        Spec("farm_matrix", "python", farm_cells, farm_repeat, True, farm_layers),
        Spec("modes32", "python", modes32_cells, direct_repeat, True, modes_layers),
    )
}


def reference_cell(cell: Cell) -> Cell:
    """The plain-mode twin the scalar-python reference pass runs."""
    return replace(cell, key=cell.ref, mode="plain")


def service_requests(result: RunResult) -> Optional[tuple[int, int]]:
    """``(issued, completed)`` when *result* is a service run, else None."""
    source = result.app_results[0] if result.app_results else None
    if isinstance(source, dict) and "latencies" in source:
        return source["issued"], len(source["latencies"])
    return None
