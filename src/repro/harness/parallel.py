"""Parallel experiment farm: process-pool fan-out + persistent result cache.

The paper distributes its node simulators over a sixteen-blade farm
(Section 6); this module does the analogous thing to the *experiments
themselves*.  Every run of the harness — a (workload, size, policy, seed)
configuration — is independent: it builds a fresh cluster, spawns its own
RNG streams from the root seed, and touches no shared state.  That makes
the experiment matrix embarrassingly parallel, and it makes every result a
pure function of its configuration — cacheable on disk forever.

Two pieces:

* :class:`ParallelRunner` — a drop-in :class:`ExperimentRunner` whose
  :meth:`~repro.harness.experiment.ExperimentRunner.run_many` fans the
  batch out over a :class:`concurrent.futures.ProcessPoolExecutor`.
  Results are returned in request order regardless of completion order,
  so the parallel path is **bit-identical** to the serial one (each run is
  deterministic given its spec).  ``max_workers=1`` or the environment
  variable ``REPRO_PARALLEL=0`` force the serial path; a crashed worker
  pool is rebuilt once and then degrades to in-process recomputation
  instead of losing the batch (the reason is surfaced via
  ``last_fallback_reason`` and the progress stream); Ctrl-C cancels
  outstanding work promptly.

* :class:`DiskResultCache` — a persistent ground-truth/result cache under
  ``.repro_cache/`` (override with ``REPRO_CACHE_DIR``), keyed by a stable
  SHA-256 over the full configuration: workload class + parameters, size,
  policy class + parameters, and the result-shaping group of
  :class:`~repro.harness.settings.RunnerSettings` (seed, host-model
  calibration, barrier model, latency calibration, transport, faults),
  plus a cache format version.  Entries are one JSON file each, written
  atomically (temp-file + rename); an entry whose version or key payload does not
  match is ignored and recomputed (then overwritten), and one that fails
  to parse is quarantined to ``<key>.corrupt``, so stale or corrupted
  files can never poison a result.  The expensive 1 us
  ground-truth runs are therefore computed once per machine, not once per
  benchmark script.

Runs that record a traffic trace or a bucket timeline are never cached
(those artefacts are not round-trippable through the JSON schema); they
simply recompute, bit-identically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.checkpoint.store import quarantine, write_atomic
from repro.core.cluster import RunResult
from repro.core.quantum import QuantumPolicy, QuantumStats
from repro.core.stats import HostCostBreakdown
from repro.faults.injector import FaultStats
from repro.harness.configs import PolicySpec
from repro.harness.experiment import ExperimentRecord, ExperimentRunner
from repro.harness.settings import (
    RunnerSettings,
    Uncacheable,
    _describe_component,
    _jsonable,
)
from repro.harness.supervise import retry_transient
from repro.network.controller import ControllerStats
from repro.node.node import NodeStats
from repro.node.transport import TransportStats
from repro.workloads.base import Workload

#: Bump whenever the cached-record schema or run semantics change; every
#: older cache entry is then ignored and recomputed.
CACHE_VERSION = 1

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"


@dataclass(frozen=True)
class RunSpec:
    """One fully-resolved run, picklable for worker processes.

    The policy is carried as a *built* instance (policies are pure state
    machines), because :class:`~repro.harness.configs.PolicySpec` factories
    are usually lambdas, which do not pickle.
    """

    workload: Workload
    size: int
    policy: QuantumPolicy
    label: str
    settings: RunnerSettings
    cache_dir: Optional[str] = None

    def key_payload(self) -> dict:
        return {
            "cache_version": CACHE_VERSION,
            "workload": _describe_component(self.workload),
            "size": self.size,
            "policy": _describe_component(self.policy),
            "label": self.label,
            "runner": self.settings.key_fragment(self.size),
        }


# --------------------------------------------------------------------- #
# Record (de)serialization
# --------------------------------------------------------------------- #


def record_to_json(record: ExperimentRecord) -> dict:
    """Encode a finished record as plain JSON (no trace/timeline)."""
    result = record.result
    if result.timeline is not None or record.trace is not None or record.obs is not None:
        raise Uncacheable("runs with traces or timelines are not cacheable")
    encoded = {
        "sim_time": result.sim_time,
        "host_time": result.host_time,
        "completed": result.completed,
        "breakdown": dataclasses.asdict(result.breakdown),
        "quantum_stats": dataclasses.asdict(result.quantum_stats),
        "controller_stats": dataclasses.asdict(result.controller_stats),
        "node_stats": [dataclasses.asdict(s) for s in result.node_stats],
        "app_results": _jsonable(result.app_results),
        "app_finish_times": list(result.app_finish_times),
    }
    # Optional fault/recovery blocks: written only when present, so the
    # cached bytes of fault-free runs are unchanged from older versions.
    if result.fault_stats is not None:
        encoded["fault_stats"] = dataclasses.asdict(result.fault_stats)
    if result.transport_stats is not None:
        encoded["transport_stats"] = [
            dataclasses.asdict(s) for s in result.transport_stats
        ]
    return {
        "workload_name": record.workload_name,
        "size": record.size,
        "policy_label": record.policy_label,
        "seed": record.seed,
        "metric": record.metric,
        "result": encoded,
    }


def record_from_json(payload: dict) -> ExperimentRecord:
    """Rebuild an :class:`ExperimentRecord` written by :func:`record_to_json`."""
    res = payload["result"]
    result = RunResult(
        sim_time=res["sim_time"],
        host_time=res["host_time"],
        completed=res["completed"],
        breakdown=HostCostBreakdown(**res["breakdown"]),
        quantum_stats=QuantumStats(**res["quantum_stats"]),
        controller_stats=ControllerStats(**res["controller_stats"]),
        node_stats=[NodeStats(**stats) for stats in res["node_stats"]],
        app_results=res["app_results"],
        app_finish_times=res["app_finish_times"],
        timeline=None,
        fault_stats=(
            FaultStats(**res["fault_stats"]) if "fault_stats" in res else None
        ),
        transport_stats=(
            [TransportStats(**stats) for stats in res["transport_stats"]]
            if "transport_stats" in res
            else None
        ),
    )
    return ExperimentRecord(
        workload_name=payload["workload_name"],
        size=payload["size"],
        policy_label=payload["policy_label"],
        seed=payload["seed"],
        metric=payload["metric"],
        result=result,
        trace=None,
    )


# --------------------------------------------------------------------- #
# Disk cache
# --------------------------------------------------------------------- #


class DiskResultCache:
    """Persistent per-machine store of finished experiment records.

    One JSON file per configuration under *root*, named by the SHA-256 of
    the canonical key payload.  Every file embeds its version and its full
    key payload; :meth:`get` verifies both and treats any mismatch (format
    bump, hash collision, truncation, hand-editing) as a miss — the entry
    is recomputed and overwritten, never trusted.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_of(payload: dict) -> str:
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:32]

    def _path(self, payload: dict) -> Path:
        return self.root / f"{self.key_of(payload)}.json"

    def get(self, payload: dict) -> Optional[ExperimentRecord]:
        """The cached record for *payload*, or None on any mismatch.

        Entries that fail to *parse* — truncated writes, disk corruption,
        hand-editing gone wrong — are quarantined to ``<key>.corrupt`` so
        they stop being re-read on every lookup and stay inspectable.
        Entries that parse but carry a stale version or foreign key are
        plain misses: they are valid files that :meth:`put` overwrites.
        """
        # Round-trip the expected payload through JSON so the comparison
        # below is canonical (tuples become lists, etc.).
        expected = json.loads(json.dumps(payload))
        path = self._path(payload)
        try:
            raw = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            entry = json.loads(raw)
            if not isinstance(entry, dict):
                raise ValueError("cache entry is not a JSON object")
        except ValueError:
            quarantine(path)
            self.misses += 1
            return None
        if entry.get("cache_version") != CACHE_VERSION or entry.get("key") != expected:
            self.misses += 1
            return None
        try:
            record = record_from_json(entry["record"])
        except (ValueError, KeyError, TypeError):
            quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, payload: dict, record: ExperimentRecord) -> bool:
        """Store *record*; returns False when it cannot be serialized."""
        try:
            entry = {
                "cache_version": CACHE_VERSION,
                "key": payload,
                "record": record_to_json(record),
            }
            body = json.dumps(entry)
        except Uncacheable:
            return False
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            write_atomic(self._path(payload), body.encode())
        except OSError:
            return False  # unwritable cache root: the run still succeeds
        return True


# --------------------------------------------------------------------- #
# Worker entry point
# --------------------------------------------------------------------- #


def _pickle_error(specs: list[RunSpec], pending: list[int]) -> Optional[str]:
    """Why the pending specs cannot ship to a worker process (None = fine)."""
    try:
        pickle.dumps([specs[index] for index in pending])
    except Exception as error:
        return f"{type(error).__name__}: {error}"
    return None


def _execute(index: int, spec: RunSpec) -> tuple[int, ExperimentRecord, float]:
    """Run one spec in a worker process; also populates the disk cache."""
    started = time.perf_counter()
    runner = ExperimentRunner(spec.settings)
    record = runner.run(spec.workload, spec.size, spec.policy, label=spec.label)
    wall = time.perf_counter() - started
    if spec.cache_dir is not None:
        DiskResultCache(spec.cache_dir).put(spec.key_payload(), record)
    return index, record, wall


# --------------------------------------------------------------------- #
# The parallel runner
# --------------------------------------------------------------------- #


def resolve_workers(max_workers: Optional[int]) -> int:
    """Worker count after applying the ``REPRO_PARALLEL`` override.

    ``REPRO_PARALLEL=0`` (or ``false``/``no``/``off``) forces the serial
    path; a positive integer pins the pool size; unset defers to
    *max_workers* (``None`` = one worker per CPU).
    """
    env = os.environ.get("REPRO_PARALLEL")
    if env is not None:
        value = env.strip().lower()
        if value in ("0", "false", "no", "off"):
            return 1
        if value.isdigit():
            return max(1, int(value))
    if max_workers is not None:
        return max(1, max_workers)
    return os.cpu_count() or 1


class ParallelRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` that farms batches over processes.

    Single-run methods (:meth:`run_spec`, :meth:`ground_truth`, ...) stay
    in-process but consult the disk cache; batch entry points
    (:meth:`run_many`, and everything built on it — ``run_matrix``, the
    artefact entries of :mod:`repro.harness.artefacts`) fan out.

    Args are :class:`ExperimentRunner`'s (a settings object and/or its
    knobs by keyword), plus the four farm parameters:
        max_workers: pool size (None = CPU count; 1 = serial).
        use_cache: enable the persistent result cache (automatically
            disabled for trace/timeline-recording runners).
        cache_dir: cache location (default ``.repro_cache/`` or
            ``$REPRO_CACHE_DIR``).
        progress: write one line per finished run to stderr.
    """

    def __init__(
        self,
        settings: Optional[RunnerSettings] = None,
        *,
        max_workers: Optional[int] = None,
        use_cache: bool = True,
        cache_dir: str | os.PathLike | None = None,
        progress: bool = False,
        **knobs,
    ) -> None:
        super().__init__(settings, **knobs)
        self._derive_args = dict(
            max_workers=max_workers, use_cache=use_cache, cache_dir=cache_dir, progress=progress
        )
        self.max_workers = max_workers
        self.progress = progress
        self.cache: Optional[DiskResultCache] = (
            DiskResultCache(cache_dir)
            if use_cache and self.settings.cacheable
            else None
        )
        #: (label, size, wall seconds, source) per run of the last batch.
        self.last_batch_report: list[tuple[str, int, float, str]] = []
        #: Why the last batch degraded from the pool to the serial path
        #: (None when it did not): an unpicklable spec, or a worker pool
        #: that died twice.  Also echoed to stderr under ``progress``.
        self.last_fallback_reason: Optional[str] = None

    # -- small helpers ------------------------------------------------- #

    def _spec_for(self, workload: Workload, size: int, spec: PolicySpec) -> RunSpec:
        return RunSpec(
            workload=workload,
            size=size,
            policy=spec.build(),
            label=spec.label,
            settings=self.settings,
            cache_dir=str(self.cache.root) if self.cache is not None else None,
        )

    def _note(self, done: int, total: int, spec: RunSpec, wall: float, source: str) -> None:
        self.last_batch_report.append((spec.label, spec.size, wall, source))
        if self.progress:
            print(
                f"[{done}/{total}] {spec.workload.name:>6} n={spec.size:<3} "
                f"{spec.label:<18} {wall:7.2f}s  ({source})",
                file=sys.stderr,
                flush=True,
            )

    def _note_fallback(self, reason: str) -> None:
        self.last_fallback_reason = reason
        if self.progress:
            print(f"[pool] {reason}", file=sys.stderr, flush=True)

    def _cache_payload(self, spec: RunSpec) -> Optional[dict]:
        if self.cache is None:
            return None
        try:
            return spec.key_payload()
        except Uncacheable:
            return None  # exotic workload/policy parameters: just recompute

    def _run_local(
        self, spec: RunSpec, payload: Optional[dict]
    ) -> tuple[ExperimentRecord, float]:
        started = time.perf_counter()
        record = self.run(spec.workload, spec.size, spec.policy, label=spec.label)
        wall = time.perf_counter() - started
        if payload is not None:
            assert self.cache is not None
            self.cache.put(payload, record)
        return record, wall

    # -- single-run path (cache-aware) --------------------------------- #

    def run_spec(self, workload: Workload, size: int, spec: PolicySpec) -> ExperimentRecord:
        run_spec = self._spec_for(workload, size, spec)
        payload = self._cache_payload(run_spec)
        if payload is not None:
            cached = self.cache.get(payload)
            if cached is not None:
                return cached
        record, _ = self._run_local(run_spec, payload)
        return record

    # -- batch path ----------------------------------------------------- #

    def run_many(
        self, requests: list[tuple[Workload, int, PolicySpec]]
    ) -> list[ExperimentRecord]:
        """Fan the batch out over the process pool, in request order.

        Cache hits are satisfied without touching the pool; the serial
        fallback (one worker, one pending run, or ``REPRO_PARALLEL=0``)
        runs the identical in-process code path as the base class.
        """
        self.last_batch_report = []
        self.last_fallback_reason = None
        total = len(requests)
        specs = [self._spec_for(w, size, spec) for w, size, spec in requests]
        payloads = [self._cache_payload(spec) for spec in specs]
        records: list[Optional[ExperimentRecord]] = [None] * total

        pending: list[int] = []
        done = 0
        for index, (spec, payload) in enumerate(zip(specs, payloads)):
            cached = self.cache.get(payload) if payload is not None else None
            if cached is not None:
                records[index] = cached
                done += 1
                self._note(done, total, spec, 0.0, "cache")
            else:
                pending.append(index)

        workers = min(resolve_workers(self.max_workers), len(pending))
        if workers > 1:
            # A spec may not cross the process boundary (e.g. a lambda
            # latency factory).  Checking up front — instead of letting the
            # executor's feeder thread hit the error — avoids a CPython
            # shutdown deadlock (gh-105829) and keeps the batch alive.
            reason = _pickle_error(specs, pending)
            if reason is not None:
                self._note_fallback(
                    f"specs are not picklable, running serially ({reason})"
                )
                workers = 0
        if workers <= 1:
            source = "serial" if workers == 1 or not pending else "serial-fallback"
            for index in pending:
                record, wall = self._run_local(specs[index], payloads[index])
                records[index] = record
                done += 1
                self._note(done, total, specs[index], wall, source)
            return records  # type: ignore[return-value]

        fallback = self._run_pool(specs, pending, records, workers, total)
        fallback_set = set(fallback)
        for index in fallback:
            record, wall = self._run_local(specs[index], payloads[index])
            records[index] = record
            done = sum(1 for r in records if r is not None)
            self._note(done, total, specs[index], wall, "serial-fallback")
        # Worker-computed records crossed the process boundary with their
        # collectors pickled along; register them (the local/fallback path
        # already registered its own through ExperimentRunner.run).
        for index in pending:
            if index in fallback_set:
                continue
            finished = records[index]
            if finished is not None and finished.obs is not None:
                self.traced_runs.append(finished)
        return records  # type: ignore[return-value]

    def _run_pool(
        self,
        specs: list[RunSpec],
        pending: list[int],
        records: list[Optional[ExperimentRecord]],
        workers: int,
        total: int,
    ) -> list[int]:
        """Dispatch *pending* specs; returns indices needing serial retry.

        Failure handling distinguishes the two failure classes of
        :func:`~repro.harness.supervise.is_transient`.  A broken pool (a
        worker killed mid-run by the OOM killer or a signal) is
        *transient*: the pool is rebuilt — only the still-unfinished runs
        are resubmitted — with exponential backoff, ``1 + retries`` times,
        before degrading to the serial path, so a single bad worker cannot
        serialize a whole batch.  Deterministic simulation errors
        (:class:`InvariantViolation`, a deadlock) propagate out of
        :meth:`_pool_pass` immediately — re-running reproduces them
        bit-identically, so retrying would only mask them.  Attempt counts
        are surfaced through ``last_fallback_reason``.
        """
        rebuilds = 1 + self.settings.retries

        def note_rebuild(_error: BaseException, attempt: int, delay: float) -> None:
            self._note_fallback(
                f"worker pool died mid-batch (attempt "
                f"{attempt}/{1 + rebuilds}); rebuilding in {delay:.1f}s"
            )

        try:
            run_error = retry_transient(
                lambda: self._pool_pass(specs, pending, records, workers, total),
                rebuilds,
                on_retry=note_rebuild,
            )
        except BrokenProcessPool:
            self._note_fallback(
                f"worker pool died {1 + rebuilds} times; "
                "finishing the batch serially"
            )
            return [i for i in pending if records[i] is None]
        if run_error is not None:
            raise run_error
        return []

    def _pool_pass(
        self,
        specs: list[RunSpec],
        pending: list[int],
        records: list[Optional[ExperimentRecord]],
        workers: int,
        total: int,
    ) -> Optional[Exception]:
        """One pool lifetime over the still-unfinished *pending* runs.

        Raises :class:`BrokenProcessPool` when the pool broke with work
        left; returns the error a run itself ended with, None when every
        run finished.
        """
        done = sum(1 for record in records if record is not None)
        executor = ProcessPoolExecutor(max_workers=workers)
        futures = {}
        try:
            for index in pending:
                if records[index] is None:
                    futures[executor.submit(_execute, index, specs[index])] = index
            not_done = set(futures)
            while not_done:
                finished, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in finished:
                    try:
                        index, record, wall = future.result()
                    except BrokenProcessPool:
                        # Transient: a worker died (OOM, signal).
                        # Everything not yet gathered is retried by the
                        # caller.
                        raise
                    except pickle.PicklingError as error:
                        # A result that cannot cross the process boundary
                        # is handled like a dead worker.
                        raise BrokenProcessPool(str(error)) from error
                    except Exception as error:
                        # Any other exception — InvariantViolation,
                        # DeadlockError, a RunTimeout whose in-worker
                        # retries are already spent — is a property of the
                        # run, not the infrastructure: handed back so the
                        # caller raises it without a pool-level retry.
                        return error
                    records[index] = record
                    done += 1
                    self._note(done, total, specs[index], wall, "worker")
            return None
        except KeyboardInterrupt:
            # Kill in-flight work so Ctrl-C returns promptly instead of
            # waiting out multi-second simulation runs.
            for process in getattr(executor, "_processes", {}).values():
                process.terminate()
            executor.shutdown(wait=False, cancel_futures=True)
            raise
        finally:
            executor.shutdown(wait=True, cancel_futures=True)
