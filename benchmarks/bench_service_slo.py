#!/usr/bin/env python3
"""Tail-latency accuracy of quantum policies on the service workload.

The serving workload's headline metric is the p99 request latency — the
statistic most sensitive to synchronization error, because a quantum that
delays even a handful of cross-tier messages lands squarely in the tail.
This benchmark runs the tiered request-serving workload under the paper's
fixed and adaptive quantum policies and scores each against a zero-
straggler ground truth: p99 accuracy error, SLO miss rate, and speedup.

The reference run uses Q = T (the minimum network latency) rather than
the 1 us paper quantum: conservative sync with Q <= T admits no
stragglers, so the run is exact by construction
(``adopt_ground_truth`` verifies this) and several times faster to
produce — which is what lets the full benchmark push a million simulated
requests through the reference in reasonable wall-clock time.

Usage::

    python benchmarks/bench_service_slo.py            # full sweep
    python benchmarks/bench_service_slo.py --quick    # CI smoke (seconds)
    python benchmarks/bench_service_slo.py --requests 1000000 --rate 1e6

Writes ``benchmarks/out/bench_service_slo.json`` (a ``meta`` block
describing the host and the sweep, and one ``cases`` entry per policy)
and prints the comparison table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
# Runs as a plain script (its directory, with conftest, is already on the
# path): find the in-tree sources without needing PYTHONPATH.
sys.path.insert(0, str(REPO_ROOT / "src"))

from conftest import BENCH_SEED

from repro.core.quantum import AdaptiveQuantumPolicy, FixedQuantumPolicy
from repro.engine.units import MICROSECOND as US
from repro.harness.configs import PolicySpec
from repro.harness.experiment import ExperimentRunner
from repro.harness.report import format_table, percent, service_report, times
from repro.network.latency import PAPER_NETWORK
from repro.service import ArrivalProfile, ServiceWorkload

GROUND_TRUTH_LABEL = "Q=T"


def _policies() -> list[PolicySpec]:
    return [
        PolicySpec("10us", lambda: FixedQuantumPolicy(10 * US)),
        PolicySpec("100us", lambda: FixedQuantumPolicy(100 * US)),
        PolicySpec("1000us", lambda: FixedQuantumPolicy(1000 * US)),
        PolicySpec(
            "dyn 1:1000",
            lambda: AdaptiveQuantumPolicy(US, 1000 * US, inc=1.05, dec=0.02),
        ),
    ]


def _workload(requests: int, rate: float) -> ServiceWorkload:
    profile = ArrivalProfile(
        rate_per_sec=rate,
        num_requests=requests,
        diurnal_amplitude=0.3,
    )
    return ServiceWorkload(profile=profile, seed=BENCH_SEED)


def run_sweep(size: int, requests: int, rate: float) -> dict:
    runner = ExperimentRunner(seed=BENCH_SEED)
    workload = _workload(requests, rate)

    truth_spec = PolicySpec(
        GROUND_TRUTH_LABEL,
        lambda: FixedQuantumPolicy(PAPER_NETWORK(size).min_latency()),
    )
    started = time.perf_counter()
    truth = runner.adopt_ground_truth(
        workload, runner.run_spec(workload, size, truth_spec)
    )
    truth_wall = time.perf_counter() - started
    truth_stats = workload.service_summary(truth.result)

    cases: dict[str, dict] = {
        "ground_truth": {
            "policy": GROUND_TRUTH_LABEL,
            "p99_us": truth_stats.percentiles[99.0] / 1_000.0,
            "slo_miss": truth_stats.slo_miss_rate,
            "completed": truth_stats.completed,
            "wall_s": truth_wall,
        }
    }
    stats_rows = [(f"{GROUND_TRUTH_LABEL} (truth)", truth_stats)]
    table_rows = []
    for spec in _policies():
        started = time.perf_counter()
        record = runner.run_spec(workload, size, spec)
        wall = time.perf_counter() - started
        row = runner.compare(workload, record)
        stats = workload.service_summary(record.result)
        stats_rows.append((spec.label, stats))
        cases[spec.label] = {
            "p99_us": stats.percentiles[99.0] / 1_000.0,
            "p99_error": row.accuracy_error,
            "slo_miss": stats.slo_miss_rate,
            "completed": stats.completed,
            "speedup": row.speedup,
            "wall_s": wall,
        }
        table_rows.append(
            [
                spec.label,
                f"{stats.percentiles[99.0] / 1_000.0:.1f} us",
                percent(row.accuracy_error),
                percent(stats.slo_miss_rate),
                times(row.speedup),
            ]
        )

    table = format_table(
        ["quantum", "p99", "p99 error", "SLO miss", "speedup"],
        table_rows,
        f"Service n={size}: {requests} requests @ {rate:g}/s vs Q=T truth",
    )
    return {"cases": cases, "table": table, "stats_rows": stats_rows}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small CI-smoke sweep (seconds, not minutes)")
    parser.add_argument("--size", type=int, default=8,
                        help="cluster size (default 8)")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests to serve (default 2000; 400 with --quick)")
    parser.add_argument("--rate", type=float, default=20_000.0,
                        help="mean arrival rate, requests/sec (default 20000)")
    parser.add_argument("--out", type=Path, default=None,
                        help="report path (default benchmarks/out/bench_service_slo.json)")
    args = parser.parse_args()

    requests = args.requests or (400 if args.quick else 2_000)
    out = args.out or REPO_ROOT / "benchmarks" / "out" / "bench_service_slo.json"

    sweep = run_sweep(args.size, requests, args.rate)
    print(sweep["table"])
    print()
    print(service_report(sweep["stats_rows"]))

    meta = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "seed": BENCH_SEED,
        "generated_by": "bench_service_slo.py",
        "quick": args.quick,
        "size": args.size,
        "requests": requests,
        "rate_per_sec": args.rate,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"meta": meta, "cases": sweep["cases"]}, indent=2) + "\n")
    print(f"\n[saved to {out}]")

    # The thesis this benchmark exists to demonstrate: the adaptive
    # quantum tracks the zero-straggler tail while the 1000 us fixed
    # quantum does not.
    adaptive_error = sweep["cases"]["dyn 1:1000"]["p99_error"]
    coarse_error = sweep["cases"]["1000us"]["p99_error"]
    if adaptive_error > 0.05:
        print(f"FAIL: adaptive p99 error {adaptive_error:.2%} > 5%")
        return 1
    if coarse_error < adaptive_error:
        print("FAIL: coarse fixed quantum beat the adaptive policy on p99")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
