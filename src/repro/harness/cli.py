"""Command-line entry point: ``repro-cluster <artefact>``.

Regenerates any of the paper's figures or tables from the terminal::

    repro-cluster fig6              # NAS accuracy + speedup matrix
    repro-cluster fig7              # NAMD accuracy + speedup matrix
    repro-cluster fig8              # Pareto optimality at 8 nodes
    repro-cluster sec6 --case IS    # one 64-node case study
    repro-cluster fig9 --case NAMD  # traffic + speedup-over-time
    repro-cluster sweep --workload IS
    repro-cluster fig6 --faults lossy-1   # same matrix over a lossy fabric
    repro-cluster sec6 --case IS --trace traces/ --trace-diff
    repro-cluster service --rate 20000 --requests 2000 --slo-us 200
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path
from typing import Optional

from repro.engine.units import MILLISECOND
from repro.faults.plan import PRESETS, FaultPlan, load_plan
from repro.harness import figures
from repro.harness.configs import GROUND_TRUTH_LABEL, scaleout_configs
from repro.harness.experiment import ExperimentRecord
from repro.harness.parallel import ParallelRunner
from repro.harness.settings import RunnerSettings
from repro.harness.supervise import RunTimeout
from repro.harness.sweep import sweep_inc_dec
from repro.node.transport import RecoveryConfig, TransportConfig
from repro.obs.collector import TraceConfig, run_slug
from repro.obs.diff import diff_traces
from repro.obs.export import write_chrome_trace, write_jsonl
from repro.workloads import (
    CgWorkload,
    EpWorkload,
    IsWorkload,
    LuWorkload,
    MgWorkload,
    NamdWorkload,
)

_WORKLOADS = {
    "EP": EpWorkload,
    "IS": IsWorkload,
    "CG": CgWorkload,
    "MG": MgWorkload,
    "LU": LuWorkload,
    "NAMD": NamdWorkload,
}


#: Values of the shared options that are not RunnerSettings fields when the
#: flag is not given.  They seed the namespace instead of being argparse
#: defaults: the shared actions are one object in every (sub)parser, so a
#: default on them would let a subcommand clobber a globally-given value.
_UNSET = dict(
    jobs=None,
    no_cache=False,
    cache_dir=None,
    fault_plan=None,
    trace_dir=None,
    trace_format="chrome",
    trace_diff=False,
    profile=None,
)


def _parser() -> argparse.ArgumentParser:
    # Shared options live on a parent parser (with SUPPRESS defaults, so a
    # subcommand never clobbers a globally-given value) and are accepted
    # both before and after the subcommand name.  An option whose ``dest``
    # is a RunnerSettings field reaches every runner with no further code
    # (see _runner_settings); left out, the field keeps its own default.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="root RNG seed"
    )
    common.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=argparse.SUPPRESS,
        help="worker processes for the experiment farm "
        "(default: one per CPU; 1 = serial; REPRO_PARALLEL=0 also forces serial)",
    )
    common.add_argument(
        "--no-cache",
        action="store_true",
        default=argparse.SUPPRESS,
        help="skip the persistent result cache (.repro_cache/)",
    )
    common.add_argument(
        "--cache-dir",
        default=argparse.SUPPRESS,
        help="result cache location (default: .repro_cache or $REPRO_CACHE_DIR)",
    )
    common.add_argument(
        "--check",
        action="store_true",
        default=argparse.SUPPRESS,
        help="run the causality sanitizer on every simulation "
        "(REPRO_CHECK=1 does the same; results are bit-identical either way)",
    )
    common.add_argument(
        "--faults",
        dest="fault_plan",
        metavar="PLAN",
        default=argparse.SUPPRESS,
        help="inject deterministic network/host faults: a preset name "
        f"({', '.join(sorted(PRESETS))}) or a JSON fault-plan file; plans "
        "that can lose frames automatically enable the recovery transport",
    )
    common.add_argument(
        "--shards",
        type=int,
        default=argparse.SUPPRESS,
        help="worker processes per single simulation (sharded single-run "
        "execution; bit-identical to serial, REPRO_SHARDS does the same; "
        "ineligible runs fall back to serial with a reported reason)",
    )
    common.add_argument(
        "--backend",
        choices=["auto", "python", "native"],
        default=argparse.SUPPRESS,
        help="engine-core implementation: 'python' (pure-python reference), "
        "'native' (compiled C core; error if unavailable), or 'auto' "
        "(default: native when importable, else python; REPRO_BACKEND does "
        "the same; both backends are bit-identical)",
    )
    common.add_argument(
        "--trace",
        dest="trace_dir",
        metavar="DIR",
        default=argparse.SUPPRESS,
        help="record a structured trace of every run and export one file "
        "per run into DIR (traced runs bypass the result cache)",
    )
    common.add_argument(
        "--trace-format",
        choices=["chrome", "jsonl"],
        default=argparse.SUPPRESS,
        help="trace export format: 'chrome' (default; open in Perfetto / "
        "chrome://tracing) or 'jsonl' (one event object per line)",
    )
    common.add_argument(
        "--profile",
        metavar="FILE",
        nargs="?",
        const="profile.pstats",
        default=argparse.SUPPRESS,
        help="run the whole command under cProfile; dump pstats data to "
        "FILE (default: profile.pstats) and print the top 25 functions "
        "by cumulative time to stderr",
    )
    common.add_argument(
        "--trace-diff",
        action="store_true",
        default=argparse.SUPPRESS,
        help="after the runs, diff each traced run against its Q<=T "
        "ground-truth trace by packet identity (implies tracing)",
    )
    common.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=argparse.SUPPRESS,
        help="periodically snapshot every run into DIR and journal matrix "
        "progress there (checkpointed runs are bit-identical to plain "
        "ones and never affect cache keys)",
    )
    common.add_argument(
        "--resume",
        action="store_true",
        default=argparse.SUPPRESS,
        help="resume from --checkpoint-dir: finished matrix cells are "
        "read back from the journal and interrupted runs restart from "
        "their latest snapshot (byte-identical to an uninterrupted run)",
    )
    common.add_argument(
        "--run-timeout",
        type=float,
        metavar="SECONDS",
        default=argparse.SUPPRESS,
        help="wall-clock budget per run; a run past it fails with a "
        "structured RunTimeout carrying its last quantum's diagnostics "
        "(hangs are detected too: no quantum for SECONDS also fires)",
    )
    common.add_argument(
        "--retries",
        type=int,
        metavar="N",
        default=argparse.SUPPRESS,
        help="retry transient failures (killed worker, timeout) up to N "
        "times with exponential backoff; deterministic errors such as "
        "invariant violations always fail fast",
    )

    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description="Regenerate the figures and tables of the adaptive-"
        "synchronization paper on the simulated cluster.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig6 = sub.add_parser(
        "fig6", help="NAS accuracy and speedup matrix", parents=[common]
    )
    fig6.add_argument("--sizes", type=int, nargs="+", default=[2, 4, 8])

    fig7 = sub.add_parser(
        "fig7", help="NAMD accuracy and speedup matrix", parents=[common]
    )
    fig7.add_argument("--sizes", type=int, nargs="+", default=[2, 4, 8])

    sub.add_parser("fig8", help="Pareto optimality at 8 nodes", parents=[common])

    sec6 = sub.add_parser(
        "sec6", help="64-node scale-out case studies", parents=[common]
    )
    sec6.add_argument("--case", choices=["EP", "IS", "NAMD", "all"], default="all")

    fig9 = sub.add_parser(
        "fig9", help="traffic + speedup-over-time, 64 nodes", parents=[common]
    )
    fig9.add_argument("--case", choices=["EP", "IS", "NAMD"], default="EP")

    sweep = sub.add_parser("sweep", help="inc/dec ablation sweep", parents=[common])
    sweep.add_argument("--workload", choices=sorted(_WORKLOADS), default="IS")
    sweep.add_argument("--size", type=int, default=8)

    transport = sub.add_parser(
        "transport",
        help="windowed-transport (TCP-like) feedback ablation",
        parents=[common],
    )
    transport.add_argument("--window-kib", type=int, default=16)

    sampling = sub.add_parser(
        "sampling",
        help="adaptive quantum x node sampling (paper §7)",
        parents=[common],
    )
    sampling.add_argument("--detail-fraction", type=float, default=0.2)

    service = sub.add_parser(
        "service",
        help="open-loop request serving: latency percentiles and SLO "
        "misses vs quantum policy",
        parents=[common],
    )
    service.add_argument("--size", type=int, default=8, help="cluster size "
                         "(rank 0 is the feeder/sink, the rest are servers)")
    service.add_argument("--rate", type=float, default=20_000.0,
                         help="arrival rate, requests per simulated second")
    service.add_argument("--requests", type=int, default=2_000,
                         help="total requests the feeder issues")
    service.add_argument("--diurnal-amplitude", type=float, default=0.0,
                         help="sinusoidal rate modulation depth in [0, 1]")
    service.add_argument("--diurnal-period-ms", type=float, default=1000.0,
                         help="diurnal period, simulated milliseconds")
    service.add_argument("--burst", action="append", default=[],
                         metavar="START_MS:END_MS:FACTOR",
                         help="multiply the arrival rate by FACTOR in "
                         "[START_MS, END_MS) simulated ms; repeatable")
    service.add_argument("--slo-us", type=float, default=200.0,
                         help="latency SLO, simulated microseconds")
    service.add_argument("--tiers", default="1:2:4",
                         help="service tier width weights, colon-separated")
    service.add_argument("--fanout", type=int, default=2,
                         help="downstream fan-out per request per tier")
    return parser


def _parse_burst(spec: str):
    from repro.service import BurstWindow

    try:
        start_ms, end_ms, factor = spec.split(":")
        return BurstWindow(
            start=int(float(start_ms) * MILLISECOND),
            end=int(float(end_ms) * MILLISECOND),
            factor=float(factor),
        )
    except ValueError as error:
        raise SystemExit(
            f"invalid --burst {spec!r} (expected START_MS:END_MS:FACTOR): {error}"
        ) from error


def _scaleout(case: str):
    for config in scaleout_configs():
        if config.name == case:
            return config
    raise SystemExit(f"unknown case {case!r}")


def _export_traces(
    records: list[ExperimentRecord], directory: str, fmt: str
) -> None:
    """Write one trace file per traced record into *directory*."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for record in records:
        assert record.obs is not None
        slug = run_slug(record.workload_name, record.size, record.policy_label)
        if fmt == "chrome":
            path = out / f"{slug}.trace.json"
            write_chrome_trace(record.obs, path, num_nodes=record.size, label=slug)
        else:
            path = out / f"{slug}.jsonl"
            write_jsonl(record.obs, path)
        print(f"[trace] wrote {path}", file=sys.stderr)


def _render_trace_diffs(records: list[ExperimentRecord]) -> None:
    """Diff every traced run against the ground-truth trace of its cell."""
    groups: dict[tuple[str, int], list[ExperimentRecord]] = {}
    for record in records:
        groups.setdefault((record.workload_name, record.size), []).append(record)
    for (workload_name, size), group in sorted(groups.items()):
        truth = next(
            (r for r in group if r.policy_label == GROUND_TRUTH_LABEL), None
        )
        if truth is None:
            print(
                f"[trace-diff] {workload_name} n={size}: no ground-truth "
                f"(label {GROUND_TRUTH_LABEL!r}) trace in this batch; skipping",
                file=sys.stderr,
            )
            continue
        for record in group:
            if record is truth:
                continue
            assert record.obs is not None and truth.obs is not None
            diff = diff_traces(
                record.obs,
                truth.obs,
                run_label=f"{workload_name} n={size} {record.policy_label}",
                truth_label=f"Q<={GROUND_TRUTH_LABEL}us ground truth",
            )
            print()
            print(diff.render())


def _with_recovery(
    transport: Optional[TransportConfig], faults: Optional[FaultPlan]
) -> Optional[TransportConfig]:
    """Upgrade *transport* so a loss-capable fault plan is survivable."""
    if faults is None or not faults.requires_recovery():
        return transport
    if transport is None:
        return TransportConfig(recovery=RecoveryConfig())
    if transport.recovery is None:
        return dataclasses.replace(transport, recovery=RecoveryConfig())
    return transport


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        return 130
    except RunTimeout as error:
        # Already carries the run's full diagnostics (label, sim time,
        # window, quanta, wall seconds); no traceback needed.
        print(f"error: {error}", file=sys.stderr)
        return 1


def _main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv, argparse.Namespace(**_UNSET))
    profile = args.profile
    if profile is None:
        return _execute(args)
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(_execute, args)
    finally:
        profiler.dump_stats(profile)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative")
        print("\n[profile] top 25 functions by cumulative time:", file=sys.stderr)
        stats.print_stats(25)
        print(
            f"[profile] full stats written to {profile} "
            "(inspect with: python -m pstats)",
            file=sys.stderr,
        )


def _runner_settings(args: argparse.Namespace) -> RunnerSettings:
    """The one settings object every runner of this invocation derives from."""
    given = vars(args)
    knobs = {
        f.name: given[f.name]
        for f in dataclasses.fields(RunnerSettings)
        if f.name in given
    }
    try:
        faults = load_plan(args.fault_plan) if args.fault_plan is not None else None
    except ValueError as error:
        raise SystemExit(str(error)) from error
    tracing = args.trace_dir is not None or args.trace_diff
    settings = RunnerSettings(
        **knobs,
        faults=faults,
        transport=_with_recovery(None, faults),
        trace=TraceConfig() if tracing else None,
        # --run-timeout doubles as the stall bound: a run that completes
        # no quantum for the whole budget is wedged by definition.
        stall_timeout=knobs.get("run_timeout"),
    )
    if settings.resume and settings.checkpoint_dir is None:
        raise SystemExit("--resume requires --checkpoint-dir")
    return settings


def _execute(args: argparse.Namespace) -> int:
    settings = _runner_settings(args)
    faults = settings.faults
    if faults is not None:
        recovery = " (recovery transport enabled)" if faults.requires_recovery() else ""
        print(f"[faults] {faults.describe()}{recovery}", file=sys.stderr)
    if settings.trace is not None and args.command == "sampling":
        raise SystemExit("--trace/--trace-diff are not supported for 'sampling'")
    #: Every runner of this invocation reports its traced runs here (the
    #: runners figure9 derives share their parent's list).
    traced: list[ExperimentRecord] = []

    def farm(runner_settings: RunnerSettings) -> ParallelRunner:
        created = ParallelRunner(
            runner_settings,
            max_workers=args.jobs,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            progress=True,
        )
        created.traced_runs = traced
        return created

    started = time.time()
    runner = farm(settings)

    if args.command == "fig6":
        result = figures.run_nas_suite_matrix(runner, tuple(args.sizes))
        print(result.render("Figure 6 — NAS (harmonic mean over EP/IS/CG/MG/LU)"))
    elif args.command == "fig7":
        result = figures.figure7(runner, tuple(args.sizes))
        print(result.render("Figure 7 — NAMD"))
    elif args.command == "fig8":
        result = figures.figure8(runner)
        print(result.render())
        print(
            f"\nmax adaptive distance to front: "
            f"{100 * result.max_adaptive_distance():.1f}%"
        )
    elif args.command == "sec6":
        cases = ["EP", "IS", "NAMD"] if args.case == "all" else [args.case]
        for case in cases:
            result = figures.section6(runner, _scaleout(case))
            print(result.render())
            print(f"paper reported: {result.paper_rows}\n")
    elif args.command == "fig9":
        result = figures.figure9(runner, _scaleout(args.case), bucket=MILLISECOND)
        print(result.render())
    elif args.command == "sweep":
        workload = _WORKLOADS[args.workload]()
        result = sweep_inc_dec(runner, workload, args.size)
        print(result.render())
        best = result.best_by_error()
        print(f"\nbest accuracy: inc={best.inc:.2f} dec={best.dec:.2f}")
    elif args.command == "transport":
        from repro.core.quantum import AdaptiveQuantumPolicy, FixedQuantumPolicy
        from repro.engine.units import MICROSECOND
        from repro.harness.configs import PolicySpec
        from repro.harness.report import format_table, percent, times
        from repro.workloads import StreamWorkload

        rows = []
        for label, config in [
            ("eager", None),
            (f"window {args.window_kib}KiB",
             TransportConfig(window_bytes=args.window_kib * 1024)),
        ]:
            transport_runner = farm(
                dataclasses.replace(
                    settings, transport=_with_recovery(config, faults)
                )
            )
            workload = StreamWorkload()
            transport_runner.ground_truth(workload, 2)
            for spec in [
                PolicySpec("1000us", lambda: FixedQuantumPolicy(1000 * MICROSECOND)),
                PolicySpec("dyn", lambda: AdaptiveQuantumPolicy(
                    MICROSECOND, 1000 * MICROSECOND)),
            ]:
                row = transport_runner.run_and_compare(workload, 2, spec)
                rows.append([label, spec.label, percent(row.accuracy_error),
                             times(row.exec_time_ratio, 2)])
        print(format_table(["transport", "quantum", "error", "dilation"], rows,
                           "Transport feedback (bulk stream, 2 nodes)"))
    elif args.command == "service":
        from repro.harness.configs import paper_policies
        from repro.harness.report import (
            format_table,
            percent,
            service_report,
            times,
        )
        from repro.service import ArrivalProfile, ServiceWorkload

        try:
            weights = tuple(int(part) for part in args.tiers.split(":"))
        except ValueError as error:
            raise SystemExit(f"invalid --tiers {args.tiers!r}: {error}") from error
        profile = ArrivalProfile(
            rate_per_sec=args.rate,
            num_requests=args.requests,
            diurnal_amplitude=args.diurnal_amplitude,
            diurnal_period=int(args.diurnal_period_ms * MILLISECOND),
            bursts=tuple(_parse_burst(spec) for spec in args.burst),
        )
        workload = ServiceWorkload(
            profile=profile,
            tier_weights=weights,
            fanout=args.fanout,
            slo_ns=int(args.slo_us * 1000),
        )
        print(f"[service] {workload.describe()}", file=sys.stderr)
        truth = runner.ground_truth(workload, args.size)
        stats_rows = [
            (f"{GROUND_TRUTH_LABEL} (truth)", workload.service_summary(truth.result))
        ]
        rows = []
        for spec in paper_policies():
            record = runner.run_spec(workload, args.size, spec)
            row = runner.compare(workload, record)
            stats = workload.service_summary(record.result)
            stats_rows.append((spec.label, stats))
            rows.append([
                spec.label,
                f"{row.metric:.1f}us",
                percent(row.accuracy_error),
                percent(stats.slo_miss_rate),
                times(row.speedup, 2),
                times(row.exec_time_ratio, 2),
            ])
        truth_p = workload.metric(truth.result)
        print(format_table(
            ["quantum", "p99", "p99 error", "SLO miss", "speedup", "dilation"],
            rows,
            f"Open-loop service at {args.size} nodes "
            f"(ground truth p99 {truth_p:.1f}us)",
        ))
        print()
        print(service_report(stats_rows))
    elif args.command == "sampling":
        from repro.core import ClusterConfig, ClusterSimulator
        from repro.core.quantum import AdaptiveQuantumPolicy, FixedQuantumPolicy
        from repro.engine.units import MICROSECOND
        from repro.harness.report import format_table, times
        from repro.network import NetworkController, PAPER_NETWORK
        from repro.node import SimulatedNode
        from repro.node.sampling import SamplingSchedule
        from repro.workloads import EpWorkload

        schedule = SamplingSchedule(
            period=5 * MILLISECOND, detail_fraction=args.detail_fraction
        )
        results = {}
        for sync_label, policy_factory in [
            ("fixed 1us", lambda: FixedQuantumPolicy(MICROSECOND)),
            ("adaptive", lambda: AdaptiveQuantumPolicy(
                MICROSECOND, 1000 * MICROSECOND)),
        ]:
            for sample_label, sampling_schedule in [("detailed", None),
                                                    ("sampled", schedule)]:
                workload = EpWorkload()
                nodes = [SimulatedNode(i, app, transport=settings.transport)
                         for i, app in enumerate(workload.build_apps(8))]
                controller = NetworkController(8, PAPER_NETWORK(8))
                # Drives ClusterSimulator.run() directly, so of the
                # execution-only knobs only check and backend apply.
                config = ClusterConfig(
                    seed=settings.seed, sampling=sampling_schedule,
                    check=settings.check, faults=faults, backend=settings.backend,
                )
                results[(sync_label, sample_label)] = ClusterSimulator(
                    nodes, controller, policy_factory(), config).run()
        baseline = results[("fixed 1us", "detailed")]
        rows = [[f"{a} + {b}", f"{r.host_time:.1f}s", times(r.speedup_vs(baseline))]
                for (a, b), r in results.items()]
        print(format_table(["configuration", "host time", "speedup"], rows,
                           "Adaptive quantum x sampling (8-node EP)"))

    if args.trace_dir is not None and traced:
        _export_traces(traced, args.trace_dir, args.trace_format)
    if args.trace_diff:
        _render_trace_diffs(traced)

    print(f"\n[{time.time() - started:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
