"""Command-line entry point: ``repro-cluster <artefact>``.

Regenerates any of the paper's figures or tables from the terminal; each
artefact subcommand prints its ``repro.harness.artefacts`` entry's text::

    repro-cluster fig6              # NAS accuracy + speedup matrix
    repro-cluster fig7              # NAMD accuracy + speedup matrix
    repro-cluster fig8              # Pareto optimality at 8 nodes
    repro-cluster sec6 --case IS    # one 64-node case study
    repro-cluster fig9 --case NAMD  # traffic + speedup-over-time
    repro-cluster sweep             # inc/dec ablation on IS and EP
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

from repro.engine.units import MILLISECOND
from repro.faults.plan import PRESETS, load_plan
from repro.harness.artefacts import ARTEFACTS, service_study, service_text
from repro.harness.configs import GROUND_TRUTH_LABEL, paper_policies
from repro.harness.experiment import ExperimentRecord
from repro.harness.parallel import ParallelRunner
from repro.harness.settings import RunnerSettings, with_recovery
from repro.harness.supervise import RunTimeout
from repro.obs.collector import TraceConfig, run_slug
from repro.obs.diff import diff_traces
from repro.obs.export import write_chrome_trace, write_jsonl
from repro.service import ArrivalProfile, BurstWindow, ServiceWorkload

#: The artefact subcommands: name -> (help, default ``--case`` when the
#: entries printed by the subcommand have cases).
_ARTEFACT_COMMANDS = {
    "fig6": ("NAS accuracy and speedup matrix", None),
    "fig7": ("NAMD accuracy and speedup matrix", None),
    "fig8": ("Pareto optimality at 8 nodes", None),
    "sec6": ("64-node scale-out case studies", "all"),
    "fig9": ("traffic + speedup-over-time, 64 nodes", "EP"),
    "sweep": ("inc/dec ablation sweep", None),
    "transport": ("windowed-transport (TCP-like) feedback ablation", None),
    "sampling": ("adaptive quantum x node sampling (paper §7)", None),
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

    # One subcommand per artefact command; its options only select cells.
    for command, (help_text, default_case) in _ARTEFACT_COMMANDS.items():
        artefact = sub.add_parser(command, help=help_text, parents=[common])
        entries = [entry for entry in ARTEFACTS if entry.command == command]
        cases = [entry.case for entry in entries if entry.case is not None]
        if cases:
            choices = cases + ["all"] if default_case == "all" else cases
            artefact.add_argument("--case", choices=choices, default=default_case)
        if entries[0].sizes:
            artefact.add_argument(
                "--sizes", type=int, nargs="+", default=list(entries[0].sizes)
            )

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


def _parse_burst(spec: str) -> BurstWindow:
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


def _service_workload(args: argparse.Namespace) -> ServiceWorkload:
    """The ``service`` subcommand's workload, from its flags."""
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
    return ServiceWorkload(
        profile=profile,
        tier_weights=weights,
        fanout=args.fanout,
        slo_ns=int(args.slo_us * 1000),
    )


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
        transport=with_recovery(None, faults),
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
    entries = [
        entry
        for entry in ARTEFACTS
        if entry.command == args.command and getattr(args, "case", "all") in ("all", entry.case)
    ]
    if settings.trace is not None and any(entry.hand_wired for entry in entries):
        raise SystemExit(f"--trace/--trace-diff are not supported for {args.command!r}")

    started = time.time()
    # Every runner of this invocation (the ones an entry derives too)
    # reports its traced runs on this runner's list.
    runner = ParallelRunner(
        settings,
        max_workers=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        progress=True,
    )
    traced = runner.traced_runs

    for index, entry in enumerate(entries):
        if index:
            print()
        print(entry.text(runner, tuple(getattr(args, "sizes", ()))))

    if args.command == "service":
        workload = _service_workload(args)
        print(f"[service] {workload.describe()}", file=sys.stderr)
        print(service_text(service_study(runner, workload, args.size, paper_policies())))

    if args.trace_dir is not None and traced:
        _export_traces(traced, args.trace_dir, args.trace_format)
    if args.trace_diff:
        _render_trace_diffs(traced)

    print(f"\n[{time.time() - started:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
