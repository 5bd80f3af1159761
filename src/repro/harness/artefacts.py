"""The paper's artefacts, each declared once.

:data:`ARTEFACTS` holds one :class:`Artefact` per committed
``benchmarks/out/<name>.txt``.  An entry runs its cells through the runner it
is given — or, for the four that wire simulators by hand, honours that
runner's seed, check, faults, backend and transport — renders the committed
text, and states the paper's shape claims as named predicates over what it
built.  ``benchmarks/test_artefacts.py`` runs every entry and evaluates every
claim; ``repro-cluster`` builds its artefact subcommands from the same list.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from types import SimpleNamespace as Data
from typing import Any, Callable, Optional

from repro.core import AdaptiveQuantumPolicy, ClusterConfig, ClusterSimulator, FixedQuantumPolicy
from repro.core.baselines import free_running, null_message_estimate, optimistic_estimate
from repro.engine.units import MICROSECOND as US
from repro.engine.units import MILLISECOND
from repro.faults import FaultPlan
from repro.harness.configs import GROUND_TRUTH_LABEL, PAPER_SIZES, PolicySpec
from repro.harness.configs import ground_truth_policy, namd_workload, nas_suite, paper_policies
from repro.harness.configs import scaleout_configs
from repro.harness.experiment import ExperimentRunner
from repro.harness.report import format_table, microseconds, percent, service_report, times
from repro.harness.settings import with_recovery
from repro.metrics.accuracy import nas_aggregate_error
from repro.metrics.pareto import ParetoPoint, distance_to_front, pareto_front
from repro.network import PAPER_NETWORK, DeliveryKind, NetworkController, Packet
from repro.network import UniformLatencyModel
from repro.node import HostModelParams, SamplingSchedule, SimulatedNode
from repro.node.transport import RecoveryConfig, TransportConfig
from repro.service import ArrivalProfile, ServiceWorkload
from repro.workloads import EpWorkload, IsWorkload, PhaseWorkload, StreamWorkload


@dataclass(frozen=True)
class Claim:
    """A shape claim: a predicate over an entry's data, and the sentence of
    the paper, of EXPERIMENTS.md or of an example that it checks."""

    name: str
    quote: str
    holds: Callable[[Any], bool]


@dataclass(frozen=True)
class Artefact:
    """One paper artefact: its cells, its text and its claims."""

    #: The committed text is ``benchmarks/out/<name>.txt``.
    name: str
    #: ``build(runner, sizes)`` runs the cells and returns the data that
    #: ``render`` and the claims read.
    build: Callable[[ExperimentRunner, tuple[int, ...]], Any]
    render: Callable[[Any], str]
    claims: tuple[Claim, ...]
    #: The ``repro-cluster`` subcommand printing this entry, and its ``--case``.
    command: Optional[str] = None
    case: Optional[str] = None
    #: The cells' cluster sizes, when ``--sizes`` may select others.
    sizes: tuple[int, ...] = ()
    #: Runs simulators itself, so the runner's traces cannot reach it.
    hand_wired: bool = False

    def text(self, runner: ExperimentRunner, sizes: tuple[int, ...] = ()) -> str:
        return self.render(self.build(runner, sizes or self.sizes))


def _runs(runner, workloads, sizes, specs) -> dict:
    """Every workload x size x spec, plus each missing ground truth (adopted
    by *runner*), as one batch: ``{(workload name, size, label): record}``."""
    requests = []
    for size in sizes:
        for workload in workloads:
            if not runner.has_ground_truth(workload, size):
                requests.append((workload, size, ground_truth_policy()))
            requests += [(workload, size, spec) for spec in specs]
    records = runner.run_many(requests)
    for (workload, _, spec), record in zip(requests, records):
        if spec.label == GROUND_TRUTH_LABEL:
            runner.adopt_ground_truth(workload, record)
    return {(w.name, size, spec.label): r for (w, size, spec), r in zip(requests, records)}


def _simulate(settings, workload, size, policy, **config):
    """One hand-wired run on the paper's network with the runner's seed,
    check, faults, backend and transport; *config* adds ``ClusterConfig``
    fields or overrides those.  A None *policy* runs unsynchronized."""
    apps = enumerate(workload.build_apps(size))
    nodes = [SimulatedNode(rank, app, transport=settings.transport) for rank, app in apps]
    controller = NetworkController(size, PAPER_NETWORK(size))
    knobs = {"seed": settings.seed, "check": settings.check, "faults": settings.faults}
    cluster = ClusterConfig(**{**knobs, "backend": settings.backend, **config})
    if policy is None:
        return free_running(nodes, controller, cluster).run()
    return ClusterSimulator(nodes, controller, policy, cluster).run()


# --------------------------------------------------------------------- #
# Figures 6-8: the 2/4/8-node matrices and their Pareto front
# --------------------------------------------------------------------- #

DYN = ("dyn 1k 1.03:0.02", "dyn 1k 1.05:0.02")


def nas_cells(runner, sizes) -> dict:
    """Figure 6: per (label, size), the error of the NAS harmonic-mean MOPS
    and the whole suite's host-time speedup."""
    suite, specs = nas_suite(), paper_policies()
    runs = _runs(runner, suite, sizes, specs)
    cells = {}
    for size in sizes:
        truths = {w.name: runner.ground_truth(w, size) for w in suite}
        for spec in specs:
            own = {w.name: runs[w.name, size, spec.label] for w in suite}
            cells[spec.label, size] = Data(
                accuracy_error=nas_aggregate_error(
                    {name: r.metric for name, r in own.items()},
                    {name: t.metric for name, t in truths.items()},
                ),
                speedup=sum(t.result.host_time for t in truths.values())
                / sum(r.result.host_time for r in own.values()),
            )
    return cells


def namd_cells(runner, sizes) -> dict:
    rows = runner.run_matrix(namd_workload(), sizes, paper_policies())
    return {(row.policy_label, row.size): row for row in rows}


def _matrix_text(title: str) -> Callable[[dict], str]:
    def render(cells: dict) -> str:
        labels = list(dict.fromkeys(label for label, _ in cells))
        sizes = sorted({size for _, size in cells})
        headers = ["config"] + [f"{size} procs" for size in sizes]
        return "\n\n".join(
            format_table(
                headers,
                [[label] + [cell(cells[label, size]) for size in sizes] for label in labels],
                f"{title} — {what}",
            )
            for what, cell in (
                ("accuracy error", lambda c: percent(c.accuracy_error)),
                ("speedup vs 1us", lambda c: times(c.speedup)),
            )
        )

    return render


def _errors(cells, size):
    return [cells[label, size].accuracy_error for label in ("10", "100", "1k")]


def pareto_points(runner, sizes) -> list[ParetoPoint]:
    """Figure 8: Figures 6 and 7 at 8 nodes as points in (error, speedup)."""
    families = (("NAS", nas_cells(runner, (8,))), ("NAMD", namd_cells(runner, (8,))))
    return [
        ParetoPoint(f"{family} {label}", cell.accuracy_error, cell.speedup)
        for family, cells in families
        for (label, _), cell in cells.items()
    ]


def _pareto_text(points) -> str:
    front = pareto_front(points)
    adaptive = [distance_to_front(p, front) for p in points if "dyn" in p.label]
    distance = max(adaptive, default=0.0)
    table = format_table(
        ["experiment", "error", "speedup", "pareto"],
        [
            [p.label, percent(p.error), times(p.speedup), "*" if p in front else ""]
            for p in sorted(points, key=lambda p: p.error)
        ],
        "Figure 8 — speed vs accuracy, 8 nodes (* = on Pareto front)",
    )
    return f"{table}\n\nmax adaptive distance to front: {100 * distance:.1f}%"


def _most_accurate(points) -> str:
    return min(pareto_front(points), key=lambda p: p.error).label


def _near_family_fronts(points) -> bool:
    """Within its family (a NAMD point may dominate a NAS one in the joint
    plot), every adaptive point is within 5 points / 5 % of the front."""
    families = [[p for p in points if p.label.startswith(f)] for f in ("NAS ", "NAMD ")]
    return all(
        distance_to_front(p, pareto_front(members)) < 0.05
        for members in families
        for p in members
        if "dyn" in p.label
    )


# --------------------------------------------------------------------- #
# Section 6 tables and Figure 9 timelines: the 64-node case studies
# --------------------------------------------------------------------- #


def _case(name: str):
    return next(config for config in scaleout_configs() if config.name == name)


def _scaleout(case: str):
    def build(runner, sizes) -> dict:
        config = _case(case)
        specs = [PolicySpec(f"{q // US}us", lambda q=q: FixedQuantumPolicy(q))
                 for q in config.fixed_quanta]
        specs.append(PolicySpec(config.dyn_label, config.dyn_factory))
        rows = runner.run_matrix(config.workload_factory(), (config.size,), specs)
        return {row.policy_label: row for row in rows}

    def render(rows: dict) -> str:
        table = format_table(
            ["quantum", "accel vs 1us", "accuracy err", "exec ratio", "mean Q"],
            [[label, times(r.speedup), percent(r.accuracy_error), times(r.exec_time_ratio, 2),
              microseconds(r.mean_quantum)] for label, r in rows.items()],
            f"Section 6 — {'' if case == 'NAMD' else 'NAS/'}{case} at 64 nodes",
        )
        return f"{table}\npaper reported: {_case(case).paper_rows}"

    return build, render


def _timeline(case: str):
    """Figure 9: the ground truth's traffic trace, and the adaptive run's
    speedup over time against the ground truth's average rate."""

    def build(runner, sizes):
        config = _case(case)
        timed = runner.derive(record_traffic=True, timeline_bucket=MILLISECOND // 2)
        workload = config.workload_factory()
        truth = timed.ground_truth(workload, config.size)
        dyn_spec = PolicySpec(config.dyn_label, config.dyn_factory)
        dyn = timed.run_spec(workload, config.size, dyn_spec)
        series = dyn.result.timeline.speedup_series(truth.result.host_per_sim_second)
        return Data(trace=truth.trace, busy=truth.trace.busy_fraction(), series=series,
                    speedups=[speedup for _, speedup in series])

    def render(d) -> str:
        def series(points) -> str:
            return ", ".join(f"{t / 1e6:.1f}ms:{s:.1f}x" for t, s in points)

        return "\n".join([
            f"Figure 9 — {case} at 64 nodes",
            f"traffic busy fraction: {d.busy:.2f}",
            d.trace.ascii_chart(width=72),
            f"speedup-over-time (first buckets): {series(d.series[:8])}",
            "",
            f"full speedup-over-time series: {series(d.series)}",
        ])

    return build, render


# --------------------------------------------------------------------- #
# Ablations and extensions
# --------------------------------------------------------------------- #


def inc_dec_specs(incs, decs) -> list[PolicySpec]:
    """Algorithm 1 (1us..1000us) at every (inc, dec): ablation A1's grid,
    labelled ``dyn <inc>:<dec>``."""
    return [
        PolicySpec(
            f"dyn {inc:.2f}:{dec:.2f}",
            lambda inc=inc, dec=dec: AdaptiveQuantumPolicy(US, 1000 * US, inc=inc, dec=dec),
        )
        for inc in incs
        for dec in decs
    ]


def _inc_dec(runner, sizes) -> dict:
    """``{workload: {"inc:dec": row}}`` over the 3 x 3 grid, at 8 nodes."""
    specs = inc_dec_specs((1.03, 1.05, 1.30), (0.02, 0.50, 0.90))
    sweeps = {}
    for workload in (IsWorkload(), EpWorkload()):
        rows = runner.run_matrix(workload, (8,), specs)
        sweeps[workload.name] = {row.policy_label[4:]: row for row in rows}
    return sweeps


def sweep_text(sweeps: dict) -> str:
    """One inc/dec table per workload of ``{workload: {"inc:dec": row}}``."""
    return "\n\n".join(
        format_table(
            ["inc:dec", "error", "speedup", "mean Q"],
            [[point, percent(r.accuracy_error), times(r.speedup), microseconds(r.mean_quantum)]
             for point, r in rows.items()],
            f"inc/dec sweep — {name} at {next(iter(rows.values())).size} nodes",
        )
        for name, rows in sweeps.items()
    )


def _overhead(runner, sizes):
    """Figure 5's two costs: barrier bubbles per quantum (EP, 8 nodes) and
    the max-over-nodes inflation that host jitter adds (Q=10us)."""

    def run(quantum, size, sigma):
        host = HostModelParams(jitter_sigma=sigma, hetero_sigma=0.0)
        workload = EpWorkload(total_ops=4e8)
        policy = FixedQuantumPolicy(quantum)
        return _simulate(runner.settings, workload, size, policy, host_params=host)

    bubbles = {q: run(q, 8, 0.2) for q in (US, 10 * US, 100 * US, 1000 * US)}
    pace = {
        size: run(10 * US, size, 0.3).breakdown.node_simulation
        / run(10 * US, size, 0.0).breakdown.node_simulation
        for size in (2, 8)
    }
    fractions = [r.breakdown.barrier_fraction for r in bubbles.values()]
    return Data(bubbles=bubbles, fractions=fractions, pace=pace,
                hosts=[r.host_time for r in bubbles.values()])


def _overhead_text(d) -> str:
    bubbles = format_table(
        ["quantum", "barrier fraction", "host time"],
        [(f"{q // US}us", percent(r.breakdown.barrier_fraction, 1), f"{r.host_time:.1f}s")
         for q, r in d.bubbles.items()],
        "Synchronization bubbles (EP, 8 nodes)",
    )
    pace = format_table(
        ["nodes", "slowest-sets-the-pace inflation"],
        [(size, f"{ratio:.3f}x") for size, ratio in d.pace.items()],
        "Host cost vs a jitter-free cluster (Q=10us)",
    )
    return f"{bubbles}\n\n{pace}"


def _strategies(runner, sizes):
    """Ablation A2: the schemes the paper argues against, on one 8-node
    phase workload, next to the 1us ground truth and the adaptive quantum."""
    settings = runner.settings

    def phases():
        return PhaseWorkload(phases=6, compute_ops=4e7, pattern="alltoall", message_bytes=8192)

    truth = _simulate(settings, phases(), 8, FixedQuantumPolicy(US))
    workload = phases()
    adaptive = _simulate(settings, workload, 8, AdaptiveQuantumPolicy(US, 1000 * US))
    metrics = []  # free running twice, seeds apart: its timing is no measurement
    for seed in (settings.seed, settings.seed + 1):
        free_workload = phases()
        free = _simulate(settings, free_workload, 8, None, seed=seed)
        metrics.append(free_workload.metric(free))
    return Data(
        truth=truth, adaptive=adaptive, error=workload.accuracy_error(adaptive, truth),
        free_host=free.host_time, spread=abs(metrics[0] - metrics[1]) / max(metrics),
        null=null_message_estimate(truth, 8, lookahead=US),
        null64=null_message_estimate(truth, 64, lookahead=US),
        optimistic=optimistic_estimate(truth, 8, checkpoint_interval=MILLISECOND),
    )


def _strategies_text(d) -> str:
    rows = [
        ("fixed 1us quantum", d.truth.host_time, 0.0, "exact (ground truth)"),
        ("adaptive quantum", d.adaptive.host_time, d.error, "bounded error"),
        ("no synchronization", d.free_host, d.spread, "error varies with seed"),
        (d.null.strategy, d.null.host_time, 0.0, d.null.detail),
        (d.optimistic.strategy, d.optimistic.host_time, 0.0, d.optimistic.detail),
    ]
    return format_table(
        ["strategy", "host time", "timing error", "notes"],
        [(name, f"{host:.2f}s", f"{100 * error:.2f}%", note) for name, host, error, note in rows],
        "Synchronization strategies on a phase workload (8 nodes)",
    )


TRANSPORTS = {
    "eager (no window)": None,
    "windowed 64KiB": TransportConfig(window_bytes=65_536),
    "windowed 16KiB": TransportConfig(window_bytes=16_384),
}
COARSE = [
    PolicySpec("100us", lambda: FixedQuantumPolicy(100 * US)),
    PolicySpec("1000us", lambda: FixedQuantumPolicy(1000 * US)),
    PolicySpec("dyn 1:1000", lambda: AdaptiveQuantumPolicy(US, 1000 * US)),
]


def _transport(runner, sizes) -> dict:
    """Ablation A3, a 2-node bulk stream per guest transport:
    ``{(transport, label): (row, true throughput)}``."""
    grid = {}
    for name, transport in TRANSPORTS.items():
        own = runner.derive(transport=with_recovery(transport, runner.settings.faults))
        workload = StreamWorkload()
        runs = _runs(own, [workload], (2,), COARSE)
        for spec in COARSE:
            row = own.compare(workload, runs[workload.name, 2, spec.label])
            grid[name, spec.label] = (row, own.ground_truth(workload, 2).metric)
    return grid


def _transport_text(grid) -> str:
    return format_table(
        ["transport", "quantum", "true throughput", "error", "dilation"],
        [[transport, policy, f"{truth:.0f} MB/s", percent(row.accuracy_error),
          times(row.exec_time_ratio, 2)] for (transport, policy), (row, truth) in grid.items()],
        "Transport feedback under quantum synchronization (2-node bulk stream)",
    )


def _dilation(grid, transport, policy):
    return grid[transport, policy][0].exec_time_ratio


LOSS_RATES = (0.0, 0.01, 0.02, 0.05)


def _faults(runner, sizes) -> dict:
    """Robustness R1, IS at 8 nodes over the recovery transport per drop rate,
    each run scored against the ground truth of its own fault plan:
    ``{(rate, label): (row, drops, retransmits)}``."""
    grid = {}
    for rate in LOSS_RATES:
        plan = FaultPlan(drop_rate=rate) if rate else None
        own = runner.derive(transport=TransportConfig(recovery=RecoveryConfig()), faults=plan)
        workload = IsWorkload()
        runs = _runs(own, [workload], (8,), COARSE[1:])
        for spec in COARSE[1:]:
            record = runs[workload.name, 8, spec.label]
            faults = record.result.fault_stats
            grid[rate, spec.label] = (
                own.compare(workload, record),
                faults.total_drops if faults is not None else 0,
                sum(t.retransmits for t in record.result.transport_stats or []),
            )
    return grid


def _faults_text(grid) -> str:
    return format_table(
        ["configuration", "drops", "retransmits", "stragglers", "error", "speedup"],
        [[f"{percent(rate, 0)} loss / {label}", drops, retransmits,
          percent(row.straggler_fraction), percent(row.accuracy_error), times(row.speedup)]
         for (rate, label), (row, drops, retransmits) in sorted(grid.items())],
        "IS n=8: accuracy and recovery traffic vs injected loss",
    )


def _retransmits(grid, label):
    return [grid[rate, label][2] for rate in LOSS_RATES]


def _sampling(runner, sizes):
    """Extension X1 (the paper's §7), 8-node EP: each sync x sampling
    quadrant.  "sampled" aligns the nodes' detailed windows; "staggered"
    offsets them, and the slowest node then sets every quantum's pace."""
    every = {"period": 5 * MILLISECOND, "detail_fraction": 0.2}
    schedules = {
        "detailed": None,
        "sampled": SamplingSchedule(**every),
        "staggered": SamplingSchedule(**every, phase_stagger=617 * US),
    }
    syncs = {
        "fixed 1us": lambda: FixedQuantumPolicy(US),
        "adaptive": lambda: AdaptiveQuantumPolicy(US, 1000 * US),
    }
    runs = {
        (sync, sampling): _simulate(runner.settings, EpWorkload(), 8, policy(), sampling=schedule)
        for sync, policy in syncs.items()
        for sampling, schedule in schedules.items()
    }
    base = runs["fixed 1us", "detailed"]
    return Data(runs=runs, gain={key: r.speedup_vs(base) for key, r in runs.items()})


def _sampling_text(d) -> str:
    return format_table(
        ["configuration", "host time", "speedup", "barrier share"],
        [[f"{sync} + {sampling}", f"{r.host_time:.1f}s", times(d.gain[sync, sampling]),
          f"{100 * r.breakdown.barrier_fraction:.0f}%"] for (sync, sampling), r in d.runs.items()],
        "Adaptive quantum x sampling on 8-node NAS-EP (paper §7 future work)",
    )


def service_study(runner, workload, size, specs):
    """Extension X2: the open-loop *workload* at *size* nodes under each
    spec, scored against the runner's ground truth: a comparison row per
    spec label, and every run's latency summary, the truth's first."""
    runs = _runs(runner, [workload], (size,), specs)
    records = [runs[workload.name, size, spec.label] for spec in specs]
    truth = runner.ground_truth(workload, size)
    stats = {f"{GROUND_TRUTH_LABEL} (truth)": workload.service_summary(truth.result)}
    stats.update((r.policy_label, workload.service_summary(r.result)) for r in records)
    return Data(size=size, truth_p99=truth.metric, stats=stats,
                rows={r.policy_label: runner.compare(workload, r) for r in records})


def service_text(d) -> str:
    table = format_table(
        ["quantum", "p99", "p99 error", "SLO miss", "speedup", "dilation"],
        [[label, f"{row.metric:.1f}us", percent(row.accuracy_error),
          percent(d.stats[label].slo_miss_rate), times(row.speedup, 2),
          times(row.exec_time_ratio, 2)] for label, row in d.rows.items()],
        f"Open-loop service at {d.size} nodes (ground truth p99 {d.truth_p99:.1f}us)",
    )
    return f"{table}\n\n{service_report(d.stats.items())}"


def _service(runner, sizes):
    """X2 on ``repro-cluster service``'s default workload."""
    profile = ArrivalProfile(rate_per_sec=20_000.0, num_requests=2_000)
    return service_study(runner, ServiceWorkload(profile=profile), 8, paper_policies())


def _adaptive_errors(d) -> list[float]:
    return [row.accuracy_error for label, row in d.rows.items() if "dyn" in label]


# --------------------------------------------------------------------- #
# Figure 3: one frame in a 10us quantum, on the real controller
# --------------------------------------------------------------------- #

QUANTUM = 10 * US


class _ScriptedCluster:
    """Two nodes advancing linearly at fixed rates inside one quantum."""

    def __init__(self, rates: tuple[float, float]) -> None:
        self.rates = rates  # simulated ns per host second

    def quantum_window(self):
        return (0, QUANTUM)

    def node_position_at(self, node: int, host_time: float) -> int:
        return min(round(self.rates[node] * host_time), QUANTUM)


def _scenarios(runner, sizes) -> dict:
    """Per scenario, node 0 sends one frame at 2us latency: ``{scenario:
    (delivery kind, deliver at us, extra delay us)}``."""
    out = {}
    for name, sender, receiver, send_time in [
        ("(a) equal speeds", 1000.0, 1000.0, 3 * US),
        ("(b) receiver raced ahead", 800.0, 2000.0, 3 * US),
        ("(c) receiver behind", 2000.0, 800.0, 3 * US),
        ("(d) receiver at barrier", 500.0, 5000.0, 4 * US),
    ]:
        controller = NetworkController(2, UniformLatencyModel(2 * US))
        controller.bind(_ScriptedCluster((sender, receiver)))
        packet = Packet(src=0, dst=1, size_bytes=128, send_time=send_time)
        decisions = controller.submit(packet, send_time / sender)
        decision = (decisions or controller.release_due(QUANTUM, 2 * QUANTUM))[0]
        out[name] = (decision.kind.value, decision.deliver_time / 1000, packet.delay_error / 1000)
    return out


def _scenarios_text(rows) -> str:
    return format_table(
        ["scenario", "delivery", "deliver at (us)", "extra delay (us)"],
        [(name, kind, f"{at:.2f}", f"{err:.2f}") for name, (kind, at, err) in rows.items()],
        "Figure 3 — delivery outcomes in a 10us quantum (latency 2us)",
    )


# --------------------------------------------------------------------- #
# The list
# --------------------------------------------------------------------- #

EXACT, STRAGGLER = DeliveryKind.EXACT_NOW.value, DeliveryKind.STRAGGLER_NOW.value
NEXT_QUANTUM = DeliveryKind.STRAGGLER_NEXT_QUANTUM.value
FIG3_A = "equal speeds → exact delivery"
FIG3_B = "receiver raced ahead → straggler with inflated latency"
FIG3_C = "receiver behind → *still exact* (delivery is scheduled, the case (c) optimisation)"
FIG3_D = "receiver at the barrier → latency snaps to the next quantum boundary"
MONOTONE = "error grows monotonically with the quantum and with node count"
F7_ADAPTIVE = '"always under 6% for our worst case, the 5% acceleration mode for 8-node system"'
HEADLINE = '"an acceleration factor of 26x ... at less than a 1% accuracy error"'
PARETO = '"All adaptive configurations lie in or very near the Pareto curve"'
EP_SPEED = "Our adaptive run is *better* than the paper's (54x vs 12.9x)"
EP_TEXT = '"our adaptive technique is able to reduce the synchronization overhead"'
IS_ORDER = "100 µs is fastest and diverges worst"
IS_TEXT = '"with a very conservative adaptation schedule we regain some level of accuracy"'
NAMD_Q100 = "| 100 µs | 77.2x / 104 % |"
INCDEC = '"grow the quantum in very small increments (such as 2% to 5%)"'
OVERHEAD = "the barrier accounts for >97 % of host time at Q=1 µs and <50 % at 1000 µs"
A2 = "the adaptive quantum beats every *exact* scheme's host time ... at <5 % error"
A3 = "dilation compounding from 1.03x (eager) to 6.2x (16 KiB windows) at Q=1000 µs"
R1_ADAPTIVE = "the adaptive quantum stays under 5 % error and 5 % stragglers at every loss rate"
R1_FIXED = "the 1000 µs quantum mis-times over half the frames and pays over 3x the adaptive error"
R1_REPAIR = "every injected drop is repaired, and retransmits grow with the loss rate"
R1_CLEAN = "a clean fabric: the adaptive run retransmits nothing, the 1000 µs run fires RTOs"
SAMPLING_ALONE = "sampling alone (Q = 1 µs) | 1.0x — useless: the barrier is 99 % of cost"
X1 = "the techniques are complementary exactly as §7 predicts"
X2_ADAPTIVE = '"the adaptive quantum tracks the true percentiles to within a fraction of a percent"'
X2_FIXED = '"A large fixed quantum ... dilating p99 by orders of magnitude"'


ARTEFACTS: tuple[Artefact, ...] = (
    Artefact("fig3_scenarios", _scenarios, _scenarios_text, hand_wired=True, claims=(
        Claim("a_exact", FIG3_A, lambda d: d["(a) equal speeds"][0] == EXACT),
        Claim("a_no_extra_delay", FIG3_A, lambda d: d["(a) equal speeds"][2] == 0.0),
        Claim("b_straggler", FIG3_B, lambda d: d["(b) receiver raced ahead"][0] == STRAGGLER),
        Claim("b_extra_delay", FIG3_B, lambda d: d["(b) receiver raced ahead"][2] > 0.0),
        Claim("c_exact", FIG3_C, lambda d: d["(c) receiver behind"][0] == EXACT),
        Claim("c_no_extra_delay", FIG3_C, lambda d: d["(c) receiver behind"][2] == 0.0),
        Claim("d_next_quantum", FIG3_D, lambda d: d["(d) receiver at barrier"][0] == NEXT_QUANTUM),
        Claim("d_snaps_to_boundary", FIG3_D,
              lambda d: d["(d) receiver at barrier"][1] == QUANTUM / 1000),
    )),
    Artefact(
        "fig6_nas", nas_cells, _matrix_text("Figure 6 — NAS (harmonic mean over EP/IS/CG/MG/LU)"),
        command="fig6", sizes=PAPER_SIZES, claims=(
            Claim("error_grows_with_quantum", MONOTONE,
                  lambda d: all(_errors(d, n) == sorted(_errors(d, n)) for n in PAPER_SIZES)),
            Claim("q1000_error_grows_with_nodes",
                  '"longer quanta is progressively more harmful ... as the number of nodes '
                  'increases"',
                  lambda d: [d["1k", n].accuracy_error for n in PAPER_SIZES]
                  == sorted(d["1k", n].accuracy_error for n in PAPER_SIZES)),
            Claim("adaptive_error_under_5pct_at_8",
                  "adaptive error stays in the low single digits at every size",
                  lambda d: all(d[label, 8].accuracy_error < 0.05 for label in DYN)),
            Claim("q1000_speedup_over_50x", "fixed quanta follow the paper's ~9x/~45x/~65x ladder",
                  lambda d: d["1k", 8].speedup > 50),
            Claim("q1000_error_over_15pct", "22.5 % vs ~85 % at Q=1000 µs/8p",
                  lambda d: d["1k", 8].accuracy_error > 0.15),
            Claim("adaptive_speedup_between_10us_and_1000us",
                  "adaptive speedup lands between the 10 µs and 100 µs fixed settings",
                  lambda d: all(d["10", 8].speedup < d[label, 8].speedup < d["1k", 8].speedup
                                for label in DYN)),
            Claim("adaptive_speedup_over_10x", "(paper: 26x, ours: 20–27x)",
                  lambda d: all(d[label, 8].speedup > 10 for label in DYN)),
            Claim("dyn2_faster_than_dyn1", "dyn-2 is faster than dyn-1",
                  lambda d: d[DYN[1], 8].speedup > d[DYN[0], 8].speedup),
        ),
    ),
    Artefact(
        "fig7_namd", namd_cells, _matrix_text("Figure 7 — NAMD"),
        command="fig7", sizes=PAPER_SIZES, claims=(
            Claim("error_grows_with_quantum", MONOTONE,
                  lambda d: all(_errors(d, n) == sorted(_errors(d, n)) for n in PAPER_SIZES)),
            Claim("adaptive_error_under_6pct", F7_ADAPTIVE,
                  lambda d: all(d[label, n].accuracy_error < 0.06
                                for label in DYN for n in PAPER_SIZES)),
            Claim("q1000_error_over_twice_adaptive",
                  "adaptive error is far below the fixed-quantum errors",
                  lambda d: d["1k", 8].accuracy_error > d[DYN[1], 8].accuracy_error * 2),
            Claim("headline_speedup_over_18x", HEADLINE, lambda d: d[DYN[0], 8].speedup > 18),
            Claim("headline_error_under_1pct", HEADLINE,
                  lambda d: d[DYN[0], 8].accuracy_error < 0.01),
            Claim("q1000_speedup_over_50x", '"The speed figures are as impressive as NAS"',
                  lambda d: d["1k", 8].speedup > 50),
        ),
    ),
    Artefact("fig8_pareto", pareto_points, _pareto_text, command="fig8", claims=(
        Claim("ten_points", "NAS and NAMD under all five configurations", lambda d: len(d) == 10),
        Claim("front_nonempty", PARETO, lambda d: bool(pareto_front(d))),
        Claim("four_adaptive_points", PARETO, lambda d: sum("dyn" in p.label for p in d) == 4),
        Claim("adaptive_near_family_front",
              "every adaptive configuration lies on the Pareto front of its benchmark family",
              _near_family_fronts),
        Claim("fastest_front_point_is_1000us", "the front spans ... to fast-and-wrong (1000 µs)",
              lambda d: max(pareto_front(d), key=lambda p: p.speedup).label.endswith("1k")),
        Claim("most_accurate_front_point_is_adaptive_or_10us",
              "the front spans accurate-and-slow (small fixed quanta / adaptive)",
              lambda d: "dyn" in _most_accurate(d) or _most_accurate(d).endswith("10")),
    )),
    Artefact("sec6_ep", *_scaleout("EP"), command="sec6", case="EP", claims=(
        Claim("speed_order_100us_dyn_10us", EP_SPEED,
              lambda d: d["100us"].speedup > d["dyn 1:100"].speedup > d["10us"].speedup),
        Claim("q100_speedup_over_50x", "Fixed-quantum rows match the paper within ~10 %",
              lambda d: d["100us"].speedup > 50),
        Claim("adaptive_more_accurate_than_100us", EP_TEXT,
              lambda d: d["dyn 1:100"].accuracy_error < d["100us"].accuracy_error),
        Claim("adaptive_error_under_1pct", '"and preserve an excellent precision"',
              lambda d: d["dyn 1:100"].accuracy_error < 0.01),
        Claim("q100_error_under_5pct", '"because of its limited amount of communication"',
              lambda d: d["100us"].accuracy_error < 0.05),
        Claim("adaptive_mean_quantum_over_20us",
              "Algorithm 1 sits at its 100 µs ceiling nearly all run",
              lambda d: d["dyn 1:100"].mean_quantum > 20_000),
    )),
    Artefact("sec6_is", *_scaleout("IS"), command="sec6", case="IS", claims=(
        Claim("q100_dilates_over_1_2x", IS_ORDER, lambda d: d["100us"].exec_time_ratio > 1.2),
        Claim("q100_dilates_more_than_10us", IS_ORDER,
              lambda d: d["100us"].exec_time_ratio > d["10us"].exec_time_ratio),
        Claim("adaptive_dilation_under_1_1x", IS_TEXT,
              lambda d: d["dyn 1:100"].exec_time_ratio < 1.1),
        Claim("q100_fastest", IS_ORDER, lambda d: d["100us"].speedup > d["dyn 1:100"].speedup),
        Claim("adaptive_about_as_fast_as_10us", "the adaptive schedule is faster than 10 µs fixed",
              lambda d: d["dyn 1:100"].speedup >= d["10us"].speedup * 0.9),
        Claim("adaptive_error_fifth_of_100us", IS_TEXT,
              lambda d: d["dyn 1:100"].accuracy_error < d["100us"].accuracy_error / 5),
        Claim("adaptive_error_under_5pct", IS_TEXT,
              lambda d: d["dyn 1:100"].accuracy_error < 0.05),
    )),
    Artefact("sec6_namd", *_scaleout("NAMD"), command="sec6", case="NAMD", claims=(
        Claim("q100_speedup_over_30x", NAMD_Q100, lambda d: d["100us"].speedup > 30),
        Claim("q100_error_over_10pct", NAMD_Q100, lambda d: d["100us"].accuracy_error > 0.10),
        Claim("adaptive_speedup_capped_under_12x",
              '"the continuous presence of packets ... caps the speedup gain below 10x"',
              lambda d: d["dyn 2:100"].speedup < 12),
        Claim("adaptive_quantum_near_10us",
              '"automatically adjusts to approximate the best quantum (around 10us)"',
              lambda d: 2_000 < d["dyn 2:100"].mean_quantum < 25_000),
        Claim("adaptive_error_under_1pct", "| dyn 2:100 | 6.5x / 0.79 % |",
              lambda d: d["dyn 2:100"].accuracy_error < 0.01),
        Claim("adaptive_at_least_as_accurate_as_10us",
              "approximating the best fixed quantum ... without any manual sweep",
              lambda d: d["dyn 2:100"].accuracy_error <= d["10us"].accuracy_error),
    )),
    Artefact("fig9a_ep", *_timeline("EP"), command="fig9", case="EP", claims=(
        Claim("mostly_silent_wire",
              "busy fraction 0.01 — bursts at startup/teardown, silence between",
              lambda d: d.busy < 0.25),
        Claim("speedup_rides_high", "the adaptive speedup curve rides at 20–70x",
              lambda d: max(d.speedups) > 20),
    )),
    Artefact("fig9b_is", *_timeline("IS"), command="fig9", case="IS", claims=(
        Claim("periodic_bursts_busy_fraction",
              "busy fraction 0.11 with clean periodic all-to-all bursts",
              lambda d: 0.05 < d.busy < 0.6),
        Claim("speedup_swings_4x",
              "the speedup-over-time series swings >4x between compute stretches and exchange "
              "bursts", lambda d: max(d.speedups) > 4 * min(d.speedups)),
    )),
    Artefact("fig9c_namd", *_timeline("NAMD"), command="fig9", case="NAMD", claims=(
        Claim("wire_busy_most_of_run",
              '"no visible interval where the application is not exchanging data"',
              lambda d: d.busy > 0.6),
        Claim("median_speedup_under_12x", "the speedup series' median stays below 10x",
              lambda d: statistics.median(d.speedups) < 12),
    )),
    Artefact("ablation_overhead", _overhead, _overhead_text, hand_wired=True, claims=(
        Claim("barrier_share_falls_with_quantum", OVERHEAD,
              lambda d: d.fractions == sorted(d.fractions, reverse=True)),
        Claim("barrier_dominates_at_1us", OVERHEAD, lambda d: d.fractions[0] > 0.9),
        Claim("barrier_amortized_at_1000us", OVERHEAD, lambda d: d.fractions[-1] < 0.5),
        Claim("host_time_falls_with_quantum", OVERHEAD,
              lambda d: d.hosts == sorted(d.hosts, reverse=True)),
        Claim("jitter_inflates_cost", '"the slowest node sets the pace"',
              lambda d: d.pace[2] > 1.0),
        Claim("more_nodes_inflate_more", "more at 8 nodes than at 2",
              lambda d: d.pace[8] > d.pace[2]),
    )),
    Artefact("ablation_incdec", _inc_dec, sweep_text, command="sweep", claims=(
        Claim("hard_braking_beats_weak_on_is", '"but decrease it very quickly"',
              lambda d: d["IS"]["1.03:0.02"].accuracy_error < d["IS"]["1.03:0.90"].accuracy_error),
        Claim("reckless_corner_less_accurate",
              "weak braking (dec 0.9) or aggressive growth (inc 1.30) degrade accuracy",
              lambda d: d["IS"]["1.30:0.90"].accuracy_error > d["IS"]["1.03:0.02"].accuracy_error),
        Claim("paper_settings_accurate_on_is",
              "gentle growth with hard braking (1.03–1.05 : 0.02) is the accurate corner",
              lambda d: all(d["IS"][p].accuracy_error < 0.05
                            for p in ("1.03:0.02", "1.05:0.02"))),
        Claim("paper_dyn1_fast_on_ep", INCDEC, lambda d: d["EP"]["1.03:0.02"].speedup > 20),
        Claim("paper_dyn2_fast_on_ep", INCDEC, lambda d: d["EP"]["1.05:0.02"].speedup > 20),
        Claim("growth_is_speed_lever_on_ep",
              "On the friendly workload (EP), growth rate is purely a speed lever",
              lambda d: d["EP"]["1.30:0.02"].speedup > d["EP"]["1.03:0.02"].speedup),
    )),
    Artefact("ablation_strategies", _strategies, _strategies_text, hand_wired=True, claims=(
        Claim("adaptive_beats_lockstep", A2, lambda d: d.adaptive.host_time < d.truth.host_time),
        Claim("adaptive_beats_null_messages", A2,
              lambda d: d.adaptive.host_time < d.null.host_time),
        Claim("adaptive_beats_optimistic", A2,
              lambda d: d.adaptive.host_time < d.optimistic.host_time),
        Claim("adaptive_error_under_5pct", A2, lambda d: d.error < 0.05),
        Claim("free_running_spread_exceeds_adaptive_error",
              'Free running is faster still but its "timing" changes with the host seed',
              lambda d: d.spread > d.error),
        Claim("optimistic_10x_slower_than_lockstep",
              "orders of magnitude slower than even the fully synchronized baseline",
              lambda d: d.optimistic.host_time > 10 * d.truth.host_time),
        Claim("null_messages_scale_quadratically",
              "72x the protocol cost at 64 LPs vs the barrier's ~3.9x",
              lambda d: abs(d.null64.sync_overhead - 72 * d.null.sync_overhead)
              <= max(1e-6 * abs(72 * d.null.sync_overhead), 1e-12)),
        Claim("null_messages_at_64_nodes_10x_slower", "Null messages ... scale as O(N²)",
              lambda d: d.null64.host_time > 10 * d.truth.host_time),
    )),
    Artefact("ablation_transport", _transport, _transport_text, command="transport", claims=(
        Claim("window_compounds_dilation", A3, lambda d: all(
            _dilation(d, "eager (no window)", p) < _dilation(d, "windowed 64KiB", p)
            < _dilation(d, "windowed 16KiB", p) for p in ("100us", "1000us"))),
        Claim("compounding_several_fold_at_1000us", A3,
              lambda d: _dilation(d, "windowed 16KiB", "1000us")
              > 2 * _dilation(d, "eager (no window)", "1000us")),
        Claim("adaptive_exact_under_every_transport",
              "while the adaptive quantum stays exact under every transport",
              lambda d: all(d[t, "dyn 1:1000"][0].accuracy_error < 0.005 for t in TRANSPORTS)),
    )),
    Artefact("faults_accuracy", _faults, _faults_text, claims=(
        Claim("adaptive_error_under_5pct_at_every_loss", R1_ADAPTIVE,
              lambda d: all(d[r, "dyn 1:1000"][0].accuracy_error < 0.05 for r in LOSS_RATES)),
        Claim("q1000_mistimes_over_half", R1_FIXED,
              lambda d: all(d[r, "1000us"][0].straggler_fraction > 0.5 for r in LOSS_RATES)),
        Claim("adaptive_stragglers_under_5pct", R1_ADAPTIVE,
              lambda d: all(d[r, "dyn 1:1000"][0].straggler_fraction < 0.05
                            for r in LOSS_RATES)),
        Claim("q1000_error_over_3x_adaptive", R1_FIXED, lambda d: all(
            d[r, "1000us"][0].accuracy_error > 3 * d[r, "dyn 1:1000"][0].accuracy_error
            for r in LOSS_RATES)),
        Claim("loss_injected", R1_REPAIR,
              lambda d: all(d[r, "dyn 1:1000"][1] > 0 for r in LOSS_RATES if r)),
        Claim("adaptive_repairs_loss", R1_REPAIR,
              lambda d: all(d[r, "dyn 1:1000"][2] > 0 for r in LOSS_RATES if r)),
        Claim("q1000_repairs_loss", R1_REPAIR,
              lambda d: all(d[r, "1000us"][2] > 0 for r in LOSS_RATES if r)),
        Claim("clean_fabric_adaptive_silent", R1_CLEAN,
              lambda d: _retransmits(d, "dyn 1:1000")[0] == 0),
        Claim("rtt_inflation_fires_rtos", R1_CLEAN, lambda d: _retransmits(d, "1000us")[0] > 0),
        Claim("retransmits_grow_with_loss", R1_REPAIR, lambda d: all(
            _retransmits(d, label)[1] < _retransmits(d, label)[-1]
            for label in ("dyn 1:1000", "1000us"))),
    )),
    Artefact("extension_sampling", _sampling, _sampling_text, command="sampling",
             hand_wired=True, claims=(
        Claim("barrier_dominates_at_1us", SAMPLING_ALONE,
              lambda d: d.runs["fixed 1us", "detailed"].breakdown.barrier_fraction > 0.9),
        Claim("sampling_alone_useless", SAMPLING_ALONE,
              lambda d: d.gain["fixed 1us", "sampled"] < 1.5),
        Claim("adaptive_alone_removes_barrier_bill",
              "once the adaptive quantum has removed the barrier bill",
              lambda d: d.gain["adaptive", "detailed"] > 5),
        Claim("combination_beats_adaptive", X1,
              lambda d: d.gain["adaptive", "sampled"] > d.gain["adaptive", "detailed"]),
        Claim("combination_beats_sampling", X1,
              lambda d: d.gain["adaptive", "sampled"] > d.gain["fixed 1us", "sampled"]),
        Claim("aligned_beats_staggered", "per-node sampling schedules must be *aligned*",
              lambda d: d.runs["adaptive", "sampled"].host_time
              < d.runs["adaptive", "staggered"].host_time),
    )),
    Artefact("x2_service", _service, service_text, claims=(
        Claim("adaptive_p99_error_under_5pct", X2_ADAPTIVE,
              lambda d: max(_adaptive_errors(d)) <= 0.05),
        Claim("adaptive_p99_error_under_1pct", X2_ADAPTIVE,
              lambda d: max(_adaptive_errors(d)) < 0.01),
        Claim("q1000_error_at_least_adaptive", X2_FIXED,
              lambda d: d.rows["1k"].accuracy_error >= max(_adaptive_errors(d))),
        Claim("q1000_p99_over_100x_truth", X2_FIXED,
              lambda d: d.rows["1k"].metric > 100 * d.truth_p99),
        Claim("fixed_quanta_miss_slo_over_95pct",
              '"the fixed quanta miss the SLO on nearly every request"',
              lambda d: all(d.stats[label].slo_miss_rate > 0.95 for label in ("10", "100", "1k"))),
        Claim("adaptive_faster_than_truth", '"and still runs faster than the ground truth"',
              lambda d: all(d.rows[label].speedup > 1 for label in DYN)),
    )),
)
