"""The differential oracle: every accelerated path against scalar-python.

Every run is a pure function of its configuration, and every accelerated
path (the vectorized/drain stepper, the native core, shards, a checkpoint
resume) must reproduce the scalar pure-python run of the same
configuration bit for bit.  This module states that check once:
:func:`build` turns a :class:`Config` into a fresh simulator, ``CONFIGS``
declares the cases, ``VARIANTS`` the execution paths (one line each; the
native ones only when the compiled core is importable; the shard and
resume ones on :data:`CORE`), and a config's tags name the variants (or
variant groups) it runs under.

A (config, variant) pair asserts that the ``RunResult``, trace events and
counts equal the config's scalar-python run (kept once a session by
:func:`reference`), that a degrading variant gives the expected reason,
and that dropping each simulator frees it by refcount alone (gc off,
weakrefs dead).  :func:`check` runs pairs by name, and a failure names
its pair, e.g. ``IS-8-dyn1.03[shards=2]``.  Tests that predate the oracle
check the pairs they name; ``tests/test_oracle.py`` checks the rest.
"""

from __future__ import annotations

import functools
import gc
import tempfile
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional

from repro.checkpoint import CheckpointConfig, restore_snapshot
from repro.core import (AdaptiveQuantumPolicy, ClusterConfig, ClusterSimulator, FixedQuantumPolicy,
                        RunResult)
from repro.engine.backend import native_available, resolve_backend
from repro.engine.units import MICROSECOND
from repro.faults.plan import FaultPlan, load_plan
from repro.network import NetworkController, PAPER_NETWORK
from repro.node import ComputeTime, Recv, Send, SimulatedNode
from repro.node.hostmodel import HostModelParams
from repro.node.transport import RecoveryConfig, TransportConfig
from repro.obs.collector import TraceConfig
from repro.service import ArrivalProfile, ServiceWorkload
from repro.shard import run_sharded
from repro.workloads import EpWorkload, IsWorkload, NamdWorkload

US = MICROSECOND
NATIVE = native_available()
#: The engine cores a test can select: python always, native when built.
BACKENDS = ("python", "native") if NATIVE else ("python",)
#: The core of the shard and resume variants: the one ``backend="auto"``
#: runs here, so native when built unless the environment says otherwise.
CORE = {"backend": resolve_backend("auto").name}
RECOVERY = TransportConfig(recovery=RecoveryConfig())
# Snapshots go to the oracle's sinks, never to a store in this directory.
EVERY_QUANTUM = CheckpointConfig(directory=tempfile.gettempdir(), every_quanta=1)


def fixed(quantum_us: float) -> Callable[[], FixedQuantumPolicy]:
    return lambda: FixedQuantumPolicy(int(quantum_us * US))


def dyn(inc: float) -> Callable[[], AdaptiveQuantumPolicy]:
    """The paper's adaptive policy, 1 us to 1000 us."""
    return lambda: AdaptiveQuantumPolicy(US, 1000 * US, inc=inc, dec=0.02)


def workload(cls: type, **params: Any) -> Callable[[int], list]:
    """The applications of a fresh ``cls(**params)`` per build."""
    return lambda size: cls(**params).build_apps(size)


def gather_apps(size):
    """Every rank sends rank 0 four messages, two per tag, at time zero;
    rank 0 returns the order it received them in: frames due at one
    instant reach it in the order the network was handed them."""

    def sender():
        for tag in (0, 0, 1, 1):
            yield Send(dst=0, nbytes=64, tag=tag)

    def receiver():
        order = []
        for _ in range(4 * (size - 1)):
            message = yield Recv()
            order.append((message.src, message.tag))
        return order

    return [receiver()] + [sender() for _ in range(1, size)]


def pingpong_apps(size=2, rounds=12, gap=30 * US, nbytes=256, payload=None):
    """Two ranks trading *rounds* messages."""
    assert size == 2

    def pinger():
        for _ in range(rounds):
            yield Send(dst=1, nbytes=nbytes, payload=payload)
            yield Recv(src=1)
            yield ComputeTime(gap)
        return "ping"

    def ponger():
        for _ in range(rounds):
            yield Recv(src=0)
            yield Send(dst=0, nbytes=nbytes, payload=payload)
        return "pong"

    return [pinger(), ponger()]


@dataclass(eq=False)  # hashed by identity: it keys the snapshot cache
class Config:
    """One simulated configuration and the variants it runs under."""

    name: str
    apps: Callable[[int], list]  # cluster size -> one application per node
    size: int
    policy: Callable[[], Any]
    tags: str = ""  # variant names or groups, space-separated
    seed: int = 7
    transport: Optional[TransportConfig] = None
    options: dict = field(default_factory=dict)  # ClusterConfig fields
    #: Part of the reason ``run_sharded`` must give for running this
    #: config serially; None when it shards.
    serial: Optional[str] = None


def build(config: Config, **options: Any) -> ClusterSimulator:
    """A fresh simulator of *config*: scalar stepper and python core under
    the config's ``ClusterConfig`` fields, under *options*."""
    nodes = [
        SimulatedNode(i, app, transport=config.transport)
        for i, app in enumerate(config.apps(config.size))
    ]
    controller = NetworkController(config.size, PAPER_NETWORK(config.size))
    fields = {"seed": config.seed, "backend": "python", "vectorized": False}
    cluster = ClusterConfig(**{**fields, **config.options, **options})
    return ClusterSimulator(nodes, controller, config.policy(), cluster)


@dataclass
class Variant:
    """One execution path of a config, compared to its scalar-python run."""

    name: str
    group: str = ""
    options: dict = field(default_factory=dict)  # ClusterConfig fields of the run
    shards: int = 1  # > 1: through run_sharded
    #: Resume variants: the ``ClusterConfig`` fields of a run that writes a
    #: snapshot every quantum, and which of its snapshots the run restores.
    capture: Optional[dict] = None
    at: str = "first mid last"


VARIANTS = [
    variant
    for variant in (
        Variant("vectorized", "grid", {"vectorized": True}),
        Variant("native", "grid", {"backend": "native"}),
        Variant("native+vectorized", "grid", {"backend": "native", "vectorized": True}),
        Variant("checked", "checked", {"check": True, "vectorized": True}),
        Variant("shards=2", "shard", CORE, shards=2),
        Variant("shards=3", "shard", CORE, shards=3),
        Variant("shards=4", "shard", CORE, shards=4),
        Variant("resume@first", "resume", CORE, capture=CORE, at="first"),
        Variant("resume@mid", "resume", CORE, capture=CORE, at="mid"),
        Variant("resume@last", "resume", CORE, capture=CORE, at="last"),
        Variant("resume@mid:vectorized>scalar", "resume", CORE,
                capture={**CORE, "vectorized": True}, at="mid"),
        Variant("resume@mid:scalar>vectorized", "resume", {**CORE, "vectorized": True},
                capture=CORE, at="mid"),
        Variant("resume@mid:vectorized>vectorized", "resume", {**CORE, "vectorized": True},
                capture={**CORE, "vectorized": True}, at="mid"),
        Variant("resume:python>native", "resume", {"backend": "native"}, capture={}),
        Variant("resume:native>python", "resume", capture={"backend": "native"}),
    )
    if NATIVE or "native" not in variant.name
]
SCALAR_PYTHON = Variant("scalar-python")  # the reference itself


def runs_under(config: Config, variant: Variant) -> bool:
    """Whether *config* declares *variant*.  A shard count above the
    cluster size clamps to a count already run, so it is not a pair."""
    tags = config.tags.split()
    return (variant.name in tags or variant.group in tags) and variant.shards <= config.size


# --------------------------------------------------------------------- #
# The declared configurations
# --------------------------------------------------------------------- #

KERNELS = {"EP": EpWorkload, "IS": IsWorkload, "NAMD": NamdWorkload}
POLICIES = {"1us": fixed(1), "10us": fixed(10), "100us": fixed(100),
            "dyn1.03": dyn(1.03), "dyn1.05": dyn(1.05)}
WIDE = "exceeds the minimum network latency"  # max_Q > T: windows not drainable
TRACED = {"trace": TraceConfig()}
LOSSY = {"faults": load_plan("lossy-1")}


def _configs():
    # The Figure 6/7 cells: three kernels x three sizes x five policies.
    for kernel, cls in KERNELS.items():
        for size in (2, 4, 8):
            for label, policy in POLICIES.items():
                tags = "grid shard" if label == "1us" else "grid"
                if (kernel, size) == ("IS", 4) and label in ("1us", "dyn1.03"):
                    tags += " checked"
                if f"{kernel}-{size}-{label}" in ("IS-4-10us", "NAMD-4-dyn1.03"):
                    tags += " shards=2"
                yield Config(f"{kernel}-{size}-{label}", workload(cls), size, policy, tags,
                             serial=None if label == "1us" else WIDE)
    # Observation modes and transports of the 4-node kernels.
    for label in ("1us", "dyn1.03"):
        gt, policy = label == "1us", POLICIES[label]
        for kernel, cls in KERNELS.items():
            yield Config(f"{kernel}-4-{label}-traced", workload(cls), 4, policy,
                         "grid shards=2" if gt and kernel == "IS" else "grid",
                         options=TRACED, serial="traced")
            yield Config(f"{kernel}-4-{label}-timeline", workload(cls), 4, policy,
                         "grid shards=2" if gt and kernel != "EP" else "grid",
                         options={"timeline_bucket": 50 * US}, serial=None if gt else WIDE)
        for preset in ("lossy-1", "jittery"):
            yield Config(f"IS-4-{label}-{preset}", workload(IsWorkload), 4, policy,
                         "grid shards=2" if gt and preset == "lossy-1" else "grid",
                         transport=RECOVERY, options={"faults": load_plan(preset)},
                         serial="fault-injected")
        yield Config(f"IS-4-{label}-recovery", workload(IsWorkload), 4, policy, "grid",
                     transport=RECOVERY)
    # Windows wider than the network latency: the service fan-out, and IS-8
    # under the adaptive policy, traced and over the recovery transport.
    service = workload(ServiceWorkload, seed=5,
                       profile=ArrivalProfile(rate_per_sec=400_000.0, num_requests=200))
    yield Config("service-8-1000us", service, 8, fixed(1000), "grid")
    yield Config("service-8-1000us-traced", service, 8, fixed(1000), "grid", options=TRACED)
    yield Config("service-8-1000us-recovery", service, 8, fixed(1000), "grid",
                 transport=RECOVERY)
    yield Config("IS-8-dyn1.03-traced", workload(IsWorkload), 8, dyn(1.03), "grid",
                 options=TRACED)
    yield Config("IS-8-dyn1.03-lossy-1", workload(IsWorkload), 8, dyn(1.03), "grid",
                 transport=RECOVERY, options=LOSSY)
    # A known deadlock, of the scalar-python run itself (so no variant can
    # be compared to it): the recovery transport hands a retransmitted
    # message to the NIC after a later one from the same sender, so a stop
    # sentinel can overtake a request and end a server early.
    yield Config("service-4-1us-lossy-1", workload(
        ServiceWorkload, profile=ArrivalProfile(rate_per_sec=20_000.0, num_requests=40),
    ), 4, fixed(1), transport=RECOVERY, options=LOSSY)
    yield Config("gather-8-1us", gather_apps, 8, fixed(1), "grid shard")
    # Loop-level options a sharded run must honour as a serial one does.
    for kernel, cls in KERNELS.items():
        yield Config(f"{kernel}-4-1us-checked", workload(cls), 4, fixed(1),
                     "shards=2 shards=4", options={"check": True})
    yield Config("IS-8-1us-recovery", workload(IsWorkload), 8, fixed(1), "shard",
                 transport=RECOVERY)
    for kernel in ("IS", "NAMD"):
        yield Config(f"{kernel}-4-1us-jitter0", workload(KERNELS[kernel]), 4, fixed(1),
                     "shards=2", options={"host_params": HostModelParams(jitter_sigma=0)})
    # Every quantum a barrier round trip: a small input keeps it to ~900.
    yield Config("IS15-4-1us-no-ff", workload(IsWorkload, total_keys=2**15, iterations=2),
                 4, fixed(1), "shards=2", options={"fast_forward": False})
    # Stops about half-way through IS-4's 272 ms.
    yield Config("IS-4-1us-limit", workload(IsWorkload), 4, fixed(1), "shards=2",
                 options={"sim_time_limit": 135_000 * US, "timeline_bucket": 50 * US})
    # Kill-and-resume (and the 10 us ping-pong runs below).
    yield Config("pingpong30-faulted", functools.partial(pingpong_apps, rounds=30), 2,
                 fixed(10), "resume", transport=RECOVERY, options={
                     "check": True,
                     "faults": FaultPlan(drop_rate=0.03, jitter_rate=0.02, jitter_max=5000)})
    yield Config("IS-8-5us", workload(IsWorkload, total_keys=2**12, iterations=2,
                                      ops_per_key=8), 8, fixed(5), "resume")
    yield Config("service-8-100us", workload(ServiceWorkload, seed=5, profile=ArrivalProfile(
        rate_per_sec=400_000.0, num_requests=40)), 8, fixed(100), "resume")
    # Small runs in every observation mode, on ground-truth (drained) and
    # interleaved windows.
    every_4_quanta = CheckpointConfig(directory=tempfile.gettempdir(), every_quanta=4)
    for quantum in (1, 10):
        for mode, options in (("", {}), ("-traced", TRACED), ("-checked", {"check": True}),
                              ("-checkpointed", {"checkpoint": every_4_quanta})):
            tags = "grid resume" if quantum == 10 and mode in ("", "-checked") else "grid"
            yield Config(f"pingpong-{quantum}us{mode}", pingpong_apps, 2, fixed(quantum),
                         tags, seed=11, options=options)


CONFIGS = {config.name: config for config in _configs()}
PAIRS = {
    f"{config.name}[{variant.name}]": (config, variant)
    for config in CONFIGS.values()
    for variant in VARIANTS
    if runs_under(config, variant)
}


def pairs(*names: str, group: Optional[str] = None) -> list[str]:
    """The declared pairs of the configs *names*, of one variant group."""
    return [pair for pair, (config, variant) in PAIRS.items()
            if config.name in names and group in (None, variant.group)]


# --------------------------------------------------------------------- #
# Running and comparing
# --------------------------------------------------------------------- #


class Run(NamedTuple):
    result: RunResult
    events: Optional[list]
    counts: Optional[dict]


@contextmanager
def gc_disabled():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def watch(sim: ClusterSimulator) -> list:
    """Weakrefs to the simulator, its controller and its last node."""
    return [weakref.ref(obj) for obj in (sim, sim.controller, sim.nodes[-1])]


def assert_dead(refs: list) -> None:
    assert [ref() for ref in refs] == [None] * len(refs), "not freed by refcount"


def _discard(_snapshot) -> None:
    pass


def run(config: Config, variant: Variant = SCALAR_PYTHON, snapshot=None,
        sink: Optional[Callable] = None) -> Run:
    """Run *config* under *variant* with gc off, from *snapshot* when given.

    A resumed run, or one whose snapshots go to *sink*, writes a snapshot
    every quantum.  Asserts that the variant ran as requested (or degraded
    as the config declares) and that dropping the simulator freed it by
    refcount alone.
    """
    options = dict(variant.options)
    if snapshot is not None or sink is not None:
        options["checkpoint"] = EVERY_QUANTUM
    with gc_disabled():
        if variant.shards > 1:
            outcome = run_sharded(lambda: build(config, **options), variant.shards)
            if config.serial is None:
                expected = (min(variant.shards, config.size), None)
                assert (outcome.shards, outcome.fallback_reason) == expected
            else:
                assert outcome.shards == 1
                assert config.serial in (outcome.fallback_reason or "")
            sim, result = outcome.simulator, outcome.result
            del outcome
        else:
            sim = build(config, **options)
            sim.checkpoint_sink = sink or _discard
            if snapshot is not None:
                restore_snapshot(sim, snapshot)
            result = sim.run()
            # An explicitly requested core runs, never degrades.
            assert (sim.backend, sim.backend_fallback_reason) == (
                options.get("backend", "python"), None)
        collector = sim.collector
        observed = Run(
            result,
            None if collector is None else list(collector.events),
            None if collector is None else dict(collector.counts),
        )
        refs = watch(sim)
        del sim, collector
        assert_dead(refs)
    return observed


def scalar_python(config: Config) -> Run:
    """The reference run of *config*: scalar stepper, python core."""
    observed = run(config)
    assert observed.result.completed is ("sim_time_limit" not in config.options)
    return observed


@functools.cache
def reference(name: str) -> Run:
    """The scalar-python run of the declared config *name*, once a session."""
    return scalar_python(CONFIGS[name])


#: The snapshots of a config's checkpointing run, per capture options.
_SNAPSHOTS: dict = {}


def verify(config: Config, variant: Variant, expected: Optional[Run] = None) -> None:
    """Run *config* under *variant*; it must equal the scalar-python run
    (*expected*, else a fresh one)."""
    expected = expected or scalar_python(config)
    if variant.capture is None:
        assert run(config, variant) == expected
        return
    key = (config, tuple(sorted(variant.capture.items())))
    if key not in _SNAPSHOTS:
        snaps: list = []
        captured = run(config, Variant("capture", options=variant.capture), sink=snaps.append)
        assert captured.result == expected.result, "checkpointing changed the result"
        _SNAPSHOTS[key] = {"first": snaps[0], "mid": snaps[len(snaps) // 2], "last": snaps[-1]}
    for point in variant.at.split():
        resumed = run(config, variant, _SNAPSHOTS[key][point]).result
        assert resumed == expected.result, f"resumed from the {point} snapshot"


def check(*pairs: str) -> None:
    """:func:`verify` the declared *pairs*, naming the one that fails."""
    assert pairs, "no declared pair"
    for pair in pairs:
        config, variant = PAIRS[pair]
        try:
            verify(config, variant, reference(config.name))
        except AssertionError as error:
            raise AssertionError(f"{pair}: {error}") from error
