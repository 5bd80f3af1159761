"""A finished simulator is freed by reference counting alone.

However :meth:`ClusterSimulator.run` exits, it releases the references
that tie the run's objects into cycles back to the simulator (node hooks,
the controller binding, the stepper, the sanitizer attachment, the native
queues' cached node binding).  With ``gc`` disabled, dropping the last
strong reference must therefore kill weakrefs to the simulator, its
controller and a node — for every backend, stepper and observation mode,
for the shard parent, and for every way a run can end.  A finished
simulator refuses a second run; resuming goes through a fresh one.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.analysis.invariants import InvariantViolation
from repro.checkpoint import CheckpointConfig, restore_snapshot
from repro.core import ClusterConfig, ClusterSimulator, DeadlockError, FixedQuantumPolicy
from repro.engine.backend import native_available
from repro.engine.process import ProcessError
from repro.engine.units import MICROSECOND
from repro.harness.configs import ground_truth_policy
from repro.network import NetworkController, PAPER_NETWORK
from repro.node import ComputeTime, Recv, Send, SimulatedNode
from repro.obs.collector import TraceConfig
from repro.shard import run_sharded
from repro.workloads import IsWorkload

US = MICROSECOND

BACKENDS = [
    "python",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(), reason="compiled engine core not built"
        ),
    ),
]


@contextmanager
def gc_disabled():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def pingpong_apps(rounds=12):
    def pinger():
        for _ in range(rounds):
            yield Send(dst=1, nbytes=256)
            yield Recv(src=1)
            yield ComputeTime(30 * US)
        return "ping"

    def ponger():
        for _ in range(rounds):
            yield Recv(src=0)
            yield Send(dst=0, nbytes=256)
        return "pong"

    return [pinger(), ponger()]


def deadlocking_apps():
    def waiter():
        yield Recv(src=1)  # never sent

    def quitter():
        yield ComputeTime(10 * US)

    return [waiter(), quitter()]


def raising_apps():
    def talker():
        yield Send(dst=1, nbytes=256)
        yield Recv(src=1)
        raise ValueError("boom")

    def echo():
        yield Recv(src=0)
        yield Send(dst=0, nbytes=256)

    return [talker(), echo()]


def build(backend, *, apps=None, quantum=10 * US, **options):
    apps = pingpong_apps() if apps is None else apps
    nodes = [SimulatedNode(i, app) for i, app in enumerate(apps)]
    controller = NetworkController(len(nodes), PAPER_NETWORK(len(nodes)))
    config = ClusterConfig(seed=11, backend=backend, **options)
    return ClusterSimulator(nodes, controller, FixedQuantumPolicy(quantum), config)


def watch(sim):
    """Weakrefs to the simulator, its controller and its last node."""
    return [weakref.ref(obj) for obj in (sim, sim.controller, sim.nodes[-1])]


def assert_dead(refs):
    assert [ref() for ref in refs] == [None] * len(refs)


MODES = {
    "plain": lambda tmp_path: {},
    "traced": lambda tmp_path: {"trace": TraceConfig()},
    "checkpointed": lambda tmp_path: {
        "checkpoint": CheckpointConfig(directory=str(tmp_path), every_quanta=4)
    },
    "checked": lambda tmp_path: {"check": True},
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "vectorized"])
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("quantum", [1 * US, 10 * US], ids=["q1us", "q10us"])
def test_completed_run_is_freed_by_refcount(backend, vectorized, mode, quantum, tmp_path):
    """1 us windows are ground-truth (``Q <= T``; the vectorized stepper
    drains them), 10 us windows interleave events one at a time."""
    with gc_disabled():
        sim = build(
            backend, quantum=quantum, vectorized=vectorized, **MODES[mode](tmp_path)
        )
        result = sim.run()
        refs = watch(sim)
        del sim
        assert_dead(refs)
    # What the run reported outlives it.
    assert result.completed and result.app_results == ["ping", "pong"]


@pytest.mark.parametrize("check", [False, True], ids=["plain", "checked"])
def test_shard_parent_is_freed_by_refcount(check):
    def factory():
        nodes = [SimulatedNode(i, app) for i, app in enumerate(IsWorkload().build_apps(4))]
        controller = NetworkController(4, PAPER_NETWORK(4))
        config = ClusterConfig(seed=7, check=check)
        return ClusterSimulator(nodes, controller, ground_truth_policy().build(), config)

    with gc_disabled():
        outcome = run_sharded(factory, shards=2)
        if outcome.shards != 2:
            pytest.skip(f"ran serially: {outcome.fallback_reason}")
        result = outcome.result
        refs = watch(outcome.simulator)
        del outcome
        assert_dead(refs)
    assert result.completed


EXITS = {
    "time-limit": (lambda: pingpong_apps(rounds=200), {"sim_time_limit": 300 * US}, None),
    "deadlock": (deadlocking_apps, {}, DeadlockError),
    "raising-app": (raising_apps, {}, ProcessError),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "vectorized"])
@pytest.mark.parametrize("exit_", sorted(EXITS))
def test_every_exit_frees_the_simulator(backend, vectorized, exit_):
    apps, options, error = EXITS[exit_]
    with gc_disabled():
        sim = build(backend, apps=apps(), vectorized=vectorized, **options)
        if error is None:
            result = sim.run()
            assert not result.completed
            # A stopped run keeps its pending events readable.
            assert any(node.peek_time() is not None for node in sim.nodes)
        else:
            with pytest.raises(error):
                sim.run()
        refs = watch(sim)
        del sim
        assert_dead(refs)


@pytest.mark.parametrize("backend", BACKENDS)
def test_failed_invariant_frees_the_simulator(backend):
    with gc_disabled():
        sim = build(backend, check=True)
        assert sim.sanitizer is not None
        sim.sanitizer.max_quantum = 1  # every window now escapes the clamp
        with pytest.raises(InvariantViolation, match="quantum-clamp"):
            sim.run()
        refs = watch(sim)
        del sim
        assert_dead(refs)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_simulator_runs_once(backend, tmp_path):
    """A second ``run()`` raises instead of reporting an empty run;
    resuming from a snapshot on a fresh simulator still works."""
    checkpoint = CheckpointConfig(directory=str(tmp_path), every_quanta=4)
    snaps = []
    sim = build(backend, checkpoint=checkpoint)
    sim.checkpoint_sink = snaps.append
    first = sim.run()
    assert first.completed and snaps
    with pytest.raises(RuntimeError, match="runs once"):
        sim.run()
    # The finished simulator stays readable.
    assert sim.perf.events > 0
    assert [node.app_result for node in sim.nodes] == ["ping", "pong"]

    fresh = build(backend, checkpoint=checkpoint)
    fresh.checkpoint_sink = lambda _snap: None
    restore_snapshot(fresh, snaps[len(snaps) // 2])
    assert dataclasses.asdict(fresh.run()) == dataclasses.asdict(first)
