"""A finished simulator is freed by reference counting alone.

However :meth:`ClusterSimulator.run` exits, it releases the references
that tie the run's objects into cycles back to the simulator (node hooks,
the controller binding, the stepper, the sanitizer attachment, the native
queues' cached node binding).  With ``gc`` disabled, dropping the last
strong reference must therefore kill weakrefs to the simulator, its
controller and a node.  Every pair of ``tests/oracle.py`` asserts that
for a completed run; the tests here name the pairs that cover each
backend, stepper, observation mode and the shard parent, and cover every
other way a run can end.  A finished simulator refuses a second run;
resuming goes through a fresh one.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import pytest

from repro.analysis.invariants import InvariantViolation
from repro.checkpoint import CheckpointConfig, restore_snapshot
from repro.core import DeadlockError
from repro.engine.process import ProcessError
from repro.engine.units import MICROSECOND
from repro.node import ComputeTime, Recv, Send

from tests import oracle
from tests.oracle import assert_dead, gc_disabled, watch

US = MICROSECOND


def pingpong(mode, quantum):
    return f"pingpong-{quantum}us" + ("" if mode == "plain" else f"-{mode}")


MODES = ["checked", "checkpointed", "plain", "traced"]
SHARD_PARENTS = {False: "IS-4-1us[shards=2]", True: "IS-4-1us-checked[shards=2]"}
#: Every oracle pair the tests here check.
PAIRS = oracle.pairs(*[pingpong(mode, quantum) for mode in MODES for quantum in (1, 10)],
                     group="grid") + list(SHARD_PARENTS.values())


@pytest.mark.parametrize("backend", oracle.BACKENDS)
@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "vectorized"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("quantum", [1, 10], ids=["q1us", "q10us"])
def test_completed_run_is_freed_by_refcount(backend, vectorized, mode, quantum):
    """1 us windows are ground-truth (``Q <= T``; the vectorized stepper
    drains them), 10 us windows interleave events one at a time.  The
    scalar-python cell is the oracle's reference run."""
    name = pingpong(mode, quantum)
    variant = "+".join(["native"] * (backend == "native") + ["vectorized"] * vectorized)
    if variant:
        oracle.check(f"{name}[{variant}]")
    # What the run reported outlives it.
    result = oracle.reference(name).result
    assert result.completed and result.app_results == ["ping", "pong"]


@pytest.mark.parametrize("check", [False, True], ids=["plain", "checked"])
def test_shard_parent_is_freed_by_refcount(check):
    oracle.check(SHARD_PARENTS[check])


def deadlocking_apps(size):
    def waiter():
        yield Recv(src=1)  # never sent

    def quitter():
        yield ComputeTime(10 * US)

    return [waiter(), quitter()]


def raising_apps(size):
    def talker():
        yield Send(dst=1, nbytes=256)
        yield Recv(src=1)
        raise ValueError("boom")

    def echo():
        yield Recv(src=0)
        yield Send(dst=0, nbytes=256)

    return [talker(), echo()]


PINGPONG = oracle.CONFIGS["pingpong-10us"]
EXITS = {
    "time-limit": (partial(oracle.pingpong_apps, rounds=200),
                   {"sim_time_limit": 300 * US}, None),
    "deadlock": (deadlocking_apps, {}, DeadlockError),
    "raising-app": (raising_apps, {}, ProcessError),
}


@pytest.mark.parametrize("backend", oracle.BACKENDS)
@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "vectorized"])
@pytest.mark.parametrize("exit_", sorted(EXITS))
def test_every_exit_frees_the_simulator(backend, vectorized, exit_):
    apps, options, error = EXITS[exit_]
    config = dataclasses.replace(PINGPONG, apps=apps)
    with gc_disabled():
        sim = oracle.build(config, backend=backend, vectorized=vectorized, **options)
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


@pytest.mark.parametrize("backend", oracle.BACKENDS)
def test_failed_invariant_frees_the_simulator(backend):
    with gc_disabled():
        sim = oracle.build(PINGPONG, backend=backend, check=True)
        assert sim.sanitizer is not None
        sim.sanitizer.max_quantum = 1  # every window now escapes the clamp
        with pytest.raises(InvariantViolation, match="quantum-clamp"):
            sim.run()
        refs = watch(sim)
        del sim
        assert_dead(refs)


@pytest.mark.parametrize("backend", oracle.BACKENDS)
def test_a_simulator_runs_once(backend, tmp_path):
    """A second ``run()`` raises instead of reporting an empty run;
    resuming from a snapshot on a fresh simulator still works."""
    checkpoint = CheckpointConfig(directory=str(tmp_path), every_quanta=4)
    snaps = []
    sim = oracle.build(PINGPONG, backend=backend, checkpoint=checkpoint)
    sim.checkpoint_sink = snaps.append
    first = sim.run()
    assert first.completed and snaps
    with pytest.raises(RuntimeError, match="runs once"):
        sim.run()
    # The finished simulator stays readable.
    assert sim.perf.events > 0
    assert [node.app_result for node in sim.nodes] == ["ping", "pong"]

    fresh = oracle.build(PINGPONG, backend=backend, checkpoint=checkpoint)
    fresh.checkpoint_sink = lambda _snap: None
    restore_snapshot(fresh, snaps[len(snaps) // 2])
    assert dataclasses.asdict(fresh.run()) == dataclasses.asdict(first)
