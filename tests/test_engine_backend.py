"""The compiled engine backend: selection, degradation, hygiene.

``repro.engine.backend`` owns the import dance; these tests pin its
contract: ``ClusterConfig.backend`` validation and the ``"auto"`` /
``REPRO_BACKEND`` / ``REPRO_NO_NATIVE`` resolution (explicit ``"native"``
fails loudly without the module, ``"auto"`` degrades with the reason
recorded); the backend never enters a cache key and crosses the farm pool
boundary; a raising application fails alike on every core and stepper;
the native ``EventQueue`` pops and dispatches exactly as the python one
under generated traffic; and the compiled dispatch leaves the same NIC
mailbox and leaks no references or memory.  That interleaved windows match
scalar-python and that snapshots restore across cores are pairs of
``tests/oracle.py``, named here.  Only the selection and hygiene tests
that need the compiled module skip without it.
"""

from __future__ import annotations

import dataclasses
import gc
from functools import partial
import pickle
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ClusterConfig, FixedQuantumPolicy
from repro.engine import backend as backend_mod
from repro.engine.backend import VALID_BACKENDS, resolve_backend
from repro.engine.events import EventQueue as PyEventQueue
from repro.engine.process import ProcessError
from repro.engine.units import MICROSECOND
from repro.harness.configs import ground_truth_policy
from repro.harness.experiment import ExperimentRunner
from repro.harness.parallel import DiskResultCache, ParallelRunner, RunnerSettings, RunSpec
from repro.node import ComputeTime, Recv, Send
from repro.node.requests import ANY_SOURCE, ANY_TAG
from repro.workloads import EpWorkload

from tests import oracle

US = MICROSECOND
PINGPONG = oracle.CONFIGS["pingpong-10us"]

needs_native = pytest.mark.skipif(not oracle.NATIVE, reason="compiled engine core not built")


@pytest.fixture(autouse=True)
def _isolate_backend_env(monkeypatch):
    """CI runs the whole suite once per backend via a suite-wide
    ``REPRO_BACKEND`` override; these tests pin the *selection semantics*
    themselves, so they must see the real availability state (tests that
    want the override set it explicitly via monkeypatch)."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)


def build_sim(backend, apps=oracle.pingpong_apps, **options):
    """A 2-node simulator stepping interleaved 10 us windows (more than
    the network's ~1 us minimum latency)."""
    return oracle.build(dataclasses.replace(PINGPONG, apps=apps), backend=backend, **options)


# --------------------------------------------------------------------- #
# Selection semantics
# --------------------------------------------------------------------- #


class TestResolution:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            resolve_backend("cython")

    def test_cluster_config_backend_is_validated_at_build(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            build_sim("fortran")

    def test_python_is_always_available(self):
        resolved = resolve_backend("python")
        assert resolved.name == "python"
        assert resolved.fallback_reason is None

    def test_forced_fallback_degrades_auto_with_reason(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        resolved = resolve_backend("auto")
        assert resolved.name == "python"
        assert "REPRO_NO_NATIVE" in (resolved.fallback_reason or "")

    def test_forced_fallback_fails_explicit_native(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        with pytest.raises(RuntimeError, match="backend='native' requested"):
            resolve_backend("native")

    def test_env_override_applies_to_auto_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert resolve_backend("auto").name == "python"
        # An explicit config value wins over the environment.
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        assert resolve_backend("python").name == "python"

    def test_env_override_rejects_unknown_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "rust")
        with pytest.raises(ValueError, match="REPRO_BACKEND must be one of"):
            resolve_backend("auto")

    @needs_native
    def test_auto_prefers_native_when_available(self):
        resolved = resolve_backend("auto")
        assert resolved.name == "native"
        assert resolved.fallback_reason is None

    def test_capabilities_report_shape(self):
        report = backend_mod.capabilities()
        assert report["python"] is True
        assert isinstance(report["native"], bool)
        assert report["expected_abi"] == backend_mod.EXPECTED_ABI_VERSION


class TestForcedFallbackRuns:
    def test_auto_run_degrades_cleanly_and_surfaces_reason(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        sim = build_sim("auto")
        assert sim.run().completed
        assert sim.backend == "python"
        assert "REPRO_NO_NATIVE" in (sim.backend_fallback_reason or "")

    def test_harness_surfaces_backend_fallback_reason(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        runner = ExperimentRunner(seed=11, backend="auto")
        record = runner.run(EpWorkload(total_ops=2e7, chunks=4), 2, FixedQuantumPolicy(US))
        assert record.result.completed
        assert "REPRO_NO_NATIVE" in (runner.last_backend_fallback_reason or "")

    @needs_native
    def test_harness_reports_no_fallback_under_native(self):
        runner = ExperimentRunner(seed=11, backend="native")
        record = runner.run(EpWorkload(total_ops=2e7, chunks=4), 2, FixedQuantumPolicy(US))
        assert record.result.completed
        assert runner.last_backend_fallback_reason is None


# --------------------------------------------------------------------- #
# Cache keys: the backend must never enter one
# --------------------------------------------------------------------- #


class TestCacheKeys:
    # Same pinned key as tests/test_service_workload.py: computed before
    # the backend knob existed, so any backend leak into key_fragment()
    # shows up as a golden mismatch, not just an inequality.
    GOLDEN_EP = "5d64e9c396161e33a4d4e252962789bb"

    def test_golden_key_unchanged_by_backend(self):
        for backend in VALID_BACKENDS:
            spec = RunSpec(EpWorkload(), 8, ground_truth_policy().build(), "1",
                           RunnerSettings(backend=backend))
            assert DiskResultCache.key_of(spec.key_payload()) == self.GOLDEN_EP


# --------------------------------------------------------------------- #
# Pickling across the farm pool boundary
# --------------------------------------------------------------------- #


class TestPoolBoundary:
    def test_runner_settings_pickle_round_trip(self):
        for backend in VALID_BACKENDS:
            settings_obj = RunnerSettings(backend=backend)
            clone = pickle.loads(pickle.dumps(settings_obj))
            assert clone == settings_obj
            assert ExperimentRunner(clone).settings.backend == backend

    def test_cluster_config_pickles(self):
        config = ClusterConfig(seed=3, backend="python")
        assert pickle.loads(pickle.dumps(config)) == config

    def test_backend_crosses_the_pool_boundary(self, tmp_path):
        """A 2-worker batch under an explicit backend equals the serial
        run: the setting survives the pickle trip into pool workers."""
        from repro.harness.configs import paper_policies

        specs = paper_policies()[:2]
        workload = EpWorkload(total_ops=2e7, chunks=4)
        serial = ExperimentRunner(seed=7, backend="python").run_matrix(workload, (2,), specs)
        farmed = ParallelRunner(seed=7, backend="python", max_workers=2,
                                cache_dir=tmp_path / "cache").run_matrix(workload, (2,), specs)
        assert farmed == serial


# --------------------------------------------------------------------- #
# Cross-backend equivalence: results and snapshots
# --------------------------------------------------------------------- #

#: Runs whose windows interleave (``Q > T``): the service fan-out the
#: longest advertised runs use, and IS-8 under the paper's adaptive
#: policy.  The recovery transport schedules the ``delack`` timer tag and,
#: under loss, ``rto``.  A lossy service run deadlocks even on scalar-python:
#: ``tests/test_oracle.py`` pins that as a strict xfail.
INTERLEAVED = {
    "service": "service-8-1000us",
    "service traced": "service-8-1000us-traced",
    "service recovery": "service-8-1000us-recovery",
    "IS": "IS-8-dyn1.03",
    "IS traced": "IS-8-dyn1.03-traced",
    "IS lossy recovery": "IS-8-dyn1.03-lossy-1",
}
#: Snapshots captured under one engine core and resumed under the other:
#: (pair, test id).  Without the compiled core there is no other core.
CROSS_RESTORES = [
    (f"{config}[resume:{one}>{other}]", f"{one}-{other}{suffix}")
    for config, suffix in ((PINGPONG.name, ""), ("service-8-100us", "-service"))
    for one, other in (("python", "native"), ("native", "python"))
] if oracle.NATIVE else []
#: Every oracle pair the tests here check.
PAIRS = (oracle.pairs(PINGPONG.name, *INTERLEAVED.values(), group="grid")
         + [pair for pair, _ in CROSS_RESTORES])


class TestCrossBackend:
    def test_results_identical(self):
        oracle.check(*oracle.pairs(PINGPONG.name, group="grid"))

    @pytest.mark.parametrize("case", INTERLEAVED)
    def test_interleaved_windows_match_scalar_python(self, case):
        """Backend x driver grid against scalar-python, on ``RunResult``
        and the trace stream."""
        oracle.check(*oracle.pairs(INTERLEAVED[case], group="grid"))

    if CROSS_RESTORES:

        @pytest.mark.parametrize("pair", [
            pytest.param(pair, id=case) for pair, case in CROSS_RESTORES
        ])
        def test_snapshots_restore_across_backends(self, pair):
            """A snapshot is backend-neutral: captured under one engine core
            at the first, middle or last quantum, it resumes under the other
            to the bit-identical result."""
            oracle.check(pair)

    def test_application_exception_in_an_interleaved_window(self):
        """A raising application surfaces the same error from the
        compiled dispatch as from ``pop()`` + python dispatch, with the
        event consumed and every queue in the same state."""

        def apps(size):
            def talker():
                for _ in range(3):
                    yield Send(dst=1, nbytes=256)
                    yield Recv(src=1)
                raise ValueError("boom after round 3")

            def echo():
                for _ in range(5):
                    yield Recv(src=0)
                    yield Send(dst=0, nbytes=256)

            return [talker(), echo()]

        outcomes = []
        for backend in oracle.BACKENDS:
            for vectorized in (False, True):
                sim = build_sim(backend, apps=apps, vectorized=vectorized)
                with pytest.raises(ProcessError) as raised:
                    sim.run()
                error = raised.value
                # The wake that stepped the talker into its raise is gone
                # and nothing replaced it.
                assert len(sim.nodes[0].queue) == 0
                outcomes.append((
                    str(error), repr(error.__cause__),
                    [(node.peek_time(), len(node.queue), node.stats) for node in sim.nodes],
                ))
        assert "boom after round 3" in outcomes[0][1]
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])


# --------------------------------------------------------------------- #
# EventQueue differential property
# --------------------------------------------------------------------- #

_TAGS = ("app-wake", "emit", "delivery", "t", "boom")

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("schedule"),
            st.tuples(st.integers(min_value=0, max_value=500), st.sampled_from(_TAGS)),
        ),
        st.tuples(
            st.just("schedule_many"),
            st.lists(
                st.integers(min_value=0, max_value=500), min_size=1, max_size=6
            ),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("pop"), st.just(0)),
        st.tuples(st.just("handle_next"), st.just(0)),
    ),
    min_size=1,
    max_size=80,
)


def _fingerprint(event):
    return (event.time, event.tag, event.payload, event._seq, event.alive)


class _Counter:
    app_wakeups = 0


class _DuckNode:
    """The four handlers and the counter ``handle_next`` / ``drain``
    dispatch to, and nothing else of ``SimulatedNode`` — so the native
    queue cannot bind its inlined handlers and takes the generic path.
    Deliveries re-enter the queue; unknown timer tags raise."""

    name = "duck"

    def __init__(self, queue, record):
        self.queue_under_test = queue
        self.record = record
        self.stats = _Counter()
        self.calls = []

    def _advance_app(self, time, payload):
        self.calls.append(("advance", time, payload))

    def emit_hook(self, node, payload):
        assert node is self
        self.calls.append(("emit", payload))

    def _on_fragment(self, time, payload):
        self.calls.append(("fragment", time, payload))
        self.record.append(
            self.queue_under_test.schedule(time + 3, None, "t", payload)
        )

    def _handle_timer(self, tag, payload, time):
        self.calls.append(("timer", tag, payload, time))
        if tag == "boom":
            raise ValueError(f"boom {payload}")


@needs_native
@settings(deadline=None, max_examples=60)
@given(ops=_ops)
def test_event_queue_differential(ops):
    """Python and native queues, driven in lockstep through interleaved
    schedule/cancel/pop/dispatch/compaction traffic, must agree on every
    pop (time, tag, payload, sequence number), every dispatched handler
    call and raised error, every length, and every dead count."""
    queues = (PyEventQueue(), backend_mod.queue_class("native")())
    live = ([], [])  # parallel records of scheduled events, same order
    ducks = [_DuckNode(queue, record) for queue, record in zip(queues, live)]
    serial = 0
    for op, arg in ops:
        if op == "schedule":
            time, tag = arg
            for queue, record in zip(queues, live):
                record.append(queue.schedule(time, None, tag, serial))
            serial += 1
        elif op == "schedule_many":
            items = [(time, serial + i) for i, time in enumerate(arg)]
            for queue, record in zip(queues, live):
                before = queue._next_seq
                queue.schedule_many(iter(items), tag="m")
                # schedule_many returns nothing; recover the events for
                # cancel targeting via the live snapshot (ordered).
                added = [
                    e for e in queue.live_events() if e._seq >= before
                ]
                record.extend(sorted(added, key=lambda e: e._seq))
            serial += len(arg)
        elif op == "cancel":
            # Only events still owned by the queue are cancellable: a pop
            # transfers ownership to the caller (both implementations
            # corrupt their live count if told to cancel a popped event,
            # by contract — pops below prune the records).
            if live[0]:
                index = arg % len(live[0])
                for queue, record in zip(queues, live):
                    queue.cancel(record[index])
        elif op == "pop":
            assert len(queues[0]) == len(queues[1])
            if queues[0]:
                popped = [queue.pop() for queue in queues]
                assert _fingerprint(popped[0]) == _fingerprint(popped[1])
                for event, record in zip(popped, live):
                    record.remove(event)
        elif op == "handle_next":
            outcomes = []
            for queue, record, duck in zip(queues, live, ducks):
                head = queue.peek()
                if head is not None:
                    record.remove(head)
                try:
                    outcomes.append(queue.handle_next(duck))
                except (IndexError, ValueError) as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1]
            assert ducks[0].calls == ducks[1].calls
            assert ducks[0].stats.app_wakeups == ducks[1].stats.app_wakeups
        assert len(queues[0]) == len(queues[1])
        assert queues[0].dead_entries == queues[1].dead_entries
        assert queues[0].peek_time() == queues[1].peek_time()
    final = [[_fingerprint(e) for e in queue.live_events()] for queue in queues]
    assert final[0] == final[1]


# --------------------------------------------------------------------- #
# Hygiene of the compiled dispatch
# --------------------------------------------------------------------- #

QUEUE_BACKENDS = ["python", pytest.param("native", marks=needs_native)]


@pytest.mark.parametrize("backend", QUEUE_BACKENDS)
def test_duck_typed_node_dispatches_by_tag(backend):
    """Single-event dispatch on a node without the ``SimulatedNode``
    surface (the compiled queue's generic path): one handler per tag, the
    next event time as the return value, the event consumed on error."""
    queue = backend_mod.queue_class(backend)()
    duck = _DuckNode(queue, [])
    for time, tag in enumerate(("app-wake", "emit", "delivery", "t", "boom", "emit")):
        queue.schedule(time, None, tag, f"p{time}")
    assert [queue.handle_next(duck) for _ in range(4)] == [1, 2, 3, 4]
    assert duck.calls == [
        ("advance", 0, "p0"),
        ("emit", "p1"),
        ("fragment", 2, "p2"),
        ("timer", "t", "p3", 3),
    ]
    assert duck.stats.app_wakeups == 1
    with pytest.raises(ValueError, match="boom p4"):
        queue.handle_next(duck)
    assert queue.peek_time() == 5  # the raising event is gone
    duck.emit_hook = None
    with pytest.raises(RuntimeError, match="duck: emit event without emit_hook"):
        queue.handle_next(duck)
    # Only the timer the delivery handler scheduled (at 2 + 3) is left.
    assert queue.handle_next(duck) is None
    with pytest.raises(IndexError, match="pop from empty EventQueue"):
        queue.handle_next(duck)


@needs_native
def test_native_match_leaves_the_same_mailbox_as_python():
    """Uniquely tagged messages (how the collectives tag) must not leave
    one empty deque per message behind, on either backend — exact
    matches run the compiled ``match_fast``, wildcards the python scan."""
    count = 40

    def apps(size):
        def sender():
            for tag in range(2 * count):
                yield Send(dst=1, nbytes=64, tag=tag)

        def receiver():
            yield ComputeTime(500 * US)  # let every message queue up first
            for tag in range(count):
                yield Recv(src=0, tag=tag)
            for _ in range(count):
                yield Recv(src=ANY_SOURCE, tag=ANY_TAG)

        return [sender(), receiver()]

    for backend in ("python", "native"):
        sim = build_sim(backend, apps=apps)
        assert sim.run().completed
        nic = sim.nodes[1].nic
        assert nic.stats.messages_received == 2 * count
        assert nic.mailbox == []
        assert nic._mailbox == {}


@needs_native
def test_native_dispatch_does_not_leak():
    """>= 100k events through ``handle_next`` over repeated small
    interleaved runs: each finished run's node is freed by reference
    counting alone, with ``gc`` disabled (the run releases the queue's
    bound context, so no cycle is left), the shared payload's refcount
    returns to its baseline, and traced memory stays flat."""
    payload = object()

    def one_run():
        apps = partial(oracle.pingpong_apps, rounds=250, payload=payload)
        sim = build_sim("native", apps=apps)
        assert sim.run().completed
        return sim.perf.events, weakref.ref(sim.nodes[0])

    def settle():
        gc.collect()
        return sys.getrefcount(payload), tracemalloc.get_traced_memory()[0]

    one_run()  # warms every memo and constant
    tracemalloc.start()
    try:
        base_refs, base_bytes = settle()
        dispatched = 0
        gc.disable()
        try:
            while dispatched < 100_000:
                events, node = one_run()
                dispatched += events
                assert node() is None
        finally:
            gc.enable()
        payload_refs, traced = settle()
    finally:
        tracemalloc.stop()
    assert payload_refs == base_refs
    assert traced - base_bytes < 64 * 1024
