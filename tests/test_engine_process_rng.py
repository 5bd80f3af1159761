"""Tests for coroutine processes, RNG streams and units."""

import pytest

from repro.engine import Process, ProcessExit, RngStreams
from repro.engine.process import ProcessError
from repro.engine import units


class TestProcess:
    def test_step_yields_requests_in_order(self):
        def body():
            yield "a"
            got = yield "b"
            assert got == 42
            return "done"

        process = Process(body(), name="t")
        assert process.step() == "a"
        assert process.step() == "b"
        with pytest.raises(ProcessExit) as exc_info:
            process.step(42)
        assert exc_info.value.result == "done"
        assert process.finished
        assert process.result == "done"

    def test_first_step_must_send_none(self):
        def body():
            yield 1

        process = Process(body())
        with pytest.raises(ProcessError):
            process.step("oops")

    def test_step_after_finish_raises_processexit(self):
        def body():
            return 7
            yield  # pragma: no cover

        process = Process(body())
        with pytest.raises(ProcessExit):
            process.step()
        with pytest.raises(ProcessExit):
            process.step()

    def test_exception_in_body_wrapped(self):
        def body():
            yield 1
            raise RuntimeError("boom")

        process = Process(body(), name="failing")
        process.step()
        with pytest.raises(ProcessError) as exc_info:
            process.step(None)
        assert "failing" in str(exc_info.value)
        assert isinstance(exc_info.value.cause, RuntimeError)


class TestRngStreams:
    def test_same_name_same_object(self):
        streams = RngStreams(7)
        assert streams.stream("node") is streams.stream("node")

    def test_different_names_are_independent(self):
        streams = RngStreams(7)
        a = streams.stream("a").random(8).tolist()
        b = streams.stream("b").random(8).tolist()
        assert a != b

    def test_reproducible_across_instances(self):
        first = RngStreams(123).stream("jitter").random(16).tolist()
        second = RngStreams(123).stream("jitter").random(16).tolist()
        assert first == second

    def test_seed_changes_output(self):
        first = RngStreams(1).stream("jitter").random(16).tolist()
        second = RngStreams(2).stream("jitter").random(16).tolist()
        assert first != second

    def test_creation_order_does_not_matter(self):
        forward = RngStreams(9)
        forward.stream("x")
        forward_y = forward.stream("y").random(4).tolist()
        backward = RngStreams(9)
        backward_y = backward.stream("y").random(4).tolist()
        backward.stream("x")
        assert forward_y == backward_y

    def test_fresh_restarts_sequence(self):
        streams = RngStreams(5)
        original = streams.stream("s").random(4).tolist()
        restarted = RngStreams(5).stream("s").random(4).tolist()
        assert original == restarted

    def test_spawn_indexed_streams_differ(self):
        streams = RngStreams(5)
        node0 = streams.spawn("node", 0).random(4).tolist()
        node1 = streams.spawn("node", 1).random(4).tolist()
        assert node0 != node1

    def test_invalid_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStreams(-1)


class TestUnits:
    def test_format_time(self):
        assert units.format_time(999) == "999ns"
        assert units.format_time(1500) == "1.500us"
        assert units.format_time(2 * units.MILLISECOND) == "2.000ms"
        assert units.format_time(3 * units.SECOND) == "3.000s"
        assert units.format_time(-1500) == "-1.500us"
