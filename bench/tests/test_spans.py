"""Span recorder: nesting, exact self-time partition, result neutrality."""

from __future__ import annotations

from pathlib import Path

from bench import spans, workloads


def test_spans_nest_and_self_times_sum_to_the_root() -> None:
    recorder = spans.SpanRecorder()

    class Layer:
        def leaf(self) -> int:
            return sum(range(200))

        def middle(self) -> int:
            return self.leaf() + self.leaf()

        def root(self) -> int:
            return self.middle() + self.leaf()

    layer = Layer()
    recorder.wrap(layer, "leaf", "leaf")
    recorder.wrap(layer, "middle", "middle")
    recorder.wrap(layer, "root", spans.ROOT)
    layer.root()
    layer.root()

    names = [recorder.names[i] for i in recorder.name_id]
    assert names == [spans.ROOT, "middle", "leaf", "leaf", "leaf"] * 2
    # parent indices: root has none; middle and the last leaf hang off the
    # root, the first two leaves off middle.
    assert recorder.parent[:5] == [-1, 0, 1, 1, 0]
    assert recorder.parent[5:] == [-1, 5, 6, 6, 5]
    for index, parent in enumerate(recorder.parent):
        assert recorder.start[index] <= recorder.end[index]
        if parent >= 0:
            assert recorder.start[parent] <= recorder.start[index]
            assert recorder.end[index] <= recorder.end[parent]

    by_name, total = recorder.self_times()
    roots = [i for i, parent in enumerate(recorder.parent) if parent < 0]
    assert total == sum(recorder.end[i] - recorder.start[i] for i in roots)
    assert sum(by_name.values()) == total  # integer ns: exact, not approximate
    assert recorder.counts() == {spans.ROOT: 2, "middle": 2, "leaf": 6}


def test_spans_of_another_root_do_not_enter_the_shares() -> None:
    recorder = spans.SpanRecorder()
    with recorder.span("harness.run_many"):
        with recorder.span("harness.cache_get"):
            pass
    with recorder.span(spans.ROOT):
        with recorder.span("node.deliver"):
            pass
    by_name, total = recorder.self_times()
    assert set(by_name) == {spans.ROOT, "node.deliver"}
    assert sum(by_name.values()) == total
    assert abs(sum(spans.shares(by_name, total).values()) - 1.0) < 1e-9


def test_wrapped_run_equals_unwrapped_run(tmp_path: Path) -> None:
    for spec_name in ("gt64_py", "service8_py", "modes32"):
        spec = workloads.SPECS[spec_name]
        for cell in spec.cells(True):
            plain = workloads.run_cell(
                cell, 7, "python", tmp_path, checkpoint_every=100, count_snapshots=True
            )
            recorder = spans.SpanRecorder()
            traced = workloads.run_cell(
                cell, 7, "python", tmp_path, checkpoint_every=100, recorder=recorder
            )
            assert traced.result == plain.result, cell.key
            assert traced.snapshots == plain.snapshots
            assert traced.sim.perf == plain.sim.perf
            by_name, total = recorder.self_times()
            assert total > 0 and sum(by_name.values()) == total
            assert abs(sum(spans.shares(by_name, total).values()) - 1.0) <= 1e-3


def test_dump_round_trips(tmp_path: Path) -> None:
    import json

    recorder = spans.SpanRecorder()
    with recorder.span(spans.ROOT):
        with recorder.span("node.deliver"):
            pass
    target = tmp_path / "trace.json"
    recorder.dump(target, workload="unit")
    payload = json.loads(target.read_text())
    assert payload["workload"] == "unit"
    assert payload["names"] == [spans.ROOT, "node.deliver"]
    assert payload["spans"]["parent"] == [-1, 0]
    assert sum(payload["self_ns_by_name"].values()) == payload["root_total_ns"]
