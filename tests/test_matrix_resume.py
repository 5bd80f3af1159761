"""Resumable matrices: journal semantics and ``--resume``."""

import dataclasses
import json

import pytest

from repro.checkpoint import MatrixJournal
from repro.core import FixedQuantumPolicy
from repro.engine.units import MICROSECOND
from repro.harness.configs import PolicySpec
from repro.harness.experiment import ExperimentRunner
from repro.workloads import PingPongWorkload

US = MICROSECOND

SPECS = [
    PolicySpec("Q=10us", lambda: FixedQuantumPolicy(10 * US)),
    PolicySpec("Q=20us", lambda: FixedQuantumPolicy(20 * US)),
]


class TestMatrixJournal:
    def test_done_rows_round_trip(self, tmp_path):
        journal = MatrixJournal(tmp_path / "m.jsonl")
        journal.start("a")
        journal.done("a", {"metric": 1.5})
        journal.start("b")  # started, never finished
        journal.close()
        assert journal.completed_rows() == {"a": {"metric": 1.5}}

    def test_later_entries_win(self, tmp_path):
        journal = MatrixJournal(tmp_path / "m.jsonl")
        journal.done("a", {"metric": 1.0})
        journal.failed("a", "worker died")
        journal.done("a", {"metric": 2.0})
        journal.close()
        assert journal.completed_rows() == {"a": {"metric": 2.0}}

    def test_torn_tail_and_garbage_lines_are_skipped(self, tmp_path):
        path = tmp_path / "m.jsonl"
        journal = MatrixJournal(path)
        journal.done("a", {"metric": 1.0})
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps({"event": "done", "key": 7, "row": {}}) + "\n")
            # The torn tail of a write killed mid-line: no newline, cut off.
            handle.write('{"event":"done","key":"b","row":{"met')
        assert journal.completed_rows() == {"a": {"metric": 1.0}}

    def test_missing_file_reads_as_empty(self, tmp_path):
        assert MatrixJournal(tmp_path / "never-written.jsonl").completed_rows() == {}


def run_many_counter(runner, monkeypatch):
    """Count the requests each ``run_many`` batch actually computes."""
    counts = []
    original = runner.run_many

    def counting(requests):
        counts.append(len(requests))
        return original(requests)

    monkeypatch.setattr(runner, "run_many", counting)
    return counts


class TestRunMatrixResume:
    def test_full_resume_recomputes_nothing(self, tmp_path, monkeypatch):
        journal = tmp_path / "m.jsonl"
        workload = PingPongWorkload()
        first = ExperimentRunner(seed=3).run_matrix(
            workload, (2,), SPECS, journal=str(journal)
        )

        resumed_runner = ExperimentRunner(seed=3)
        counts = run_many_counter(resumed_runner, monkeypatch)
        resumed = resumed_runner.run_matrix(
            workload, (2,), SPECS, journal=str(journal), resume=True
        )
        # Every cell came from the journal: one empty batch, zero runs.
        assert counts == [0]
        assert [dataclasses.asdict(row) for row in resumed] == [
            dataclasses.asdict(row) for row in first
        ]

    def test_partial_resume_recomputes_only_missing_cells(
        self, tmp_path, monkeypatch
    ):
        journal = tmp_path / "m.jsonl"
        workload = PingPongWorkload()
        reference = ExperimentRunner(seed=3).run_matrix(workload, (2,), SPECS)

        # Journal only the first spec's cell, as if the run died after it.
        log = MatrixJournal(journal)
        log.done(
            f"{workload.name}/n2/{SPECS[0].label}",
            dataclasses.asdict(reference[0]),
        )
        log.close()

        resumed_runner = ExperimentRunner(seed=3)
        counts = run_many_counter(resumed_runner, monkeypatch)
        resumed = resumed_runner.run_matrix(
            workload, (2,), SPECS, journal=str(journal), resume=True
        )
        # One batch: the missing cell plus its injected ground truth.
        assert counts == [2]
        assert [dataclasses.asdict(row) for row in resumed] == [
            dataclasses.asdict(row) for row in reference
        ]

    def test_without_resume_the_journal_only_records(self, tmp_path, monkeypatch):
        journal = tmp_path / "m.jsonl"
        workload = PingPongWorkload()
        ExperimentRunner(seed=3).run_matrix(workload, (2,), SPECS, journal=str(journal))
        rerun_runner = ExperimentRunner(seed=3)
        counts = run_many_counter(rerun_runner, monkeypatch)
        rerun_runner.run_matrix(workload, (2,), SPECS, journal=str(journal))
        assert counts == [3]  # ground truth + both cells, recomputed

    def test_batch_failure_marks_started_cells_failed(self, tmp_path, monkeypatch):
        journal = tmp_path / "m.jsonl"
        workload = PingPongWorkload()
        runner = ExperimentRunner(seed=3)
        monkeypatch.setattr(
            runner,
            "run_many",
            lambda requests: (_ for _ in ()).throw(RuntimeError("pool died")),
        )
        with pytest.raises(RuntimeError):
            runner.run_matrix(workload, (2,), SPECS, journal=str(journal))
        events = [
            json.loads(line)["event"]
            for line in journal.read_text().splitlines()
        ]
        assert events.count("start") == 2
        assert events.count("failed") == 2
        assert MatrixJournal(journal).completed_rows() == {}

    def test_batch_failure_closes_the_journal_and_resume_recomputes(
        self, tmp_path, monkeypatch
    ):
        """A failing batch leaves its cells ``failed`` and the journal's
        handle closed; a following ``resume=True`` matrix recomputes
        exactly those cells."""
        workload = PingPongWorkload()
        log = MatrixJournal(tmp_path / "m.jsonl")
        broken = ExperimentRunner(seed=3)
        monkeypatch.setattr(
            broken,
            "run_many",
            lambda requests: (_ for _ in ()).throw(RuntimeError("pool died")),
        )
        with pytest.raises(RuntimeError, match="pool died"):
            broken.run_matrix(workload, (2,), SPECS, journal=log)
        assert log._handle is None  # closed on the failing exit too
        events = [json.loads(line) for line in log.path.read_text().splitlines()]
        assert [e["event"] for e in events] == ["start", "start", "failed", "failed"]

        resumed_runner = ExperimentRunner(seed=3)
        counts = run_many_counter(resumed_runner, monkeypatch)
        resumed = resumed_runner.run_matrix(
            workload, (2,), SPECS, journal=log, resume=True
        )
        assert counts == [3]  # both failed cells + their injected ground truth
        assert log._handle is None
        reference = ExperimentRunner(seed=3).run_matrix(workload, (2,), SPECS)
        assert [dataclasses.asdict(row) for row in resumed] == [
            dataclasses.asdict(row) for row in reference
        ]

    def test_checkpoint_dir_derives_a_journal_automatically(self, tmp_path):
        runner = ExperimentRunner(seed=3, checkpoint_dir=str(tmp_path))
        workload = PingPongWorkload()
        runner.run_matrix(workload, (2,), SPECS)
        derived = tmp_path / f"{workload.name}.matrix.jsonl"
        assert derived.exists()
        assert len(MatrixJournal(derived).completed_rows()) == 2
