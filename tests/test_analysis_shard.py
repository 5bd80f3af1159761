"""The shard-safety rules (SIM021-SIM023).

Synthetic minimal drivers exercise each rule both ways (violation fires,
protocol-respecting code stays clean), the *real* ``repro/shard/driver.py``
must lint clean, and — the acceptance gate — a deliberately unpaired pipe
tag in the real driver is caught.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import simlint
from repro.analysis.rules import lint_source
from repro.analysis.shardrules import check_shard_source

REPO_ROOT = Path(__file__).parent.parent
SHARD_PATH = "src/repro/shard/minimal.py"


def lint_shard(source: str, path: str = SHARD_PATH):
    return check_shard_source(textwrap.dedent(source), path)


def rules_of(findings) -> list[str]:
    return [finding.rule for finding in findings]


# --------------------------------------------------------------------- #
# SIM021: pipe-tag pairing
# --------------------------------------------------------------------- #

PROTOCOL_TEMPLATE = """
    import multiprocessing

    _PING = "ping"
    _FLUSH = "flush"

    def drive():
        ctx = multiprocessing.get_context("fork")
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_worker, args=(child,))
        proc.start()
        parent.send((_PING,))
        parent.send((_FLUSH,))
        return parent.recv()

    def _worker(conn):
        while True:
            command = conn.recv()
            op = command[0]
            if op == _PING:
                conn.send((_PING,))
            {tail}
"""


def test_sim021_unhandled_parent_tag() -> None:
    findings = lint_shard(PROTOCOL_TEMPLATE.format(tail=""))
    assert rules_of(findings) == ["SIM021"]
    assert "_FLUSH" in findings[0].message


def test_sim021_catch_all_else_handles_everything() -> None:
    findings = lint_shard(
        PROTOCOL_TEMPLATE.format(tail="else:\n                break")
    )
    assert findings == []


def test_sim021_explicit_compare_handles_tag() -> None:
    findings = lint_shard(
        PROTOCOL_TEMPLATE.format(
            tail="elif op == _FLUSH:\n                conn.send((_FLUSH,))"
        )
    )
    assert findings == []


def test_sim021_unrecognized_worker_reply() -> None:
    findings = lint_shard(
        """
        import multiprocessing

        _PING = "ping"
        _ROGUE = "rogue"

        def drive():
            ctx = multiprocessing.get_context("fork")
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_worker, args=(child,))
            proc.start()
            parent.send((_PING,))
            return parent.recv()

        def _worker(conn):
            while True:
                command = conn.recv()
                if command[0] == _PING:
                    conn.send((_ROGUE, 1))
                else:
                    break
        """
    )
    assert rules_of(findings) == ["SIM021"]
    assert "_ROGUE" in findings[0].message


def test_sim021_error_tag_compared_parent_side_ok() -> None:
    findings = lint_shard(
        """
        import multiprocessing

        _PING = "ping"
        _ERROR = "error"

        def drive():
            ctx = multiprocessing.get_context("fork")
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_worker, args=(child,))
            proc.start()
            parent.send((_PING,))
            reply = parent.recv()
            if reply[0] == _ERROR:
                raise RuntimeError(reply[1])
            return reply

        def _worker(conn):
            while True:
                command = conn.recv()
                if command[0] == _PING:
                    conn.send((_ERROR, "boom"))
                else:
                    break
        """
    )
    assert findings == []


# --------------------------------------------------------------------- #
# SIM023: parent-only accounting in worker code
# --------------------------------------------------------------------- #


def test_sim023_worker_mutates_accounting() -> None:
    findings = lint_shard(
        """
        import multiprocessing

        def launch(sim):
            ctx = multiprocessing.get_context("fork")
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_worker, args=(sim, child))
            proc.start()
            return parent

        def _worker(sim, conn):
            sim.perf.quanta += 1
            sim.quantum_stats.record(4)
            conn.send(None)
        """
    )
    assert rules_of(findings) == ["SIM023", "SIM023"]


def test_sim023_parent_accounting_is_fine() -> None:
    findings = lint_shard(
        """
        import multiprocessing

        def launch(sim):
            ctx = multiprocessing.get_context("fork")
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_worker, args=(child,))
            proc.start()
            sim.perf.quanta += 1
            sim.quantum_stats.record(4)
            return parent

        def _worker(conn):
            conn.send(None)
        """
    )
    assert findings == []


def test_sim023_covers_transitive_worker_callees() -> None:
    findings = lint_shard(
        """
        import multiprocessing

        def launch(sim):
            ctx = multiprocessing.get_context("fork")
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_worker, args=(sim, child))
            proc.start()
            return parent

        def _worker(sim, conn):
            _helper(sim)
            conn.send(None)

        def _helper(sim):
            sim.perf.quanta += 1
        """
    )
    assert rules_of(findings) == ["SIM023"]
    assert "_helper" in findings[0].message


# --------------------------------------------------------------------- #
# SIM022: sync primitives in fork-inherited objects
# --------------------------------------------------------------------- #


def test_sim022_lock_in_sim_core(tmp_path, monkeypatch) -> None:
    target = tmp_path / "src/repro/node/locky.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "import threading\n\n\nclass Box:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
    )
    monkeypatch.chdir(tmp_path)
    findings = simlint.run_lint(["src"])
    assert rules_of(findings) == ["SIM022"]
    assert "threading.Lock" in findings[0].message


def test_sim022_harness_zone_exempt() -> None:
    source = "import threading\n\n_LOCK = threading.Lock()\n"
    assert lint_source(source, "src/repro/harness/pool.py") == []
    assert rules_of(lint_source(source, "src/repro/node/pool.py")) == ["SIM022"]


def test_sim022_shard_process_machinery_not_flagged(tmp_path, monkeypatch) -> None:
    # Process/Pipe/RawArray ARE the shard mechanism, not inherited state.
    target = tmp_path / "src/repro/shard/mini.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "import multiprocessing\n\n\ndef launch():\n"
        "    ctx = multiprocessing.get_context('fork')\n"
        "    return ctx.Pipe()\n"
    )
    monkeypatch.chdir(tmp_path)
    findings = simlint.run_lint(["src"])
    assert findings == []


# --------------------------------------------------------------------- #
# The real driver: clean as written, caught when broken
# --------------------------------------------------------------------- #


def real_driver_source() -> str:
    return (REPO_ROOT / "src/repro/shard/driver.py").read_text(encoding="utf-8")


def test_real_driver_is_clean() -> None:
    findings = check_shard_source(real_driver_source(), "src/repro/shard/driver.py")
    assert findings == []


def test_injected_unpaired_tag_is_caught() -> None:
    source = real_driver_source()
    injected = source.replace(
        '_ERROR = "error"', '_ERROR = "error"\n_NUDGE = "nudge"', 1
    ).replace(
        "pipe.send((_REPORT,))",
        "pipe.send((_NUDGE,))\n            pipe.send((_REPORT,))",
        1,
    )
    assert "pipe.send((_NUDGE,))" in injected, "parent send anchor moved"
    # The worker's dispatch has a catch-all else, so a *command* tag is
    # always handled; send it from the worker instead to break pairing.
    assert check_shard_source(injected, "src/repro/shard/driver.py") == []
    injected_worker = source.replace(
        '_ERROR = "error"', '_ERROR = "error"\n_NUDGE = "nudge"', 1
    ).replace(
        "pipe.send((_FINAL, shard_last, finish_host))",
        "pipe.send((_NUDGE,))\n                pipe.send("
        "(_FINAL, shard_last, finish_host))",
        1,
    )
    assert "pipe.send((_NUDGE,))" in injected_worker, "worker send anchor moved"
    findings = check_shard_source(injected_worker, "src/repro/shard/driver.py")
    assert rules_of(findings) == ["SIM021"]
    assert "_NUDGE" in findings[0].message


def test_span_reply_pairs_only_with_its_command() -> None:
    """The fast-forward reply echoes the parent's ``_SPAN`` command; a
    parent that stopped sending it would leave the worker's reply
    unpaired."""
    source = real_driver_source()
    anchor = "pipe.send((_SPAN, start, lengths.tobytes()))"
    assert source.count(anchor) == 1, "span command anchor moved; update this test"
    injected = source.replace(anchor, "pipe.send((_WINDOW, start, lengths.tobytes()))")
    findings = check_shard_source(injected, "src/repro/shard/driver.py")
    assert rules_of(findings) == ["SIM021"]
    assert "_SPAN" in findings[0].message
