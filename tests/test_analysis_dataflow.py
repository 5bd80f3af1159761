"""The whole-program determinism dataflow (SIM010-SIM014).

Covers the taint model (sources, return propagation, parameter sinks,
cross-module resolution), chain reporting, the zone gating that keeps
tests/benchmarks out of the sink rules, and — the acceptance gate — that
a deliberately injected wall-clock -> ``key_fragment`` flow in the *real*
``repro/harness/settings.py`` is caught.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import simlint
from repro.analysis.rules import Finding

REPO_ROOT = Path(__file__).parent.parent


def lint_tree(files: dict[str, str], tmp_path: Path, monkeypatch) -> list[Finding]:
    """Materialize *files* (path -> source) and run the full analyzer."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    monkeypatch.chdir(tmp_path)
    return simlint.run_lint(["src"], use_cache=False)


def rules_of(findings: list[Finding]) -> list[str]:
    return [finding.rule for finding in findings]


# --------------------------------------------------------------------- #
# Source -> sink within one module
# --------------------------------------------------------------------- #


def test_wall_clock_into_schedule(tmp_path, monkeypatch) -> None:
    findings = lint_tree(
        {
            "src/repro/core/leak.py": """
                import time

                def _stamp():
                    return time.time()

                def kick(engine):
                    engine.schedule(_stamp(), None)
            """
        },
        tmp_path,
        monkeypatch,
    )
    assert "SIM010" in rules_of(findings)
    (sim010,) = [f for f in findings if f.rule == "SIM010"]
    assert sim010.line == 8
    assert "time.time" in sim010.message


def test_untainted_schedule_is_clean(tmp_path, monkeypatch) -> None:
    findings = lint_tree(
        {
            "src/repro/core/ok.py": """
                def kick(engine, due):
                    engine.schedule(due + 5, None)
            """
        },
        tmp_path,
        monkeypatch,
    )
    assert findings == []


def test_chain_reports_every_hop(tmp_path, monkeypatch) -> None:
    findings = lint_tree(
        {
            "src/repro/harness/keys.py": """
                import time

                def _inner():
                    return time.monotonic()

                def _outer():
                    return _inner()

                class Settings:
                    def key_fragment(self, size):
                        return {"size": size, "stamp": _outer()}
            """
        },
        tmp_path,
        monkeypatch,
    )
    (finding,) = findings
    assert finding.rule == "SIM013"
    # Chain: source read -> laundering helper -> key_fragment return.
    path = "src/repro/harness/keys.py"
    assert finding.chain == (
        (path, 5, "time.monotonic read here"),
        (path, 8, "tainted value returned by _inner()"),
        (path, 11, "enters the cache key via key_fragment()"),
    )


# --------------------------------------------------------------------- #
# Parameter sinks: taint forwarded into a function that sinks it
# --------------------------------------------------------------------- #


def test_taint_forwarded_through_parameter(tmp_path, monkeypatch) -> None:
    findings = lint_tree(
        {
            "src/repro/core/fwd.py": """
                import time

                def _push(engine, when):
                    engine.schedule(when, None)

                def kick(engine):
                    _push(engine, time.perf_counter())
            """
        },
        tmp_path,
        monkeypatch,
    )
    sim010 = [f for f in findings if f.rule == "SIM010"]
    assert sim010, rules_of(findings)
    assert sim010[0].line == 8  # reported at the forwarding call site
    assert any("_push" in note for _, _, note in sim010[0].chain)


def test_taint_forwarded_by_keyword(tmp_path, monkeypatch) -> None:
    findings = lint_tree(
        {
            "src/repro/core/kw.py": """
                import random

                def _push(engine, when):
                    engine.schedule(when, None)

                def kick(engine):
                    _push(engine, when=random.random())
            """
        },
        tmp_path,
        monkeypatch,
    )
    assert "SIM010" in rules_of(findings)


# --------------------------------------------------------------------- #
# Cross-module propagation
# --------------------------------------------------------------------- #


def test_cross_module_laundering(tmp_path, monkeypatch) -> None:
    findings = lint_tree(
        {
            "src/repro/harness/clockutil.py": """
                import time

                def host_stamp():
                    return time.time()
            """,
            "src/repro/harness/keys.py": """
                from repro.harness.clockutil import host_stamp

                class Settings:
                    def key_fragment(self, size):
                        return {"size": size, "at": host_stamp()}
            """,
        },
        tmp_path,
        monkeypatch,
    )
    (finding,) = findings
    assert finding.rule == "SIM013"
    chain_paths = [path for path, _, _ in finding.chain]
    assert "src/repro/harness/clockutil.py" in chain_paths
    assert "src/repro/harness/keys.py" in chain_paths


# --------------------------------------------------------------------- #
# Sources beyond the wall clock
# --------------------------------------------------------------------- #


def test_ambient_host_sources(tmp_path, monkeypatch) -> None:
    findings = lint_tree(
        {
            "src/repro/core/amb.py": """
                import os

                def width():
                    return os.cpu_count() or 1
            """
        },
        tmp_path,
        monkeypatch,
    )
    assert rules_of(findings) == ["SIM014"]


def test_hash_id_into_trace_event(tmp_path, monkeypatch) -> None:
    findings = lint_tree(
        {
            "src/repro/obs/leak.py": """
                from repro.obs.events import PacketTrace

                def emit(sink, packet):
                    sink.append(PacketTrace(packet_id=id(packet)))
            """
        },
        tmp_path,
        monkeypatch,
    )
    assert rules_of(findings) == ["SIM012"]


def test_set_order_source_into_schedule(tmp_path, monkeypatch) -> None:
    findings = lint_tree(
        {
            "src/repro/core/setleak.py": """
                def kick(engine, nodes):
                    order = list(set(nodes))
                    engine.schedule_many(order)
            """
        },
        tmp_path,
        monkeypatch,
    )
    assert "SIM010" in rules_of(findings)


# --------------------------------------------------------------------- #
# Zone gating: who is held to which contract
# --------------------------------------------------------------------- #


def test_tests_zone_not_flagged(tmp_path, monkeypatch) -> None:
    target = tmp_path / "tests" / "helper_leak.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        textwrap.dedent(
            """
            import time

            def _stamp():
                return time.time()

            def kick(engine):
                engine.schedule(_stamp(), None)
            """
        )
    )
    monkeypatch.chdir(tmp_path)
    findings = simlint.run_lint(["tests"], use_cache=False)
    assert findings == []


def test_sim014_gates_on_sim_core_only(tmp_path, monkeypatch) -> None:
    source = """
        import os

        def width():
            return os.cpu_count() or 1
    """
    harness = lint_tree(
        {"src/repro/harness/amb.py": source}, tmp_path, monkeypatch
    )
    assert harness == []


# --------------------------------------------------------------------- #
# Acceptance: injected wall-clock -> key_fragment flow in the REAL harness
# --------------------------------------------------------------------- #


def test_injected_wall_clock_in_real_key_fragment(tmp_path, monkeypatch) -> None:
    real = (REPO_ROOT / "src/repro/harness/settings.py").read_text(encoding="utf-8")
    anchor = '"seed": self.seed,'
    assert anchor in real, "key_fragment anchor moved; update this test"
    # The stamp is keyed by a result-shaping field name so it survives the
    # group filter and really reaches the returned fragment.
    injected = real.replace("import hashlib\n", "import hashlib\nimport time\n", 1)
    injected = injected.replace(anchor, '"seed": (self.seed, time.monotonic()),', 1)
    assert "import time\n" in injected
    target = tmp_path / "src/repro/harness/settings.py"
    target.parent.mkdir(parents=True)
    target.write_text(injected)
    monkeypatch.chdir(tmp_path)
    findings = simlint.run_lint(["src"], use_cache=False)
    sim013 = [f for f in findings if f.rule == "SIM013"]
    assert sim013, "injected wall-clock -> key_fragment flow was not caught"
    assert any("time.monotonic" in f.message for f in sim013)

    # The unmodified harness stays clean on this rule.
    target.write_text(real)
    clean = simlint.run_lint(["src"], use_cache=False)
    assert [f for f in clean if f.rule == "SIM013"] == []
