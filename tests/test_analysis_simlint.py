"""Tests for the simlint determinism lint: rules, baseline, CLI, JSON."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import simlint
from repro.analysis.baseline import (
    apply_baseline,
    fingerprint_findings,
    load_baseline,
    parse_baseline,
    write_baseline,
)
from repro.analysis.rules import RULES, lint_source, zone_of

# Virtual paths used to exercise zone scoping without touching the disk.
CORE = "src/repro/core/module.py"
NETWORK = "src/repro/network/module.py"
HARNESS = "src/repro/harness/module.py"
RNG = "src/repro/engine/rng.py"
UNITS = "src/repro/engine/units.py"
BENCH = "benchmarks/module.py"

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint(source: str, path: str = CORE) -> list:
    return lint_source(textwrap.dedent(source), path)


def rules_of(findings: list) -> list[str]:
    return [finding.rule for finding in findings]


# --------------------------------------------------------------------- #
# Zone classification
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    ("path", "zone"),
    [
        (CORE, "sim-core"),
        (NETWORK, "sim-core"),
        ("src/repro/engine/events.py", "sim-core"),
        ("src/repro/mpi/api.py", "sim-core"),
        ("src/repro/workloads/nas.py", "sim-core"),
        (HARNESS, "harness"),
        ("src/repro/analysis/rules.py", "analysis"),
        ("tests/test_x.py", "tests"),
        (BENCH, "benchmarks"),
        ("examples/quickstart.py", "examples"),
        ("setup.py", "other"),
    ],
)
def test_zone_of(path: str, zone: str) -> None:
    assert zone_of(path) == zone


# --------------------------------------------------------------------- #
# SIM000: syntax errors are findings, not crashes
# --------------------------------------------------------------------- #


def test_sim000_syntax_error() -> None:
    findings = lint("def broken(:\n", CORE)
    assert rules_of(findings) == ["SIM000"]
    assert "syntax error" in findings[0].message


# --------------------------------------------------------------------- #
# SIM001: wall-clock access in the sim core
# --------------------------------------------------------------------- #


def test_sim001_time_module_call() -> None:
    source = """
        import time

        def stamp():
            return time.time()
    """
    assert rules_of(lint(source, CORE)) == ["SIM001"]


def test_sim001_from_import_alias() -> None:
    source = """
        from time import perf_counter as tick

        def stamp():
            return tick()
    """
    assert rules_of(lint(source, CORE)) == ["SIM001"]


def test_sim001_datetime_now() -> None:
    source = """
        import datetime

        def when():
            return datetime.datetime.now()
    """
    assert rules_of(lint(source, CORE)) == ["SIM001"]


def test_sim001_allowed_in_harness_and_benchmarks() -> None:
    source = """
        import time

        def stamp():
            return time.perf_counter()
    """
    assert lint(source, HARNESS) == []
    assert lint(source, BENCH) == []


def test_sim001_unrelated_time_attribute_ok() -> None:
    # An object's own .time() method is not the time module.
    source = """
        def f(record):
            return record.time()
    """
    assert lint(source, CORE) == []


# --------------------------------------------------------------------- #
# SIM002: unseeded randomness outside engine/rng.py
# --------------------------------------------------------------------- #


def test_sim002_stdlib_random() -> None:
    source = """
        import random

        def draw():
            return random.random() + random.randint(0, 5)
    """
    assert rules_of(lint(source, CORE)) == ["SIM002", "SIM002"]


def test_sim002_numpy_module_level_draw() -> None:
    source = """
        import numpy as np

        def draw():
            return np.random.randint(5)
    """
    assert rules_of(lint(source, CORE)) == ["SIM002"]


def test_sim002_default_rng_without_seed() -> None:
    source = """
        from numpy.random import default_rng

        def make():
            return default_rng()
    """
    assert rules_of(lint(source, CORE)) == ["SIM002"]


def test_sim002_seeded_constructors_ok() -> None:
    source = """
        import numpy as np

        def make(seed):
            gen = np.random.default_rng(seed)
            seq = np.random.PCG64(np.random.SeedSequence(seed))
            return seq, gen
    """
    assert lint(source, CORE) == []


def test_sim002_seedless_stdlib_random_instance() -> None:
    source = """
        import random

        def make():
            return random.Random()
    """
    assert rules_of(lint(source, CORE)) == ["SIM002"]


def test_sim002_seeded_stdlib_random_instance_ok() -> None:
    source = """
        import random

        def make(seed):
            return random.Random(seed)
    """
    assert lint(source, CORE) == []


def test_sim002_direct_generator_construction() -> None:
    # Even seeded, Generator/RandomState must be built inside engine/rng.py
    # so every stream is named and attributable.
    source = """
        import numpy as np

        def make(seed):
            return np.random.Generator(np.random.PCG64(seed))
    """
    assert rules_of(lint(source, CORE)) == ["SIM002"]
    assert rules_of(lint(source, HARNESS)) == ["SIM002"]
    assert lint(source, RNG) == []


def test_sim002_direct_randomstate_construction() -> None:
    source = """
        import numpy as np

        def make(seed):
            return np.random.RandomState(seed)
    """
    assert rules_of(lint(source, CORE)) == ["SIM002"]
    assert lint(source, RNG) == []


def test_sim002_applies_to_harness_but_not_rng_module() -> None:
    source = """
        import random

        def draw():
            return random.random()
    """
    assert rules_of(lint(source, HARNESS)) == ["SIM002"]
    assert lint(source, RNG) == []


# --------------------------------------------------------------------- #
# SIM003: iteration-order hazards
# --------------------------------------------------------------------- #


def test_sim003_set_literal_iteration() -> None:
    source = """
        def f():
            for item in {"a", "b"}:
                print(item)
    """
    assert rules_of(lint(source, CORE)) == ["SIM003"]


def test_sim003_tracked_set_binding() -> None:
    source = """
        def f(names):
            pending = set(names)
            for name in pending:
                print(name)
    """
    assert rules_of(lint(source, CORE)) == ["SIM003"]


def test_sim003_list_built_from_set() -> None:
    source = """
        def f(names):
            return [n for n in set(names)]
    """
    assert rules_of(lint(source, CORE)) == ["SIM003"]


def test_sim003_dict_view_into_order_sink() -> None:
    source = """
        import heapq

        def f(queues, heap):
            for value in queues.values():
                heapq.heappush(heap, value)
    """
    assert rules_of(lint(source, CORE)) == ["SIM003"]


def test_sim003_sorted_iteration_ok() -> None:
    source = """
        import heapq

        def f(names, queues, heap):
            for name in sorted(set(names)):
                print(name)
            for key in sorted(queues):
                heapq.heappush(heap, queues[key])
    """
    assert lint(source, CORE) == []


def test_sim003_dict_view_without_sink_ok() -> None:
    source = """
        def f(counters):
            return sum(v for v in counters.values())
    """
    assert lint(source, CORE) == []


def test_sim003_not_applied_outside_core() -> None:
    source = """
        def f():
            for item in {"a", "b"}:
                print(item)
    """
    assert lint(source, HARNESS) == []


def test_sim003_rebound_name_clears_tracking() -> None:
    source = """
        def f(names):
            pending = set(names)
            pending = sorted(pending)
            for name in pending:
                print(name)
    """
    assert lint(source, CORE) == []


# --------------------------------------------------------------------- #
# SIM004: float/SimTime mixing
# --------------------------------------------------------------------- #


def test_sim004_float_literal_times_simtime() -> None:
    source = """
        def f(now):
            return now + 1.5
    """
    assert rules_of(lint(source, CORE)) == ["SIM004"]


def test_sim004_suffix_names() -> None:
    source = """
        def f(packet):
            return 0.5 * packet.send_time
    """
    assert rules_of(lint(source, CORE)) == ["SIM004"]


def test_sim004_quantizer_sanctions_the_expression() -> None:
    source = """
        def f(now):
            return round(now * 1.5)
    """
    assert lint(source, CORE) == []


def test_sim004_host_domain_names_ok() -> None:
    source = """
        def f(host_time, slowdown):
            return host_time * 2.0 + slowdown * 0.5
    """
    assert lint(source, CORE) == []


def test_sim004_exempt_in_units_and_outside_core() -> None:
    source = """
        def f(now):
            return now * 1.5
    """
    assert lint(source, UNITS) == []
    assert lint(source, HARNESS) == []


def test_sim004_true_division_ok() -> None:
    # True division always yields a float; the hazard is storing it back,
    # which the integer ops (+ - * // %) capture.
    source = """
        def f(sim_time):
            return sim_time / 2.0
    """
    assert lint(source, CORE) == []


# --------------------------------------------------------------------- #
# SIM005: mutable default arguments
# --------------------------------------------------------------------- #


def test_sim005_list_and_dict_defaults() -> None:
    source = """
        def f(acc=[], table={}):
            return acc, table
    """
    assert rules_of(lint(source, CORE)) == ["SIM005", "SIM005"]


def test_sim005_constructor_default() -> None:
    source = """
        def f(layout=dict()):
            return layout
    """
    assert rules_of(lint(source, CORE)) == ["SIM005"]


def test_sim005_kwonly_default() -> None:
    source = """
        def f(*, acc=[]):
            return acc
    """
    assert rules_of(lint(source, CORE)) == ["SIM005"]


def test_sim005_applies_in_every_zone() -> None:
    source = """
        def f(acc=[]):
            return acc
    """
    assert rules_of(lint(source, HARNESS)) == ["SIM005"]


def test_sim005_none_and_immutable_ok() -> None:
    source = """
        def f(acc=None, name="x", count=0, pair=(1, 2)):
            return acc, name, count, pair
    """
    assert lint(source, CORE) == []


# --------------------------------------------------------------------- #
# SIM006: broad exception handlers
# --------------------------------------------------------------------- #


def test_sim006_bare_and_broad_except() -> None:
    source = """
        def f():
            try:
                work()
            except Exception:
                pass
            try:
                work()
            except:
                pass
    """
    assert rules_of(lint(source, CORE)) == ["SIM006", "SIM006"]


def test_sim006_reraise_allowed() -> None:
    source = """
        def f():
            try:
                work()
            except BaseException as err:
                raise RuntimeError("wrapped") from err
    """
    assert lint(source, CORE) == []


def test_sim006_specific_exception_ok() -> None:
    source = """
        def f():
            try:
                work()
            except ValueError:
                pass
    """
    assert lint(source, CORE) == []


def test_sim006_not_applied_outside_core() -> None:
    source = """
        def f():
            try:
                work()
            except Exception:
                pass
    """
    assert lint(source, HARNESS) == []


# --------------------------------------------------------------------- #
# Baseline: fingerprints, round-trip, staleness
# --------------------------------------------------------------------- #

BAD_CORE_SOURCE = textwrap.dedent(
    """
    import time

    def stamp():
        return time.time()
    """
)


def test_fingerprint_is_line_number_independent() -> None:
    shifted = "\n\n\n" + BAD_CORE_SOURCE
    original = fingerprint_findings(lint_source(BAD_CORE_SOURCE, CORE))
    moved = fingerprint_findings(lint_source(shifted, CORE))
    assert [d for _, d in original] == [d for _, d in moved]
    assert original[0][0].line != moved[0][0].line


def test_fingerprint_distinguishes_repeated_lines() -> None:
    source = """
        import time

        def stamp():
            return time.time()

        def stamp2():
            return time.time()
    """
    pairs = fingerprint_findings(lint(source, CORE))
    assert len(pairs) == 2
    assert pairs[0][1] != pairs[1][1]


def test_baseline_round_trip(tmp_path: Path) -> None:
    findings = lint_source(BAD_CORE_SOURCE, CORE)
    assert findings
    path = tmp_path / "simlint.baseline"
    count = write_baseline(path, findings, comment="known")
    assert count == len(findings)

    entries = load_baseline(path)
    active, suppressed, stale = apply_baseline(findings, entries)
    assert active == []
    assert suppressed == findings
    assert stale == []


def test_baseline_goes_stale_when_code_changes(tmp_path: Path) -> None:
    path = tmp_path / "simlint.baseline"
    write_baseline(path, lint_source(BAD_CORE_SOURCE, CORE), comment="known")
    fixed = lint_source("def stamp():\n    return 0\n", CORE)
    active, suppressed, stale = apply_baseline(fixed, load_baseline(path))
    assert active == []
    assert suppressed == []
    assert len(stale) == 1


def test_write_baseline_is_byte_deterministic(tmp_path: Path) -> None:
    """Satellite (b): the baseline file is a stable artifact.

    Two writes of the same finding set — even presented in different
    orders — must produce byte-identical files, so a regenerated
    baseline never churns in review.
    """
    source = """
        import time
        import random

        def stamp():
            return time.time()

        def draw():
            return random.random()
    """
    findings = lint(source, CORE)
    assert len(findings) >= 2

    first = tmp_path / "first.baseline"
    second = tmp_path / "second.baseline"
    write_baseline(first, findings, comment="known")
    write_baseline(second, list(reversed(findings)), comment="known")
    assert first.read_bytes() == second.read_bytes()

    # Entries are sorted by (rule, path, fingerprint).
    entries = load_baseline(first)
    assert entries == sorted(
        entries, key=lambda e: (e.rule, e.path, e.fingerprint)
    )


def test_baseline_parse_rejects_malformed_lines() -> None:
    with pytest.raises(ValueError, match="expected"):
        parse_baseline("SIM001 only-two-fields\n")


def test_baseline_comments_and_blanks_ignored() -> None:
    text = "# header\n\nSIM001 src/x.py abcdef012345  # why\n"
    entries = parse_baseline(text)
    assert len(entries) == 1
    assert entries[0].comment == "why"


# --------------------------------------------------------------------- #
# CLI: exit codes, JSON schema, baseline flags
# --------------------------------------------------------------------- #


def make_tree(tmp_path: Path, source: str) -> Path:
    module = tmp_path / "src" / "repro" / "core" / "bad.py"
    module.parent.mkdir(parents=True)
    module.write_text(textwrap.dedent(source))
    return tmp_path / "src"


def baseline_args(tmp_path: Path) -> list[str]:
    """Isolate CLI tests from the repository's checked-in baseline."""
    return ["--baseline", str(tmp_path / "isolated.baseline")]


def test_cli_exit_zero_on_clean_tree(tmp_path: Path, capsys) -> None:
    root = make_tree(tmp_path, "def f():\n    return 1\n")
    assert simlint.main([*baseline_args(tmp_path), str(root)]) == 0
    assert "0 finding(s)" in capsys.readouterr().err


def test_cli_exit_one_on_findings(tmp_path: Path, capsys) -> None:
    root = make_tree(tmp_path, BAD_CORE_SOURCE)
    assert simlint.main([*baseline_args(tmp_path), str(root)]) == 1
    captured = capsys.readouterr()
    assert "SIM001" in captured.out


def test_cli_exit_two_on_unknown_rule_or_missing_path(tmp_path: Path, capsys) -> None:
    assert simlint.main(["--rules", "SIM999", str(tmp_path)]) == 2
    assert simlint.main([str(tmp_path / "nope")]) == 2
    capsys.readouterr()


def test_cli_rule_filter(tmp_path: Path, capsys) -> None:
    root = make_tree(tmp_path, BAD_CORE_SOURCE)
    assert simlint.main([*baseline_args(tmp_path), "--rules", "SIM005", str(root)]) == 0
    assert simlint.main([*baseline_args(tmp_path), "--rules", "sim001", str(root)]) == 1
    capsys.readouterr()


def test_cli_json_schema(tmp_path: Path, capsys) -> None:
    root = make_tree(tmp_path, BAD_CORE_SOURCE)
    assert simlint.main([*baseline_args(tmp_path), "--format", "json", str(root)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == simlint.JSON_SCHEMA_VERSION
    assert report["rules"] == RULES
    assert report["counts"] == {"active": 1, "suppressed": 0, "stale_baseline": 0}
    (finding,) = report["findings"]
    assert set(finding) == {
        "rule", "path", "line", "col", "message", "snippet", "zone",
        "fingerprint", "suppressed",
    }
    assert finding["rule"] == "SIM001"
    assert finding["zone"] == "sim-core"
    assert finding["suppressed"] is False
    assert report["stale_baseline"] == []


def test_cli_write_baseline_then_suppress(tmp_path: Path, capsys) -> None:
    root = make_tree(tmp_path, BAD_CORE_SOURCE)
    baseline = tmp_path / "simlint.baseline"
    assert simlint.main(["--write-baseline", "--baseline", str(baseline), str(root)]) == 0
    assert baseline.exists()
    assert simlint.main(["--baseline", str(baseline), str(root)]) == 0
    report_run = simlint.main(["--format", "json", "--baseline", str(baseline), str(root)])
    assert report_run == 0
    capsys.readouterr()


def test_cli_strict_flags_stale_entries(tmp_path: Path, capsys) -> None:
    root = make_tree(tmp_path, BAD_CORE_SOURCE)
    baseline = tmp_path / "simlint.baseline"
    simlint.main(["--write-baseline", "--baseline", str(baseline), str(root)])
    # Fix the finding: the baseline entry is now stale.
    next(root.rglob("bad.py")).write_text("def f():\n    return 1\n")
    assert simlint.main(["--baseline", str(baseline), str(root)]) == 0
    assert simlint.main(["--strict", "--baseline", str(baseline), str(root)]) == 1
    capsys.readouterr()


def test_undecodable_source_becomes_sim000(tmp_path, monkeypatch) -> None:
    """A file that is not UTF-8 is quarantined as a finding, not a crash."""
    target = tmp_path / "src/repro/core/binary.py"
    target.parent.mkdir(parents=True)
    target.write_bytes(b"x = 1\n\xff\xfe garbage\n")
    monkeypatch.chdir(tmp_path)

    findings = simlint.run_lint(["src"])
    assert [f.rule for f in findings] == ["SIM000"]
    assert "not valid UTF-8" in findings[0].message
    assert "quarantined" in findings[0].message


def test_cli_list_rules(capsys) -> None:
    assert simlint.main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in RULES:
        assert code in out


# --------------------------------------------------------------------- #
# The repository itself must lint clean (the CI gate).
# --------------------------------------------------------------------- #


def test_repository_lints_clean(capsys) -> None:
    code = simlint.main([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
    captured = capsys.readouterr()
    assert code == 0, f"simlint found new violations:\n{captured.out}"
