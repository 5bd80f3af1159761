"""Golden corpus for simlint.

Every fixture under ``tests/fixtures/simlint/`` is a known-bad file
carrying a manifest in its header comments::

    # dest: src/repro/node/locky.py
    # expect: SIM022:9

The test materializes the fixture at its destination path inside a
throwaway project tree (so zone scoping sees the path the bug would
really live at), runs the full analyzer, and asserts the *exact* set
of (rule, line) findings — nothing missing, nothing extra.

The corpus directory itself is excluded from normal directory walks
(``DEFAULT_EXCLUDES``), so the live-tree gate never trips over it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import simlint

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "simlint"
FIXTURES = sorted(FIXTURE_DIR.glob("*.py"))


def parse_manifest(fixture: Path) -> tuple[str, list[tuple[str, int]]]:
    dest = ""
    expects: list[tuple[str, int]] = []
    for line in fixture.read_text(encoding="utf-8").splitlines():
        if line.startswith("# dest:"):
            dest = line.split(":", 1)[1].strip()
        elif line.startswith("# expect:"):
            for token in line.split(":", 1)[1].split():
                rule, _, lineno = token.partition(":")
                expects.append((rule, int(lineno)))
    return dest, expects


def test_corpus_is_not_empty() -> None:
    assert len(FIXTURES) >= 6
    stems = "".join(fixture.stem for fixture in FIXTURES)
    for code in ("002", "010", "011", "021", "022", "023"):
        assert f"sim{code}" in stems


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_fixture_detected_exactly(fixture: Path, tmp_path: Path, monkeypatch) -> None:
    dest, expects = parse_manifest(fixture)
    assert dest, f"{fixture.name} is missing a '# dest:' header"
    assert expects, f"{fixture.name} is missing an '# expect:' header"

    target = tmp_path / dest
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(fixture.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)

    findings = simlint.run_lint(["src"])
    got = sorted((finding.rule, finding.line) for finding in findings)
    assert got == sorted(expects), (
        f"{fixture.name}: expected {sorted(expects)}, got:\n"
        + "\n".join(f.render() for f in findings)
    )
    for finding in findings:
        assert finding.path == dest


def test_corpus_excluded_from_directory_walks(monkeypatch) -> None:
    repo_root = Path(__file__).parent.parent
    monkeypatch.chdir(repo_root)
    files = simlint.iter_python_files(["tests"])
    assert not any("fixtures/simlint" in f.as_posix() for f in files)
    # Explicit file arguments bypass the exclusion.
    explicit = simlint.iter_python_files([str(FIXTURES[0])])
    assert explicit == [FIXTURES[0]]
