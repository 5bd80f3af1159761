"""simlint: the PDES determinism lint, runnable as a module.

Usage::

    python -m repro.analysis.simlint src tests
    python -m repro.analysis.simlint --format json --output simlint.json src
    python -m repro.analysis.simlint --explain SIM022
    python -m repro.analysis.simlint --write-baseline src tests

Every file under the given files/directories (default ``src tests``) is
checked on its own:

1. the per-file rules (SIM000-SIM006, SIM022) of
   :mod:`repro.analysis.rules`, zone-scoped by path — a file that does not
   parse or is not UTF-8 is itself a SIM000 finding, never a crash;
2. the shard-protocol rules (SIM021, SIM023) of
   :mod:`repro.analysis.shardrules` over ``repro/shard/`` modules.

Findings are merged, the checked-in baseline (``simlint.baseline``)
subtracted, and the rest reported as text or JSON.  Exit status is 0
when no active findings remain, 1 when findings (or, with ``--strict``,
stale baseline entries) exist, and 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis import shardrules
from repro.analysis.baseline import (
    apply_baseline,
    fingerprint_findings,
    load_baseline,
    write_baseline,
)
from repro.analysis.rules import RULE_DOCS, RULES, Finding, lint_source, zone_of

#: Default baseline filename, resolved against the working directory.
DEFAULT_BASELINE = "simlint.baseline"

#: Schema version of the ``--format json`` output (3 drops ``chain``).
JSON_SCHEMA_VERSION = 3

#: Path substrings excluded from directory walks by default.  The golden
#: corpus is deliberately full of violations; explicit file arguments
#: still reach it (the exclusion applies to directory expansion only).
#: Build artifacts of the compiled engine backend are skipped too: the C
#: source tree (``_native_src``) and scratch ``build/`` directories hold
#: no lintable python, and generated helper scripts inside them must not
#: gate the lint.
DEFAULT_EXCLUDES = ("fixtures/simlint", "_native_src", "build/")


def iter_python_files(
    paths: Sequence[str], exclude: Sequence[str] = DEFAULT_EXCLUDES
) -> list[Path]:
    """Every ``.py`` file under *paths*, deterministically ordered.

    *exclude* substrings filter files found by directory expansion;
    explicitly named files bypass the filter.
    """
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                posix = file.as_posix()
                if any(fragment in posix for fragment in exclude):
                    continue
                files.append(file)
        elif path.suffix == ".py":
            files.append(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
    # Dedup while preserving the sorted-walk order.
    seen: set[Path] = set()
    unique: list[Path] = []
    for file in files:
        if file not in seen:
            seen.add(file)
            unique.append(file)
    return unique


def display_path(path: Path) -> str:
    """Repo-relative posix-style path used in reports and fingerprints."""
    try:
        relative = path.resolve().relative_to(Path.cwd().resolve())
    except ValueError:
        relative = path
    return relative.as_posix()


def _lint_file(file: Path, path: str) -> list[Finding]:
    """Both passes over one file, reported under display path *path*."""
    content = file.read_bytes()
    try:
        source = content.decode("utf-8")
    except UnicodeDecodeError as err:
        # Quarantine, don't crash: an undecodable file becomes a finding.
        message = (
            f"file is not valid UTF-8 ({err.reason} at byte {err.start}); "
            "quarantined from analysis"
        )
        return [Finding("SIM000", path, 1, 0, message, "")]
    findings = lint_source(source, path)
    if shardrules.is_shard_path(path):
        findings += shardrules.check_shard_source(source, path)
    return findings


def run_lint(
    paths: Sequence[str],
    rules: Optional[set[str]] = None,
    exclude: Sequence[str] = DEFAULT_EXCLUDES,
) -> list[Finding]:
    """Every rule over *paths*; returns merged, sorted findings."""
    findings = [
        finding
        for file in iter_python_files(paths, exclude)
        for finding in _lint_file(file, display_path(file))
        if rules is None or finding.rule in rules
    ]
    return sorted(findings, key=Finding.sort_key)


def _json_report(
    active: list[Finding],
    suppressed: list[Finding],
    stale: list,
) -> dict:
    def encode(findings: list[Finding], is_suppressed: bool) -> list[dict]:
        return [
            {
                "rule": finding.rule,
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "message": finding.message,
                "snippet": finding.snippet,
                "zone": zone_of(finding.path),
                "fingerprint": digest,
                "suppressed": is_suppressed,
            }
            for finding, digest in fingerprint_findings(findings)
        ]

    return {
        "version": JSON_SCHEMA_VERSION,
        "rules": RULES,
        "findings": encode(active, False) + encode(suppressed, True),
        "stale_baseline": [
            {"rule": e.rule, "path": e.path, "fingerprint": e.fingerprint}
            for e in stale
        ],
        "counts": {
            "active": len(active),
            "suppressed": len(suppressed),
            "stale_baseline": len(stale),
        },
    }


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.simlint",
        description=(
            "PDES determinism lint: per-file rules SIM000-SIM006 and SIM022, "
            "shard protocol rules SIM021 and SIM023."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"suppression file (default: {DEFAULT_BASELINE} if it exists)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="acknowledge all current findings into the baseline file and exit",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat stale baseline entries as failures",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="RULE",
        help="print the extended documentation for RULE and exit",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=None,
        metavar="FRAGMENT",
        help=(
            "extra path fragment to skip during directory walks "
            f"(always excluded: {', '.join(DEFAULT_EXCLUDES)})"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)

    if args.list_rules:
        for code in sorted(RULES):
            print(f"{code}  {RULES[code]}")
        return 0

    if args.explain is not None:
        code = args.explain.strip().upper()
        if code not in RULES:
            print(f"unknown rule: {code}", file=sys.stderr)
            return 2
        print(f"{code}  {RULES[code]}")
        print()
        print(RULE_DOCS[code])
        return 0

    rules: Optional[set[str]] = None
    if args.rules:
        rules = {code.strip().upper() for code in args.rules.split(",") if code.strip()}
        unknown = rules - set(RULES)
        if unknown:
            print(f"unknown rules: {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2

    exclude = list(DEFAULT_EXCLUDES) + (args.exclude or [])
    try:
        findings = run_lint(args.paths, rules, exclude=exclude)
    except FileNotFoundError as err:
        print(str(err), file=sys.stderr)
        return 2

    baseline_path = Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE)

    if args.write_baseline:
        count = write_baseline(baseline_path, findings, comment="TODO: justify")
        print(f"wrote {count} entries to {baseline_path}")
        return 0

    entries = []
    if baseline_path.exists():
        try:
            entries = load_baseline(baseline_path)
        except ValueError as err:
            print(str(err), file=sys.stderr)
            return 2
    active, suppressed, stale = apply_baseline(findings, entries)

    out = sys.stdout
    close_out = False
    if args.output:
        out = open(args.output, "w", encoding="utf-8")
        close_out = True
    try:
        if args.format == "json":
            json.dump(_json_report(active, suppressed, stale), out, indent=2)
            out.write("\n")
        else:
            for finding in active:
                print(finding.render(), file=out)
                if finding.snippet:
                    print(f"    {finding.snippet}", file=out)
    finally:
        if close_out:
            out.close()

    if args.format == "text" or args.output:
        for entry in stale:
            print(
                f"stale baseline entry (code changed or fixed): {entry.render()}",
                file=sys.stderr,
            )
        summary = (
            f"simlint: {len(active)} finding(s), {len(suppressed)} suppressed, "
            f"{len(stale)} stale baseline entr{'y' if len(stale) == 1 else 'ies'}"
        )
        print(summary, file=sys.stderr)

    if active:
        return 1
    if stale and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
