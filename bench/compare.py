"""Compare two benchmark reports: ``python bench/compare.py A.json B.json``.

A and B are reports written by ``python bench/run.py`` (A the parent, B
the change).  One row per (workload, end-to-end metric), judged against
the metric's bound from ``bench/registry.py``:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread (interquartile range over the
  median, the wider of the two sides) exceeds the bound, so the medians
  cannot be told apart — unless every B sample beats every A sample;
* ``improved``   — B's median is better by more than that spread (by more
  than the bound for a metric reported without samples);
* ``unchanged``  — otherwise.

Exact metrics (failed share, the simulated accuracy and speedup, every
per-layer count, the result digest) are compared exactly; any that
differ are listed.  Every ratio is printed with its base.  Exits non-zero
on any regression, on any rise in ``failed_share`` and on any exact
metric that got worse.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import registry  # noqa: E402


def _samples(detail: dict[str, Any], metric: str) -> list[float]:
    spread = detail.get("spread", {}).get(metric)
    return spread["samples"] if spread else [detail["metrics"][metric]["value"]]


def _iqr_share(detail: dict[str, Any], metric: str) -> float:
    spread = detail.get("spread", {}).get(metric)
    if not spread or not spread["median"]:
        return 0.0
    return (spread["q3"] - spread["q1"]) / spread["median"]


def judge(metric: registry.Metric, a: dict[str, Any], b: dict[str, Any]) -> tuple[str, float, float]:
    """``(verdict, B/A ratio, spread)`` for one end-to-end metric."""
    base = a["metrics"][metric.name]["value"]
    new = b["metrics"][metric.name]["value"]
    ratio = new / base
    worse = ratio - 1.0 if metric.better == "lower" else 1.0 - ratio
    spread = max(_iqr_share(a, metric.name), _iqr_share(b, metric.name))
    if worse > metric.bound:
        return "regressed", ratio, spread
    if spread > metric.bound:
        ours, theirs = _samples(b, metric.name), _samples(a, metric.name)
        clean = (
            max(ours) < min(theirs) if metric.better == "lower" else min(ours) > max(theirs)
        )
        return ("improved" if clean else "unresolved"), ratio, spread
    # Without samples (peak RSS, set-up) the bound is the only noise estimate.
    noise = max(spread, 0.01) if metric.name in a.get("spread", {}) else metric.bound
    if -worse > noise:
        return "improved", ratio, spread
    return "unchanged", ratio, spread


def judge_exact(metric: registry.Metric, base: float, new: float) -> str:
    if new == base:
        return "unchanged"
    better = new < base if metric.better == "lower" else new > base
    return "improved" if better else "regressed"


def compare(report_a: dict[str, Any], report_b: dict[str, Any]) -> int:
    bad = 0
    print(f"{'workload':<16} {'metric':<30} {'A (base)':>14} {'B':>14} {'B/A':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for name in registry.WORKLOAD_NAMES:
        a = report_a["workloads"].get(name)
        b = report_b["workloads"].get(name)
        if a is None or b is None:
            print(f"{name:<16} missing from {'A' if a is None else 'B'}")
            bad += 1
            continue
        a0, b0 = a["end_to_end"], b["end_to_end"]
        for metric in registry.END_TO_END:
            verdict, ratio, spread = judge(metric, a0, b0)
            bad += verdict == "regressed"
            print(f"{name:<16} {metric.name:<30} "
                  f"{a0['metrics'][metric.name]['value']:>14.6g} "
                  f"{b0['metrics'][metric.name]['value']:>14.6g} {ratio:>8.3f} "
                  f"{spread:>7.1%} {metric.bound:>6.0%}  {verdict}")
        for metric in registry.EXACT:
            if metric.name not in a0["exact"] and metric.name not in b0["exact"]:
                continue
            base, new = a0["exact"].get(metric.name), b0["exact"].get(metric.name)
            verdict = judge_exact(metric, base, new)
            bad += verdict == "regressed"
            print(f"{name:<16} {metric.name:<30} {base:>14.6g} {new:>14.6g} "
                  f"{'':>8} {'':>7} {'exact':>6}  {verdict}")
        same = a0["result_digest"] == b0["result_digest"]
        print(f"{name:<16} {'result_digest':<30} {a0['result_digest'][:14]:>14} "
              f"{b0['result_digest'][:14]:>14} {'':>8} {'':>7} {'exact':>6}  "
              f"{'unchanged' if same else 'changed'}")
        a1, b1 = a["per_layer"]["metrics"], b["per_layer"]["metrics"]
        identical = 0
        for metric in registry.PER_LAYER:
            if metric.kind == "host":
                continue
            base, new = a1[metric.name]["value"], b1[metric.name]["value"]
            verdict = judge_exact(metric, base, new)
            if verdict == "unchanged":
                identical += 1
                continue
            bad += verdict == "regressed"
            print(f"{name:<16} {metric.name:<30} {base:>14.6g} {new:>14.6g} "
                  f"{'':>8} {'':>7} {'exact':>6}  {verdict}")
        print(f"{name:<16} {identical} exact per-layer counts identical")
    print("verdict:", "REGRESSED" if bad else "no regression")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    reports = [json.loads(Path(path).read_text()) for path in argv]
    return compare(*reports)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
