#!/usr/bin/env python3
"""Gate on what two benchmark reports say exactly: ``python tools/perf_gate.py A.json B.json``.

A and B are ``python bench/run.py`` reports (A the parent, B the change).  One
sequential pair of timings on a shared runner is too noisy to judge, so timings
are not gated (``bench/compare.py`` prints them; gains are claimed from
alternating pairs, see ``bench/README.md``).  This fails, per workload and pass,
only on what repeats exactly for a fixed seed: a rise in ``failed_share``, a
changed ``result_digest``, or an exact metric of ``bench/registry.py`` (a count
or a simulated metric) that got worse in its declared direction or went missing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import registry  # noqa: E402


def exact_values(detail: dict) -> dict[str, float]:
    metrics = detail["metrics"]
    layer = {m.name: metrics[m.name]["value"] for m in registry.PER_LAYER
             if m.kind != "host" and m.name in metrics}
    return {**detail["exact"], **layer}


def problems(report_a: dict, report_b: dict) -> list[str]:
    found = []
    for workload in registry.WORKLOAD_NAMES:
        a, b = report_a["workloads"].get(workload), report_b["workloads"].get(workload)
        if a is None or b is None:
            found.append(f"{workload}: missing from {'A' if a is None else 'B'}")
            continue
        for kind in a:
            label, new = f"{workload}/{kind}", exact_values(b[kind])
            for name, base in exact_values(a[kind]).items():
                lower = registry.BY_NAME[name].better == "lower"
                if name not in new or (new[name] > base if lower else new[name] < base):
                    found.append(f"{label}: {name} {base:g} -> {new.get(name, 'missing')}")
            if a[kind]["result_digest"] != b[kind]["result_digest"]:
                found.append(f"{label}: result_digest changed")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.splitlines()[0])
    found = problems(*(json.loads(Path(path).read_text()) for path in argv))
    for problem in found:
        print("exact regression:", problem)
    print("perf gate:", "FAILED" if found else "passed (exact metrics and digests)")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
