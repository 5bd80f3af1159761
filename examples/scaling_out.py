#!/usr/bin/env python3
"""Scale out to 64 nodes: the paper's Section 6 case studies.

Runs one of the three 64-node scenarios (EP, IS, NAMD) end to end through
its ``sec6_<case>`` artefact entry: ground truth, two fixed quanta, and the
per-case adaptive range, then prints the case-study table next to the
paper's reported numbers and an ASCII rendition of the Figure 9 traffic
chart.

Run:  python examples/scaling_out.py --case EP     (fast)
      python examples/scaling_out.py --case NAMD   (slower, dense traffic)
"""

import argparse

from repro import ExperimentRunner, scaleout_configs
from repro.harness.artefacts import ARTEFACTS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--case", choices=["EP", "IS", "NAMD"], default="EP")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    config = next(c for c in scaleout_configs() if c.name == args.case)
    entry = next(e for e in ARTEFACTS if e.command == "sec6" and e.case == args.case)

    runner = ExperimentRunner(seed=args.seed, record_traffic=True)
    print(entry.text(runner))

    truth = runner.ground_truth(config.workload_factory(), config.size)
    if truth.trace is not None:
        print("\ntraffic over time (ground truth run, Figure 9 left):")
        print(truth.trace.ascii_chart(width=72, max_rows=16))
        print(f"busy fraction: {truth.trace.busy_fraction():.2f} "
              "(EP ~ sparse bursts, NAMD ~ continuous)")


if __name__ == "__main__":
    main()
