#!/usr/bin/env python3
"""Serving an open-loop request workload: tail latency vs quantum policy.

Feeds a Poisson request stream (with a traffic burst mid-run) through a
three-tier service — frontend, mid-tier, leaves — simulated on 8 nodes,
and measures what serving systems actually care about: p50/p99/p99.9
request latency and the SLO miss rate.  The open-loop feeder never slows
down when the service lags, so any synchronization error the quantum
introduces shows up directly in the latency tail.

A large fixed quantum inflates every cross-tier hop and multiplies
through the fan-out, dilating p99 by orders of magnitude; the adaptive
quantum reproduces the zero-straggler tail exactly while still skipping
ahead between arrivals.

Run:  python examples/request_serving.py
"""

from repro import ExperimentRunner
from repro.core import AdaptiveQuantumPolicy, FixedQuantumPolicy
from repro.engine.units import MICROSECOND, MILLISECOND
from repro.harness.artefacts import service_study, service_text
from repro.harness.configs import PolicySpec
from repro.service import ArrivalProfile, BurstWindow, ServiceWorkload

US = MICROSECOND


def main():
    profile = ArrivalProfile(
        rate_per_sec=20_000.0,
        num_requests=600,
        diurnal_amplitude=0.3,
        # A 3x traffic spike 10-15 ms into the run: the adaptive quantum
        # must shrink during the burst and recover afterwards.
        bursts=(BurstWindow(10 * MILLISECOND, 15 * MILLISECOND, 3.0),),
    )
    workload = ServiceWorkload(
        profile=profile,
        tier_weights=(1, 2, 4),
        slo_ns=200 * US,
    )

    policies = [
        PolicySpec("Q=100us", lambda: FixedQuantumPolicy(100 * US)),
        PolicySpec("Q=1000us", lambda: FixedQuantumPolicy(1000 * US)),
        PolicySpec("adaptive", lambda: AdaptiveQuantumPolicy(US, 1000 * US)),
    ]

    study = service_study(ExperimentRunner(seed=2026), workload, 8, policies)
    print(f"{workload.describe()}, 8 nodes: tail latency under quantum sync\n")
    print(service_text(study))
    print(
        "\nThe open-loop feeder keeps issuing on schedule no matter how the"
        "\nservice responds, so quantum-induced delay accumulates in queues"
        "\nand lands in the tail: the fixed quanta miss the SLO on nearly"
        "\nevery request, while the adaptive quantum tracks the true"
        "\npercentiles to within a fraction of a percent and still runs"
        "\nfaster than the ground truth."
    )


if __name__ == "__main__":
    main()
