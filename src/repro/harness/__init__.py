"""Experiment harness: the paper's evaluation, reproducible on demand.

* :mod:`repro.harness.configs` — the paper's configuration matrix (fixed
  quanta 1/10/100/1000 us, the two adaptive settings, host/barrier
  calibration, scale-out instances).
* :mod:`repro.harness.settings` — ``RunnerSettings``: the one list of runner
  knobs, and which of them shape a result, an artefact, or only execution.
* :mod:`repro.harness.experiment` — builds clusters, runs them, caches the
  ground truth, and compares configurations against it.
* :mod:`repro.harness.parallel` — the experiment farm: process-pool batch
  fan-out plus the persistent on-disk result cache.
* :mod:`repro.harness.report` — fixed-width text tables for every figure
  and table in the paper.
* :mod:`repro.harness.sweep` — parameter sweeps (inc/dec ablations).
* :mod:`repro.harness.cli` — ``repro-cluster`` command-line entry point.
"""

from repro.harness.configs import (
    PAPER_SIZES,
    PolicySpec,
    ground_truth_policy,
    nas_suite,
    paper_policies,
    scaleout_configs,
)
from repro.harness.experiment import (
    ComparisonRow,
    ExperimentRecord,
    ExperimentRunner,
)
from repro.harness.parallel import DiskResultCache, ParallelRunner, RunSpec
from repro.harness.settings import RunnerSettings

__all__ = [
    "PAPER_SIZES",
    "PolicySpec",
    "paper_policies",
    "ground_truth_policy",
    "nas_suite",
    "scaleout_configs",
    "ExperimentRunner",
    "ExperimentRecord",
    "ComparisonRow",
    "ParallelRunner",
    "DiskResultCache",
    "RunnerSettings",
    "RunSpec",
]
