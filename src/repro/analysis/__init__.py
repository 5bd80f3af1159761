"""Static analysis and runtime invariants for the simulation core.

The whole reproduction rests on one property: a run is a *pure,
deterministic function of its configuration*.  The parallel experiment
farm assumes it (results fan out over worker processes and must be
bit-identical to the serial path), the disk result cache assumes it
(entries are replayed forever), and the paper's ground-truth definition
(``Q <= T`` delivers every packet at its exact arrival time) is only
meaningful if causality is never violated by accident.  Synchronization
bugs in a PDES core surface as *silent* timing skew, not crashes — the
class of defect ordinary tests miss.  This package attacks it twice:

* :mod:`repro.analysis.simlint` — a per-file static lint (stdlib
  ``ast``, no dependencies) for bugs on paths no test executes: rules
  SIM001–SIM006 (wall-clock access in the sim core, unseeded randomness
  outside the engine RNG, iteration-order hazards, float/``SimTime``
  mixing, mutable default arguments, broad exception handlers), SIM022
  (fork-unsafe sync primitives in the sim core) and the shard-protocol
  rules SIM021/SIM023 (pipe-tag pairing, parent-only accounting).  Run
  it as ``python -m repro.analysis.simlint src tests``.  Whether ambient
  state reaches a result *across* calls is not argued statically:
  ``tests/test_determinism_perturbation.py`` re-runs a fixed run set
  under perturbed hash seeds, environments, clocks, CPU counts, working
  directories and pool sizes and requires identical results.

* :mod:`repro.analysis.invariants` — a runtime causality sanitizer that
  hooks the cluster driver and the network controller when
  ``REPRO_CHECK=1`` (or ``--check``) and asserts the conservative-PDES
  invariants every quantum, raising a structured
  :class:`~repro.analysis.invariants.InvariantViolation` on the first
  breach.  When disabled it costs one pointer comparison per hook site.
"""

from __future__ import annotations

from repro.analysis.invariants import CausalitySanitizer, InvariantViolation, check_enabled
from repro.analysis.rules import Finding, RULES

__all__ = [
    "CausalitySanitizer",
    "Finding",
    "InvariantViolation",
    "RULES",
    "check_enabled",
]
