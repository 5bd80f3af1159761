"""Workload models: the applications driving the cluster simulator.

The paper evaluates five NAS Parallel Benchmarks (EP, IS, CG, MG, LU, class
A over LAM/MPI) and NAMD (apoa1 over UDP messaging).  We model each as an
SPMD program over :mod:`repro.mpi` that reproduces the benchmark's published
*communication structure* — the property the synchronization algorithm
actually interacts with:

* **EP** — embarrassingly parallel: long private compute, a final handful of
  small reductions.  Best case for adaptive quanta.
* **IS** — bucket sort: iterated histogram ``allreduce`` + bulk
  ``alltoall`` key exchange.  "Fine-grain synchronization nature"; the
  paper's accuracy worst case.
* **CG** — conjugate gradient: irregular long-distance exchanges
  (transpose partners) plus two dot-product reductions per iteration.
* **MG** — multigrid V-cycles: neighbour exchanges at every grid level,
  short-distance/large at fine levels, long-distance/small at coarse ones.
* **LU** — SSOR wavefront: long pipelines of small messages; sensitive to
  network latency.
* **NAMD** — molecular dynamics: dense, continuously overlapping
  position/force traffic.  The paper's speed worst case.

Beyond the paper's batch applications, :mod:`repro.service` adds an
open-loop request-serving family (:class:`~repro.service.ServiceWorkload`)
whose metric is a client-observed latency percentile — the workload shape
datacenter-simulation users care about.

Default constructor parameters are scaled so a ground-truth (1 us quantum)
run finishes in tens of simulated milliseconds — the structures, message
size ratios and compute/communication ratios are preserved, the absolute
durations are not (see DESIGN.md, substitutions table).
"""

from repro.workloads.base import NasWorkload, Workload, harmonic_mean
from repro.workloads.namd import NamdWorkload
from repro.workloads.nas_cg import CgWorkload
from repro.workloads.nas_ep import EpWorkload
from repro.workloads.nas_is import IsWorkload
from repro.workloads.nas_lu import LuWorkload
from repro.workloads.nas_mg import MgWorkload
from repro.workloads.synthetic import PhaseWorkload, PingPongWorkload, StreamWorkload

NAS_SUITE = (EpWorkload, IsWorkload, CgWorkload, MgWorkload, LuWorkload)

__all__ = [
    "Workload",
    "NasWorkload",
    "harmonic_mean",
    "EpWorkload",
    "IsWorkload",
    "CgWorkload",
    "MgWorkload",
    "LuWorkload",
    "NamdWorkload",
    "PhaseWorkload",
    "PingPongWorkload",
    "StreamWorkload",
    "NAS_SUITE",
]
