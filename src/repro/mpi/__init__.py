"""A message-passing library over the simulated network.

The paper's guests run LAM/MPI over TCP (NAS) and a UDP-optimised messaging
layer (NAMD).  Our workload models are written against this subpackage — an
MPI-flavoured API implemented as *generator composition*: every operation is
a sub-generator that ultimately yields the node primitives of
:mod:`repro.node.requests`, so workloads compose them with ``yield from``::

    def program(mpi):
        yield Compute(ops=1e8)
        total = yield from mpi.allreduce(nbytes=8, value=local, op=operator.add)
        parts = yield from mpi.alltoall(nbytes=4096, values=my_rows)

Collectives implement the classic distributed algorithms (dissemination
barrier, recursive-doubling allreduce, pairwise-exchange all-to-all), so
their *message patterns* — counts, sizes, dependency chains — match what
the paper's applications put on the wire.  The all-to-all chains in
particular are what make NAS-IS the paper's accuracy worst case.
"""

from repro.mpi.api import MpiRank, spmd_apps
from repro.mpi.collectives import (
    allreduce,
    alltoall,
    barrier,
)

__all__ = [
    "MpiRank",
    "spmd_apps",
    "barrier",
    "allreduce",
    "alltoall",
]
