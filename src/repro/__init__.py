"""repro — adaptive quantum synchronization for cluster simulation.

A from-scratch Python reproduction of *"An Adaptive Synchronization
Technique for Parallel Simulation of Networked Clusters"* (Falcón,
Faraboschi, Ortega — ISPASS 2008): a parallel-discrete-event cluster
simulator built from per-node full-system-simulator models, a centralized
network controller, quantum-based conservative synchronization, and the
paper's adaptive quantum algorithm that trades accuracy for speed by
growing the quantum through silent phases and crushing it when traffic
appears.

Quickstart::

    from repro import (
        AdaptiveQuantumPolicy, ExperimentRunner, IsWorkload, paper_policies,
    )

    runner = ExperimentRunner(seed=42)
    workload = IsWorkload()
    truth = runner.ground_truth(workload, size=8)     # Q = 1us reference
    for spec in paper_policies():
        row = runner.run_and_compare(workload, 8, spec)
        print(row.describe())

Layer map (each is a subpackage with its own docs):

- :mod:`repro.engine` — deterministic DES kernel.
- :mod:`repro.network` — packets, latency models, the network controller.
- :mod:`repro.node` — the node model (CPU, NIC, host-execution model).
- :mod:`repro.core` — quantum policies and the cluster co-simulation driver.
- :mod:`repro.faults` — deterministic fault plans, injection, and recovery.
- :mod:`repro.mpi` — message-passing library over the simulated network.
- :mod:`repro.workloads` — NAS kernels, NAMD, synthetic workloads.
- :mod:`repro.metrics` — accuracy, Pareto, and traffic analyses.
- :mod:`repro.obs` — structured tracing, Chrome-trace export, trace diff.
- :mod:`repro.harness` — the paper's experiment matrix, figures, CLI.
"""

from repro.core import (
    AdaptiveQuantumPolicy,
    AimdQuantumPolicy,
    BarrierModel,
    ClusterConfig,
    ClusterSimulator,
    FixedQuantumPolicy,
    QuantumPolicy,
    RunResult,
)
from repro.faults import FaultPlan, LinkPartition, NodeStall, load_plan
from repro.harness import (
    DiskResultCache,
    ExperimentRunner,
    ParallelRunner,
    PolicySpec,
    ground_truth_policy,
    nas_suite,
    paper_policies,
    scaleout_configs,
)
from repro.mpi import MpiRank, spmd_apps
from repro.network import NetworkController, PAPER_NETWORK, Packet
from repro.obs import TraceCollector, TraceConfig, diff_traces, write_chrome_trace
from repro.node import (
    CpuModel,
    HostModelParams,
    RecoveryConfig,
    SimulatedNode,
    TransportConfig,
)
from repro.workloads import (
    CgWorkload,
    EpWorkload,
    IsWorkload,
    LuWorkload,
    MgWorkload,
    NamdWorkload,
    PhaseWorkload,
    PingPongWorkload,
    StreamWorkload,
    Workload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "QuantumPolicy",
    "FixedQuantumPolicy",
    "AdaptiveQuantumPolicy",
    "AimdQuantumPolicy",
    "BarrierModel",
    "ClusterSimulator",
    "ClusterConfig",
    "RunResult",
    # node / network
    "SimulatedNode",
    "CpuModel",
    "HostModelParams",
    "NetworkController",
    "PAPER_NETWORK",
    "Packet",
    "TransportConfig",
    "RecoveryConfig",
    # faults
    "FaultPlan",
    "LinkPartition",
    "NodeStall",
    "load_plan",
    # mpi
    "MpiRank",
    "spmd_apps",
    # obs
    "TraceConfig",
    "TraceCollector",
    "write_chrome_trace",
    "diff_traces",
    # workloads
    "Workload",
    "EpWorkload",
    "IsWorkload",
    "CgWorkload",
    "MgWorkload",
    "LuWorkload",
    "NamdWorkload",
    "PhaseWorkload",
    "PingPongWorkload",
    "StreamWorkload",
    # harness
    "ExperimentRunner",
    "ParallelRunner",
    "DiskResultCache",
    "PolicySpec",
    "paper_policies",
    "ground_truth_policy",
    "nas_suite",
    "scaleout_configs",
]
