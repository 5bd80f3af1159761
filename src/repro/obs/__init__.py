"""repro.obs — deterministic observability: traces, exports, diffs.

The flight recorder of the simulator.  A :class:`TraceCollector`
(installed via ``ClusterConfig.trace`` or ``ExperimentRunner(trace=...)``)
captures typed, sim-time-stamped events — quantum decisions, barrier
waits, packet lifecycles with straggler lag, fault verdicts, transport
retransmissions — with a bounded ring buffer and an optional streaming
JSONL sink.  Exporters render Chrome trace-event JSON (open it in
Perfetto) and JSONL; :func:`diff_traces` aligns an adaptive run
against its Q <= T ground truth by packet identity and attributes the
timing error (the paper's Section 5 claim) frame by frame and phase by
phase.

Tracing never perturbs a run: collectors only read, and a traced run's
:class:`~repro.core.cluster.RunResult` is bit-identical to an untraced
one.
"""

from repro.obs.collector import TraceCollector, TraceConfig, run_slug
from repro.obs.diff import PacketLag, PhaseRow, TraceDiff, diff_traces
from repro.obs.events import (
    BarrierWait,
    FastForward,
    FaultTrace,
    PacketTrace,
    QuantumBegin,
    QuantumEnd,
    RequestTrace,
    TraceEvent,
    TransportTrace,
)
from repro.obs.export import (
    chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "TraceCollector",
    "TraceConfig",
    "run_slug",
    "TraceEvent",
    "QuantumBegin",
    "QuantumEnd",
    "BarrierWait",
    "FastForward",
    "PacketTrace",
    "FaultTrace",
    "TransportTrace",
    "RequestTrace",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "diff_traces",
    "TraceDiff",
    "PacketLag",
    "PhaseRow",
]
