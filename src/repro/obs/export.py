"""Exporters: Chrome trace-event JSON (Perfetto-openable) and JSONL.

The Chrome trace lays the run out on simulated time (``ts`` in
microseconds, as the format requires):

* **pid 0 — network controller.**  Thread 0 carries every quantum as a
  duration slice (named by its length, with ``np``/decision/host-cost in
  ``args``) and fast-forwarded spans as single slices; counter tracks plot
  the chosen quantum and per-quantum traffic over time.  Thread 1 carries
  each frame's in-flight slice (send -> deliver) plus fault-injector
  marks.
* **pid 1 — one thread per node.**  Flow arrows connect each frame's send
  (source node track) to its delivery (destination track); barrier-wait
  and retransmission instants annotate the node that experienced them;
  service-request edges (issued / completed) are instants on the
  frontend node's track.

Open the file at https://ui.perfetto.dev (or ``chrome://tracing``) — drag
it in, or use "Open trace file".

No wall clock is read anywhere here: the export is a pure function of the
collected events, so exporting the same run twice yields identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional, Union

from repro.obs.collector import TraceCollector
from repro.obs.events import (
    BarrierWait,
    FastForward,
    FaultTrace,
    PacketTrace,
    QuantumEnd,
    RequestTrace,
    TraceEvent,
    TransportTrace,
)

#: Chrome trace ``ts``/``dur`` are microseconds; sim time is nanoseconds.
_NS_PER_US = 1000

_PID_CONTROLLER = 0
_PID_NODES = 1
_TID_QUANTA = 0
_TID_PACKETS = 1


def _events_of(source: Union[TraceCollector, list[TraceEvent]]) -> list[TraceEvent]:
    if isinstance(source, TraceCollector):
        return list(source.events)
    return list(source)


def _us(time_ns: int) -> float:
    return time_ns / _NS_PER_US


def _metadata(num_nodes: int) -> list[dict[str, Any]]:
    records: list[dict[str, Any]] = [
        {"ph": "M", "pid": _PID_CONTROLLER, "name": "process_name",
         "args": {"name": "network-controller"}},
        {"ph": "M", "pid": _PID_CONTROLLER, "tid": _TID_QUANTA,
         "name": "thread_name", "args": {"name": "quanta"}},
        {"ph": "M", "pid": _PID_CONTROLLER, "tid": _TID_PACKETS,
         "name": "thread_name", "args": {"name": "packets"}},
        {"ph": "M", "pid": _PID_NODES, "name": "process_name",
         "args": {"name": "cluster-nodes"}},
    ]
    for node in range(num_nodes):
        records.append(
            {"ph": "M", "pid": _PID_NODES, "tid": node, "name": "thread_name",
             "args": {"name": f"node {node}"}}
        )
    return records


def _infer_num_nodes(events: list[TraceEvent]) -> int:
    highest = -1
    for event in events:
        if isinstance(event, PacketTrace):
            highest = max(highest, event.src, event.dst)
        elif isinstance(event, (BarrierWait, RequestTrace)):
            highest = max(highest, event.node)
        elif isinstance(event, TransportTrace):
            highest = max(highest, event.node, event.dst)
    return highest + 1


def chrome_trace(
    source: Union[TraceCollector, list[TraceEvent]],
    num_nodes: Optional[int] = None,
    label: str = "repro",
) -> dict[str, Any]:
    """The run as a Chrome trace-event JSON object (Perfetto-openable)."""
    events = _events_of(source)
    if num_nodes is None:
        num_nodes = max(_infer_num_nodes(events), 0)
    trace_events = _metadata(num_nodes)
    for event in events:
        trace_events.extend(_convert(event))
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs",
            "label": label,
            "time_domain": "simulated nanoseconds (ts scaled to us)",
        },
    }


def _convert(event: TraceEvent) -> list[dict[str, Any]]:
    if isinstance(event, QuantumEnd):
        return _convert_quantum(event)
    if isinstance(event, FastForward):
        return _convert_fast_forward(event)
    if isinstance(event, PacketTrace):
        return _convert_packet(event)
    if isinstance(event, BarrierWait):
        return [
            {"name": "barrier-wait", "cat": "barrier", "ph": "i", "s": "t",
             "pid": _PID_NODES, "tid": event.node, "ts": _us(event.time),
             "args": {"quantum_index": event.index,
                      "host_wait_s": event.host_wait}}
        ]
    if isinstance(event, FaultTrace):
        return [
            {"name": f"fault:{event.action}", "cat": "fault", "ph": "i", "s": "p",
             "pid": _PID_CONTROLLER, "tid": _TID_PACKETS, "ts": _us(event.time),
             "args": {"src": event.src, "dst": event.dst,
                      "message_id": event.message_id, "fragment": event.fragment,
                      "extra_latency_ns": event.extra_latency}}
        ]
    if isinstance(event, TransportTrace):
        return [
            {"name": event.action, "cat": "transport", "ph": "i", "s": "t",
             "pid": _PID_NODES, "tid": event.node, "ts": _us(event.time),
             "args": {"dst": event.dst, "message_id": event.message_id,
                      "fragment": event.fragment, "retransmit": event.retransmit}}
        ]
    if isinstance(event, RequestTrace):
        return [
            {"name": f"request {event.action}", "cat": "request", "ph": "i", "s": "t",
             "pid": _PID_NODES, "tid": event.node, "ts": _us(event.time),
             "args": {"request_id": event.request_id, "latency_ns": event.latency,
                      "slo_miss": event.slo_miss}}
        ]
    # QuantumBegin carries no information QuantumEnd lacks; skip quietly.
    return []


def _convert_quantum(event: QuantumEnd) -> list[dict[str, Any]]:
    return [
        {"name": f"Q={event.quantum}ns", "cat": "quantum", "ph": "X",
         "pid": _PID_CONTROLLER, "tid": _TID_QUANTA,
         "ts": _us(event.start), "dur": _us(event.quantum),
         "args": {"index": event.index, "np": event.np,
                  "decision": event.decision,
                  "next_quantum_ns": event.next_quantum,
                  "host_cost_s": event.host_cost,
                  "host_barrier_s": event.host_barrier}},
        {"name": "quantum_us", "ph": "C", "pid": _PID_CONTROLLER,
         "ts": _us(event.start), "args": {"quantum_us": _us(event.quantum)}},
        {"name": "np", "ph": "C", "pid": _PID_CONTROLLER,
         "ts": _us(event.start), "args": {"np": event.np}},
    ]


def _convert_fast_forward(event: FastForward) -> list[dict[str, Any]]:
    return [
        {"name": f"fast-forward x{event.quanta}", "cat": "quantum", "ph": "X",
         "pid": _PID_CONTROLLER, "tid": _TID_QUANTA,
         "ts": _us(event.time), "dur": _us(event.span),
         "args": {"index": event.index, "quanta": event.quanta,
                  "span_ns": event.span, "host_cost_s": event.host_cost,
                  "host_barrier_s": event.host_barrier}},
        {"name": "quantum_us", "ph": "C", "pid": _PID_CONTROLLER,
         "ts": _us(event.time),
         "args": {"quantum_us": _us(event.span // max(event.quanta, 1))}},
        {"name": "np", "ph": "C", "pid": _PID_CONTROLLER,
         "ts": _us(event.time), "args": {"np": 0}},
    ]


def _convert_packet(event: PacketTrace) -> list[dict[str, Any]]:
    name = f"{event.src}->{event.dst}"
    args = {
        "delivery": event.delivery,
        "lag_ns": event.lag,
        "straggler": event.straggler,
        "size_bytes": event.size_bytes,
        "message_id": event.message_id,
        "fragment": event.fragment,
        "retransmit": event.retransmit,
        "packet_kind": event.packet_kind,
        "due_time_ns": event.due_time,
        "quantum_index": event.index,
    }
    flight = max(event.deliver_time - event.time, 1)
    return [
        # In-flight slice on the controller's packet track (send..deliver).
        {"name": name, "cat": "packet", "ph": "X",
         "pid": _PID_CONTROLLER, "tid": _TID_PACKETS,
         "ts": _us(event.time), "dur": _us(flight), "args": args},
        # Flow arrow from the source node's track to the destination's.
        {"name": "pkt", "cat": "packet", "ph": "s", "id": event.packet_id,
         "pid": _PID_NODES, "tid": event.src, "ts": _us(event.time)},
        {"name": "pkt", "cat": "packet", "ph": "f", "bp": "e",
         "id": event.packet_id, "pid": _PID_NODES, "tid": event.dst,
         "ts": _us(event.deliver_time)},
        # Tiny anchor slices so the flow arrows have slices to bind to.
        {"name": f"send {name}", "cat": "packet", "ph": "X",
         "pid": _PID_NODES, "tid": event.src,
         "ts": _us(event.time), "dur": _us(1)},
        {"name": f"recv {name}", "cat": "packet", "ph": "X",
         "pid": _PID_NODES, "tid": event.dst,
         "ts": _us(event.deliver_time), "dur": _us(1), "args": args},
    ]


def write_chrome_trace(
    source: Union[TraceCollector, list[TraceEvent]],
    path: Union[str, Path],
    num_nodes: Optional[int] = None,
    label: str = "repro",
) -> Path:
    """Serialize :func:`chrome_trace` to *path*; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(chrome_trace(source, num_nodes, label)))
    return target


def write_jsonl(
    source: Union[TraceCollector, list[TraceEvent]], path: Union[str, Path]
) -> Path:
    """Dump the (ring-retained) events as one JSON object per line."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as sink:
        for event in _events_of(source):
            sink.write(json.dumps(event.to_dict()) + "\n")
    return target
