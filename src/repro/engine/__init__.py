"""Discrete-event simulation kernel.

This subpackage is the lowest substrate of the cluster simulator: a small,
deterministic discrete-event engine with

* integer-nanosecond simulated time (:mod:`repro.engine.units`),
* a cancellable binary-heap event queue (:mod:`repro.engine.events`),
* generator-based cooperative processes (:mod:`repro.engine.process`), and
* named, reproducible random-number streams (:mod:`repro.engine.rng`).

The quantum-synchronized *cluster* driver (the paper's subject) lives in
:mod:`repro.core` and builds on these pieces.
"""

from repro.engine.events import Event, EventQueue
from repro.engine.process import Process, ProcessExit
from repro.engine.rng import RngStreams
from repro.engine.units import (
    MICROSECOND,
    MILLISECOND,
    NANOSECOND,
    SECOND,
    format_time,
)

__all__ = [
    "Event",
    "EventQueue",
    "Process",
    "ProcessExit",
    "RngStreams",
    "NANOSECOND",
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "format_time",
]
