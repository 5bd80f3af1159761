# dest: src/repro/core/sched_leak.py
# expect: SIM001:8
# A wall-clock stamp laundered into event scheduling; the read is the finding.
import time


def _stamp():
    return time.time()


def kick(engine):
    due = _stamp()
    engine.schedule(due, None)
