# dest: src/repro/core/result_leak.py
# expect: SIM002:8
# An unseeded draw flowing into the run's result; the draw is the finding.
import random


def finish(stats):
    jitter = random.random()
    return RunResult(sim_time=jitter, stats=stats)
