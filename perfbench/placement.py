"""Placing the benchmark's processes on the quietest CPU.

Each vCPU of a shared host is slowed, independently of the others and for
seconds to a minute at a time, by load that this process cannot see; the
same pure-Python loop then takes about 1.6 times as long.  The launcher
calls move_to_quiet_cpu before it starts each process, and the worker
before each request, so that most timed steps run on a CPU that is not
slowed at that moment.  The program's work is unchanged; only where it
runs is chosen, and the probe (about 6 ms on 2 CPUs) is never inside a
timing.
"""

from __future__ import annotations

import math
import os
import time

MAX_CPUS = 4  # CPUs probed at each placement


def probe_s() -> float:
    """Time a fixed pure-Python loop of complex arithmetic; the faster of two tries."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        z = 1.0 + 0.5j
        for _ in range(10000):
            z = (z * 0.999 + 0.001j) / 1.0001
        best = min(best, time.perf_counter() - t0)
    return best


def quiet_cpu_candidates() -> list[int]:
    return sorted(os.sched_getaffinity(0))[:MAX_CPUS]


def move_to_quiet_cpu(cpus: list[int]) -> float:
    """Pin this process (and the children it starts later) to the CPU on
    which the probe runs fastest now; return that CPU's probe time."""
    if len(cpus) < 2:
        return probe_s()
    speeds = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = probe_s()
    cpu = min(speeds, key=speeds.get)
    os.sched_setaffinity(0, {cpu})
    return speeds[cpu]
