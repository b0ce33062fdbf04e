"""A fixed reference task that measures how fast each CPU runs right now.

On a shared host the same Python code ran up to 1.6 times slower for minutes
at a time, in CPU time as well as in wall time, so raw seconds from two runs
a few minutes apart differ by more than any bound worth gating.  The
benchmark therefore keeps its process on one CPU, the home CPU, except while
a verdict that runs worker processes is in flight, and between verdicts,
never inside a timed call, runs this task on every usable CPU.  It rescales
each verdict's time by REF_TASK_S / (median time of the task's samples
nearest to that verdict): the home CPU's times for a verdict that ran there
alone, the mean over the CPUs for a parallel one (the CPUs of a shared host
slow down independently; the mean tracked parallel verdicts more closely
than the slowest CPU).  So the end-to-end times are seconds on CPUs that run
the task in REF_TASK_S.

The task touches nothing of dpcover and runs with the garbage collector off,
so neither dpcover's code nor the size of its heap changes its time.  A
dpcover change that left work running between verdicts (a busy thread or
worker) would slow the task too, and so would be partly hidden.
"""
from __future__ import annotations

import bisect
import gc
import json
import os
import random
import statistics
import time
from typing import NamedTuple

# Median of the samples taken between verdicts over a series of runs on a
# shared 2-vCPU Xeon VM, Python 3.11.7 (quiet moments gave 0.8 ms).
REF_TASK_S = 1.3e-3

# Take one sample after at least this much verdict time since the last one.
EVERY_S = 0.1

# A verdict's factor comes from this many samples before it and after it.
NEAREST = 3

_DATA = [random.Random(0).getrandbits(40) for _ in range(3000)]


def _task() -> None:
    table: dict[int, int] = {}
    for x in _DATA:
        table[x & 0xFFF] = table.get(x & 0xFFF, 0) + (x >> 7)
    ordered = sorted(_DATA, key=lambda v: v ^ 0x5555)
    json.loads(json.dumps(ordered[:500]))


def sample() -> float:
    """Seconds one run of the task takes now.

    The task is timed as it finds the caches after whatever ran before it;
    warming it first made it track the verdicts' slowdowns less well.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _task()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_factor(samples: list[float]) -> float:
    """Factor that turns seconds measured next to `samples` into reference seconds."""
    return REF_TASK_S / statistics.median(samples)


def _current_cpu() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat), if known."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            return int(handle.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class Cpus(NamedTuple):
    home: int
    usable: frozenset[int]

    @classmethod
    def pin_here(cls) -> "Cpus":
        """Pin this process to the CPU it is running on and return the CPUs."""
        usable = frozenset(os.sched_getaffinity(0))
        home = _current_cpu()
        cpus = cls(home if home in usable else min(usable), usable)
        cpus.go_home()
        return cpus

    def go_home(self) -> None:
        os.sched_setaffinity(0, {self.home})

    def spread(self) -> None:
        os.sched_setaffinity(0, self.usable)


class Monitor:
    """Reference samples taken between the verdicts of a run on every usable
    CPU, and the speed factor at each verdict."""

    def __init__(self, cpus: Cpus) -> None:
        self.cpus = cpus
        self.positions: list[int] = []  # verdicts done when each sample was taken
        self.samples: list[dict[int, float]] = []  # seconds on each CPU
        self.verdicts = 0
        self._since = 0.0
        self._sample_each_cpu()  # the task's first runs are slower: warm it up

    def after_verdict(self, seconds: float) -> None:
        self.verdicts += 1
        self._since += seconds
        if self._since >= EVERY_S or not self.samples:
            self.positions.append(self.verdicts)
            self.samples.append(self._sample_each_cpu())
            self._since = 0.0

    def _sample_each_cpu(self) -> dict[int, float]:
        times = {}
        for cpu in sorted(self.cpus.usable - {self.cpus.home}) + [self.cpus.home]:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = sample()
        return times

    def factor(self, index: int, parallel: bool = False) -> float:
        """Speed factor for the run's verdict number `index`, counted from 0."""
        i = bisect.bisect_right(self.positions, index)
        window = self.samples[max(0, i - NEAREST):i + NEAREST]
        if parallel:
            return speed_factor([statistics.fmean(s.values()) for s in window])
        return speed_factor([s[self.cpus.home] for s in window])
