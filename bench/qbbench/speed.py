"""How fast the host runs right now, from a fixed reference kernel.

On a shared host the processor's speed moves in phases: the CPU time of the
same call can be 1.6 times longer for tens of seconds, and then drop back.
Such a phase hits the program and any other code alike.  A run therefore
times ``kernel`` (code of the benchmark's own, which never calls qbuffer)
between its items, and scales each measured time by
``NOMINAL_S / local kernel time``, the median kernel time over the samples
taken around it.  A scaled time reads as the CPU time the measurement would
have taken at the speed at which the kernel takes ``NOMINAL_S``; a change
of the program moves it, a phase of the host does not.

The kernel mixes what the program spends its time on: scalar Python
arithmetic and function calls, and numpy calls on small arrays (linear
solves and elementwise maths).

A cold command spends its time starting an interpreter and importing, which
a slow phase stretches less than it stretches the kernel.  Cold commands are
therefore scaled by ``NOMINAL_SPAWN_S`` over the CPU time of a reference
child (``spawn_reference``): a fresh interpreter that imports qbuffer's
dependencies, but not qbuffer, and exits.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time

import numpy as np

NOMINAL_S = 0.0135   # kernel CPU time on a two-core VM, in a phase of full speed
EVERY_S = 0.3        # CPU time of measured work between two samples
WINDOW = 3           # samples on each side of a measurement
NOMINAL_SPAWN_S = 0.42   # reference child's CPU time, on the same VM
REFERENCE = "import argparse, csv, json, numpy, scipy.optimize"


def kernel() -> float:
    acc = 0.0
    for i in range(40_000):
        acc += math.sin(i * 1e-3) * (i % 7)
    m = np.arange(36.0).reshape(6, 6) + 7.0 * np.eye(6)
    v = np.linspace(0.0, 1.0, 400)
    for k in range(800):
        acc += float(np.linalg.solve(m, m[:, k % 6]).sum()) + float(np.exp(-v * k).sum())
    return acc


class SpeedProbe:
    """Kernel samples taken through a run, and the scale factor at a point."""

    def __init__(self, every_s: float = EVERY_S) -> None:
        self.every_s = every_s
        self.samples: list[float] = []
        self._since = every_s   # the first measurement is preceded by a sample

    def sample(self) -> int:
        """Time the kernel once; returns the index of the next sample, which
        marks the point of a measurement that follows."""
        start = time.process_time()
        kernel()
        self.samples.append(time.process_time() - start)
        self._since = 0.0
        return len(self.samples)

    def mark(self) -> int:
        """Sample if enough measured work has passed; returns the point."""
        if self._since >= self.every_s:
            self.sample()
        return len(self.samples)

    def spent(self, cpu_s: float) -> None:
        self._since += cpu_s

    def factor(self, point: int) -> float:
        """``NOMINAL_S`` over the median kernel time around ``point``."""
        window = self.samples[max(0, point - WINDOW):point + WINDOW]
        return NOMINAL_S / statistics.median(window) if window else 1.0


def spawn_reference(env: dict[str, str]) -> float:
    """CPU time (user + system) of one reference child."""
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", REFERENCE], env)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"reference child exited with status {status}")
    return usage.ru_utime + usage.ru_stime
