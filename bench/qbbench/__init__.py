"""Benchmark of the qbuffer toolkit.

``workloads`` generates seeded inputs and checks outputs, ``cold`` runs
``qbuffer`` commands in fresh interpreters, ``tracing`` records spans around
the package's module functions, and ``harness`` runs one measurement and
reduces it to the metrics named in ``BENCHMARK.json``.
"""

import os
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Pin the BLAS pools to one thread; call before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def pin_cpu() -> int:
    """Run this process and the children it spawns on one processor; returns
    its number.  The host's speed moves per processor, so the speed probe
    (``speed.py``) must sample the processor the measured work runs on."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env(src: Path) -> dict[str, str]:
    """Environment of a cold-command child: pinned threads, qbuffer from ``src``."""
    return {**os.environ, **{var: "1" for var in THREAD_VARS}, "PYTHONPATH": str(src)}
