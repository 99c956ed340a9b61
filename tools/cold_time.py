"""Paired CPU time of one cold ``qbuffer`` command in two source trees.

    python tools/cold_time.py BASE_TREE CHANGED_TREE [--pairs 20] -- ARG...

Each tree is a checkout of this repository.  Its ``src`` is copied, without
``__pycache__``, to a fresh directory, and every command runs in a new
interpreter with ``PYTHONDONTWRITEBYTECODE=1``: so each command compiles the
qbuffer modules it imports, as the benchmark's cold commands do in a fresh
checkout, while numpy and scipy load from their installed bytecode.  The
command is ``qbuffer.cli.main(ARG...)``, run in this directory with one BLAS
thread; paths in ARG are read from here.  This process pins itself, and so
its children, to the highest CPU it may use.  Pair k runs BASE then CHANGED
when k is even and CHANGED then BASE when it is odd.

A command's CPU time is the growth of ``RUSAGE_CHILDREN``'s user + system
time across its run, interpreter start-up and imports included; its peak
resident set comes from ``wait4``.  This process imports no numpy, so its
own resident set, which a spawned child's peak includes, stays below a
command's.  The report gives each tree's median CPU time and peak, the ratio
CHANGED/BASE of the medians with a 95 % percentile bootstrap interval over
pairs, and the number of pairs in which CHANGED used less CPU.  A tree run
against itself gives a ratio near 1 inside its interval.
"""

from __future__ import annotations

import argparse
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
RESAMPLES = 2000
MAIN = "import sys; from qbuffer.cli import main; sys.exit(main(sys.argv[1:]))"


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run(src: Path, argv: list[str], env: dict[str, str], stderr: Path) -> tuple[float, float]:
    """CPU seconds and peak resident MB of one command with qbuffer from ``src``."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                0o644)]
    before = children_cpu()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", MAIN, *argv],
                         {**env, "PYTHONPATH": str(src)}, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{' '.join(argv)} failed with qbuffer from {src}:\n"
                           f"{stderr.read_text()}")
    return children_cpu() - before, usage.ru_maxrss / 1024.0


def interval(base: list[float], changed: list[float],
             rng: random.Random) -> tuple[float, float, float]:
    """median(changed) / median(base) and its 95 % percentile bootstrap
    interval, resampling pairs."""
    n, ratios = len(base), []
    for _ in range(RESAMPLES):
        picks = [rng.randrange(n) for _ in range(n)]
        ratios.append(statistics.median(changed[k] for k in picks)
                      / statistics.median(base[k] for k in picks))
    ratios.sort()
    low, high = ratios[int(0.025 * RESAMPLES)], ratios[int(0.975 * RESAMPLES) - 1]
    return statistics.median(changed) / statistics.median(base), low, high


def main(argv: list[str]) -> int:
    from qbbench import THREAD_VARS

    parser = argparse.ArgumentParser(prog="python tools/cold_time.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("changed", type=Path)
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("command", nargs="+", metavar="ARG",
                        help="the qbuffer command line, after --")
    args = parser.parse_args(argv)
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}, "PYTHONDONTWRITEBYTECODE": "1"}

    with tempfile.TemporaryDirectory(prefix="cold_time_") as tmp:
        srcs = [shutil.copytree(tree / "src", Path(tmp, name),
                                ignore=shutil.ignore_patterns("__pycache__"))
                for tree, name in ((args.base, "base"), (args.changed, "changed"))]
        cpu_s: list[list[float]] = [[], []]
        rss_mb: list[list[float]] = [[], []]
        for k in range(args.pairs):
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                used, peak = run(srcs[side], args.command, env, Path(tmp, "stderr"))
                cpu_s[side].append(used)
                rss_mb[side].append(peak)

    ratio, low, high = interval(*cpu_s, random.Random(0))
    print(f"{' '.join(args.command)}: {args.pairs} pairs, CPU {cpu}")
    for name, used, peak in zip(("base", "changed"), cpu_s, rss_mb):
        print(f"{name}: median CPU {statistics.median(used) * 1e3:.1f} ms, "
              f"median peak {statistics.median(peak):.1f} MB")
    won = sum(c < b for b, c in zip(*cpu_s))
    print(f"ratio {ratio:.4f} (95 % interval {low:.4f}-{high:.4f}), "
          f"changed faster in {won} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH))
    sys.exit(main(sys.argv[1:]))
