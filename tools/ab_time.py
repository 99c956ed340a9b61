"""Paired CPU time of one benchmark workload's items in two source trees.

    python tools/ab_time.py BASE_TREE CHANGED_TREE [--workload fit] [--seeds 1,2,3,4,5,6]

Each tree is a checkout of this repository.  Every seed is a session: one
fresh worker per tree imports qbuffer from that tree's ``src`` and pins
itself to the highest CPU this process may use, so both run on the same
processor, one at a time.  The session's first ``workload.warmup`` items
run once in each worker, untimed.  Then both are fed the items of a 26 s
benchmark run of that seed (``bench/qbbench/workloads.py`` next to this
script) record by record, each record twice per tree: in the order BASE,
CHANGED, CHANGED, BASE, and for the next record
CHANGED, BASE, BASE, CHANGED, so over two records each tree makes three
calls right after the other tree and one right after its own call on the
same record.  Every second session (in the order given) swaps the two
orders, so an item label that sits only at odd or only at even indices
(curves' threshold and sweep items) also sees both; an odd number of seeds
is refused.  A tree's time for a record is the sum of its two calls, each
timed by ``time.process_time`` around ``task.call()`` inside the worker, so
input generation, checks and the pipe stay out of the time.

The report gives the ratio CHANGED/BASE of the summed CPU time, the measure
behind the benchmark's ``items_per_s``, overall and per item label, and the
number of records whose outputs differ.  Two worker processes of one tree
can differ by a percent or two in speed, which the records of one session
share, so the 95 % interval comes from a two-level percentile bootstrap:
sessions are resampled, then records within each, 2000 times.  A tree run
against itself gives a ratio of 1 inside its interval.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"
SECONDS = 26.0     # each session runs the items of a benchmark run this long
RESAMPLES = 2000


def serve(workload_name: str, cpu: int) -> None:
    """Worker: read "seed index" lines, run that item, answer one JSON line each."""
    from qbbench.workloads import WORKLOADS

    os.sched_setaffinity(0, {cpu})
    workload = WORKLOADS[workload_name]
    for line in sys.stdin:
        seed, index = map(int, line.split())
        task = workload.item(seed, index)
        start = time.process_time()
        try:
            out = task.call()
        except Exception as exc:  # a failing item is reported, not timed
            reply = {"label": task.label, "error": f"{type(exc).__name__}: {exc}"}
        else:
            cpu_s = time.process_time() - start
            digest = hashlib.sha256(repr(out).encode()).hexdigest()
            reply = {"label": task.label, "cpu": cpu_s, "out": digest}
        print(json.dumps(reply), flush=True)


def start_worker(tree: Path, workload: str, cpu: int) -> subprocess.Popen:
    from qbbench import THREAD_VARS

    src = (tree / "src").resolve()
    code = (f"import sys; sys.path[:0] = {[str(src), str(BENCH), str(Path(__file__).parent)]!r}\n"
            f"import qbuffer; assert qbuffer.__file__.startswith({str(src)!r}), qbuffer.__file__\n"
            f"import ab_time; ab_time.serve({workload!r}, {cpu})")
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    return subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, env=env)


def ask(worker: subprocess.Popen, seed: int, index: int) -> dict:
    worker.stdin.write(f"{seed} {index}\n")
    worker.stdin.flush()
    line = worker.stdout.readline()
    if not line:
        raise RuntimeError("a worker exited")
    return json.loads(line)


def order(index: int, swap: bool) -> tuple[int, ...]:
    """The trees' four calls on record ``index``: BASE (0) first on even
    records and CHANGED (1) first on odd ones, the other way round if ``swap``."""
    return (0, 1, 1, 0) if (index + swap) % 2 == 0 else (1, 0, 0, 1)


def session(trees: tuple[Path, Path], workload, name: str, seed: int, n_items: int,
            cpu: int, swap: bool) -> tuple[list[tuple], int]:
    """One seed's records in a fresh pair of workers: (label, base cpu,
    changed cpu, outputs equal) per record, and the number that raised.
    ``swap`` swaps the two orders of ``order``."""
    workers = [start_worker(tree, name, cpu) for tree in trees]
    rows, failed = [], 0
    try:
        for worker in workers:
            for index in range(workload.warmup):
                ask(worker, seed, index)
        for index in range(n_items):
            replies: list[list[dict]] = [[], []]
            for side in order(index, swap):
                replies[side].append(ask(workers[side], seed, index))
            if any("error" in r for side in replies for r in side):
                failed += 1
                continue
            rows.append((replies[0][0]["label"], *(sum(r["cpu"] for r in side) for side in replies),
                         len({r["out"] for side in replies for r in side}) == 1))
    finally:
        for worker in workers:
            worker.stdin.close()
            worker.wait()
    return rows, failed


def interval(sessions: list[tuple[np.ndarray, np.ndarray]],
             rng: np.random.Generator) -> tuple[float, float, float]:
    """sum(changed) / sum(base) over every session's records, and its 95 %
    two-level percentile bootstrap interval (sessions, then records)."""
    ratios = np.empty(RESAMPLES)
    for k in range(RESAMPLES):
        base = changed = 0.0
        for pick in rng.integers(0, len(sessions), size=len(sessions)):
            b, c = sessions[pick]
            records = rng.integers(0, len(b), size=len(b))
            base += b[records].sum()
            changed += c[records].sum()
        ratios[k] = changed / base
    low, high = np.percentile(ratios, [2.5, 97.5])
    return sum(c.sum() for _, c in sessions) / sum(b.sum() for b, _ in sessions), low, high


def main(argv: list[str]) -> int:
    from qbbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python tools/ab_time.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("changed", type=Path)
    parser.add_argument("--workload", default="fit", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", default="1,2,3,4,5,6")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) % 2:
        parser.error(f"--seeds takes an even number of seeds, a session in each order per "
                     f"pair; got {len(seeds)}")
    workload = WORKLOADS[args.workload]
    n_items, cpu = workload.size(SECONDS), max(os.sched_getaffinity(0))

    rows, failed = [], 0
    for k, seed in enumerate(seeds):
        seed_rows, raised = session((args.base, args.changed), workload, args.workload, seed,
                                    n_items, cpu, swap=k % 2 == 1)
        rows.append(seed_rows)
        failed += raised

    rng = np.random.default_rng(0)
    every = [row for seed_rows in rows for row in seed_rows]
    print(f"workload {args.workload}, seeds {args.seeds}, {n_items} items each, CPU {cpu}: "
          f"{len(every)} records, {failed} raised in a tree, "
          f"outputs differ on {sum(not same for *_, same in every)}")
    for label in ["all", *sorted({label for label, *_ in every})]:
        sessions = [(np.array([r[1] for r in picked]), np.array([r[2] for r in picked]))
                    for picked in ([r for r in seed_rows if label in ("all", r[0])]
                                   for seed_rows in rows) if picked]
        ratio, low, high = interval(sessions, rng)
        base, changed = (np.concatenate([s[k] for s in sessions]) for k in (0, 1))
        print(f"{label}: {len(base)} records, "
              f"summed CPU {base.sum():.4f} -> {changed.sum():.4f} s, "
              f"ratio {ratio:.4f} (95 % interval {low:.4f}-{high:.4f}), "
              f"changed faster on {int(np.sum(changed < base))}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH))
    sys.exit(main(sys.argv[1:]))
