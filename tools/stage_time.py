"""Median in-process time of each stage of ``cli.cmd_tomo``, per source tree.

    python tools/stage_time.py TREE [TREE] [--workload tomo-interior] [--items 60] [--rounds 31]

Each tree is a checkout of this repository.  One worker per tree imports
qbuffer from that tree's ``src``, runs with one BLAS thread, pins itself to
the highest CPU this process may use and builds the same items: ``--items``
(P, xi, count seed) triples drawn from a fixed generator over the P and xi
ranges of the named benchmark workload (``bench/qbbench/workloads.py`` next
to this script), exact counts on the items the workload's ``EXACT`` pattern
marks.  It runs the pipeline once on them, untimed, and keeps what each
stage hands to the next: the true state, the record, the corrected counts
and the reconstruction.

A round asks each worker in turn, the order swapped every round, to time
every stage once: ``time.process_time`` around a loop that calls the stage
on each of its inputs, divided by the number of calls.  The stages are the
calls ``cmd_tomo`` makes (``simulate_counts`` runs on the Poisson items and
``expected_counts`` on the exact ones), then ``cmd_tomo`` itself on every
item.  One row times a call that another stage makes, to show its LAPACK
work apart: ``linear_inversion`` on the corrected counts
(``reconstruct_mle`` starts from it).  The report gives each stage's median over rounds, in microseconds per
call, one column per tree, with the ratio of the second tree to the first
when two are given, and the number of items whose ``cmd_tomo`` output differs
between the trees.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"


def serve(workload_name: str, n_items: int, cpu: int) -> None:
    """Worker: build the items, then answer each "time" line with one JSON line
    of per-stage microseconds per call; the first line holds output digests."""
    from qbbench.workloads import ACQUISITION, WORKLOADS
    from qbuffer import channels, cli, states, tomography

    os.sched_setaffinity(0, {cpu})
    workload = WORKLOADS[workload_name]
    rng = np.random.default_rng(20240201)
    items = [(float(rng.uniform(*workload.P_RANGE)), float(rng.uniform(*workload.XI_RANGE)),
              int(rng.integers(2 ** 31)),
              bool(workload.EXACT) and workload.EXACT[i % len(workload.EXACT)])
             for i in range(n_items)]
    gates, rate = ACQUISITION["gates"], ACQUISITION["accidental_rate"]
    configs = [cli.build_config({**ACQUISITION, "seed": seed}) for _, _, seed, _ in items]

    rhos = [channels.damp_werner(p, xi) for p, xi, _, _ in items]
    records = [tomography.expected_counts(rho, gates, rate) if exact
               else tomography.simulate_counts(rho, gates, rate, seed)
               for rho, (_, _, seed, exact) in zip(rhos, items)]
    counts = [tomography.subtract_accidentals(record) for record in records]
    hats = [tomography.reconstruct_mle(c).rho_hat for c in counts]
    stages = [
        ("damp_werner", channels.damp_werner, [(p, xi) for p, xi, _, _ in items]),
        ("simulate_counts", tomography.simulate_counts,
         [(rho, gates, rate, seed) for rho, (_, _, seed, exact) in zip(rhos, items)
          if not exact]),
        ("expected_counts", tomography.expected_counts,
         [(rho, gates, rate) for rho, (*_, exact) in zip(rhos, items) if exact]),
        ("subtract_accidentals", tomography.subtract_accidentals, [(r,) for r in records]),
        ("linear_inversion", tomography.linear_inversion, [(c,) for c in counts]),
        ("reconstruct_mle", tomography.reconstruct_mle, [(c,) for c in counts]),
        ("estimate_werner_probability", tomography.estimate_werner_probability,
         [(h,) for h in hats]),
        ("fidelity", tomography.fidelity, list(zip(rhos, hats))),
        ("rho_to_pairs", states.rho_to_pairs, [(h,) for h in hats]),
        ("records_to_csv", tomography.records_to_csv, [(r,) for r in records]),
        ("cmd_tomo", cli.cmd_tomo,
         [(config, p, xi, exact) for config, (p, xi, _, exact) in zip(configs, items)]),
    ]
    stages = [stage for stage in stages if stage[2]]

    digests = [hashlib.sha256(repr(cli.cmd_tomo(*args)).encode()).hexdigest()
               for args in stages[-1][2]]
    print(json.dumps(digests), flush=True)
    for _ in sys.stdin:
        times = {}
        for name, fn, calls in stages:
            start = time.process_time()
            for args in calls:
                fn(*args)
            times[name] = (time.process_time() - start) / len(calls) * 1e6
        print(json.dumps(times), flush=True)


def start_worker(tree: Path, workload: str, n_items: int, cpu: int) -> subprocess.Popen:
    from qbbench import THREAD_VARS

    src = (tree / "src").resolve()
    code = (f"import sys; sys.path[:0] = {[str(src), str(BENCH), str(Path(__file__).parent)]!r}\n"
            f"import qbuffer; assert qbuffer.__file__.startswith({str(src)!r}), qbuffer.__file__\n"
            f"import stage_time; stage_time.serve({workload!r}, {n_items}, {cpu})")
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    return subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, env=env)


def read(worker: subprocess.Popen):
    line = worker.stdout.readline()
    if not line:
        raise RuntimeError("a worker exited")
    return json.loads(line)


def main(argv: list[str]) -> int:
    from qbbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python tools/stage_time.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", type=Path, nargs="+", metavar="TREE")
    parser.add_argument("--workload", default="tomo-interior",
                        choices=sorted(name for name in WORKLOADS if name.startswith("tomo")))
    parser.add_argument("--items", type=int, default=60)
    parser.add_argument("--rounds", type=int, default=31)
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one or two trees")
    cpu = max(os.sched_getaffinity(0))

    workers = [start_worker(tree, args.workload, args.items, cpu) for tree in args.trees]
    try:
        digests = [read(worker) for worker in workers]
        rounds: list[list[dict]] = [[] for _ in workers]
        for k in range(args.rounds):
            for side in (range(len(workers)) if k % 2 == 0 else reversed(range(len(workers)))):
                workers[side].stdin.write("time\n")
                workers[side].stdin.flush()
                rounds[side].append(read(workers[side]))
    finally:
        for worker in workers:
            worker.stdin.close()
            worker.wait()

    names = list(rounds[0][0])
    medians = [{name: statistics.median(r[name] for r in tree_rounds) for name in names}
               for tree_rounds in rounds]
    differ = sum(a != b for a, b in zip(digests[0], digests[-1]))
    print(f"workload {args.workload}, {args.items} items, {args.rounds} rounds, CPU {cpu}"
          + (f": cmd_tomo outputs differ on {differ}" if len(workers) == 2 else ""))
    columns = ["base", "changed", "ratio"] if len(workers) == 2 else ["tree"]
    print(f"{'stage (median us per call)':<28}" + "".join(f"{c:>10}" for c in columns))
    for name in names:
        cells = [f"{m[name]:10.1f}" for m in medians]
        if len(workers) == 2:
            cells.append(f"{medians[1][name] / medians[0][name]:10.3f}")
        print(f"{name:<28}" + "".join(cells))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH))
    sys.exit(main(sys.argv[1:]))
