"""Benchmark of the qbuffer toolkit.

Usage (from the repository root):

    python3 bench/run.py --workload curves --seed 1 --seconds 26 --trace 0

Workloads (see ``qbbench/workloads.py``): ``curves``, ``tomo-interior``,
``tomo-boundary`` and ``fit``.  ``--seconds`` sets the size of the run: a
fixed list of about ``rate * seconds`` seeded items (see ``Workload.size``),
sized so that a run takes about that long on a two-core VM at full speed.  With ``--trace 0`` the
run reports the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of a separate traced run on the same inputs.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment and
the output digests.  Details of the run (every output digest, check
messages, CPU and wall time of every item and cold command, span totals
and, for a traced run, the raw spans) go to ``.bench_out/`` at the
repository root.

End-to-end metrics (one closed-loop caller, BLAS pools at one thread; times
are CPU times, see ``qbbench/harness.py``):

* ``setup_s``: median, over the run's cold commands, of the time from
  spawning a fresh interpreter until ``qbuffer.cli`` has finished importing;
* ``cold_cmd_s``: median time of one cold command (spawn -> exit);
* ``items_per_s``: the run's items divided by the sum of their latencies;
* ``item_p50_ms``, ``item_p90_ms``: median and p90 over the run's items of
  the in-process latency of one item;
* ``ok_ratio``: share of attempted items and cold commands that did not
  fail.  An attempt fails if it raises, exits non-zero, reports
  ``converged: false`` or fails an output check;
* ``peak_rss_mb``: median peak resident memory of the cold-command children.

The program is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

from qbbench import THREAD_VARS, child_env, pin_cpu, pin_threads

# before numpy is first imported; children get the same settings
pin_threads()

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def git_commit(root: Path) -> str:
    """HEAD commit read from ``.git`` without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"commit": git_commit(ROOT), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "nproc": os.cpu_count(), "pinned_cpu": sorted(os.sched_getaffinity(0)),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    from qbbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "qbuffer" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qbuffer package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import qbuffer

    if Path(qbuffer.__file__).resolve().parent != SRC / "qbuffer":
        sys.stderr.write(f"error: qbuffer imported from {qbuffer.__file__}\n")
        return 2
    from qbbench import harness
    from qbbench.workloads import WORKLOADS

    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    pin_cpu()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = ROOT / ".bench_work" / f"{stem}-{os.getpid()}"
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": environment()}
    if args.trace:
        metrics, tally, totals = harness.trace(
            workload, args.seed, args.seconds, work_dir, child_env(SRC),
            spans_path=out_dir / f"{stem}-spans.npz")
        info["span_totals"] = totals
    else:
        metrics, tally = harness.measure(workload, args.seed, args.seconds,
                                         work_dir, child_env(SRC))
    # the same seed and --seconds give the same items, so digests compare
    info["outputs_sha256"] = tally.outputs_digest()
    result = {"correct": tally.incorrect == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {**info, "result": result, "messages": tally.messages,
         "digests": tally.digests, "cold_digests": tally.cold_digests,
         "latencies": tally.latencies, "colds": tally.colds}, indent=1))
    for message in tally.messages:
        sys.stderr.write(message + "\n")
    print(json.dumps({"info": {k: info[k] for k in
                               ("workload", "seed", "env", "outputs_sha256")}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
