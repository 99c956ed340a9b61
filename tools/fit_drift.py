"""How the pasy, p3 and exp fits of one source tree differ from another's.

    python tools/fit_drift.py BASE_TREE CHANGED_TREE

Each tree is a checkout of this repository.  Both fit the same records: the
benchmark's ``Fit`` items (``bench/qbbench/workloads.py`` next to this
script) for seeds 1-3 and 11-23, items 0-107, 1 728 records in all.  Each tree
runs in its own interpreter with its ``src`` first on the path, one record at
a time through ``cli.cmd_fit`` and the benchmark's own check.  The report
compares CHANGED_TREE with BASE_TREE:

* records whose ``converged`` or ``at_bounds`` changed, or whose fit raised
  in one tree only;
* records whose JSON is not byte-identical, exp apart from pasy and p3;
* the failing set of each tree: records whose check found a problem;
* per model and parameter, the largest move on noisy records in BASE_TREE's
  reported sd, and the largest relative move on clean records; a value that
  did not move reads 0, also where that sd is 0;
* the largest relative move of the noisy residual norms, and the summed
  ``iterations`` (evaluations of the winning polish) of each tree.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

SEEDS = (1, 2, 3, *range(11, 24))
ITEMS = range(108)
BENCH = Path(__file__).resolve().parents[1] / "bench"
PARAMS = {"pasy": ("d_p1_s_per_sqrt_m", "d_p2_s_per_sqrt_m", "mu_per_m", "a1", "a2"),
          "p3": ("kappa1_per_s", "kappa2_per_s", "gamma0_per_s", "w1", "w2")}


def fit_records() -> None:
    """Print one JSON line per drift-set record, fitted by the qbuffer on the path."""
    from qbbench.workloads import Fit

    workload = Fit()
    for seed in SEEDS:
        for i in ITEMS:
            task = workload.item(seed, i)
            model, kind = task.label.split()[1:]
            row = {"key": f"{seed}/{i}", "model": model, "noisy": kind == "noisy"}
            try:
                verdict = task.verify(task.call())
            except Exception as exc:  # a fit that raises is part of the drift
                row["error"] = f"{type(exc).__name__}: {exc}"
            else:
                row["json"] = verdict.texts["fit.json"]
                row["failing"] = bool(verdict.problems)
            print(json.dumps(row))


def run_tree(tree: Path) -> subprocess.Popen:
    src = (tree / "src").resolve()
    code = (f"import sys; sys.path[:0] = {[str(src), str(BENCH), str(Path(__file__).parent)]!r}\n"
            f"import qbuffer; assert qbuffer.__file__.startswith({str(src)!r}), qbuffer.__file__\n"
            f"import fit_drift; fit_drift.fit_records()")
    return subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)


def largest(moves: dict) -> str:
    return ", ".join(f"{name} {value:.2g} ({key})" for name, (value, key) in moves.items())


def compare(base: list[dict], new: list[dict]) -> None:
    fits = {"pasy": 0, "p3": 0, "exp": 0}
    changed = {"converged": [], "at_bounds": [], "raised": [], "exp bytes": [],
               "pasy and p3 bytes": []}
    sd_moves = {m: {p: (0.0, "-") for p in PARAMS[m]} for m in PARAMS}
    rel_moves = {m: {p: (0.0, "-") for p in PARAMS[m]} for m in PARAMS}
    norm_moves = {m: (0.0, "-") for m in PARAMS}
    iterations = [{m: 0 for m in PARAMS}, {m: 0 for m in PARAMS}]
    for a, b in zip(base, new):
        assert a["key"] == b["key"] and a["model"] == b["model"]
        key, model = a["key"], a["model"]
        fits[model] += 1
        if ("error" in a) != ("error" in b) or a.get("error") != b.get("error"):
            changed["raised"].append(key)
        if "error" in a or "error" in b:
            continue
        if model == "exp":
            if a["json"] != b["json"]:
                changed["exp bytes"].append(key)
            continue
        if a["json"] != b["json"]:
            changed["pasy and p3 bytes"].append(key)
        ra, rb = json.loads(a["json"]), json.loads(b["json"])
        for field in ("converged", "at_bounds"):
            if ra[field] != rb[field]:
                changed[field].append(key)
        iterations[0][model] += ra["iterations"]
        iterations[1][model] += rb["iterations"]
        for name, var, old, value in zip(PARAMS[model], ra["covariance_diag"],
                                         (ra[p] for p in PARAMS[model]),
                                         (rb[p] for p in PARAMS[model])):
            table = sd_moves if a["noisy"] else rel_moves
            if value == old:  # also where the base's variance is 0
                move = 0.0
            elif a["noisy"]:
                move = abs(value - old) / math.sqrt(var) if var > 0 else math.inf
            else:
                move = abs(value - old) / abs(old) if old else abs(value)
            if move > table[model][name][0]:
                table[model][name] = (move, key)
        if a["noisy"]:
            old, value = ra["residual_norm"], rb["residual_norm"]
            move = abs(value - old) / old
            if move > norm_moves[model][0]:
                norm_moves[model] = (move, key)
    print(f"records: {len(base)} ({', '.join(f'{m} {n}' for m, n in fits.items())})")
    for what, keys in changed.items():
        print(f"{what} changed on {len(keys)}: {' '.join(keys) or '-'}")
    for label, rows in (("base", base), ("changed", new)):
        failing = [r["key"] for r in rows if r.get("failing")]
        print(f"failing set, {label}: {{{', '.join(failing)}}}")
    for model in PARAMS:
        print(f"{model} noisy, largest move in the base's sd: {largest(sd_moves[model])}")
        print(f"{model} clean, largest relative move: {largest(rel_moves[model])}")
        value, key = norm_moves[model]
        print(f"{model} noisy residual norm, largest relative move: {value:.2g} ({key})")
    print("summed iterations, base -> changed: "
          + ", ".join(f"{m} {iterations[0][m]} -> {iterations[1][m]}" for m in PARAMS))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/fit_drift.py BASE_TREE CHANGED_TREE", file=sys.stderr)
        return 2
    procs = [run_tree(Path(tree)) for tree in argv]
    outputs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        print("a tree's fits did not run to the end", file=sys.stderr)
        return 1
    compare(*([json.loads(line) for line in out.splitlines()] for out in outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
