"""The two comparison tools that every fit change is judged by:
``tools/fit_drift.py``'s report and ``tools/ab_time.py``'s interval."""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fit_drift, ab_time = tool("fit_drift"), tool("ab_time")


def fit_row(key, model, noisy, variances, failing=False):
    names = fit_drift.PARAMS.get(model, ())
    fit = {"converged": True, "at_bounds": [], "iterations": 17, "residual_norm": 0.25,
           "covariance_diag": variances, **{name: 0.5 + k for k, name in enumerate(names)}}
    return {"key": key, "model": model, "noisy": noisy, "json": json.dumps(fit),
            "failing": failing}


ROWS = [
    fit_row("1/0", "pasy", True, [1e-4, 0.0, 2e-4, 3e-4, 4e-4]),  # a variance clamped to 0
    fit_row("1/1", "p3", True, [0.0] * 5, failing=True),
    fit_row("1/2", "pasy", False, [1e-6] * 5),
    fit_row("1/3", "p3", False, [1e-6] * 5),
    fit_row("1/4", "exp", True, []),
    {"key": "1/5", "model": "p3", "noisy": True, "error": "FittingError: no fit"},
]


def test_fit_drift_of_a_tree_against_itself_reads_zero(capsys):
    fit_drift.compare(ROWS, [dict(row) for row in ROWS])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "records: 6 (pasy 2, p3 3, exp 1)"
    assert all(line.endswith("changed on 0: -") for line in lines[1:6])
    assert lines[6:8] == ["failing set, base: {1/1}", "failing set, changed: {1/1}"]
    moves = [move for line in lines if "largest" in line
             for move in re.findall(r"(\S+) \((\S+)\)", line)]
    assert len(moves) == 22 and set(moves) == {("0", "-")}
    assert lines[-1] == "summed iterations, base -> changed: pasy 34 -> 34, p3 34 -> 34"


def test_ab_time_of_identical_sessions_reads_one():
    rng = np.random.default_rng(1)
    sessions = [(cpu, cpu.copy()) for cpu in (rng.uniform(0.001, 0.02, size=n) for n in (40, 55))]
    ratio, low, high = ab_time.interval(sessions, np.random.default_rng(0))
    assert low <= ratio == 1.0 <= high


def test_ab_time_gives_each_index_parity_both_orders_over_two_sessions():
    # curves' threshold items all sit at odd indices: over a pair of sessions
    # each tree makes their first, cold call as often as the other tree
    for parity in (0, 1):
        first = [ab_time.order(i, swap)[0] for swap in (False, True) for i in range(parity, 40, 2)]
        assert first.count(0) == first.count(1) == 20
