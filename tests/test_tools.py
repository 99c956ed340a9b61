"""The comparison tools that changes are judged by: ``tools/fit_drift.py``'s
report, ``tools/ab_time.py``'s interval, ``tools/cold_time.py``'s pairs and
``tools/stage_time.py``'s stage table; and ``tools/soak.py``, which runs
hypothesis tests under many seeds."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fit_drift, ab_time, soak = tool("fit_drift"), tool("ab_time"), tool("soak")


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


def refuses_seeds(monkeypatch, capsys, seeds):
    """ab_time's error line for ``--seeds seeds``, raised before any worker starts."""
    monkeypatch.syspath_prepend(str(ab_time.BENCH))
    monkeypatch.setattr(ab_time, "start_worker", lambda *args: pytest.fail("a worker started"))
    with pytest.raises(SystemExit) as exit_info:
        ab_time.main([".", ".", "--workload", "curves", "--seeds", seeds])
    assert exit_info.value.code == 2
    return capsys.readouterr().err.splitlines()[-1]


def test_ab_time_refuses_an_odd_number_of_seeds(monkeypatch, capsys):
    # curves' labels need each order once per pair
    assert refuses_seeds(monkeypatch, capsys, "11,12,13,14,15") == (
        "python tools/ab_time.py: error: --seeds takes an even number of seeds, at least "
        "four, a session in each order per pair; got 5")


def test_ab_time_refuses_two_seeds(monkeypatch, capsys):
    # one pair of sessions gives per-label intervals too narrow to read
    assert refuses_seeds(monkeypatch, capsys, "11,12") == (
        "python tools/ab_time.py: error: --seeds takes an even number of seeds, at least "
        "four, a session in each order per pair; got 2")


def test_cold_time_of_a_tree_against_itself():
    # two pairs of cold classify commands, each compiling qbuffer afresh
    root = TOOLS.parent
    run = subprocess.run([sys.executable, str(TOOLS / "cold_time.py"), str(root), str(root),
                          "--pairs", "2", "--", "classify", "--kappa", "4281", "--gamma0", "16292"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("classify --kappa 4281 --gamma0 16292: 2 pairs, CPU ")
    for line, name in zip(lines[1:3], ("base", "changed")):
        cpu_ms, peak_mb = map(float, re.fullmatch(
            name + r": median CPU (\S+) ms, median peak (\S+) MB", line).groups())
        assert cpu_ms > 0 and peak_mb > 0
    ratio, low, high, won = re.fullmatch(
        r"ratio (\S+) \(95 % interval (\S+)-(\S+)\), changed faster in (\d) of 2 pairs",
        lines[3]).groups()
    assert float(low) <= float(ratio) <= float(high) and int(won) <= 2


def test_cold_time_reports_a_failing_command():
    root = TOOLS.parent
    run = subprocess.run([sys.executable, str(TOOLS / "cold_time.py"), str(root), str(root),
                          "--pairs", "1", "--", "classify", "--kappa", "nan", "--gamma0", "1"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode != 0 and "failed with qbuffer from" in run.stderr


def test_stage_time_of_a_tree_against_itself():
    # four items, one of them exact, two rounds
    root = TOOLS.parent
    run = subprocess.run([sys.executable, str(TOOLS / "stage_time.py"), str(root), str(root),
                          "--items", "4", "--rounds", "2"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert re.fullmatch(r"workload tomo-interior, 4 items, 2 rounds, CPU \d+: "
                        r"cmd_tomo outputs differ on 0", lines[0])
    assert lines[1].split() == ["stage", "(median", "us", "per", "call)", "base", "changed",
                                "ratio"]
    stages = [line.split() for line in lines[2:]]
    assert [row[0] for row in stages] == [
        "damp_werner", "simulate_counts", "expected_counts",
        "subtract_accidentals", "linear_inversion", "reconstruct_mle",
        "estimate_werner_probability", "fidelity", "rho_to_pairs", "records_to_csv", "cmd_tomo"]
    assert all(float(base) > 0 and float(changed) > 0 for _, base, changed, _ in stages)


def test_stage_time_of_one_tree_on_the_boundary():
    # the boundary workload has no exact items, so no expected_counts row
    run = subprocess.run([sys.executable, str(TOOLS / "stage_time.py"), str(TOOLS.parent),
                          "--workload", "tomo-boundary", "--items", "2", "--rounds", "1"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert re.fullmatch(r"workload tomo-boundary, 2 items, 1 rounds, CPU \d+", lines[0])
    assert lines[1].split()[-1] == "tree"
    assert "expected_counts" not in run.stdout and lines[-1].startswith("cmd_tomo ")


SOAKED = """
from hypothesis import given, strategies as st


def test_plain():
    assert False  # no hypothesis test: a soak does not run it


@given(st.integers(0, 10))
def test_passes(x):
    assert 0 <= x <= 10


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_soak_reports_each_seed_with_its_first_failure(tmp_path, monkeypatch, capsys):
    # each seed stores its examples in a home of its own, none in this directory
    (tmp_path / "test_soaked.py").write_text(SOAKED)
    monkeypatch.chdir(tmp_path)
    assert soak.main(["--seeds", "2", "test_soaked.py"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "seed 1: failed: test_soaked.py::test_fails", "seed 2: failed: test_soaked.py::test_fails",
        "failed on 2 of 2 seeds"]
    assert soak.main(["--seeds", "2", "test_soaked.py::test_passes"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "seed 1: passed", "seed 2: passed", "failed on 0 of 2 seeds"]
    assert not (tmp_path / ".hypothesis").exists()
