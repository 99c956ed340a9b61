"""scipy.optimize is imported on the first solve, not at start-up."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import qbuffer

SRC = str(Path(qbuffer.__file__).resolve().parents[1])

STARTUP = """
import sys
from qbuffer.cli import main

loaded = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print("import", loaded())
assert main(["classify", "--kappa", "4281", "--gamma0", "16292",
             "--out", sys.argv[1] + ".json"]) == 0
print("classify", loaded())
assert main(["sweep", "--out", sys.argv[1]]) == 0
print("sweep", loaded())
"""


def test_start_up_classify_and_sweep_leave_scipy_unloaded(tmp_path):
    run = subprocess.run([sys.executable, "-c", STARTUP, str(tmp_path / "sweep.csv")],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["import []", "classify []", "sweep []"]


def test_scipy_named_in_one_module():
    named = sorted(path.name for path in Path(SRC, "qbuffer").glob("*.py")
                   if "scipy" in path.read_text())
    assert named == ["_optimize.py"]


@pytest.fixture
def lazy():
    from qbuffer import _optimize
    return _optimize


def test_nnls_forwards(lazy):
    a = np.array([[1.0, 0.5], [0.2, 1.0], [0.3, 0.7]])
    b = np.array([1.0, -0.4, 0.9])
    got, want = lazy.nnls(a, b), scipy.optimize.nnls(a, b)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def test_brentq_forwards(lazy):
    cubic = lambda x: x**3 - 2.0 * x - 5.0
    assert lazy.brentq(cubic, 2.0, 3.0, xtol=1e-14) == \
        scipy.optimize.brentq(cubic, 2.0, 3.0, xtol=1e-14)


def test_minimize_forwards(lazy):
    quadratic = lambda x: (x[0] - 1.0)**2 + 3.0 * (x[1] + 2.0)**2 + x[0] * x[1]
    got = lazy.minimize(quadratic, [0.0, 0.0], method="L-BFGS-B")
    want = scipy.optimize.minimize(quadratic, [0.0, 0.0], method="L-BFGS-B")
    assert np.array_equal(got.x, want.x) and got.fun == want.fun and got.nit == want.nit


def test_least_squares_forwards(lazy):
    t = np.linspace(0.0, 1.0, 7)
    y = 2.0 * t + 0.5 + 0.01 * np.sin(9.0 * t)
    line = lambda x: x[0] * t + x[1] - y
    got = lazy.least_squares(line, [1.0, 0.0])
    want = scipy.optimize.least_squares(line, [1.0, 0.0])
    assert np.array_equal(got.x, want.x) and got.cost == want.cost
    assert got.nfev == want.nfev
