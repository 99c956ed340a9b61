"""scipy.optimize is imported on the first brentq or minimize call, not at
start-up; the fits' two-column NNLS and bounded least-squares solver are
qbuffer's own, so a fit never imports it."""

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
import numpy as np
from qbuffer import dynamics, fitting
from qbuffer.cli import main

loaded = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print("import", loaded())
assert main(["classify", "--kappa", "4281", "--gamma0", "16292",
             "--out", sys.argv[1] + ".json"]) == 0
print("classify", loaded())
assert main(["sweep", "--out", sys.argv[1]]) == 0
print("sweep", loaded())
# an interior state: the linear inversion already is the MLE, nothing to solve
assert main(["tomo", "--werner-p", "0.5", "--out", sys.argv[1]]) == 0
print("tomo", loaded())
assert main(["tomo", "--werner-p", "0.5", "--exact", "--out", sys.argv[1]]) == 0
print("tomo --exact", loaded())

def fit(model, p):
    path = f"{sys.argv[1]}.{model}.csv"
    with open(path, "w") as f:
        f.write(fitting.series_to_csv(fitting.DataSeries.from_points(t, p)))
    assert main(["fit", path, "--model", model, "--out", path + ".json"]) == 0
    print("fit", model, loaded())

t = np.linspace(0.0, 1.5e-3, 20)
p3_curve = dynamics.p3(t, dynamics.CavityModelParams(753.0, 3528.0, 16292.0, 0.5, 0.5))
fit("pasy", dynamics.prob_pasy(t, dynamics.PmdModelParams.from_lab_units(
    200.0, 0.0017, 0.047, 0.006, 0.5, 0.5), dynamics.UnitContext()))
fit("p3", p3_curve)
fit("exp", p3_curve)
# a pure state: the clipped start is off the optimum, so L-BFGS-B iterates
assert main(["tomo", "--werner-p", "1.0", "--out", sys.argv[1]]) == 0
print("tomo P = 1", "scipy.optimize" in loaded())
"""


def test_start_up_classify_and_sweep_leave_scipy_unloaded(tmp_path):
    # and so do an interior tomo and a fit of every model; only a tomo whose
    # MLE iterates loads it
    run = subprocess.run([sys.executable, "-c", STARTUP, str(tmp_path / "sweep.csv")],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["import []", "classify []", "sweep []", "tomo []",
                                       "tomo --exact []", "fit pasy []", "fit p3 []",
                                       "fit exp []", "tomo P = 1 True"]


def test_scipy_named_in_one_module():
    named = sorted(path.name for path in Path(SRC, "qbuffer").glob("*.py")
                   if "scipy" in path.read_text())
    assert named == ["_optimize.py"]


@pytest.fixture
def lazy():
    from qbuffer import _optimize
    return _optimize


def test_brentq_forwards(lazy):
    cubic = lambda x: x**3 - 2.0 * x - 5.0
    assert lazy.brentq(cubic, 2.0, 3.0, xtol=1e-14) == \
        scipy.optimize.brentq(cubic, 2.0, 3.0, xtol=1e-14)


def test_minimize_forwards(lazy):
    quadratic = lambda x: (x[0] - 1.0)**2 + 3.0 * (x[1] + 2.0)**2 + x[0] * x[1]
    got = lazy.minimize(quadratic, [0.0, 0.0], method="L-BFGS-B")
    want = scipy.optimize.minimize(quadratic, [0.0, 0.0], method="L-BFGS-B")
    assert np.array_equal(got.x, want.x) and got.fun == want.fun and got.nit == want.nit


LINE_T = np.linspace(0.0, 1.0, 7)
LINE_DESIGN = np.column_stack([LINE_T, np.ones_like(LINE_T), np.sin(3.0 * LINE_T)])


def linear(y):
    """Residual and Jacobian of min |LINE_DESIGN x - y|."""
    return (lambda x: LINE_DESIGN @ x - y), (lambda x: LINE_DESIGN)


def test_least_squares_linear_matches_lstsq(lazy):
    # the optimum is interior, so the bound is inactive and lstsq is the answer
    y = 2.0 * LINE_T + 0.5 + 0.3 * np.sin(3.0 * LINE_T) + 0.01 * np.cos(9.0 * LINE_T)
    want = np.linalg.lstsq(LINE_DESIGN, y, rcond=None)[0]
    assert np.all(want > 0.1)
    fun, jac = linear(y)
    got = lazy.least_squares(fun, [1.0, 1.0, 1.0], jac)
    assert got.status > 0
    np.testing.assert_allclose(got.x, want, rtol=1e-12, atol=0.0)
    assert got.cost == pytest.approx(0.5 * np.sum(fun(want) ** 2), rel=1e-12)
    assert np.array_equal(got.jac, LINE_DESIGN)


def test_least_squares_optimum_on_the_bound(lazy):
    # the unconstrained optimum has a negative intercept; the bounded one sits
    # at intercept 0 with the gradient pointing outward there (KKT)
    y = 2.0 * LINE_T - 0.4 + np.sin(3.0 * LINE_T)
    assert np.linalg.lstsq(LINE_DESIGN, y, rcond=None)[0][1] < 0
    want, _ = scipy.optimize.nnls(LINE_DESIGN, y)
    assert want[1] == 0.0 and np.all(want[[0, 2]] > 0.1)
    fun, jac = linear(y)
    got = lazy.least_squares(fun, [1.0, 1.0, 1.0], jac)
    assert got.status > 0
    assert got.x[1] <= 1e-9
    np.testing.assert_allclose(got.x[[0, 2]], want[[0, 2]], rtol=1e-9)
    g = LINE_DESIGN.T @ fun(got.x)
    assert g[1] >= 0.0
    assert np.all(np.abs(g[[0, 2]]) <= 1e-9)


def test_least_squares_holds_a_variable_at_the_bound(lazy):
    # started on the bound (moved 1e-10 inside) with its step pointing out,
    # the intercept is held there while the others solve; a step cut short
    # at the bound instead would shrink every other step with it
    y = 2.0 * LINE_T - 0.4 + np.sin(3.0 * LINE_T)
    want, _ = scipy.optimize.nnls(LINE_DESIGN, y)
    fun, jac = linear(y)
    seen = []
    got = lazy.least_squares(lambda x: seen.append(x[1]) or fun(x), [1.0, 0.0, 1.0], jac)
    assert got.status > 0 and set(seen) == {1e-10}
    np.testing.assert_allclose(got.x[[0, 2]], want[[0, 2]], rtol=1e-9)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_least_squares_rejects_a_nonfinite_trial(lazy, bad):
    # the first trial step sees a residual that is not finite: it is rejected
    # without a warning, and the solve goes on to the same optimum
    y = 2.0 * LINE_T + 0.5 + 0.3 * np.sin(3.0 * LINE_T)
    fun, jac = linear(y)
    seen = []

    def flaky(x):
        seen.append(x.copy())
        return np.full_like(y, bad) if len(seen) == 2 else fun(x)

    got = lazy.least_squares(flaky, [1.0, 1.0, 1.0], jac)
    assert got.status > 0 and got.nfev == len(seen) > 2
    np.testing.assert_allclose(got.x, [2.0, 0.5, 0.3], rtol=1e-12)
    # the trial after the rejected one is a shorter step from the same point
    assert np.linalg.norm(seen[2] - seen[0]) < np.linalg.norm(seen[1] - seen[0])


def test_least_squares_evaluation_cap(lazy, monkeypatch):
    y = 2.0 * LINE_T + 0.5 + 0.3 * np.sin(3.0 * LINE_T)
    fun, jac = linear(y)
    monkeypatch.setattr(lazy, "_MAX_NFEV", 2)
    got = lazy.least_squares(fun, [1.0, 1.0, 1.0], jac)
    assert (got.status, got.nfev) == (0, 2)


def test_evaluation_cap_reports_unconverged_fit(lazy, monkeypatch):
    # a polish stopped by the cap is not converged, and the fit says so
    from qbuffer import fitting
    t = np.linspace(0.0, 1.5e-3, 50)
    truth = qbuffer.dynamics.CavityModelParams(753.0, 3528.0, 16292.0, 0.5, 0.5)
    data = fitting.DataSeries.from_points(t, qbuffer.dynamics.p3(t, truth))
    assert fitting.fit_p3(data).converged
    monkeypatch.setattr(lazy, "_MAX_NFEV", 3)
    fit = fitting.fit_p3(data)
    assert not fit.converged and fit.iterations == 3
    assert fitting.fit_result_to_dict(fit)["converged"] is False
