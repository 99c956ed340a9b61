"""qbuffer's own solvers against scipy as the oracle: Brent's zero step and
the L-BFGS-B driver give scipy's bits, and the fits' two-column NNLS and
bounded least-squares solver are checked on problems with known answers.
numpy's private LAPACK gufuncs, which qbuffer calls in place of
``np.linalg.eigh``, ``eigvalsh`` and ``solve``, give those functions' bits.
Start-up: a command imports only the qbuffer modules it runs, and only a
tomo whose MLE iterates imports scipy.optimize."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import scipy.optimize
from numpy.linalg import _umath_linalg

import qbuffer
from qbuffer import _optimize, tomography
from qbuffer.channels import damp_werner

from csv_writer import series_csv

SRC = str(Path(qbuffer.__file__).resolve().parents[1])

STARTUP = """
import sys
from qbuffer import dynamics, fitting
from qbuffer.cli import main

loaded = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print("import", loaded())
assert main(["classify", "--kappa", "4281", "--gamma0", "16292",
             "--out", sys.argv[1] + ".json"]) == 0
print("classify", loaded())
assert main(["sweep", "--out", sys.argv[1]]) == 0
print("sweep", loaded())
for model in ("exp", "pasy", "p3"):
    assert main(["threshold", "--model", model, "--level", "0.5",
                 "--out", sys.argv[1] + ".threshold.json"]) == 0
    print("threshold", model, loaded())
# an interior state: the linear inversion already is the MLE, nothing to solve
assert main(["tomo", "--werner-p", "0.5", "--out", sys.argv[1]]) == 0
print("tomo", loaded())
assert main(["tomo", "--werner-p", "0.5", "--exact", "--out", sys.argv[1]]) == 0
print("tomo --exact", loaded())

for model in ("pasy", "p3", "exp"):  # records the test wrote
    path = f"{sys.argv[1]}.{model}.csv"
    assert main(["fit", path, "--model", model, "--out", path + ".json"]) == 0
    print("fit", model, loaded())
# a pure state: the clipped start is off the optimum, so L-BFGS-B iterates
assert main(["tomo", "--werner-p", "1.0", "--out", sys.argv[1]]) == 0
print("tomo P = 1", "scipy.optimize" in loaded())
"""


def run_python(code, *args):
    """Standard output of ``code`` in a fresh interpreter that imports qbuffer from ``SRC``."""
    run = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_start_up_classify_and_sweep_leave_scipy_unloaded(tmp_path):
    # and so do threshold, an interior tomo and a fit of every model; only a
    # tomo whose MLE iterates loads it
    dynamics, prefix = qbuffer.dynamics, str(tmp_path / "sweep.csv")
    t, config = np.linspace(0.0, 1.5e-3, 20), qbuffer.cli.build_config({})
    p3_curve = dynamics.p3(t, dynamics.CavityModelParams(753.0, 3528.0, 16292.0, 0.5, 0.5,
                                                          config.cavity.lambda_width))
    pasy_curve = dynamics.prob_pasy(t, dynamics.PmdModelParams(
        2.0 * math.pi * 200.0 * 1e9, 0.0017 * dynamics.PS_PER_SQRT_KM,
        0.047 * dynamics.PS_PER_SQRT_KM, 0.006 * 1e-3, 0.5, 0.5, 1), config.n_r)
    for model, p in (("pasy", pasy_curve), ("p3", p3_curve), ("exp", p3_curve)):
        Path(f"{prefix}.{model}.csv").write_text(series_csv(t, p))
    assert run_python(STARTUP, prefix) == [
        "import []", "classify []", "sweep []", "threshold exp []", "threshold pasy []",
        "threshold p3 []", "tomo []", "tomo --exact []", "fit pasy []", "fit p3 []",
        "fit exp []", "tomo P = 1 True"]


SUBMODULES = ("states", "channels", "dynamics", "tomography", "measures", "fitting", "cli",
              "_optimize")

COMMAND = """
import sys
from qbuffer.cli import main
assert main(sys.argv[1:]) == 0
print(*sorted(m.partition(".")[2] for m in sys.modules if m.startswith("qbuffer.")))
"""


def fit_csv(path):
    t = np.linspace(0.0, 1.5e-3, 20)
    path.write_text(series_csv(t, np.exp(-900.0 * t)))
    return str(path)


@pytest.mark.parametrize("argv, absent", [
    (["classify", "--kappa", "4281", "--gamma0", "16292"], {"tomography", "fitting"}),
    (["sweep", "--out", "{tmp}/sweep.csv"], {"tomography", "fitting"}),
    (["threshold", "--model", "pasy", "--level", "0.5"], {"tomography", "fitting"}),
    (["tomo", "--werner-p", "0.5", "--out", "{tmp}/tomo"], {"fitting", "measures"}),
    (["fit", "{fit_csv}", "--model", "exp", "--out", "{tmp}/fit.json"],
     {"tomography", "measures"}),
], ids=["classify", "sweep", "threshold", "tomo", "fit"])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, absent):
    argv = [arg.format(tmp=tmp_path, fit_csv=fit_csv(tmp_path / "data.csv")) for arg in argv]
    loaded = set(run_python(COMMAND, *argv)[-1].split())
    assert {"cli", "dynamics", "channels", "states"} <= loaded <= set(SUBMODULES) - absent


def test_import_qbuffer_loads_no_submodule_until_it_is_named():
    # the benchmark's tracer reaches every module by getattr on the package
    lines = run_python(f"""
import sys, qbuffer
print(*sorted(m for m in sys.modules if m.startswith("qbuffer")))
for name in {SUBMODULES!r}:
    assert getattr(qbuffer, name) is sys.modules["qbuffer." + name], name
print(hasattr(qbuffer, "missing"), qbuffer.__version__)
""")
    assert lines == ["qbuffer", "False 0.1.0"]


def test_scipy_named_in_one_module():
    named = sorted(path.name for path in Path(SRC, "qbuffer").glob("*.py")
                   if "scipy" in path.read_text())
    assert named == ["_optimize.py"]


@pytest.fixture
def lazy():
    from qbuffer import _optimize
    return _optimize


def smooth(c, s, centred, scale, a, b):
    """(c0 + c1 x + c2 sin(s x) + c3 x^3) * scale, shifted, when ``centred``,
    so that f(a) and f(b) are opposite in sign unless they are equal."""
    f = lambda x: c[0] + c[1] * x + c[2] * math.sin(s * x) + c[3] * x**3
    shift = -(f(a) + f(b)) / 2 if centred else 0.0
    return lambda x: (f(x) + shift) * scale


@settings(max_examples=400, deadline=None)
@given(c=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4), s=st.floats(0.1, 30.0),
       centred=st.booleans(), scale=st.sampled_from((1.0, 1e-200)), a=st.floats(-4.0, 4.0), b=st.floats(-4.0, 4.0),
       xtol=st.floats(-18.0, -2.0).map(lambda e: 10.0**e),
       rtol=st.floats(0.0, 12.0).map(lambda e: 8.9e-16 * 10.0**e),
       maxiter=st.integers(0, 100))
@example(c=[0.0, 1.0, 0.5, 0.0], s=10.0, centred=False, scale=1.0, a=-1.0, b=1.0, xtol=1e-18,
         rtol=8.9e-16, maxiter=200)  # measures' tolerances
@example(c=[-5.0, -2.0, 0.0, 1.0], s=1.0, centred=False, scale=1.0, a=2.0, b=3.0, xtol=1e-14,
         rtol=8.9e-16, maxiter=3)  # maxiter runs out
def test_brentq_is_scipys(c, s, centred, scale, a, b, xtol, rtol, maxiter):
    # on brackets whose ends are nonzero and opposite in sign, given their
    # values: scipy's root, and f at it.  At scale 1e-200 the inverse
    # quadratic step's denominator underflows to 0, which bisects in both
    f = smooth(c, s, centred, scale, a, b)
    fa, fb = float(f(a)), float(f(b))
    assume(fa != 0 and fb != 0 and (fa < 0) != (fb < 0))
    options = {"xtol": xtol, "rtol": rtol, "maxiter": maxiter}
    try:
        want = scipy.optimize.brentq(f, a, b, **options)
    except RuntimeError:  # maxiter ran out
        with pytest.raises(RuntimeError):
            _optimize.brentq(f, a, b, fa, fb, **options)
        return
    root, f_root = _optimize.brentq(f, a, b, fa, fb, **options)
    assert root.hex() == want.hex()
    assert f_root.hex() == float(f(root)).hex()


@pytest.mark.parametrize("f, a, b, maxiter, error", [
    (lambda x: x - 0.3 if x in (0.0, 1.0) else math.nan, 0.0, 1.0, 100, ValueError),
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, 4, RuntimeError),  # maxiter runs out
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, 0, RuntimeError),
], ids=["nan-inside", "maxiter", "maxiter-0"])
def test_brentq_raises_as_scipy_does(f, a, b, maxiter, error):
    options = {"xtol": 1e-14, "rtol": 8.9e-16, "maxiter": maxiter}
    with pytest.raises(error):
        _optimize.brentq(f, a, b, f(a), f(b), **options)
    with pytest.raises(error):
        scipy.optimize.brentq(f, a, b, **options)


LBFGSB_OPTIONS = {"maxiter": 10_000, "maxfun": 40_000, "ftol": 1e-15, "gtol": 1e-10}


class Captured(Exception):
    pass


def mle_problem(counts):
    """The objective and start that ``reconstruct_mle`` hands its solver."""
    def capture(fun, x0):
        raise Captured(fun, x0)

    saved, tomography.minimize = tomography.minimize, capture
    try:
        tomography.reconstruct_mle(counts)
    except Captured as solve:
        return solve.args
    finally:
        tomography.minimize = saved
    return None  # the linear inversion is the MLE: no solve


def boundary_counts(p, xi, seed):
    """A tomo-boundary record: 1e8 gates at accidental rate 1e-6, corrected."""
    return tomography.subtract_accidentals(
        tomography.simulate_counts(damp_werner(p, xi), 100_000_000, 1e-6, seed))


def assert_solves_as_scipy(problem, **options):
    fun, x0 = problem
    got = _optimize.minimize(fun, x0)
    want = scipy.optimize.minimize(fun, x0, jac=True, method="L-BFGS-B",
                                   options={**LBFGSB_OPTIONS, **options})
    assert (got.x.tobytes(), got.fun.hex(), got.jac.tobytes(), got.nit, got.nfev,
            got.success) == (want.x.tobytes(), want.fun.hex(), want.jac.tobytes(), want.nit,
                             want.nfev, want.success)


@settings(max_examples=40, deadline=None)
@given(p=st.floats(0.99, 1.0), xi=st.floats(0.0, 0.05), seed=st.integers(0, 2**31 - 1))
@example(p=0.99, xi=0.0, seed=12345)  # stops unconverged after 195 iterations
def test_minimize_is_scipys_lbfgsb_on_boundary_records(p, xi, seed):
    # the driver feeds scipy's compiled setulb what scipy's own wrapper
    # feeds it, so a change to that private routine or its signature fails
    # here; nfev holds the reuse of the last evaluation when setulb asks
    # again at the same point
    problem = mle_problem(boundary_counts(p, xi, seed))
    assume(problem is not None)
    assert_solves_as_scipy(problem)


ADVERSARIAL = np.zeros(16)
ADVERSARIAL[[0, 5]] = 1000.0    # HH, VV
ADVERSARIAL[[10, 15]] = 1500.0  # DD, RR: the linear inversion has a negative eigenvalue
ZERO_RECTILINEAR = np.full(16, 100.0)
ZERO_RECTILINEAR[[0, 1, 4, 5]] = 0.0  # no H/V quartet: the start is I/4


@pytest.mark.parametrize("counts", [ADVERSARIAL, ZERO_RECTILINEAR],
                         ids=["adversarial", "zero-rectilinear"])
def test_minimize_is_scipys_lbfgsb_on_unphysical_records(counts):
    assert_solves_as_scipy(mle_problem(counts))


@pytest.mark.parametrize("constant, option, value", [("_MAXITER", "maxiter", 5),
                                                      ("_MAXFUN", "maxfun", 7)])
def test_minimize_stops_at_scipys_caps(monkeypatch, constant, option, value):
    # the iteration cap (task 504) and the evaluation cap (502), which no
    # record reaches at the shipped 10 000 and 40 000
    monkeypatch.setattr(_optimize, constant, value)
    problem = mle_problem(boundary_counts(0.99, 0.0, 12345))
    got = _optimize.minimize(*problem)
    assert not got.success and (got.nit == 5 if option == "maxiter" else got.nfev == 8)
    assert_solves_as_scipy(problem, **{option: value})


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stack=st.integers(1, 4))
def test_nnls_solves_a_stack_as_each_problem_alone(seed, stack):
    # rows scaled by up to 10^3 either way, with clipped and interior weights:
    # each stacked problem gets the bits of a call of its own
    from qbuffer import _optimize
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    c1, c2 = (rng.normal(size=(stack, rows, n)) * 10.0 ** rng.uniform(-3, 3, (stack, rows, 1))
              for rows in rng.integers(1, 6, size=2))
    y = rng.normal(size=n)
    got = _optimize.nnls(c1, c2, y)
    for k in range(stack):
        alone = _optimize.nnls(c1[k], c2[k], y)
        assert [a[k].tobytes() for a in got] == [a.tobytes() for a in alone]


def test_nnls_ties_go_to_the_first_column():
    # equal columns with exact sums: det is 0, and the one-column fits tie
    c = np.array([[1.0, 2.0, 2.0]])
    w1, w2, sse = _optimize.nnls(c, c, np.ones(3))
    assert (w1.item(), w2.item(), sse.item()) == (5.0 / 9.0, 0.0, 3.0 - 5.0 / 9.0 * 5.0)


def test_nnls_weight_that_computes_to_zero_is_not_interior():
    # y = 5 c2, and c1's weight in the 2x2 solve rounds to exactly 0 (every
    # dot product here is one rounded product or exact, in any order): the
    # result is c2's own fit, (0, 5) with SSE 0, not the solve's rounded w2
    w1, w2, sse = _optimize.nnls(np.array([[0.9, 0.0]]), np.array([[3.0, 1.0]]),
                                 np.array([15.0, 5.0]))
    assert (w1.item(), w2.item(), sse.item()) == (0.0, 5.0, 0.0)


LINE_T = np.linspace(0.0, 1.0, 7)
LINE_DESIGN = np.column_stack([LINE_T, np.ones_like(LINE_T), np.sin(3.0 * LINE_T)])


def linear(y):
    """min |LINE_DESIGN x - y| over a stack of points: the residuals, one
    matrix-vector product per point so each row is the one it has alone, and
    the design as every point's Jacobian."""
    def fun(x):
        return ((LINE_DESIGN @ x[:, :, None])[:, :, 0] - y,
                lambda rows: np.stack([LINE_DESIGN] * len(x))[rows])
    return fun


def test_least_squares_linear_matches_lstsq(lazy):
    # the optimum is interior, so the bound is inactive and lstsq is the answer
    y = 2.0 * LINE_T + 0.5 + 0.3 * np.sin(3.0 * LINE_T) + 0.01 * np.cos(9.0 * LINE_T)
    want = np.linalg.lstsq(LINE_DESIGN, y, rcond=None)[0]
    assert np.all(want > 0.1)
    fun = linear(y)
    got = lazy.least_squares(fun, [[1.0, 1.0, 1.0]])
    assert got.status > 0
    np.testing.assert_allclose(got.x, want, rtol=1e-12, atol=0.0)
    assert got.cost == pytest.approx(0.5 * np.sum(fun(want[None])[0] ** 2), rel=1e-12)
    assert np.array_equal(got.jac, LINE_DESIGN)


def test_least_squares_optimum_on_the_bound(lazy):
    # the unconstrained optimum has a negative intercept; the bounded one sits
    # at intercept 0 with the gradient pointing outward there (KKT)
    y = 2.0 * LINE_T - 0.4 + np.sin(3.0 * LINE_T)
    assert np.linalg.lstsq(LINE_DESIGN, y, rcond=None)[0][1] < 0
    want, _ = scipy.optimize.nnls(LINE_DESIGN, y)
    assert want[1] == 0.0 and np.all(want[[0, 2]] > 0.1)
    fun = linear(y)
    got = lazy.least_squares(fun, [[1.0, 1.0, 1.0]])
    assert got.status > 0
    assert got.x[1] <= 1e-9
    np.testing.assert_allclose(got.x[[0, 2]], want[[0, 2]], rtol=1e-9)
    g = LINE_DESIGN.T @ fun(got.x[None])[0][0]
    assert g[1] >= 0.0
    assert np.all(np.abs(g[[0, 2]]) <= 1e-9)


def test_least_squares_holds_a_variable_at_the_bound(lazy):
    # started on the bound (moved 1e-10 inside) with its step pointing out,
    # the intercept is held there while the others solve; a step cut short
    # at the bound instead would shrink every other step with it
    y = 2.0 * LINE_T - 0.4 + np.sin(3.0 * LINE_T)
    want, _ = scipy.optimize.nnls(LINE_DESIGN, y)
    fun = linear(y)
    seen = []
    got = lazy.least_squares(lambda x: seen.append(x[0, 1]) or fun(x), [[1.0, 0.0, 1.0]])
    assert got.status > 0 and set(seen) == {1e-10}
    np.testing.assert_allclose(got.x[[0, 2]], want[[0, 2]], rtol=1e-9)


def test_a_step_across_the_bound_stops_0995_of_the_way(lazy):
    # from here the first step would take the intercept below 0: the trial
    # goes 0.995 of the way to the bound, and the intercept keeps 0.005 of 0.2
    y = 2.0 * LINE_T - 0.4 + np.sin(3.0 * LINE_T)
    fun, seen = linear(y), []
    lazy.least_squares(lambda x: seen.append(x[0].copy()) or fun(x), [[0.8, 0.2, 0.1]])
    assert seen[1][1] == pytest.approx(0.005 * 0.2, rel=1e-12)


def test_a_step_that_lands_on_the_bound_stops_0995_of_the_way(lazy):
    # a scripted fun: at the start only x0 has a gradient, which sets a tiny
    # lam and leaves x1 at 0.25; the first trial's gradient of 2^66 on x1
    # swamps lam and J^T J, so the second step is exactly -0.25 (powers of
    # two throughout), reach 1.  It is cut like a step across the bound: x1
    # keeps 0.005 of 0.25
    replies = iter([([1.0, 1e30], [[1e-100, 0.0], [0.0, 0.0]]),
                    ([0.0, 2.0 ** 66], [[1.0, 0.0], [0.0, 1.0]]),
                    ([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])])
    seen = []

    def fun(x):
        seen.append(x[0].copy())
        r, j = next(replies)
        return np.array([r]), lambda rows: np.array([j])

    got = lazy.lockstep(fun, [[1.0, 0.25]])
    assert seen[1][1] == 0.25 and seen[2][1] == pytest.approx(0.005 * 0.25, rel=1e-12)
    assert got[0].status == 1 and got[0].nfev == 3


def test_a_variable_at_5e9_is_not_held(lazy):
    # 5e-9 is above the 1e-9 at which a variable whose step points outward is
    # held: the intercept's first trial moves toward the bound (cut 0.995 of
    # the way there) instead of staying put, as it does from 1e-10
    y = 2.0 * LINE_T - 0.4 + np.sin(3.0 * LINE_T)
    fun, seen = linear(y), []
    got = lazy.least_squares(lambda x: seen.append(x[0, 1]) or fun(x), [[1.0, 5e-9, 1.0]])
    assert seen[0] == 5e-9 and 0.0 < seen[1] < 5e-9
    assert got.status > 0 and got.x[1] <= 1e-9


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_least_squares_rejects_a_nonfinite_trial(lazy, bad):
    # the first trial step sees a residual that is not finite: it is rejected
    # without a warning, and the solve goes on to the same optimum
    y = 2.0 * LINE_T + 0.5 + 0.3 * np.sin(3.0 * LINE_T)
    fun = linear(y)
    seen = []

    def flaky(x):
        seen.append(x[0].copy())
        r, jac = fun(x)
        return (np.full_like(r, bad) if len(seen) == 2 else r), jac

    got = lazy.least_squares(flaky, [[1.0, 1.0, 1.0]])
    assert got.status > 0 and got.nfev == len(seen) > 2
    np.testing.assert_allclose(got.x, [2.0, 0.5, 0.3], rtol=1e-12)
    # the trial after the rejected one is a shorter step from the same point
    assert np.linalg.norm(seen[2] - seen[0]) < np.linalg.norm(seen[1] - seen[0])


def test_least_squares_evaluation_cap(lazy, monkeypatch):
    y = 2.0 * LINE_T + 0.5 + 0.3 * np.sin(3.0 * LINE_T)
    monkeypatch.setattr(lazy, "_MAX_NFEV", 2)
    got = lazy.least_squares(linear(y), [[1.0, 1.0, 1.0]])
    assert (got.status, got.nfev) == (0, 2)


def test_lockstep_stops_after_4000_evaluations(lazy):
    # every call shrinks the residual by the same fraction, wherever the
    # point: each step is accepted, and neither the cost nor the step test
    # fires, so the evaluation cap stops the start
    calls = []

    def shrinking(x):
        calls.append(x)
        return (np.full((len(x), 1), 0.999 ** len(calls)),
                lambda rows: np.full((len(x), 1, 1), -1.0)[rows])

    [result] = lazy.lockstep(shrinking, [[1.0]])
    assert (result.status, result.nfev, len(calls)) == (0, 4000, 4000)


def test_nielsen_rho_is_clipped_at_one(lazy):
    # r = 1 - x with a Jacobian stated as -1e-110: the predicted decrease is
    # tiny, so an accepted step's rho passes 1e102 and (2 rho - 1)**3 would
    # overflow a Python float; clipped at 1, lam shrinks by a third per step
    # and the start walks to the root
    def fun(x):
        return 1.0 - x, lambda rows: np.full((len(x), 1, 1), -1e-110)[rows]

    [result] = lazy.lockstep(fun, [[0.5]])
    assert (result.status, result.nfev) == (3, 90)
    assert abs(result.x[0] - 1.0) <= 1e-14


def test_zero_gradient_stops_a_start_where_it_is(lazy):
    # y is the design's own value at [1, 1, 1], so that start's residual and
    # gradient are exactly 0 and it stops before its first trial; the others
    # solve on as they do alone
    y = (LINE_DESIGN @ [[1.0], [1.0], [1.0]])[:, 0]
    x0 = np.array([[2.0, 0.5, 0.3], [1.0, 1.0, 1.0], [0.2, 3.0, 1.5]])
    results = assert_each_start_alone(lazy, linear(y), x0)
    assert [(r.status, r.nfev) for r in results] == [(3, 6), (1, 1), (3, 10)]
    assert results[1].x.tolist() == [1.0, 1.0, 1.0] and results[1].cost == 0.0


def test_evaluation_cap_reports_unconverged_fit(lazy, monkeypatch):
    # a polish stopped by the cap is not converged, and the fit says so
    from qbuffer import fitting
    t = np.linspace(0.0, 1.5e-3, 50)
    lambda_width = qbuffer.cli.build_config({}).cavity.lambda_width
    truth = qbuffer.dynamics.CavityModelParams(753.0, 3528.0, 16292.0, 0.5, 0.5, lambda_width)
    data = fitting.DataSeries(t, qbuffer.dynamics.p3(t, truth), np.ones(50))
    assert fitting.fit_p3(data, lambda_width).converged
    monkeypatch.setattr(lazy, "_MAX_NFEV", 3)
    fit = fitting.fit_p3(data, lambda_width)
    assert not fit.converged and fit.iterations == 3
    assert fitting.fit_result_to_dict(fit)["converged"] is False


DECAY_T = np.linspace(0.0, 1.0, 12)


def decay(y, seen):
    """Residuals and Jacobians of x0 exp(-x1 t) + x2 - y over a stack of
    points.  The residual is nan where x1 > 6, so a trial that crosses there
    is rejected; ``seen`` collects every point ``fun`` evaluates."""
    def jac(x):
        e = np.exp(-x[:, 1:2] * DECAY_T)
        return np.stack([e, -x[:, :1] * DECAY_T * e, np.ones_like(e)], axis=-1)

    def fun(x):
        seen.extend(x.tolist())
        r = x[:, :1] * np.exp(-x[:, 1:2] * DECAY_T) + x[:, 2:] - y
        r[x[:, 1] > 6.0] = np.nan
        return r, lambda rows: jac(x[rows])

    return fun


def decay_problem(seed):
    """Data whose fit wants x1 past the nan region and x2 below 0, and six
    starts in [0, 5]^3, about one coordinate in five at the bound."""
    rng = np.random.default_rng(seed)
    y = 2.0 * np.exp(-4.5 * DECAY_T) - 0.3 + 0.01 * rng.normal(size=DECAY_T.size)
    x0 = rng.uniform(0.0, 5.0, size=(6, 3))
    x0[rng.uniform(size=x0.shape) < 0.2] = 0.0
    return y, x0


def assert_each_start_alone(lazy, fun, x0):
    """Each result of one lockstep call is bit for bit a one-row call's."""
    results = lazy.lockstep(fun, x0)
    assert len(results) == len(x0)
    for start, got in zip(x0, results):
        alone = lazy.least_squares(fun, start[None])
        assert got.x.tobytes() == alone.x.tobytes() and got.cost == alone.cost
        assert got.jac.tobytes() == alone.jac.tobytes()
        assert (got.nfev, got.status) == (alone.nfev, alone.status)
    return results


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_lockstep_takes_each_start_alone(seed):
    from qbuffer import _optimize
    y, x0 = decay_problem(seed)
    assert_each_start_alone(_optimize, decay(y, []), x0)


def test_lockstep_covers_holds_rejections_and_uneven_stops(lazy):
    y, x0 = decay_problem(0)
    seen = []
    results = assert_each_start_alone(lazy, decay(y, seen), x0)
    trials = np.array(seen[len(x0):sum(r.nfev for r in results)])  # the lockstep call's
    assert len({r.nfev for r in results}) > 1 and all(r.status > 0 for r in results)
    assert np.any(trials[:, 1] > 6.0)      # rejected trials whose residual is nan
    assert np.sum(x0[:, 2] == 0.0) == 1    # one start's x2 on the bound, where
    assert np.any(trials[:, 2] == 1e-10)   # it is held for some trials


def test_lockstep_takes_each_start_alone_up_to_the_cap(lazy, monkeypatch):
    y, x0 = decay_problem(0)
    monkeypatch.setattr(lazy, "_MAX_NFEV", 85)
    results = assert_each_start_alone(lazy, decay(y, []), x0)
    assert {r.status for r in results} == {0, 3} and max(r.nfev for r in results) == 85


def test_least_squares_keeps_the_first_least_cost_start(lazy, monkeypatch):
    results = [lazy.LeastSquaresResult(np.array([float(k)]), cost, None, 10 + k, 2)
               for k, cost in enumerate([3.0, 1.0, 2.0, 1.0])]
    monkeypatch.setattr(lazy, "lockstep", lambda *args: results)
    assert lazy.least_squares(None, None) is results[1]


def test_singular_damped_system_gives_a_nan_step(lazy):
    # 1 + 1e-17 rounds to 1, so the first start's damped system is the
    # all-ones matrix, singular in floating point; the second start's step
    # is its own solve
    a = np.stack([np.ones((3, 3)), np.diag([2.0, 3.0, 4.0])])
    d, g, x = np.ones((2, 3)), np.array([[1.0, 2.0, 3.0], [1.0, -2.0, 3.0]]), np.ones((2, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a[0] + 1e-17 * np.eye(3), -g[0])
    step = lazy._step(a + np.array([1e-17, 0.5])[:, None, None] * np.eye(3), d, g, x)
    assert np.all(np.isnan(step[0]))
    assert step[1].tobytes() == np.linalg.solve(a[1] + 0.5 * np.eye(3), -g[1]).tobytes()


def test_singular_start_is_rejected_while_the_others_solve(lazy, monkeypatch):
    # at x0 >= 50 this Jacobian is -1e-170 x the design: J^T J underflows to
    # 0 and the gradient points inward, so lam = 0 and every damped system of
    # that start is singular; each of its trials is rejected until the cap,
    # while the other start solves as it does alone
    y = 2.0 * LINE_T + 0.5 + 0.3 * np.sin(3.0 * LINE_T)
    fun = linear(y)

    def stiff(x):
        return fun(x)[0], lambda rows: np.where(x[rows, :1, None] >= 50.0, -1e-170,
                                                1.0) * LINE_DESIGN

    monkeypatch.setattr(lazy, "_MAX_NFEV", 30)
    stuck, solved = lazy.lockstep(stiff, [[100.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    assert (stuck.status, stuck.nfev) == (0, 30)
    assert stuck.x.tolist() == [100.0, 1.0, 1.0]
    alone = lazy.least_squares(stiff, [[1.0, 1.0, 1.0]])
    assert solved.status > 0 and solved.x.tobytes() == alone.x.tobytes()
    assert solved.nfev == alone.nfev



def submatrix_step(damped, d, g, x):
    """Each start's step solved alone, with each held variable's row and
    column struck from the damped system, which is solved again while the
    start gains holds; also each start's (hold rounds, held variables)."""
    rhs = -d * g
    step, holds = d * np.linalg.solve(damped, rhs[:, :, None])[:, :, 0], []
    for i in range(len(x)):
        free = np.ones(x.shape[1], dtype=bool)
        for rounds in itertools.count():
            held = free & (x[i] <= 1e-9) & (step[i] < 0)
            if not held.any():
                break
            free &= ~held
            step[i] = 0.0
            try:
                solved = np.linalg.solve(damped[i][np.ix_(free, free)], rhs[i, free])
            except np.linalg.LinAlgError:
                solved = np.nan
            step[i, free] = d[i, free] * solved
        holds.append((rounds, int(np.sum(~free))))
    return step, holds


def damped_systems(seed):
    """1-6 starts of five variables, built as ``lockstep`` builds them from a
    Jacobian of mixed column scales, with lam 10^+-4 times its first value;
    0-4 variables of each start sit at the bound."""
    rng = np.random.default_rng(seed)
    k, n = rng.integers(1, 7), 5
    j = rng.normal(size=(k, 8, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(k, 1, n))
    x = rng.uniform(0.1, 5.0, size=(k, n))
    for row in x:
        row[rng.choice(n, rng.integers(0, 5), replace=False)] = 1e-10
    g = rng.normal(size=(k, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(k, n))
    outward = g > 0
    d = np.sqrt(np.where(outward, x, 1.0))
    a = (j.transpose(0, 2, 1) @ j) * (d[:, :, None] * d[:, None, :])
    a += np.where(outward, g, 0.0)[:, :, None] * np.eye(n)
    lam = 2e-4 * a.diagonal(axis1=1, axis2=2).max(axis=1) * 10.0 ** rng.uniform(-4.0, 4.0, k)
    return a + lam[:, None, None] * np.eye(n), d, g, x


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_held_variables_step_as_the_submatrix_solve(seed):
    from qbuffer import _optimize
    damped, d, g, x = damped_systems(seed)
    want, _ = submatrix_step(damped, d, g, x)
    assert _optimize._step(damped, d, g, x).tobytes() == want.tobytes()


def test_held_variable_systems_cover_each_hold_count_and_a_second_round(lazy):
    holds = set()
    for seed in range(200):
        damped, d, g, x = damped_systems(seed)
        want, seed_holds = submatrix_step(damped, d, g, x)
        assert lazy._step(damped, d, g, x).tobytes() == want.tobytes()
        holds.update(seed_holds)
    assert {rounds for rounds, _ in holds} >= {0, 1, 2}
    assert {held for _, held in holds} >= {0, 1, 2, 3, 4}


def test_singular_held_system_gives_a_nan_step(lazy):
    # the middle start holds x0, and its system without x0 has the singular
    # block [[1, 1], [1, 1]], though its whole system is regular; the first
    # start holds a variable too, so it solves again in the same stack, and
    # the last holds none
    singular = np.eye(5)
    singular[:3, :3] = [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]
    middle = (singular, np.ones(5), np.array([0.0, -1.0, -2.0, 1.0, 1.0]),
              np.array([1e-10, 1.0, 1.0, 1.0, 1.0]))
    damped, d, g, x = (np.insert(v[:2], 1, w, axis=0)
                       for v, w in zip(damped_systems(7), middle))
    assert np.linalg.solve(damped[1], -g[1])[0] < 0
    step = lazy._step(damped, d, g, x)
    assert np.all(np.isnan(step[1]))
    want, holds = submatrix_step(damped, d, g, x)
    assert holds == [(1, 1), (1, 1), (0, 0)]
    for i in (0, 2):
        alone = lazy._step(damped[i:i + 1], d[i:i + 1], g[i:i + 1], x[i:i + 1])
        assert step[i].tobytes() == want[i].tobytes() == alone[0].tobytes()


def lapack_input(kind, seed, exponent, n):
    """An n x n matrix scaled by 10**exponent: complex Hermitian, PSD (full
    rank or rank 1), or general, real or complex."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "hermitian":
        a = a + a.conj().T
    elif kind == "psd":
        a = a @ a.conj().T
    elif kind == "rank-one psd":
        a = np.outer(a[0], a[0].conj())
    elif kind == "real":
        a = a.real.copy()
    return a * 10.0 ** exponent


LAPACK_KINDS = st.sampled_from(["hermitian", "psd", "rank-one psd", "general", "real"])
SCALES = st.one_of(st.sampled_from([-100, 0, 100]), st.integers(-100, 100))


@settings(max_examples=300, deadline=None)
@given(kind=LAPACK_KINDS, seed=st.integers(0, 2**32 - 1), exponent=SCALES)
def test_eigh_gufuncs_are_numpys_eigh_and_eigvalsh(kind, seed, exponent):
    # the lower triangle is read, so a general matrix is taken as Hermitian too
    a = lapack_input(kind, seed, exponent, 4).astype(complex)
    w, v = _umath_linalg.eigh_lo(a, signature="D->dD")
    want_w, want_v = np.linalg.eigh(a)
    assert (w.tobytes(), v.tobytes()) == (want_w.tobytes(), want_v.tobytes())
    got = _umath_linalg.eigvalsh_lo(a, signature="D->d")
    assert got.tobytes() == np.linalg.eigvalsh(a).tobytes()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 5, 16]), exponent=SCALES,
       rhs_exponent=SCALES)
def test_solve_gufunc_is_numpys_solve(seed, n, exponent, rhs_exponent):
    a = lapack_input("real", seed, exponent, n)
    b = np.random.default_rng(seed + 1).normal(size=n) * 10.0 ** rhs_exponent
    got = _umath_linalg.solve1(a, b, signature="dd->d")
    assert got.tobytes() == np.linalg.solve(a, b).tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stack=st.integers(1, 6), exponent=SCALES)
def test_stacked_solve_is_each_system_alone(seed, stack, exponent):
    # about one system in three is singular, with a row repeated or zero:
    # it alone reads nan, without a warning, and every other system is
    # np.linalg.solve's on it alone
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    m = rng.normal(size=(stack, n, n)) * 10.0 ** exponent
    b = rng.normal(size=(stack, n))
    for k in np.flatnonzero(rng.uniform(size=stack) < 0.35):
        i, j = rng.integers(0, n, size=2)
        m[k, j] = m[k, i] if i != j else 0.0
    got = _optimize._solve(m, b)
    for k in range(stack):
        try:
            alone = np.linalg.solve(m[k], b[k])
        except np.linalg.LinAlgError:
            alone = np.full(n, np.nan)
        assert got[k].tobytes() == alone.tobytes()
