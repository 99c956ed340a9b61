"""Unit tests for the decay-model fits."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from qbuffer import _optimize, dynamics, fitting
from qbuffer.dynamics import (CavityModelParams, PmdModelParams, UnitContext,
                              p3, prob_pasy)
from qbuffer.fitting import (DataSeries, FittingError, _jacobian, _p3_model,
                             _pasy_model, _scan, fit_exponential, fit_p3, fit_pasy,
                             fit_result_to_dict, series_from_csv, series_to_csv)

TRUTH_PMD = PmdModelParams.from_lab_units(200.0, 0.0017, 0.047, 0.006, 0.5, 0.5)
TRUTH_CAVITY = CavityModelParams(kappa1=753.0, kappa2=3528.0, gamma0=16292.0,
                                 w1=0.5, w2=0.5)
UNITS = UnitContext()


def pasy_series(n=50, t_end=1.5e-3, noise=0.0, seed=0,
                params=TRUTH_PMD) -> DataSeries:
    t = np.linspace(0.0, t_end, n)
    p = prob_pasy(t, params, UNITS)
    if noise:
        rng = np.random.default_rng(seed)
        sigma = noise * np.abs(p)
        return DataSeries(t, p + rng.normal(0.0, sigma), sigma)
    return DataSeries.from_points(t, p)


def p3_series(n=50, t_end=1.5e-3, noise=0.0, seed=0,
              params=TRUTH_CAVITY) -> DataSeries:
    t = np.linspace(0.0, t_end, n)
    p = p3(t, params)
    if noise:
        rng = np.random.default_rng(seed)
        sigma = noise * np.abs(p)
        return DataSeries(t, p + rng.normal(0.0, sigma), sigma)
    return DataSeries.from_points(t, p)


def complex_step_jacobian(model, t, x, step=1e-20) -> np.ndarray:
    """Reference d model / d x by complex step (Squire & Trapp 1998): the model
    evaluated once on x + i step e_k for every k, exact to rounding."""
    steps = (x[:, None] + 1j * step * np.eye(len(x)))[:, :, None]  # row k steps x[k]
    return (model(t, steps).imag / step).T


def assert_jacobian_matches(model, t, x) -> None:
    """The fit's closed-form Jacobian against central differences of the model."""
    x = np.asarray(x, dtype=float)
    h = 1e-7
    numeric = np.column_stack([(model(t, x + h * e) - model(t, x - h * e)) / (2 * h)
                               for e in np.eye(len(x))])
    exact = _jacobian(model, t, x)
    np.testing.assert_allclose(exact, numeric, rtol=0,
                               atol=1e-7 * np.abs(exact).max())


def pmd_rel_errors(params: PmdModelParams, truth: PmdModelParams = TRUTH_PMD) -> np.ndarray:
    return np.abs(np.array([getattr(params, name) / getattr(truth, name) - 1.0
                            for name in fitting.PASY_FREE_PARAMS]))


def cavity_rel_errors(params: CavityModelParams) -> np.ndarray:
    return np.abs(np.array([
        (params.kappa1 - TRUTH_CAVITY.kappa1) / TRUTH_CAVITY.kappa1,
        (params.kappa2 - TRUTH_CAVITY.kappa2) / TRUTH_CAVITY.kappa2,
        (params.gamma0 - TRUTH_CAVITY.gamma0) / TRUTH_CAVITY.gamma0,
        (params.w1 - TRUTH_CAVITY.w1) / TRUTH_CAVITY.w1,
        (params.w2 - TRUTH_CAVITY.w2) / TRUTH_CAVITY.w2,
    ]))


class TestDataSeries:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            DataSeries.from_points([0.0, 0.0, 1.0], [1.0, 0.9, 0.8])

    @pytest.mark.parametrize("t, p, sigma, message", [
        ([0.0, 1.0], [1.0, np.nan], [1.0, 1.0], "must be finite"),
        ([0.0, 1.0], [1.0, 0.9], [1.0, np.nan], "must be finite"),
        ([0.0, np.inf], [1.0, 0.9], [1.0, 1.0], "must be finite"),
        ([0.0, 1.0], [1.0, 0.9], [1.0, 0.0], "uncertainties must be positive"),
        ([0.0, 1e300], [1.0, 0.9], [1.0, 1.0], "^times are too large"),
        ([0.0, 1.0], [1.0, 1e300], [1.0, 1.0], "^probabilities/uncertainties are too large"),
        ([0.0, 1.0], [0.0, 0.0], [1.0, 1e-320], "^1/uncertainties are too large"),
        ([0.0, 1e-200], [1.0, 0.9], [1.0, 1.0], "^times are too small"),
        ([0.0, 1.0], [1e-200, 0.0], [1.0, 1.0], "^probabilities/uncertainties are too small"),
        ([0.0, 1.0], [0.0, 0.0], [1e200, 1e200], "^1/uncertainties are too small"),
    ], ids=["p", "sigma", "t", "sigma-zero", "t-squares", "p-squares", "sigma-squares",
            "t-underflow", "p-underflow", "sigma-underflow"])
    def test_finite_required(self, t, p, sigma, message):
        with pytest.raises(ValueError, match=message):
            DataSeries.from_points(t, p, sigma)

    def test_csv_round_trip(self):
        data = pasy_series(n=12)
        again = series_from_csv(series_to_csv(data))
        np.testing.assert_allclose(again.t, data.t, rtol=1e-12)
        np.testing.assert_allclose(again.p, data.p, rtol=1e-12)

    def test_csv_header_checked(self):
        with pytest.raises(ValueError):
            series_from_csv("time,p,sigma\n0,1,1\n")


def kkt_problem(branch: str, seed: int):
    """Nonnegative columns c1, c2 and a y whose NNLS weights on them are
    known to have the branch's zero pattern, built from the KKT conditions:
    the residual Aw - y is orthogonal to every column with a positive
    weight and has a positive inner product with every column at zero."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    c1, c2 = rng.uniform(0.0, 1.0, (2, n)) * (rng.uniform(size=(2, n)) > 0.2)
    assume(min(c1 @ c1, c2 @ c2) > 1e-2)
    assume((c1 @ c1) * (c2 @ c2) - (c1 @ c2) ** 2 > 1e-2 * (c1 @ c1) * (c2 @ c2))
    w = rng.uniform(0.1, 10.0, 2) * {"interior": (1, 1), "w1 clipped": (0, 1),
                                     "w2 clipped": (1, 0), "both zero": (0, 0)}[branch]
    if branch == "both zero":
        return c1, c2, -(c1 + c2), w
    active = [c for c, weight in zip((c1, c2), w) if weight > 0]
    q, _ = np.linalg.qr(np.column_stack(active))
    z = rng.normal(size=n)
    r = z - q @ (q.T @ z)
    assume(np.linalg.norm(r) > 1e-3 * np.linalg.norm(z))
    for c, weight in zip((c1, c2), w):
        if weight == 0:
            r = r if c @ r > 0 else -r
            assume(c @ r > 1e-3 * np.linalg.norm(c) * np.linalg.norm(r))
    fitted = w[0] * c1 + w[1] * c2
    r *= rng.uniform(0.1, 1.0) * np.linalg.norm(fitted) / np.linalg.norm(r)
    return c1, c2, fitted - r, w


def grid_nnls_scan(model, t, p, sigma):
    """The scan with one scipy ``nnls`` call per grid point, as it stood
    before the closed form: the reference the batched scan must reproduce.
    Points rank by the least-squares residual on the columns whose ``nnls``
    weight is positive: it ties exactly wherever w1 clips to 0, as the closed
    form does, while the solver's own norm and weights carry rounding noise
    from the clipped column."""
    rates, theta2s, theta1s = fitting._grid(model, t, p)
    s = model.scales
    cands = []
    for rate in rates:
        c1s = [model.c1(t, theta1 * s[0], rate * s[2]) for theta1 in theta1s]
        for theta2 in theta2s:
            c2 = model.c2(t, theta2 * s[1], rate * s[2])
            for theta1, c1 in zip(theta1s, c1s):
                if theta1 <= theta2:
                    a = np.column_stack([c1, c2]) / sigma[:, None]
                    weights, _ = nnls(a, p / sigma)
                    active = a[:, weights > 0]
                    fitted = active @ np.linalg.lstsq(active, p / sigma)[0]
                    cands.append((np.sum((fitted - p / sigma) ** 2),
                                  np.array([theta1, theta2, rate, *weights])))
    cands.sort(key=lambda c: c[0])
    picked = []
    for _, x in cands:
        if all(abs(x[1] - other[1]) > 0.05 * max(other[1], 1e-9) for other in picked):
            picked.append(x)
        if len(picked) >= 4:
            break
    return picked


def pasy_model(t):
    return _pasy_model(TRUTH_PMD.delta_omega, +1, UNITS, t)


SCAN_CASES = [
    pytest.param(pasy_model, lambda: pasy_series(n=300, t_end=5e-3, noise=0.02, seed=1),
                 id="pasy-noisy"),
    pytest.param(pasy_model, lambda: pasy_series(), id="pasy-clean"),
    pytest.param(_p3_model, lambda: p3_series(noise=0.02, seed=2), id="p3-noisy"),
    pytest.param(_p3_model, lambda: p3_series(), id="p3-clean"),
    # no p1 component: w1 clips to 0 at many grid points, whose SSEs then
    # tie exactly, and only grid order decides which theta1 is kept
    pytest.param(_p3_model,
                 lambda: p3_series(noise=0.02, seed=2,
                                   params=CavityModelParams(753.0, 3528.0, 16292.0, 0.0, 1.0)),
                 id="p3-w1-zero"),
]


class TestScan:
    @pytest.mark.parametrize("branch", ["interior", "w1 clipped", "w2 clipped",
                                        "both zero"])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_closed_form_matches_scipy_nnls(self, branch, seed):
        c1, c2, y, w = kkt_problem(branch, seed)
        w1, w2, sse = _optimize.nnls(c1[None, :], c2[None, :], y)
        weights, rnorm = nnls(np.column_stack([c1, c2]), y)
        np.testing.assert_allclose([w1[0, 0], w2[0, 0]], weights, rtol=1e-10, atol=0)
        np.testing.assert_allclose([w1[0, 0], w2[0, 0]], w, rtol=1e-10, atol=0)
        np.testing.assert_allclose(sse[0, 0], rnorm ** 2, rtol=1e-10)

    def test_closed_form_pairs_every_row(self):
        rng = np.random.default_rng(5)
        c1, c2, y = rng.uniform(size=(3, 8)), rng.uniform(size=(4, 8)), rng.normal(size=8)
        w1, w2, sse = _optimize.nnls(c1, c2, y)
        assert sse.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                weights, rnorm = nnls(np.column_stack([c1[i], c2[j]]), y)
                np.testing.assert_allclose([w1[i, j], w2[i, j]], weights,
                                           rtol=1e-10, atol=1e-14)
                assert sse[i, j] == pytest.approx(rnorm ** 2, rel=1e-10)

    @pytest.mark.parametrize("make_model, make_data", SCAN_CASES)
    def test_matches_one_nnls_per_grid_point(self, make_model, make_data):
        data = make_data()
        model = make_model(data.t)
        expected = grid_nnls_scan(model, data.t, data.p, data.sigma)
        got = _scan(model, data.t, data.p, data.sigma)
        # the grid point of each start exactly; its weights, solved by the
        # closed form, within that form's bound against scipy's nnls
        assert [x[:3].tobytes() for x in got] == [x[:3].tobytes() for x in expected]
        for x, want in zip(got, expected):
            np.testing.assert_allclose(x[3:], want[3:], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("make_model, make_data", SCAN_CASES)
    def test_scipy_nnls_only_for_kept_points(self, monkeypatch, make_model, make_data):
        # one closed-form pass per rate, and no solve per kept start
        calls = []
        monkeypatch.setattr(fitting, "nnls",
                            lambda *args: calls.append(args) or _optimize.nnls(*args))
        data = make_data()
        model = make_model(data.t)
        picked = _scan(model, data.t, data.p, data.sigma)
        assert 1 <= len(picked) <= 4
        assert len(calls) == len(fitting._grid(model, data.t, data.p)[0]) == 3

    @pytest.mark.parametrize("make_model, make_data", SCAN_CASES[:2])
    def test_each_component_evaluated_once_per_rate(self, monkeypatch, make_model, make_data):
        # pa for c1 and, through psy, for c2; a kept start takes its weights
        # from the scan's pass and evaluates neither again
        data = make_data()
        model = make_model(data.t)
        rates = fitting._grid(model, data.t, data.p)[0]
        calls, pa = [], dynamics.pa
        monkeypatch.setattr(dynamics, "pa", lambda *args: calls.append(args) or pa(*args))
        assert _scan(model, data.t, data.p, data.sigma)
        assert len(calls) == 2 * len(rates)

    @pytest.mark.parametrize("start", [1e6, 1e9, 1e12, 1e15])
    @pytest.mark.parametrize("fit", [fit_pasy, fit_p3], ids=lambda fit: fit.__name__)
    def test_no_start_beats_zero_rejected(self, fit, start):
        # both components vanish this far from t = 0: every start had both
        # weights at 0 (then floored just inside the bound), and the fit
        # reported converged after one evaluation with the residual of P = 0
        i = np.arange(10)
        data = DataSeries(start + 2.0 * i, 0.9 * 0.6 ** i, np.full(10, 0.01))
        with pytest.raises(FittingError, match=f"{fit.__name__[4:]} scan grid fits times "
                                               f"{start:.17g} to {start + 18:.17g} s"):
            fit(data)

    @pytest.mark.parametrize("make_model, make_data", SCAN_CASES)
    def test_jacobian_c_contiguous(self, make_model, make_data):
        data = make_data()
        model = make_model(data.t)
        x = _scan(model, data.t, data.p, data.sigma)[0]
        jac = _jacobian(model, data.t, x)
        assert jac.shape == (len(data), 5)
        assert jac.flags.c_contiguous

    @pytest.mark.parametrize("make_model", [
        *[pytest.param(lambda t, d=d, s=s: _pasy_model(d * TRUTH_PMD.delta_omega, s, UNITS, t),
                       id=f"pasy-detuning{d:+d}-sign{s:+d}") for d in (+1, -1) for s in (+1, -1)],
        pytest.param(_p3_model, id="p3"),
    ])
    @pytest.mark.parametrize("x", [[0.1, 1.2, 0.8, 0.6, 0.4], [1.1, 5.3, 2.7, 0.5, 0.5],
                                   [0.0, 3.0, 0.4, 0.3, 0.7], [2.0, 0.7, 1.5, 0.0, 1.0],
                                   [0.0, 0.0, 0.0, 1.0, 0.0]],
                             ids=["small", "large", "theta1-zero", "w1-zero", "at-zero"])
    def test_jacobian_matches_complex_step(self, make_model, x):
        # at phases of a few radians the two differ only by how each rounds the
        # phase, far inside 1e-14 of each column's largest entry
        t = np.linspace(0.0, 5e-3, 300)
        model, x = make_model(t), np.array(x)
        reference = complex_step_jacobian(model, t, x)
        error = np.abs(_jacobian(model, t, x) - reference)
        assert np.all(error <= 1e-14 * np.abs(reference).max(axis=0))


class TestFitExponential:
    def test_closed_form_round_trip(self):
        t = np.linspace(0.0, 5e-3, 40)
        data = DataSeries.from_points(t, 0.95 * np.exp(-500.0 * t))
        fit = fit_exponential(data)
        assert fit.converged
        assert fit.params.p0 == pytest.approx(0.95, abs=1e-9)
        assert fit.params.rate == pytest.approx(500.0, abs=1e-6)

    def test_constant_data(self):
        t = np.linspace(0.0, 1.0, 10)
        fit = fit_exponential(DataSeries.from_points(t, np.full(10, 0.8)))
        assert fit.params.rate == pytest.approx(0.0, abs=1e-12)
        assert fit.params.p0 == pytest.approx(0.8, rel=1e-12)

    def test_two_points_interpolate_exactly(self):
        data = DataSeries.from_points([0.0, 1.0], [0.9, 0.3])
        fit = fit_exponential(data)
        assert fit.params.p0 == pytest.approx(0.9, rel=1e-12)
        assert fit.params.p0 * math.exp(-fit.params.rate) == pytest.approx(0.3,
                                                                           rel=1e-12)
        assert fit.residual_norm < 1e-12

    def test_nonpositive_rejected(self):
        with pytest.raises(FittingError):
            fit_exponential(DataSeries.from_points([0.0, 1.0], [1.0, 0.0]))

    def test_weighted_matches_normal_equations(self):
        # independent closed-form oracle for the sigma-weighted log fit
        rng = np.random.default_rng(4)
        t = np.linspace(0.0, 2.0, 25)
        p = 0.7 * np.exp(-1.3 * t) * np.exp(rng.normal(0, 0.01, 25))
        sigma = 0.01 * p
        data = DataSeries(t, p, sigma)
        fit = fit_exponential(data)
        w = (p / sigma) ** 2
        sw, st, sy = w.sum(), (w * t).sum(), (w * np.log(p)).sum()
        stt, sty = (w * t * t).sum(), (w * t * np.log(p)).sum()
        denom = sw * stt - st * st
        ln_p0 = (stt * sy - st * sty) / denom
        rate = -(sw * sty - st * sy) / denom
        assert fit.params.p0 == pytest.approx(math.exp(ln_p0), rel=1e-9)
        assert fit.params.rate == pytest.approx(rate, rel=1e-9)

    @pytest.mark.parametrize("first", [0, 1])
    @pytest.mark.parametrize("sigma", [1.0, 0.01])
    @pytest.mark.parametrize("spacing", [1e-60, 1e-15, 1e-12, 1.0, 1e100])
    def test_recovery_at_any_time_scale(self, spacing, sigma, first):
        # the unscaled design [1, -t] lost its t column: 1e-15 s apart gave
        # a rate of 5.2e-16 for 3e14, and 1e100 s apart one of 3.2e-101
        i = np.arange(first, first + 8)
        fit = fit_exponential(DataSeries(i * spacing, 0.9 * np.exp(-0.3 * i),
                                         np.full(8, sigma)))
        assert fit.params.p0 == pytest.approx(0.9, rel=1e-12)
        assert fit.params.rate == pytest.approx(0.3 / spacing, rel=1e-12)

    @pytest.mark.parametrize("fit", [fit_pasy, fit_p3, fit_exponential],
                             ids=lambda fit: fit.__name__)
    def test_times_too_close_for_their_size_rejected(self, fit):
        # 1e16 + 2i are consecutive doubles: no scaling separates the columns;
        # pasy and p3 warned in their envelope pre-fit and reported converged
        i = np.arange(8)
        data = DataSeries.from_points(1e16 + 2.0 * i, 0.9 * np.exp(-0.3 * i))
        with pytest.raises(FittingError, match="too close together"):
            fit(data)


class TestFitPasy:
    def test_noiseless_round_trip(self):
        fit = fit_pasy(pasy_series())
        assert fit.converged
        assert np.all(pmd_rel_errors(fit.params) < 0.01)
        assert fit.residual_norm < 1e-8

    def test_round_trip_regenerates_data(self):
        data = pasy_series()
        fit = fit_pasy(data)
        regenerated = prob_pasy(data.t, fit.params, UNITS)
        assert np.linalg.norm(regenerated - data.p) < 1e-8

    def test_canonical_ordering(self):
        fit = fit_pasy(pasy_series())
        assert fit.params.d_p1 <= fit.params.d_p2

    def test_degenerate_component_pinned_at_bound(self):
        degenerate = PmdModelParams.from_lab_units(200.0, 0.0, 0.047, 0.006,
                                                   0.5, 0.5)
        fit = fit_pasy(pasy_series(params=degenerate))
        assert fit.params.d_p1 / degenerate.d_p2 < 1e-3
        assert "d_p1" in fit.at_bounds

    def test_variance_positive_for_parameter_at_bound(self):
        # d_p1 ends on its zero bound for this 2%-noise record; a Jacobian
        # step relative to |d_p1| would report zero variance there
        fit = fit_pasy(pasy_series(n=300, t_end=5e-3, noise=0.02, seed=1))
        assert "d_p1" in fit.at_bounds
        assert np.isfinite(fit.covariance_diag[0])
        assert fit.covariance_diag[0] > 0

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("x", [[0.0017, 0.047, 0.006, 0.5, 0.5],
                                   [0.0, 0.03, 0.01, 0.3, 0.7]])
    def test_closed_form_jacobian(self, sign, x):
        t = np.linspace(0.0, 5e-3, 300)
        assert_jacobian_matches(_pasy_model(TRUTH_PMD.delta_omega, sign, UNITS, t), t, x)

    def test_underdetermined_rejected(self):
        with pytest.raises(FittingError):
            fit_pasy(pasy_series(n=5))

    def test_results_finite(self):
        fit = fit_pasy(pasy_series(noise=0.02, seed=3))
        values = [fit.params.d_p1, fit.params.d_p2, fit.params.mu,
                  fit.params.a1, fit.params.a2, fit.residual_norm,
                  *fit.covariance_diag]
        assert np.all(np.isfinite(values))

    def test_negative_detuning_round_trip(self):
        # pa(-dw, sign) = pa(dw, -sign) and psy is even in the phase; a grid
        # ceiling from the signed detuning hit its 1e-30 rad floor here and
        # reported converged with d_p2 at 5e31 times the truth
        params = replace(TRUTH_PMD, delta_omega=-TRUTH_PMD.delta_omega)
        fit = fit_pasy(pasy_series(n=300, params=params), delta_omega=params.delta_omega)
        assert fit.converged
        assert np.all(pmd_rel_errors(fit.params) < 1e-8)

    @pytest.mark.parametrize("k", [-20, -12, 0, 8, 12, 20])
    def test_recovery_at_any_time_scale(self, k):
        # times x 10^k, mu x 10^-k and d_p x 10^(-k/2): fitted in ps/sqrt(km)
        # and 1/km with a 1e-9 /km floor on mu, k >= 8 reported converged
        # with errors of 1e4 and more
        scale = 10.0 ** k
        truth = replace(TRUTH_PMD, d_p1=TRUTH_PMD.d_p1 / math.sqrt(scale),
                        d_p2=TRUTH_PMD.d_p2 / math.sqrt(scale), mu=TRUTH_PMD.mu / scale)
        fit = fit_pasy(pasy_series(t_end=1.5e-3 * scale, params=truth))
        assert fit.converged and fit.at_bounds == ()
        assert np.all(pmd_rel_errors(fit.params, truth) < 1e-8)

    @pytest.mark.parametrize("c", [1e-100, 1e-10, 1e10, 1e100])
    def test_recovery_at_any_detuning(self, c):
        # the detuning x c and d_p / c give the same curve; the lab-unit fit
        # reported converged with an error of 0.91 at 1e-100 and 587 at 1e10
        truth = replace(TRUTH_PMD, delta_omega=TRUTH_PMD.delta_omega * c,
                        d_p1=TRUTH_PMD.d_p1 / c, d_p2=TRUTH_PMD.d_p2 / c)
        fit = fit_pasy(pasy_series(params=truth), delta_omega=truth.delta_omega)
        assert fit.converged and fit.at_bounds == ()
        assert np.all(pmd_rel_errors(fit.params, truth) < 1e-8)

    def test_monotone_descent_from_init(self):
        # the polished solution never scores worse than its starting point
        data = pasy_series(noise=0.02, seed=21)
        init = replace(TRUTH_PMD, d_p2=TRUTH_PMD.d_p2 * 1.3, a1=0.4, a2=0.6)
        init_resid = np.linalg.norm(
            (prob_pasy(data.t, init, UNITS) - data.p) / data.sigma)
        model = _pasy_model(init.delta_omega, init.sign, UNITS, data.t)
        x0 = np.array([getattr(init, name) for name in model.free]) / model.scales
        result = fitting._polish(model, data.t, data.p, data.sigma, x0)
        assert math.sqrt(2.0 * result.cost) <= init_resid + 1e-12


class TestFitP3:
    def test_noiseless_round_trip(self):
        fit = fit_p3(p3_series())
        assert fit.converged
        assert np.all(cavity_rel_errors(fit.params) < 0.01)
        assert fit.residual_norm < 1e-8

    @pytest.mark.parametrize("k", [-20, -18, -16, -15, -14, -12, 0, 4, 6, 8, 12, 20])
    def test_recovery_at_any_time_scale(self, k):
        # times x 10^k, rates x 10^-k: a 1e-12 ms floor on the median step
        # capped the kappa grid from k = -15 down and left kappa1 on its bound;
        # fitted in 1/ms with a 1e-3 /ms floor on the envelope rate, k = 6 gave
        # converged false and k >= 8 converged true, both with errors >= 26
        scale = 10.0 ** k
        truth = replace(TRUTH_CAVITY, kappa1=TRUTH_CAVITY.kappa1 / scale,
                        kappa2=TRUTH_CAVITY.kappa2 / scale,
                        gamma0=TRUTH_CAVITY.gamma0 / scale)
        t = np.linspace(0.0, 1.5e-3, 50) * scale
        fit = fit_p3(DataSeries.from_points(t, p3(t, truth)))
        assert fit.converged and fit.at_bounds == ()
        errors = [getattr(fit.params, name) / getattr(truth, name) - 1.0
                  for name in fitting.P3_FREE_PARAMS]
        assert np.all(np.abs(errors) < 1e-5)

    def test_negative_times_rejected(self):
        # a record that ends at or before t = 0 has no duration to fit in
        i = np.arange(8)
        for end in (-1e-2, 0.0):
            with pytest.raises(FittingError, match="^time must be nonnegative$"):
                fit_p3(DataSeries.from_points(end + 1e-4 * (i - 7), 0.9 * 0.6 ** i))

    def test_recovered_rates_are_non_markovian(self):
        from qbuffer.dynamics import classify_regime
        fit = fit_p3(p3_series())
        total_kappa = fit.params.kappa1 + fit.params.kappa2
        assert classify_regime(total_kappa, fit.params.gamma0).regime == "NonMarkovian"

    def test_swapped_init_lands_on_sorted_labels(self):
        data = p3_series()
        model = _p3_model(data.t)
        swapped = np.array([3528.0, 753.0, 16292.0, 0.5, 0.5]) / model.scales  # from SI
        result = fitting._polish(model, data.t, data.p, data.sigma, swapped)
        params = CavityModelParams(*(result.x * model.scales))
        assert params.kappa1 <= params.kappa2
        assert np.all(cavity_rel_errors(params) < 0.01)

    def test_noisy_recovery(self):
        errs = []
        for seed in range(5):
            fit = fit_p3(p3_series(noise=0.02, seed=seed))
            errs.append(cavity_rel_errors(fit.params))
        assert np.all(np.mean(errs, axis=0) < 0.10)

    def test_residual_norm_tracks_degrees_of_freedom(self):
        # sigma-weighted residuals: chi^2/dof should sit near 1
        chis = []
        for seed in range(5):
            data = p3_series(n=50, noise=0.02, seed=seed)
            fit = fit_p3(data)
            chis.append(fit.residual_norm ** 2 / (len(data) - 5))
        assert 0.5 < np.mean(chis) < 1.5

    def test_noisy_fit_keeps_kappa1_off_its_bound(self):
        # record 41 of the benchmark's fit workload, seed 1: a polish with a
        # finite-difference Jacobian stalled here with kappa1 on its zero
        # bound and a reduced chi-square of 3.4
        rng = np.random.default_rng([1, 0, 41])
        truth = CavityModelParams(*[v * rng.uniform(0.8, 1.2)
                                    for v in (753.0, 3528.0, 16292.0, 0.5, 0.5)])
        t = np.linspace(0.0, 1.5e-3, 50)
        y = p3(t, truth)
        sigma = 0.02 * np.abs(y)
        fit = fit_p3(DataSeries(t, y + rng.normal(0.0, sigma), sigma))
        dof = len(t) - 5
        assert abs(fit.residual_norm ** 2 / dof - 1.0) <= 6.0 * math.sqrt(2.0 / dof)
        assert "kappa1" not in fit.at_bounds

    @pytest.mark.parametrize("x", [[0.753, 3.528, 16.292, 0.5, 0.5],
                                   [0.0, 2.0, 10.0, 0.4, 0.6]])
    def test_closed_form_jacobian(self, x):
        t = np.linspace(0.0, 1.5e-3, 50)
        assert_jacobian_matches(_p3_model(t), t, x)

    def test_underdetermined_rejected(self):
        with pytest.raises(FittingError):
            fit_p3(p3_series(n=3))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_unidentified_rate_variance_nonnegative(self, seed):
        # w1 = 0 leaves kappa1 unidentified; pinv(J^T J) used to put
        # -1.3e-28 (seed 0) and -1.1e-31 (seed 3) on its diagonal
        fit = fit_p3(p3_series(noise=0.02, seed=seed, params=replace(TRUTH_CAVITY, w1=0.0)))
        assert min(fit.covariance_diag) >= 0.0

    @pytest.mark.parametrize("fit, make_model, make_data", [
        # these p3 records' best polish has kappa1 > kappa2, which used to buy
        # a second, label-swapped polish that never won
        *[pytest.param(fit_p3, _p3_model,
                       lambda seed=seed: p3_series(noise=0.02, seed=seed,
                                                   params=replace(TRUTH_CAVITY, w1=0.0)),
                       id=str(seed)) for seed in (0, 3)],
        pytest.param(fit_pasy, pasy_model, lambda: pasy_series(noise=0.02, seed=21),
                     id="pasy"),
    ])
    def test_one_polish_per_scan_start(self, monkeypatch, fit, make_model, make_data):
        # the fit polishes exactly the starts the scan returns, in their order
        data = make_data()
        model = make_model(data.t)
        calls = []
        polish = fitting._polish
        monkeypatch.setattr(fitting, "_polish",
                            lambda *args: calls.append(args) or polish(*args))
        fit(data)
        starts = _scan(model, data.t, data.p, data.sigma)
        assert [args[4].tobytes() for args in calls] == [x.tobytes() for x in starts]

    def test_lambda_width_carried(self):
        assert fit_p3(p3_series(), lambda_width=5e5).params.lambda_width == 5e5
        assert fit_p3(p3_series()).params.lambda_width == 1e6


class TestModelComparison:
    # both models have five free parameters, so on the same data the smaller
    # residual norm is the smaller reduced chi-square
    def test_pasy_data_prefers_pasy(self):
        # self-consistency on clean data: the generating model reaches a
        # machine-zero residual, the other cannot represent sqrt(t) phases
        data = pasy_series()
        assert fit_pasy(data).residual_norm < fit_p3(data).residual_norm

    def test_p3_data_prefers_p3(self):
        data = p3_series()
        assert fit_p3(data).residual_norm < fit_pasy(data).residual_norm


class TestFitResultJson:
    def test_pasy_fields(self):
        fit = fit_pasy(pasy_series())
        out = fit_result_to_dict(fit)
        for key in ("d_p1_s_per_sqrt_m", "d_p2_s_per_sqrt_m", "mu_per_m",
                    "a1", "a2", "delta_omega_rad_s", "sign",
                    "residual_norm", "converged", "iterations"):
            assert key in out
        json.dumps(out)  # must be serializable

    def test_exp_fields(self):
        t = np.linspace(0, 1e-3, 10)
        fit = fit_exponential(DataSeries.from_points(t, np.exp(-1000 * t)))
        out = fit_result_to_dict(fit)
        assert out["p0"] == pytest.approx(1.0)
        assert out["rate_per_s"] == pytest.approx(1000.0, rel=1e-9)
