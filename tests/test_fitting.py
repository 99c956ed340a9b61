"""Unit tests for the decay-model fits."""

import json
import math

import numpy as np
import pytest

from qbuffer.dynamics import (CavityModelParams, PmdModelParams, UnitContext,
                              p3, prob_pasy)
from qbuffer.fitting import (_P3_MODEL, DataSeries, FittingError, _jacobian,
                             _pasy_model, fit_exponential, fit_p3, fit_pasy,
                             fit_result_to_dict, model_comparison,
                             series_from_csv, series_to_csv)

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


def assert_jacobian_matches(model, t, x) -> None:
    """The fit's complex-step Jacobian against central differences of the model."""
    x = np.asarray(x, dtype=float)
    h = 1e-7
    numeric = np.column_stack([(model(t, x + h * e) - model(t, x - h * e)) / (2 * h)
                               for e in np.eye(len(x))])
    exact = _jacobian(model, t, x)
    np.testing.assert_allclose(exact, numeric, rtol=0,
                               atol=1e-7 * np.abs(exact).max())


def pmd_rel_errors(params: PmdModelParams) -> np.ndarray:
    return np.abs(np.array([
        (params.d_p1 - TRUTH_PMD.d_p1) / TRUTH_PMD.d_p1,
        (params.d_p2 - TRUTH_PMD.d_p2) / TRUTH_PMD.d_p2,
        (params.mu - TRUTH_PMD.mu) / TRUTH_PMD.mu,
        (params.a1 - TRUTH_PMD.a1) / TRUTH_PMD.a1,
        (params.a2 - TRUTH_PMD.a2) / TRUTH_PMD.a2,
    ]))


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
    ], ids=["p", "sigma", "t", "sigma-zero"])
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
        assert_jacobian_matches(_pasy_model(TRUTH_PMD.delta_omega, sign, UNITS), t, x)

    def test_underdetermined_rejected(self):
        with pytest.raises(FittingError):
            fit_pasy(pasy_series(n=5))

    def test_results_finite(self):
        fit = fit_pasy(pasy_series(noise=0.02, seed=3))
        values = [fit.params.d_p1, fit.params.d_p2, fit.params.mu,
                  fit.params.a1, fit.params.a2, fit.residual_norm,
                  *fit.covariance_diag]
        assert np.all(np.isfinite(values))

    def test_explicit_init_honored(self):
        fit = fit_pasy(pasy_series(), init=TRUTH_PMD)
        assert np.all(pmd_rel_errors(fit.params) < 1e-6)

    def test_monotone_descent_from_init(self):
        # the accepted solution never scores worse than its starting point
        from dataclasses import replace
        data = pasy_series(noise=0.02, seed=21)
        init = replace(TRUTH_PMD, d_p2=TRUTH_PMD.d_p2 * 1.3, a1=0.4, a2=0.6)
        init_resid = np.linalg.norm(
            (prob_pasy(data.t, init, UNITS) - data.p) / data.sigma)
        fit = fit_pasy(data, init=init)
        assert fit.residual_norm <= init_resid + 1e-12


class TestFitP3:
    def test_noiseless_round_trip(self):
        fit = fit_p3(p3_series())
        assert fit.converged
        assert np.all(cavity_rel_errors(fit.params) < 0.01)
        assert fit.residual_norm < 1e-8

    def test_recovered_rates_are_non_markovian(self):
        from qbuffer.dynamics import classify_regime
        fit = fit_p3(p3_series())
        total_kappa = fit.params.kappa1 + fit.params.kappa2
        assert classify_regime(total_kappa, fit.params.gamma0).regime == "NonMarkovian"

    def test_swapped_init_lands_on_sorted_labels(self):
        swapped = CavityModelParams(kappa1=3528.0, kappa2=753.0, gamma0=16292.0,
                                    w1=0.5, w2=0.5)
        fit = fit_p3(p3_series(), init=swapped)
        assert fit.params.kappa1 <= fit.params.kappa2
        assert np.all(cavity_rel_errors(fit.params) < 0.01)

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
        assert_jacobian_matches(_P3_MODEL, t, x)

    def test_underdetermined_rejected(self):
        with pytest.raises(FittingError):
            fit_p3(p3_series(n=3))


class TestModelComparison:
    def test_pasy_data_prefers_pasy(self):
        # self-consistency on clean data: the generating model reaches a
        # machine-zero residual, the other cannot represent sqrt(t) phases
        data = pasy_series()
        fa = fit_pasy(data)
        fb = fit_p3(data)
        report = model_comparison(data, fa, fb)
        assert report.winner == "a"
        assert report.reduced_chisq_a < report.reduced_chisq_b

    def test_p3_data_prefers_p3(self):
        data = p3_series()
        fa = fit_pasy(data)
        fb = fit_p3(data)
        report = model_comparison(data, fa, fb)
        assert report.winner == "b"

    def test_identical_fits_tie(self):
        data = pasy_series(noise=0.01, seed=13)
        fit = fit_pasy(data)
        report = model_comparison(data, fit, fit)
        assert report.winner == "tie"

    def test_mismatched_data_rejected(self):
        data = pasy_series(noise=0.02, seed=14)
        other = pasy_series(noise=0.02, seed=15)
        fit = fit_pasy(data)
        fit_other = fit_pasy(other)
        with pytest.raises(ValueError):
            model_comparison(data, fit, fit_other)


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
