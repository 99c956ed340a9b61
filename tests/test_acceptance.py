"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Two criteria rest on arithmetic worth stating here:

* criterion 01 pins delta = sqrt(16 kappa^2 - gamma0^2) for kappa = 4281 s^-1
  and gamma0 = 16292 s^-1.  In integers 16 * 4281^2 - 16292^2 = 27_802_112,
  so delta = 5272.7708 s^-1, checked to +/- 0.01 s^-1 as in the dynamics and
  CLI tests.
* criterion 07 checks fit recovery.  Every parameter of both models is
  recovered within 1% from noiseless data, and within 10% mean error from
  2%-noise data, except the weak PMD coefficient d_p1 of the sqrt(t)-phase
  model.  On the 300-point, 5 ms record its Cramer-Rao relative standard
  deviation is 1.45 at 2% noise (d_p2 0.012, mu 0.0066, a1 0.099,
  a2 0.076), so no unbiased estimator gets it within 10%.  For d_p1 the
  test instead computes that bound from prob_pasy, asserts it exceeds 10%,
  holds the fit's reported standard deviation within a factor of 2 of it in
  every seed and its 2-sigma interval to cover the truth in 18 of 20 seeds,
  and checks d_p1 recovery within 10% at 0.05% noise, where the bound is
  3.6%.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from qbuffer import cli
from qbuffer.channels import amplitude_damping_kraus, damp_werner
from qbuffer.dynamics import (PS_PER_SQRT_KM, SPEED_OF_LIGHT, CavityModelParams,
                              PmdModelParams, cavity_p, classify_regime, length_from_time,
                              markovian_exponential, prob_asym, prob_pasy,
                              asym_series_residual)
from qbuffer.fitting import DataSeries, fit_p3, fit_pasy
from qbuffer.measures import (concurrence, discord, discord_concurrence_crossover,
                              solve_level_crossing, total_correlation,
                              classical_correlation)
from qbuffer.states import make_werner
from qbuffer.tomography import (estimate_werner_probability, expected_counts,
                                fidelity, linear_inversion, reconstruct_mle,
                                simulate_counts, subtract_accidentals,
                                trace_distance)

DEFAULTS = cli.build_config({})
N_R = DEFAULTS.n_r
# the default config's fixed fit inputs: pasy's n_r, detuning and sign, p3's width
PASY_FIXED = (N_R, DEFAULTS.pmd.delta_omega_rad_s, DEFAULTS.pmd.sign)
LAMBDA = DEFAULTS.cavity.lambda_per_s
GATES = 100_000_000


def check(criterion: int, title: str, checks: list[tuple[str, bool]]) -> None:
    ok = all(good for _, good in checks)
    line = f"criterion {criterion:02d} [{title}]: {'PASS' if ok else 'FAIL'}"
    if not ok:
        line += " — failing: " + "; ".join(name for name, good in checks if not good)
    print(line)
    assert ok, line


def test_criterion_01_regime_classification():
    result = classify_regime(4281.0, 16292.0)
    # 16 * 4281^2 - 16292^2 = 293_230_224 - 265_428_112 = 27_802_112 exactly,
    # and sqrt(27_802_112) = 5272.7708...
    check(1, "regime classification", [
        ("regime is NonMarkovian", result.regime == "NonMarkovian"),
        ("4 kappa = 17124 exceeds gamma0", 4 * 4281.0 == 17124.0 > 16292.0),
        (f"delta {result.delta:.4f} within 5272.7708 +/- 0.01",
         abs(result.delta - 5272.7708) <= 0.01),
    ])


def test_criterion_02_discord_concurrence_crossover():
    p_star = discord_concurrence_crossover()
    check(2, "discord-concurrence crossover", [
        (f"crossover {p_star:.4f} in [0.5225, 0.5235]",
         0.5225 <= p_star <= 0.5235),
    ])


def test_criterion_03_separability_point():
    check(3, "separability point", [
        ("concurrence(1/3) is exactly zero", concurrence(1.0 / 3.0) == 0.0),
        ("discord(1/3) = 0.1258 +/- 0.001",
         abs(discord(1.0 / 3.0) - 0.1258) <= 0.001),
    ])


def test_criterion_04_bell_state_measures():
    check(4, "pure Bell measures", [
        ("total(1) = 2", abs(total_correlation(1.0) - 2.0) <= 1e-12),
        ("classical(1) = 1", abs(classical_correlation(1.0) - 1.0) <= 1e-12),
        ("discord(1) = 1", abs(discord(1.0) - 1.0) <= 1e-12),
        ("concurrence(1) = 1", abs(concurrence(1.0) - 1.0) <= 1e-12),
    ])


def test_criterion_05_amplitude_damping_identities():
    grid = np.linspace(0.0, 1.0, 21)
    worst_matrix = 0.0
    worst_avg = 0.0
    for p in grid:
        for xi in grid:
            closed = np.zeros((4, 4), dtype=complex)
            closed[0, 0] = (1 + p) / 4
            closed[1, 1] = (1 - p) * (1 - xi) / 4 + (1 + p) * xi / 4
            closed[2, 2] = (1 - p) / 4
            closed[3, 3] = (1 + p) * (1 - xi) / 4 + (1 - p) * xi / 4
            closed[0, 3] = closed[3, 0] = p * math.sqrt(1 - xi) / 2
            worst_matrix = max(worst_matrix,
                               float(np.abs(damp_werner(p, xi) - closed).max()))
            got = estimate_werner_probability(damp_werner(p, xi))
            expect = p * (4 - 4 * xi + 2 * math.sqrt(1 - xi)) / 6
            worst_avg = max(worst_avg, abs(got - expect))
    worst_approx = 0.0
    for p in grid:
        for xi in np.linspace(0.0, 0.04, 21):
            exact = p * (4 - 4 * xi + 2 * math.sqrt(1 - xi)) / 6
            approx = p * (6 - 5 * xi) / 6
            bound = 2e-4 * p if p > 0 else 2e-4
            worst_approx = max(worst_approx, abs(exact - approx) - bound)
    completeness = 0.0
    for xi in grid:
        g0, g1 = amplitude_damping_kraus(xi)
        total = g0.conj().T @ g0 + g1.conj().T @ g1
        completeness = max(completeness, float(np.abs(total - np.eye(2)).max()))
    check(5, "amplitude damping identities", [
        (f"closed-form match {worst_matrix:.2e} < 1e-12", worst_matrix < 1e-12),
        (f"estimator average {worst_avg:.2e} < 1e-12", worst_avg < 1e-12),
        ("linearized average within 2e-4 p for xi <= 0.04", worst_approx <= 0.0),
        ("Kraus completeness < 1e-12", completeness < 1e-12),
    ])


def test_criterion_06_tomography_round_trip():
    corrected = subtract_accidentals(expected_counts(make_werner(0.75), GATES, 0.0))
    mle = reconstruct_mle(corrected)
    p_hat = estimate_werner_probability(mle.rho_hat)
    dist = trace_distance(mle.rho_hat, linear_inversion(corrected))
    truth = make_werner(0.9)
    good = 0
    for seed in range(20):
        records = simulate_counts(truth, GATES, 0.0, seed=seed)
        result = reconstruct_mle(subtract_accidentals(records))
        if fidelity(truth, result.rho_hat) >= 0.995:
            good += 1
    check(6, "tomography round trip", [
        (f"noiseless extracted P = {p_hat:.6f} within 0.75 +/- 1e-4",
         abs(p_hat - 0.75) <= 1e-4),
        (f"MLE vs linear inversion trace distance {dist:.2e} < 1e-6",
         dist < 1e-6),
        (f"noisy fidelity >= 0.995 in {good}/20 seeds", good >= 18),
    ])


TRUTH_PMD = PmdModelParams(delta_omega_rad_s=2.0 * math.pi * 200.0 * 1e9,
                           d_p1_s_per_sqrt_m=0.0017 * PS_PER_SQRT_KM,
                           d_p2_s_per_sqrt_m=0.047 * PS_PER_SQRT_KM,
                           mu_per_m=0.006 * 1e-3, a1=0.5, a2=0.5, sign=1)
TRUTH_CAVITY = CavityModelParams(kappa1_per_s=753.0, kappa2_per_s=3528.0, gamma0_per_s=16292.0,
                                 w1=0.5, w2=0.5, lambda_per_s=LAMBDA)


def _pmd_errors(params: PmdModelParams) -> np.ndarray:
    return np.abs(np.array([
        (params.d_p1_s_per_sqrt_m - TRUTH_PMD.d_p1_s_per_sqrt_m) / TRUTH_PMD.d_p1_s_per_sqrt_m,
        (params.d_p2_s_per_sqrt_m - TRUTH_PMD.d_p2_s_per_sqrt_m) / TRUTH_PMD.d_p2_s_per_sqrt_m,
        (params.mu_per_m - TRUTH_PMD.mu_per_m) / TRUTH_PMD.mu_per_m,
        (params.a1 - TRUTH_PMD.a1) / TRUTH_PMD.a1,
        (params.a2 - TRUTH_PMD.a2) / TRUTH_PMD.a2,
    ]))


def _pasy_crlb(t: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Cramer-Rao relative standard deviations of (d_p1, d_p2, mu, a1, a2).

    The Fisher information comes from central differences of prob_pasy at
    TRUTH_PMD in each parameter's relative change, so the bound does not
    rest on anything in qbuffer.fitting.
    """
    h = 1e-5
    columns = []
    for name in ("d_p1_s_per_sqrt_m", "d_p2_s_per_sqrt_m", "mu_per_m", "a1", "a2"):
        value = getattr(TRUTH_PMD, name)
        up = prob_pasy(t, replace(TRUTH_PMD, **{name: value * (1 + h)}), N_R)
        down = prob_pasy(t, replace(TRUTH_PMD, **{name: value * (1 - h)}), N_R)
        columns.append((up - down) / (2 * h) / sigma)
    jac = np.column_stack(columns)
    return np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)))


def _cavity_errors(params: CavityModelParams) -> np.ndarray:
    return np.abs(np.array([
        (params.kappa1_per_s - TRUTH_CAVITY.kappa1_per_s) / TRUTH_CAVITY.kappa1_per_s,
        (params.kappa2_per_s - TRUTH_CAVITY.kappa2_per_s) / TRUTH_CAVITY.kappa2_per_s,
        (params.gamma0_per_s - TRUTH_CAVITY.gamma0_per_s) / TRUTH_CAVITY.gamma0_per_s,
        (params.w1 - TRUTH_CAVITY.w1) / TRUTH_CAVITY.w1,
        (params.w2 - TRUTH_CAVITY.w2) / TRUTH_CAVITY.w2,
    ]))


def test_criterion_07_fit_round_trips():
    from qbuffer.dynamics import p3 as p3_model

    # noiseless round trips on the documented 50-point window
    t50 = np.linspace(0.0, 1.5e-3, 50)
    fit_a = fit_pasy(DataSeries(t50, prob_pasy(t50, TRUTH_PMD, N_R), np.ones(50)),
                     *PASY_FIXED)
    fit_b = fit_p3(DataSeries(t50, p3_model(t50, TRUTH_CAVITY), np.ones(50)), LAMBDA)
    clean_a = float(_pmd_errors(fit_a.params).max())
    clean_b = float(_cavity_errors(fit_b.params).max())

    # noisy Monte Carlo, 2% relative noise with known sigma, 20 seeds each;
    # recovery measured as the per-parameter mean error across seeds.
    # The pasy window extends past the cos^2 null near 3.5 ms, where the two
    # components separate.  d_p1 stays unidentifiable at 2% regardless: its
    # Cramer-Rao bound exceeds 100%, so instead of a 10% recovery check the
    # fit's reported d_p1 standard deviation is held to that bound, and d_p1
    # recovery is checked at 0.05% noise, where the bound is a few percent.
    t_pasy = np.linspace(0.0, 5e-3, 300)
    y_pasy = prob_pasy(t_pasy, TRUTH_PMD, N_R)

    def pasy_fits(noise):
        sigma = noise * np.abs(y_pasy)
        fits = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            noisy = y_pasy + rng.normal(0.0, sigma)
            fits.append(fit_pasy(DataSeries(t_pasy, noisy, sigma), *PASY_FIXED))
        return fits

    fits_a = pasy_fits(0.02)
    mean_a = np.mean([_pmd_errors(fit.params) for fit in fits_a], axis=0)
    crlb_a = _pasy_crlb(t_pasy, 0.02 * np.abs(y_pasy))[0]
    sd_a = np.sqrt([fit.covariance_diag[0] for fit in fits_a])
    sd_ratio = sd_a / (crlb_a * TRUTH_PMD.d_p1_s_per_sqrt_m)
    covered = sum(abs(fit.params.d_p1_s_per_sqrt_m - TRUTH_PMD.d_p1_s_per_sqrt_m) <= 2.0 * sd
                  for fit, sd in zip(fits_a, sd_a))

    fits_fine = pasy_fits(0.0005)
    crlb_fine = _pasy_crlb(t_pasy, 0.0005 * np.abs(y_pasy))[0]
    mean_fine = float(np.mean([_pmd_errors(fit.params)[0] for fit in fits_fine]))

    y_p3 = p3_model(t50, TRUTH_CAVITY)
    errs_b = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        sigma = 0.02 * np.abs(y_p3)
        noisy = y_p3 + rng.normal(0.0, sigma)
        fit = fit_p3(DataSeries(t50, noisy, sigma), LAMBDA)
        errs_b.append(_cavity_errors(fit.params))
    mean_b = np.mean(errs_b, axis=0)

    names = ("d_p2", "mu", "a1", "a2")
    noisy_a_checks = [
        (f"noisy pasy {name} mean error {err:.1%} within 10%", err < 0.10)
        for name, err in zip(names, mean_a[1:])]
    check(7, "fit round trips", [
        (f"noiseless pasy recovery {clean_a:.2e} within 1%", clean_a < 0.01),
        (f"noiseless p3 recovery {clean_b:.2e} within 1%", clean_b < 0.01),
        *noisy_a_checks,
        (f"noisy pasy d_p1 (mean error {mean_a[0]:.0%}): Cramer-Rao bound "
         f"{crlb_a:.0%} exceeds 10%", crlb_a > 0.10),
        (f"noisy pasy d_p1 reported s.d. / bound in "
         f"[{sd_ratio.min():.2f}, {sd_ratio.max():.2f}] within [0.5, 2]",
         bool(np.all((sd_ratio >= 0.5) & (sd_ratio <= 2.0)))),
        (f"noisy pasy d_p1 truth within 2 reported s.d. in {covered}/20 seeds",
         covered >= 18),
        (f"0.05%-noise pasy d_p1 mean error {mean_fine:.1%} within 10% "
         f"(bound {crlb_fine:.1%})", mean_fine < 0.10),
        (f"noisy p3 mean errors {np.array2string(mean_b, precision=3)} within 10%",
         bool(np.all(mean_b < 0.10))),
    ])


def test_criterion_08_markovian_control():
    mu = 6e-6
    rate = 2 * mu * SPEED_OF_LIGHT / N_R
    model = lambda t: markovian_exponential(t, mu, N_R)
    t_star = solve_level_crossing(model, 1.0 / 3.0, (0.0, 10e-3))
    closed = math.log(3.0) / rate
    length_km = length_from_time(t_star, N_R) / 1e3
    check(8, "Markovian control crossing", [
        (f"L* = {length_km:.4f} km within 91.55 +/- 0.01",
         abs(length_km - 91.55) <= 0.01),
        (f"solver vs closed form relative gap {abs(t_star - closed) / closed:.2e} < 1e-6",
         abs(t_star - closed) / closed < 1e-6),
    ])


def test_criterion_09_model_structure():
    config = cli.build_config({})
    rows = cli.cmd_sweep(config).splitlines()[1:]
    cols = np.array([[float(v) for v in row.split(",")] for row in rows])
    t = cols[:, 0]
    d_pasy = np.diff(cols[:, 2])
    d_p3 = np.diff(cols[:, 3])
    early = d_pasy[t[:-1] < 0.5e-3]
    p3_extrema = int(np.sum(np.diff(np.sign(d_p3[d_p3 != 0])) != 0))
    pasy_extrema = int(np.sum(np.diff(np.sign(early[early != 0])) != 0))
    check(9, "model oscillation structure", [
        (f"p3 sweep column has {p3_extrema} local extrema (need >= 1)",
         p3_extrema >= 1),
        ("pasy sweep column has no extremum before 0.5 ms", pasy_extrema == 0),
    ])


def test_criterion_10_algebraic_equivalences():
    rng = np.random.default_rng(101)
    worst_eq = 0.0
    for _ in range(1000):
        dh, dv = rng.uniform(-np.pi, np.pi, 2)
        mu, length = rng.uniform(0, 1e-5), rng.uniform(0, 2e5)
        # prob_asym evaluates the squared bracket; the seven terms written out
        ch, sh, cv, sv = np.cos(dh), np.sin(dh), np.cos(dv), np.sin(dv)
        seven = np.exp(-2.0 * mu * length) * (
            2.0 + 2.0 * cv * ch - 2.0 * sh * sv
            + 2.0 * ch * sh - 2.0 * ch * sv - 2.0 * cv * sv + 2.0 * cv * sh)
        worst_eq = max(worst_eq, abs(prob_asym(dh, dv, mu, length, +1) - seven))

    b_h, b_v = 0.22, 0.13
    lengths = 1.0 * 0.5 ** np.arange(0, 8)
    resid = [asym_series_residual(b_h * math.sqrt(L), b_v * math.sqrt(L),
                                  0.0, L) for L in lengths]
    orders = np.log2(np.array(resid[:-1]) / np.array(resid[1:]))
    order_ok = bool(np.all((orders > 1.3) & (orders < 1.7)))

    gamma0 = 16292.0
    kappa = gamma0 / 4.0
    worst_gap = 0.0
    for t in np.linspace(0.0, 10.0 / gamma0, 40):
        at = cavity_p(t, kappa, gamma0)
        for side in (1 - 1e-6, 1 + 1e-6):
            gap = abs(cavity_p(t, kappa * side, gamma0) - at) / max(at, 1e-30)
            worst_gap = max(worst_gap, gap)
    check(10, "algebraic equivalences", [
        (f"seven-term expansion equals squared bracket (worst {worst_eq:.2e} < 1e-12)",
         worst_eq < 1e-12),
        (f"series residual order {np.mean(orders):.2f} within 1.5 +/- 0.2", order_ok),
        (f"boundary continuity {worst_gap:.2e} < 1e-4", worst_gap < 1e-4),
    ])
