"""Unit tests for the scalar decay models and regime classifier."""

import math

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qbuffer.channels import PmdPhases, pmd_operator
from qbuffer import dynamics
from qbuffer.states import apply_operator, make_bell_phi_plus, product_ket
from qbuffer.dynamics import (CavityModelParams, PmdModelParams, UnitContext,
                              asym_series_residual, cavity_p, classify_regime,
                              length_from_time, lorentzian_spectral_density,
                              markovian_exponential, p1, p2, p3, pa, pmd_phase,
                              prob_asym, prob_pasy, prob_pf, psy)

REF_PMD = PmdModelParams.from_lab_units(200.0, 0.0017, 0.047, 0.006, 0.5, 0.5)
REF_CAVITY = CavityModelParams(kappa1=753.0, kappa2=3528.0, gamma0=16292.0,
                                 w1=0.5, w2=0.5)

PHASES = st.floats(-2 * math.pi, 2 * math.pi)
LOSSES = st.floats(0.0, 1e-5)        # 1/m
LENGTHS = st.floats(0.0, 2e5)        # m
TIMES = st.floats(0.0, 2e-3)         # s
SIGNS = st.sampled_from((+1, -1))


class TestUnits:
    def test_zero_time(self):
        assert length_from_time(0.0) == 0.0

    def test_buffer_time_to_length(self):
        # 0.9 ms at n_r = 1.468 is just under 184 km
        length = length_from_time(0.9e-3, UnitContext(n_r=1.468))
        assert length == pytest.approx(2.99792458e8 / 1.468 * 0.9e-3, rel=1e-15)
        assert length == pytest.approx(183_796.0, abs=1.0)

    def test_inverse(self):
        t = 25_000.0 * 1.468 / 2.99792458e8
        assert t == pytest.approx(1.2242e-4, abs=1e-8)
        assert length_from_time(t) == pytest.approx(25_000.0, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            length_from_time(-1.0)
        with pytest.raises(ValueError):
            UnitContext(n_r=0.9)


class TestPmdPhase:
    def test_zero_length(self):
        assert pmd_phase(1e12, 1e-15, 0.0) == 0.0

    def test_strong_component_at_buffer_length(self):
        phi = pmd_phase(2 * np.pi * 200e9, 0.047 * dynamics.PS_PER_SQRT_KM, 190e3)
        assert phi == pytest.approx(0.81411, abs=1e-5)

    def test_weak_component_at_buffer_length(self):
        phi = pmd_phase(2 * np.pi * 200e9, 0.0017 * dynamics.PS_PER_SQRT_KM, 190e3)
        assert phi == pytest.approx(0.029447, abs=1e-6)


class TestProbPf:
    def test_normalized_at_zero(self):
        assert prob_pf(PmdPhases(0.0, 0.0), 0.0, 0.0) == pytest.approx(1.0)

    def test_range_reaches_two(self):
        assert prob_pf(PmdPhases(math.pi / 4, -math.pi / 4), 0.0, 0.0) == pytest.approx(
            2.0, abs=1e-12)
        phases = np.linspace(-math.pi, math.pi, 41)
        values = [prob_pf(PmdPhases(h, v), 0.0, 0.0) for h in phases for v in phases]
        assert 0.0 <= min(values) and max(values) <= 2.0 + 1e-12

    def test_opposite_rotation_reduces_to_counter_form(self):
        for phi in np.linspace(-1.0, 1.0, 17):
            got = prob_pf(PmdPhases(phi, -phi), 0.0, 0.0)
            assert got == pytest.approx((np.cos(phi) + np.sin(phi)) ** 2, abs=1e-12)

    def test_same_rotation_reduces_to_co_form(self):
        for phi in np.linspace(-1.0, 1.0, 17):
            got = prob_pf(PmdPhases(phi, phi), 0.0, 0.0)
            assert got == pytest.approx(np.cos(phi) ** 2, abs=1e-12)


WO, DP1, DP2, MU = REF_PMD.delta_omega, REF_PMD.d_p1, REF_PMD.d_p2, REF_PMD.mu


class TestComponentModels:
    def test_both_start_at_one(self):
        assert pa(0.0, WO, DP1, MU, +1) == pytest.approx(1.0)
        assert psy(0.0, WO, DP2, MU) == pytest.approx(1.0)

    def test_counter_component_quarter_phase(self):
        # phase pi/4 gives bracket sqrt(2) squared = 2 on the + branch, 0 on -
        units = UnitContext()
        t = (np.pi / 4) ** 2 * units.n_r / units.c
        assert pa(t, 1.0, 1.0, 0.0, +1) == pytest.approx(2.0, rel=1e-12)
        assert pa(t, 1.0, 1.0, 0.0, -1) == pytest.approx(0.0, abs=1e-12)

    def test_co_component_zero_at_quarter_period(self):
        units = UnitContext()
        t = (np.pi / 2) ** 2 * units.n_r / units.c
        assert psy(t, 1.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_co_component_attenuated_value(self):
        # independent arithmetic chain: exp(-2.28) * cos^2(phase at 190 km)
        units = UnitContext()
        t = 190e3 * units.n_r / units.c
        phi = pmd_phase(WO, DP2, 190e3)
        expect = np.exp(-2.28) * np.cos(phi) ** 2
        assert psy(t, WO, DP2, MU, units) == pytest.approx(expect, rel=1e-9)

    def test_weighted_sum(self):
        t = 0.3e-3
        got = prob_pasy(t, REF_PMD)
        assert got == pytest.approx(0.5 * pa(t, WO, DP1, MU, +1)
                                    + 0.5 * psy(t, WO, DP2, MU), rel=1e-14)
        assert prob_pasy(0.0, REF_PMD) == pytest.approx(REF_PMD.a1 + REF_PMD.a2)

    def test_nonnegative_and_bounded(self):
        t = np.linspace(0.0, 2e-3, 400)
        length = length_from_time(t)
        att = np.exp(-2 * MU * length)
        counter = pa(t, WO, DP1, MU, +1)
        co = psy(t, WO, DP2, MU)
        assert np.all(counter >= 0) and np.all(co >= 0)
        assert np.all(counter <= 2 * att + 1e-15)
        assert np.all(co <= att + 1e-15)


class TestAsymmetricExpansion:
    def test_zero_phases_give_four(self):
        assert prob_asym(PmdPhases(0.0, 0.0), 0.0, 0.0) == pytest.approx(4.0)

    def test_equal_phases_reduce(self):
        for phi in np.linspace(-1.2, 1.2, 13):
            got = prob_asym(PmdPhases(phi, phi), 1e-5, 1e4)
            expect = 4 * np.cos(phi) ** 2 * np.exp(-2 * 1e-5 * 1e4)
            assert got == pytest.approx(expect, abs=1e-12)

    def test_equivalence_with_squared_bracket(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            dh, dv = rng.uniform(-np.pi, np.pi, 2)
            mu, length = rng.uniform(0, 1e-5), rng.uniform(0, 2e5)
            lhs = prob_asym(PmdPhases(dh, dv), mu, length, +1)
            rhs = 4.0 * prob_pf(PmdPhases(dh, dv), mu, length)
            assert abs(lhs - rhs) < 1e-12

    def test_minus_branch_matches_negated_phases(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            dh, dv = rng.uniform(-np.pi, np.pi, 2)
            lhs = prob_asym(PmdPhases(dh, dv), 0.0, 0.0, -1)
            rhs = 4.0 * prob_pf(PmdPhases(-dh, -dv), 0.0, 0.0)
            assert abs(lhs - rhs) < 1e-12

    def test_residual_zero_cases(self):
        assert asym_series_residual(PmdPhases(0.0, 0.0), 0.0, 1e4) == pytest.approx(0.0)
        assert asym_series_residual(PmdPhases(0.0, 0.0), 1e-5, 0.0) == pytest.approx(0.0)

    def test_residual_order_three_halves(self):
        # phases scale as sqrt(L); halving L must shrink the residual by
        # about 2^1.5
        b_h, b_v = 0.22, 0.13  # rad at L = 1
        lengths = 1.0 * 0.5 ** np.arange(0, 8)
        resid = [asym_series_residual(PmdPhases(b_h * np.sqrt(L), b_v * np.sqrt(L)),
                                      0.0, L) for L in lengths]
        orders = np.log2(np.array(resid[:-1]) / np.array(resid[1:]))
        assert np.all(orders > 1.3)
        assert np.all(orders < 1.7)
        assert np.mean(orders) == pytest.approx(1.5, abs=0.1)


def seven_term_asym(dh, dv, mu, length, sign):
    """The expanded seven-term form of prob_asym, written out term by term."""
    ch, sh, cv, sv = np.cos(dh), np.sin(dh), np.cos(dv), np.sin(dv)
    bracket = (2.0 + 2.0 * cv * ch - 2.0 * sh * sv
               + sign * (2.0 * ch * sh - 2.0 * ch * sv - 2.0 * cv * sv + 2.0 * cv * sh))
    return np.exp(-2.0 * mu * length) * bracket


class TestModelIdentities:
    """The scalar models against the channel operator and against each other."""

    @settings(max_examples=300, deadline=None)
    @given(dh=PHASES, dv=PHASES, mu=LOSSES, length=LENGTHS)
    def test_prob_pf_is_dd_projection_of_pmd_map(self, dh, dv, mu, length):
        # 2 exp(-2 mu L) <DD| (I x M) Phi+ Phi+^dag (I x M)^dag |DD>
        bell = make_bell_phi_plus()
        rho = apply_operator(np.outer(bell, bell.conj()), pmd_operator(PmdPhases(dh, dv)))
        dd = product_ket("D", "D")
        expect = 2.0 * np.exp(-2.0 * mu * length) * np.real(dd.conj() @ rho @ dd)
        assert prob_pf(PmdPhases(dh, dv), mu, length) == pytest.approx(expect, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(t=TIMES, d_p=st.floats(0.0, 0.1), mu=LOSSES, sign=SIGNS)
    def test_pmd_components_are_prob_pf(self, t, d_p, mu, sign):
        # pa takes opposite phases (s phi, -s phi), psy equal ones (phi, phi)
        d_p *= dynamics.PS_PER_SQRT_KM
        length = length_from_time(t)
        phi = pmd_phase(WO, d_p, length)
        assert pa(t, WO, d_p, mu, sign) == pytest.approx(
            prob_pf(PmdPhases(sign * phi, -sign * phi), mu, length), abs=1e-12)
        assert psy(t, WO, d_p, mu) == pytest.approx(
            prob_pf(PmdPhases(phi, phi), mu, length), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(dh=PHASES, dv=PHASES, mu=LOSSES, length=LENGTHS, sign=SIGNS)
    def test_prob_asym_matches_seven_term_form(self, dh, dv, mu, length, sign):
        got = prob_asym(PmdPhases(dh, dv), mu, length, sign)
        assert got == pytest.approx(seven_term_asym(dh, dv, mu, length, sign), abs=1e-12)
        assert got == pytest.approx(
            4.0 * prob_pf(PmdPhases(sign * dh, sign * dv), mu, length), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(t=TIMES, kappa=st.floats(0.0, 1e5))
    def test_p1_is_cavity_p_at_tied_rates(self, t, kappa):
        # gamma0 = 2 sqrt2 kappa makes delta = gamma0, so the bracket is cos + sin
        gamma0 = 2.0 * math.sqrt(2.0) * kappa
        assert p1(t, kappa, gamma0) == pytest.approx(cavity_p(t, kappa, gamma0), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(t=TIMES, kappa=st.floats(0.0, 1e5))
    def test_p2_is_cavity_p_without_reservoir(self, t, kappa):
        assert p2(t, kappa, 0.0) == pytest.approx(cavity_p(t, kappa, 0.0), abs=1e-12)


class TestCavityModel:
    def test_starts_at_one(self):
        assert cavity_p(0.0, 4281.0, 16292.0) == pytest.approx(1.0)

    def test_zero_reservoir_coupling_is_pure_harmonic(self):
        t = np.linspace(0, 1e-3, 50)
        np.testing.assert_allclose(cavity_p(t, 4000.0, 0.0),
                                   np.cos(4000.0 * t) ** 2, atol=1e-12)

    def test_oscillation_rate_from_discriminant(self):
        delta = math.sqrt(16 * 4281.0 ** 2 - 16292.0 ** 2)
        assert delta == pytest.approx(5272.77, abs=0.01)
        # first zero of the bracket: cos(x) + (g/d) sin(x) = 0
        x0 = math.atan2(1.0, -16292.0 / delta)
        t0 = 4 * x0 / delta
        assert cavity_p(t0, 4281.0, 16292.0) == pytest.approx(0.0, abs=1e-12)

    def test_continuous_across_boundary(self):
        gamma0 = 16292.0
        kappa = gamma0 / 4.0
        for t in np.linspace(0.0, 10.0 / gamma0, 25):
            below = cavity_p(t, kappa * (1 - 1e-6), gamma0)
            above = cavity_p(t, kappa * (1 + 1e-6), gamma0)
            at = cavity_p(t, kappa, gamma0)
            assert below == pytest.approx(at, rel=1e-4)
            assert above == pytest.approx(at, rel=1e-4)

    def test_boundary_uses_analytic_limit(self):
        gamma0 = 100.0
        t = 0.03
        assert cavity_p(t, 25.0, gamma0) == pytest.approx(
            np.exp(-gamma0 * t / 2) * (1 + gamma0 * t / 4) ** 2, rel=1e-14)

    def test_markovian_side_hyperbolic(self):
        # deep Markovian regime: no oscillation, monotone decay toward zero
        t = np.linspace(0.0, 0.1, 200)
        vals = cavity_p(t, 10.0, 1000.0)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all(vals >= 0)

    def test_overflow_guarded(self):
        # huge hyperbolic argument must not overflow
        val = cavity_p(5.0, 10.0, 2000.0)
        assert np.isfinite(val)
        assert 0 <= val <= 1

    @pytest.mark.filterwarnings("error")
    def test_overflowing_rate_times_time(self):
        # delta t and gamma0 t overflow: the values were nan after a warning
        assert cavity_p(1e300, 1e10, 1e10) == 0.0  # oscillating, zero envelope
        assert cavity_p(1e300, 1e10, 1e11) == 0.0  # hyperbolic, exponent -inf
        # with kappa = 0 the hyperbolic growth cancels the envelope exactly
        assert cavity_p(1e300, 0.0, 1e10) == 1.0
        np.testing.assert_array_equal(cavity_p(np.array([0.0, 1e300]), 1e10, 1e11), [1.0, 0.0])

    def test_hyperbolic_branch_switch_is_continuous(self):
        # one bounded expression covers every hyperbolic argument x = delta t / 4,
        # so the values on both sides of x = 30 (deep in the e^x growth of
        # cosh and sinh) must agree as any smooth curve's do
        kappa, gamma0 = 10.0, 2000.0
        delta = math.sqrt(gamma0**2 - 16 * kappa**2)
        t_switch = 4 * 30.0 / delta
        below = cavity_p(t_switch * 0.999, kappa, gamma0)
        above = cavity_p(t_switch * 1.001, kappa, gamma0)
        assert below == pytest.approx(above, rel=1e-3)
        mid_lo = cavity_p(t_switch * 0.9999999, kappa, gamma0)
        mid_hi = cavity_p(t_switch * 1.0000001, kappa, gamma0)
        assert mid_lo == pytest.approx(mid_hi, rel=1e-5)

    @pytest.mark.parametrize("scale", [2.0**-600, 2.0**-400, 2.0**400],
                             ids=["2**-600", "2**-400", "2**400"])
    def test_time_scale_invariance(self, scale):
        # rates times a power of two and times divided by it scale every rounding
        # alike, so both regimes give the unscaled value bit for bit
        t = np.linspace(0.0, 1e-2, 40)
        for kappa, gamma0 in ((1e2, 3e2), (4281.0, 16292.0), (753.0, 16292.0)):
            np.testing.assert_array_equal(
                cavity_p(t / scale, kappa * scale, gamma0 * scale), cavity_p(t, kappa, gamma0))

    def test_matches_high_precision_reference(self):
        # 60-digit reference; the bound is the conditioning of the exponent and,
        # on the oscillating side, of the harmonic argument delta t / 4
        rng = np.random.default_rng(16)
        for _ in range(400):
            gamma0 = 10 ** rng.uniform(-3, 6)
            if rng.random() < 0.7:
                kappa = gamma0 / 4 * 10 ** rng.uniform(-3, 3)
            else:
                kappa = gamma0 / 4 * (1 + rng.normal() * 10 ** rng.uniform(-14, -1))
            t = 10 ** rng.uniform(-2, 2.5) / gamma0
            with mpmath.workdps(60):
                k, g, s = mpmath.mpf(kappa), mpmath.mpf(gamma0), mpmath.mpf(t)
                disc = 16 * k**2 - g**2
                root = mpmath.sqrt(abs(disc))
                x = root * s / 4
                if disc > 0:
                    bracket = mpmath.cos(x) + g / root * mpmath.sin(x)
                elif disc < 0:
                    bracket = mpmath.cosh(x) + g / root * mpmath.sinh(x)
                else:
                    bracket = 1 + g * s / 4
                ref = float(mpmath.exp(-g * s / 2) * bracket**2)
            rate = gamma0 + (float(root) if disc > 0 else 0.0)
            assert abs(cavity_p(t, kappa, gamma0) - ref) <= (
                16.5 * np.finfo(float).eps * rate * t + 1e-15), (kappa, gamma0, t)

    def test_reduces_to_p1_when_tied(self):
        # gamma0 = 4 kappa / sqrt(2) turns the bracket into cos + sin
        kappa = 753.0
        gamma0 = 4 * kappa / math.sqrt(2)
        t = np.linspace(0.0, 2e-3, 60)
        np.testing.assert_allclose(cavity_p(t, kappa, gamma0),
                                   p1(t, kappa, gamma0), rtol=1e-12, atol=1e-12)

    def test_reduces_to_p2_for_weak_reservoir(self):
        # n = 10000: relative gap under 1e-3 away from the harmonic zeros
        kappa = 3528.0
        n = 10_000.0
        gamma0 = 4 * kappa / n
        t = np.linspace(0.0, 10.0 / kappa, 500)
        keep = np.abs(np.cos(kappa * t)) > 0.25
        a = cavity_p(t[keep], kappa, gamma0)
        b = p2(t[keep], kappa, gamma0)
        assert np.max(np.abs(a - b) / b) < 1e-3


class TestComponentCavityModels:
    def test_p1_normalization_and_peak(self):
        assert p1(0.0, 753.0, 16292.0) == pytest.approx(1.0)
        kappa = 500.0
        t = (np.pi / 4) * math.sqrt(2) / kappa
        assert p1(t, kappa, 0.0) == pytest.approx(2.0, rel=1e-12)

    def test_p2_values(self):
        assert p2(0.0, 3528.0, 16292.0) == pytest.approx(1.0)
        assert p2(np.pi / 2 / 3528.0, 3528.0, 16292.0) == pytest.approx(0.0, abs=1e-12)
        got = p2(1e-4, 3528.0, 16292.0)
        assert got == pytest.approx(np.exp(-0.8146) * np.cos(0.3528) ** 2, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_phase_under_a_zero_envelope(self):
        # kappa t overflows where e^(-gamma0 t / 2) is 0: the limit 0, not nan
        assert p1(1e300, 1e10, 1e10) == 0.0
        assert p2(1e300, 1e10, 1e10) == 0.0
        t = np.array([0.0, 1e8, 1e10])
        np.testing.assert_array_equal(p2(t, 1e300, 16292.0), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(p1(t, 1e300, 16292.0), [1.0, 0.0, 0.0])

    def test_p3_weighted_sum(self):
        assert p3(0.0, REF_CAVITY) == pytest.approx(1.0)
        lone = CavityModelParams(kappa1=753.0, kappa2=3528.0, gamma0=16292.0,
                                 w1=0.7, w2=0.0)
        t = 2e-4
        assert p3(t, lone) == pytest.approx(0.7 * p1(t, 753.0, 16292.0), rel=1e-14)

    def test_fast_component_dominates_oscillation(self):
        # symbolic-derivative oracle: the oscillatory part of d(p3)/dt is the
        # derivative of each harmonic factor times the shared envelope, and at
        # matched t the second component's contribution is the larger one
        ts = sympy.symbols("t", positive=True)
        k1, k2 = REF_CAVITY.kappa1, REF_CAVITY.kappa2
        h1 = REF_CAVITY.w1 * (sympy.cos(k1 * ts / sympy.sqrt(2))
                                + sympy.sin(k1 * ts / sympy.sqrt(2))) ** 2
        h2 = REF_CAVITY.w2 * sympy.cos(k2 * ts) ** 2
        d1 = sympy.lambdify(ts, sympy.diff(h1, ts), "numpy")
        d2 = sympy.lambdify(ts, sympy.diff(h2, ts), "numpy")
        window = np.pi / k2
        for k in range(6):
            t = np.linspace(k * window + 1e-9, (k + 1) * window, 200)
            assert np.max(np.abs(d2(t))) > np.max(np.abs(d1(t)))
        # over a full slow period the amplitudes are w2 k2 vs w1 sqrt(2) k1
        t_full = np.linspace(1e-9, 2 * np.pi / (k1 / np.sqrt(2)), 4000)
        assert np.max(np.abs(d2(t_full))) == pytest.approx(
            REF_CAVITY.w2 * k2, rel=1e-3)
        assert np.max(np.abs(d1(t_full))) == pytest.approx(
            REF_CAVITY.w1 * np.sqrt(2) * k1, rel=1e-3)


class TestClassifyRegime:
    def test_measured_rates_are_non_markovian(self):
        result = classify_regime(4281.0, 16292.0)
        assert result.regime == "NonMarkovian"
        assert 4 * 4281.0 == 17124.0 > 16292.0
        assert not result.delta_is_imaginary
        assert result.delta == pytest.approx(math.sqrt(16 * 4281.0**2 - 16292.0**2),
                                             rel=1e-15)

    def test_weak_coupling_is_markovian(self):
        result = classify_regime(1.0, 100.0)
        assert result.regime == "Markovian"
        assert result.delta_is_imaginary
        assert result.delta == pytest.approx(math.sqrt(100.0**2 - 16.0), rel=1e-12)

    def test_boundary(self):
        result = classify_regime(25.0, 100.0)
        assert result.regime == "Boundary"
        assert result.delta == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            kappa, gamma0 = rng.uniform(1.0, 1e5, 2)
            base = classify_regime(kappa, gamma0)
            for s in (1e-6, 0.5, 3.0, 1e6):
                assert classify_regime(s * kappa, s * gamma0).regime == base.regime
            # a power of two scales every rounding with it, down to rates
            # whose squares underflow
            for s in (2.0**-600, 2.0**-400, 2.0**400):
                scaled = classify_regime(s * kappa, s * gamma0)
                assert scaled.regime == base.regime
                assert scaled.delta == s * base.delta

    def test_near_boundary_delta_is_exact(self):
        # 16 kappa^2 - gamma0^2 = 8e8 - 1 exactly, which the squares lose to rounding
        result = classify_regime(1e8, 4e8 - 1)
        assert result.regime == "NonMarkovian"
        assert result.delta == pytest.approx(28284.27122978423, rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_regime(-1.0, 10.0)

    @pytest.mark.parametrize("kappa, gamma0", [(math.nan, 1.0), (math.inf, 1.0),
                                               (1.0, math.nan), (1.0, math.inf)])
    def test_nonfinite_rejected(self, kappa, gamma0):
        with pytest.raises(ValueError, match="finite"):
            classify_regime(kappa, gamma0)
        with pytest.raises(ValueError, match="finite"):
            cavity_p(1e-3, kappa, gamma0)


class TestLorentzian:
    def test_peak(self):
        assert lorentzian_spectral_density(5.0, 5.0, 700.0, 2.0) == pytest.approx(700.0)

    def test_half_width(self):
        assert lorentzian_spectral_density(3.0, 5.0, 700.0, 2.0) == pytest.approx(350.0)

    def test_memoryless_limit(self):
        detune = 1.0
        got = lorentzian_spectral_density(5.0 + detune, 5.0, 700.0, 1e6 * detune)
        assert got == pytest.approx(700.0, rel=1e-12)

    def test_width_positive(self):
        with pytest.raises(ValueError):
            lorentzian_spectral_density(1.0, 1.0, 1.0, 0.0)


class TestMarkovianExponential:
    def test_initial_value(self):
        assert markovian_exponential(0.0, 0.95, 500.0) == pytest.approx(0.95)

    def test_zero_rate_constant(self):
        assert markovian_exponential(2.0, 0.8, 0.0) == pytest.approx(0.8)

    def test_one_third_crossing_length(self):
        # rate 2 mu c / n_r with mu = 0.006/km crosses 1/3 at ln3/(2 mu)
        units = UnitContext()
        mu = 6e-6
        rate = 2 * mu * units.c / units.n_r
        t_star = math.log(3.0) / rate
        assert length_from_time(t_star, units) / 1e3 == pytest.approx(91.5510, abs=1e-3)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            markovian_exponential(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            markovian_exponential(1.0, 0.5, -1.0)


class TestParamsSerialization:
    def test_exact_field_names_round_trip(self):
        # the flat field names of the JSON config and of the fit JSON
        data = {"n_r": 1.47,
                "delta_omega_rad_s": REF_PMD.delta_omega, "d_p1_s_per_sqrt_m": REF_PMD.d_p1,
                "d_p2_s_per_sqrt_m": REF_PMD.d_p2, "mu_per_m": REF_PMD.mu,
                "a1": REF_PMD.a1, "a2": REF_PMD.a2, "sign": REF_PMD.sign,
                "kappa1_per_s": REF_CAVITY.kappa1, "kappa2_per_s": REF_CAVITY.kappa2,
                "gamma0_per_s": REF_CAVITY.gamma0, "w1": REF_CAVITY.w1,
                "w2": REF_CAVITY.w2, "lambda_per_s": REF_CAVITY.lambda_width}
        pmd, cavity, units = dynamics.params_from_dict(data)
        assert pmd == REF_PMD
        assert cavity == REF_CAVITY
        assert units.n_r == 1.47

    def test_lab_unit_constructors(self):
        assert REF_PMD.delta_omega == pytest.approx(2 * np.pi * 200e9)
        assert REF_PMD.d_p2 == pytest.approx(0.047e-12 / math.sqrt(1000.0))
        assert REF_PMD.mu == pytest.approx(6e-6)
        lab = CavityModelParams.from_lab_units(0.753, 3.528, 16.292, 0.5, 0.5)
        assert lab.kappa1 == pytest.approx(753.0)
        assert lab.gamma0 == pytest.approx(16292.0)

    def test_invariant_checks(self):
        with pytest.raises(ValueError):
            PmdModelParams(delta_omega=1.0, d_p1=1.0, d_p2=1.0, mu=0.0,
                           a1=0.0, a2=0.0)
        with pytest.raises(ValueError):
            CavityModelParams(kappa1=-1.0, kappa2=1.0, gamma0=1.0, w1=1.0, w2=0.0)
