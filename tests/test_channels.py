"""Unit tests for the decoherence channels."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbuffer.channels import amplitude_damping_kraus, damp_werner, pmd_operator
from qbuffer.dynamics import prob_pf
from qbuffer.states import apply_operator, make_bell_phi_plus, make_werner, validate
from qbuffer.tomography import estimate_werner_probability, werner_estimators


def closed_form_damped_werner(p: float, xi: float) -> np.ndarray:
    """Closed-form damped Werner matrix the operator sum must reproduce."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = (1 + p) / 4
    rho[1, 1] = (1 - p) * (1 - xi) / 4 + (1 + p) * xi / 4
    rho[2, 2] = (1 - p) / 4
    rho[3, 3] = (1 + p) * (1 - xi) / 4 + (1 - p) * xi / 4
    rho[0, 3] = rho[3, 0] = p * np.sqrt(1 - xi) / 2
    return rho


def kraus_sum(rho: np.ndarray, xi: float) -> np.ndarray:
    """damp_werner's operator sum by the generic conjugation: Gamma0 and the
    H -> V feed F = [[0, 0], [sqrt(xi), 0]], each as I (x) K on the idler."""
    gamma0, _ = amplitude_damping_kraus(xi)
    feed = np.array([[0, 0], [np.sqrt(xi), 0]])
    return apply_operator(rho, gamma0) + apply_operator(rho, feed)


def former_damp_werner(p: float, xi: float) -> np.ndarray:
    """damp_werner as it was before its two square roots became scalars, on
    make_werner's former per-call projector and identity."""
    bell = make_bell_phi_plus()
    rho = p * np.outer(bell, bell.conj()) + (1.0 - p) / 4.0 * np.eye(4, dtype=complex)
    d = np.sqrt([1.0, 1.0 - xi, 1.0, 1.0 - xi])
    out = rho * d[:, None] * d
    out[1::2, 1::2] += rho[::2, ::2] * np.sqrt(xi) * np.sqrt(xi)
    return out


class TestPmdOperator:
    def test_zero_phase_is_identity(self):
        op = pmd_operator(0.0, 0.0)
        np.testing.assert_allclose(op, np.eye(2), atol=1e-15)

    def test_quarter_turn_flips_polarizations(self):
        op = pmd_operator(np.pi / 2, np.pi / 2)
        # H -> V and V -> -H
        np.testing.assert_allclose(op @ [1, 0], [0, 1], atol=1e-15)
        np.testing.assert_allclose(op @ [0, 1], [-1, 0], atol=1e-15)

    def test_unitary_iff_equal_phases(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            phi = rng.uniform(-np.pi, np.pi)
            m = pmd_operator(phi, phi)
            np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12)

    def test_unequal_phases_break_unitarity(self):
        m = pmd_operator(0.1, 0.3)
        deviation = np.abs(m.conj().T @ m - np.eye(2)).max()
        # off-diagonal defect is |sin(dphi_h - dphi_v)|
        assert deviation == pytest.approx(abs(np.sin(0.1 - 0.3)), abs=1e-12)
        assert deviation > 0.1


class TestAmplitudeDampingKraus:
    def test_no_damping(self):
        g0, g1 = amplitude_damping_kraus(0.0)
        np.testing.assert_allclose(g0, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(g1, np.zeros((2, 2)), atol=1e-15)

    def test_full_damping(self):
        g0, g1 = amplitude_damping_kraus(1.0)
        np.testing.assert_allclose(g0, np.diag([1.0, 0.0]), atol=1e-15)
        # V transfers entirely to H
        np.testing.assert_allclose(g1 @ [0, 1], [1, 0], atol=1e-15)

    def test_small_damping_entries(self):
        g0, _ = amplitude_damping_kraus(0.02)
        assert g0[1, 1].real == pytest.approx(np.sqrt(0.98), abs=1e-12)

    @pytest.mark.parametrize("xi", np.linspace(0.0, 1.0, 101))
    def test_completeness_grid(self, xi):
        g0, g1 = amplitude_damping_kraus(xi)
        total = g0.conj().T @ g0 + g1.conj().T @ g1
        assert np.abs(total - np.eye(2)).max() < 1e-12


class TestDampWerner:
    def test_no_damping_returns_werner(self):
        np.testing.assert_allclose(damp_werner(0.8, 0.0), make_werner(0.8),
                                   atol=1e-15)

    def test_corner_coherence(self):
        rho = damp_werner(0.9, 0.02)
        assert rho[0, 3].real == pytest.approx(0.45 * np.sqrt(0.98), abs=1e-12)

    def test_maximally_mixed_fixed_point(self):
        for xi in (0.1, 0.5, 1.0):
            np.testing.assert_allclose(damp_werner(0.0, xi), np.eye(4) / 4,
                                       atol=1e-15)

    def test_closed_form_on_grid(self):
        for p in np.linspace(0.0, 1.0, 21):
            for xi in np.linspace(0.0, 1.0, 21):
                got = damp_werner(p, xi)
                assert np.abs(got - closed_form_damped_werner(p, xi)).max() < 1e-12

    # the count model takes this state unchecked
    @settings(max_examples=500, deadline=None)
    @given(p=st.floats(0.0, 1.0), xi=st.floats(0.0, 1.0))
    @example(p=0.0, xi=0.0)
    @example(p=0.0, xi=1.0)
    @example(p=1.0, xi=0.0)
    @example(p=1.0, xi=1.0)
    def test_valid_state_on_the_unit_square(self, p, xi):
        assert validate(damp_werner(p, xi)).passed

    def test_operator_sum_equivalence(self):
        # generic conjugation machinery reproduces the closed form
        for p, xi in [(0.3, 0.1), (0.9, 0.02), (0.6, 0.7)]:
            rho = make_werner(p)
            brute = kraus_sum(rho, xi)
            assert np.abs(brute - closed_form_damped_werner(p, xi)).max() < 1e-12

    @settings(max_examples=500, deadline=None)
    @given(p=st.floats(0.0, 1.0), xi=st.floats(0.0, 1.0))
    @example(p=0.0, xi=0.0)
    @example(p=1.0, xi=1.0)
    @example(p=5e-324, xi=5e-324)
    @example(p=1 - 2 ** -53, xi=1 - 2 ** -53)
    @example(p=1.0, xi=0.0)
    @example(p=0.0, xi=1.0)
    @example(p=5e-324, xi=1 - 2 ** -53)
    @example(p=1 - 2 ** -53, xi=5e-324)
    @example(p=0.9, xi=0.02)  # the golden tomo state
    @example(p=np.float64(0.3), xi=np.float64(0.2))
    @example(p=0.5, xi=0)
    def test_bytes_equal_the_kraus_sum(self, p, xi):
        # tomo's bytes rest on these bits, not on a tolerance
        got = damp_werner(p, xi).tobytes()
        assert got == kraus_sum(make_werner(p), xi).tobytes()
        assert got == former_damp_werner(p, xi).tobytes()

    @pytest.mark.parametrize("xi", [np.nan, -0.01, 1.01])
    def test_damping_range_checked(self, xi):
        with pytest.raises(ValueError, match=r"^damping probability must lie in \[0, 1\], "
                                             r"got [-\w.]+$"):
            damp_werner(0.5, xi)

    def test_estimator_identities(self):
        # single-element extractors read back p, p(1-2xi) and p sqrt(1-xi)
        for p in np.linspace(0.0, 1.0, 11):
            for xi in np.linspace(0.0, 0.9, 10):
                est = werner_estimators(damp_werner(p, xi))
                assert est.p1 == pytest.approx(p, abs=1e-12)
                assert est.p6 == pytest.approx(p, abs=1e-12)
                assert est.p2 == pytest.approx(p * (1 - 2 * xi), abs=1e-12)
                assert est.p5 == pytest.approx(p * (1 - 2 * xi), abs=1e-12)
                assert est.p3 == pytest.approx(p * np.sqrt(1 - xi), abs=1e-12)
                assert est.p4 == pytest.approx(p * np.sqrt(1 - xi), abs=1e-12)

    def test_estimator_average(self):
        for p, xi in [(0.9, 0.02), (0.5, 0.3)]:
            avg = estimate_werner_probability(damp_werner(p, xi))
            assert avg == pytest.approx(p * (4 - 4 * xi + 2 * np.sqrt(1 - xi)) / 6,
                                        abs=1e-12)


class TestAttenuation:
    """Two-pass fiber attenuation exp(-2 mu L): prob_pf at zero PMD phase."""

    def test_zero_length(self):
        assert prob_pf(0.0, 0.0, 1.0, 0.0) == 1.0

    def test_zero_loss(self):
        assert prob_pf(0.0, 0.0, 0.0, 5e5) == 1.0

    def test_buffer_scale_value(self):
        # exp(-2 * 6e-6 * 190e3) = exp(-2.28)
        assert prob_pf(0.0, 0.0, 6.0e-6, 190_000.0) == pytest.approx(
            np.exp(-2.28), rel=1e-12)
        assert prob_pf(0.0, 0.0, 6.0e-6, 190_000.0) == pytest.approx(0.102284, abs=5e-7)
