"""Unit tests for the two-qubit state layer."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbuffer import states
from qbuffer.states import (apply_operator, make_bell_phi_plus, make_werner,
                            rho_to_pairs, validate)


def matrices(entries):
    return st.lists(entries, min_size=32, max_size=32).map(
        lambda x: (np.array(x[:16]) + 1j * np.array(x[16:])).reshape(4, 4))


MATRIX = matrices(st.floats(allow_nan=False, allow_infinity=False))
# entries whose Gram matrices stay finite, as an eigensolver needs
BOUNDED = matrices(st.floats(-1e150, 1e150))


def former_make_werner(p):
    """make_werner as it was before the projector and identity were built at import."""
    bell = make_bell_phi_plus()
    return p * np.outer(bell, bell.conj()) + (1.0 - p) / 4.0 * np.eye(4, dtype=complex)


def former_validate(rho):
    """validate's three residuals as they were before the adjoint was formed once."""
    rho = np.asarray(rho, dtype=complex)
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    trace = float(abs(rho.trace() - 1.0))
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    return herm, trace, min_eig


class TestBellState:
    def test_amplitudes(self):
        psi = make_bell_phi_plus()
        np.testing.assert_allclose(psi, [0.70710678, 0, 0, 0.70710678], atol=1e-8)

    def test_normalized(self):
        psi = make_bell_phi_plus()
        assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-15)

    def test_projector_equals_werner_at_one(self):
        psi = make_bell_phi_plus()
        np.testing.assert_allclose(np.outer(psi, psi.conj()), make_werner(1.0),
                                   atol=1e-15)


class TestWerner:
    def test_maximally_mixed_at_zero(self):
        np.testing.assert_allclose(make_werner(0.0), np.eye(4) / 4.0, atol=1e-15)

    def test_half_mixture_entries(self):
        w = make_werner(0.5)
        np.testing.assert_allclose(np.diag(w).real, [0.375, 0.125, 0.125, 0.375],
                                   atol=1e-15)
        assert w[0, 3] == pytest.approx(0.25, abs=1e-15)
        assert w[3, 0] == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 101))
    def test_valid_on_grid(self, p):
        assert validate(make_werner(p)).passed

    @pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
    def test_out_of_range_rejected(self, p):
        with pytest.raises(ValueError):
            make_werner(p)

    @settings(max_examples=300, deadline=None)
    @given(p=st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1.0).map(np.float64),
                       st.sampled_from((0, 1, True))))
    @example(p=5e-324)
    @example(p=1 - 2 ** -53)
    def test_bytes_equal_the_former_form(self, p):
        got, want = make_werner(p), former_make_werner(p)
        assert got.dtype == want.dtype == complex
        assert got.tobytes() == want.tobytes()


class TestValidate:
    def test_reports_trace_deficit(self):
        rho = 0.9 * make_werner(0.7)
        report = validate(rho)
        assert not report.passed
        assert report.trace_residual == pytest.approx(0.1, abs=1e-12)

    def test_reports_negative_eigenvalue(self):
        # shifting the Bell projector down by 1e-3 I pushes three eigenvalues
        # to exactly -1e-3
        psi = make_bell_phi_plus()
        rho = np.outer(psi, psi.conj()) - 1e-3 * np.eye(4)
        report = validate(rho)
        assert report.min_eigenvalue == pytest.approx(-1e-3, abs=1e-12)
        assert report.min_eigenvalue < states.MIN_EIGENVALUE
        assert not report.passed

    def test_reports_hermiticity(self):
        rho = make_werner(0.5).copy()
        rho[0, 1] = 1e-6
        report = validate(rho)
        assert report.hermiticity_residual == pytest.approx(1e-6, abs=1e-15)
        assert report.hermiticity_residual > states.HERMITICITY_TOL
        assert not report.passed

    def test_passes_physical_state(self):
        assert validate(make_werner(0.7)).passed

    @settings(max_examples=300, deadline=None)
    @given(rho=st.one_of(BOUNDED, BOUNDED.map(lambda a: a @ a.conj().T),
                         st.floats(0.0, 1.0).map(make_werner)))
    @example(rho=np.zeros((4, 4)))
    @example(rho=np.eye(4, dtype=int))
    @example(rho=make_werner(0.5).T)  # not C-contiguous
    def test_residuals_equal_the_former_form(self, rho):
        report, want = validate(rho), former_validate(rho)
        got = (report.hermiticity_residual, report.trace_residual, report.min_eigenvalue)
        assert [x.hex() for x in got] == [x.hex() for x in want]  # tells -0.0 from 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_a_nonfinite_entry_fails_with_nan_residuals(self, value, part):
        # at every position, without a warning or an eigensolver error
        for position in np.ndindex(4, 4):
            rho = make_werner(0.5)
            rho[position] = complex(value, 0.0) if part == "real" else complex(0.0, value)
            report = validate(rho)
            assert not report.passed
            assert np.isnan([report.hermiticity_residual, report.trace_residual,
                             report.min_eigenvalue]).all()

    def test_finite_entries_that_overflow_fail_without_raising(self):
        # the symmetrized matrix would overflow: the report fails where the
        # eigensolver used to raise, without a numpy warning
        report = validate(np.full((4, 4), 1e308))
        assert not report.passed and np.isnan(report.min_eigenvalue)

    @pytest.mark.parametrize("rho", [np.ones((1, 1), dtype=complex),
                                     np.eye(2, dtype=complex) / 2,
                                     np.zeros((0, 0), dtype=complex),
                                     np.full(4, 0.25, dtype=complex),
                                     np.eye(8, dtype=complex) / 8])
    def test_a_matrix_not_4x4_fails_with_nan_residuals(self, rho):
        # a unit-trace positive matrix of another shape is not a two-qubit state
        report = validate(rho)
        assert not report.passed
        assert np.isnan([report.hermiticity_residual, report.trace_residual,
                         report.min_eigenvalue]).all()


class TestApplyOperator:
    def test_identity_leaves_state(self):
        rho = make_werner(0.6)
        np.testing.assert_allclose(apply_operator(rho, np.eye(2)), rho, atol=1e-15)

    def test_quarter_turn_flips_idler(self):
        # 90 degree rotation sends |HH><HH| to |HV><HV|
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        out = apply_operator(rho, rot)
        expect = np.zeros((4, 4))
        expect[1, 1] = 1.0
        np.testing.assert_allclose(out, expect, atol=1e-15)

    def test_kraus_pair_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            xi = rng.uniform(0, 1)
            g0 = np.diag([1.0, np.sqrt(1 - xi)])
            g1 = np.array([[0, np.sqrt(xi)], [0, 0]])
            rho = make_werner(rng.uniform(0, 1))
            out = apply_operator(rho, g0) + apply_operator(rho, g1)
            assert np.real(out.trace()) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(out, out.conj().T, atol=1e-12)


def old_json_rows(rho):
    """The pair form as the report held it before: each part through float(),
    written as JSON text and read back."""
    return json.loads(json.dumps([[[float(z.real), float(z.imag)] for z in row]
                                  for row in np.asarray(rho, dtype=complex)]))


class TestSerialization:
    def test_round_trip(self):
        rho = make_werner(0.37)
        rho = rho.astype(complex)
        rho[0, 3] += 0.01j
        rho[3, 0] -= 0.01j
        # row-major nested lists of [re, im] pairs
        again = np.array([[complex(re, im) for re, im in row]
                          for row in rho_to_pairs(rho)])
        np.testing.assert_allclose(again, rho, atol=1e-15)

    def test_pairs_equal_the_json_round_trip(self):
        parts = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.25, -1 / 3])
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = np.empty((4, 4), dtype=complex)
            rho.real, rho.imag = rng.choice(parts, (2, 4, 4))
            got = rho_to_pairs(rho)
            # repr tells -0.0 from 0.0, which == does not
            assert repr(got) == repr(old_json_rows(rho))
            assert all(type(x) is float for row in got for pair in row for x in pair)

    @settings(max_examples=300, deadline=None)
    @given(rho=st.one_of(MATRIX, MATRIX.map(lambda a: a.T), MATRIX.map(lambda a: a.real)))
    def test_pairs_equal_the_stacked_parts(self, rho):
        # the form before the pairs were read from the complex array's memory;
        # a transposed view and a real matrix take the same path
        want = np.stack((rho.real, rho.imag), -1).tolist()
        assert repr(rho_to_pairs(rho)) == repr(want)


class TestProductKets:
    def test_diagonal_convention(self):
        np.testing.assert_allclose(states.KET_D, [1 / np.sqrt(2), 1 / np.sqrt(2)])
        np.testing.assert_allclose(states.KET_R, [1 / np.sqrt(2), -1j / np.sqrt(2)])
        np.testing.assert_allclose(states.KET_L, [1 / np.sqrt(2), 1j / np.sqrt(2)])
