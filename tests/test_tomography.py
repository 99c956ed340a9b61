"""Unit tests for count simulation and state reconstruction."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qbuffer import _optimize, states, tomography
from qbuffer.channels import damp_werner
from qbuffer.states import make_bell_phi_plus, make_werner, product_ket, validate
from qbuffer.tomography import (PAIR_RATE, SETTINGS, TomographyError,
                                TomographyRecord, estimate_werner_probability,
                                expected_counts, fidelity, linear_inversion,
                                reconstruct_mle, records_to_csv, simulate_counts,
                                subtract_accidentals, trace_distance,
                                werner_estimators)

GATES = 100_000_000  # 1e5 expected pairs per setting at the default pair rate


def reference_born(psi, op):
    """The per-setting Born rule the import-time tables replaced."""
    return float(np.real(psi.conj() @ op @ psi))


def reference_design(settings_):
    """The row-by-row, basis-by-basis product loop the design table replaced."""
    return np.array([[reference_born(product_ket(*s), basis) for basis in tomography._HERM_BASIS]
                     for s in settings_])


def row(signal, idler):
    """Position of a setting in ``SETTINGS`` and in every per-setting array."""
    return SETTINGS.index((signal, idler))


def adversarial_counts():
    # counts whose linear inversion has a negative eigenvalue
    counts = np.zeros(16)
    counts[[row("H", "H"), row("V", "V")]] = 1000.0
    counts[[row("D", "D"), row("R", "R")]] = 1500.0
    return counts


def uniform_record(coincidences, accidentals, gates):
    """A record whose 16 settings all hold the same counts."""
    return TomographyRecord(np.full(16, coincidences), np.full(16, accidentals), gates)


def same_record(a, b):
    """Bit-for-bit equality of two records."""
    return (a.coincidences.tobytes() == b.coincidences.tobytes()
            and a.accidentals.tobytes() == b.accidentals.tobytes() and a.gates == b.gates)


@st.composite
def random_states(draw):
    """Density matrices A A^dag / tr from 32 bounded real entries."""
    x = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32)))
    a = (x[:16] + 1j * x[16:]).reshape(4, 4)
    gram = a @ a.conj().T
    trace = np.real(gram.trace())
    return gram / trace if trace > 1e-3 else np.eye(4, dtype=complex) / 4


DAMPED_WERNER = st.builds(damp_werner, st.floats(0.0, 1.0), st.floats(0.0, 1.0))

LBFGSB_OPTIONS = {"maxiter": 10_000, "maxfun": 40_000, "ftol": 1e-15, "gtol": 1e-10}


def reference_objective(counts):
    """The MLE objective in the form it had before its gradient dropped two
    ``conj`` calls and the ``2.0 *``: (f, gradient) of the 16 T parameters."""
    kets = tomography._KETS

    def objective(theta):
        t = tomography._t_from_params(theta)
        u = kets @ t.T
        m = np.maximum((np.abs(u) ** 2).sum(axis=1), 1e-300)
        g_mat = np.einsum("k,kr,kc->rc", 1.0 - counts / m, u.conj(), kets)
        return float((m - counts * np.log(m)).sum()), tomography._params_from_t(2.0 * g_mat.conj())

    return objective


def reference_mle(counts):
    """``reconstruct_mle``'s solver path run on every record, PSD linear
    inversions included: L-BFGS-B with the options it has always had, from the
    linear inversion clipped at 1e-6 (I/4 without rectilinear counts)."""
    counts = np.asarray(counts, dtype=float)
    kets = tomography._KETS
    objective = reference_objective(counts)
    try:
        eigvals, eigvecs = np.linalg.eigh(linear_inversion(counts))
        rho0 = (eigvecs * np.maximum(eigvals, 1e-6)) @ eigvecs.conj().T
        rho0 /= np.real(rho0.trace())
    except TomographyError:
        rho0 = np.eye(4, dtype=complex) / 4.0
    probs0 = np.maximum(np.real(np.einsum("ki,ij,kj->k", kets.conj(), rho0, kets)), 1e-12)
    theta0 = tomography._params_from_t(tomography._lower_factor(counts.sum() / probs0.sum() * rho0))
    result = scipy.optimize.minimize(objective, theta0, jac=True, method="L-BFGS-B",
                                     options=LBFGSB_OPTIONS)
    converged = bool(result.success) or float(np.linalg.norm(result.jac)) < 1e-8
    rho_hat = tomography._rho_from_t(tomography._t_from_params(result.x))
    return tomography.ReconstructionResult(rho_hat, -result.fun, int(result.nit), converged)


def reference_simulate_counts(rho, n_gates, accidental_rate, seed):
    """The 48 scalar draws, three per setting, that one array draw replaced."""
    acc_mean = n_gates * accidental_rate
    rng = np.random.default_rng(seed)
    coincidences, accidentals = [], []
    for setting in SETTINGS:
        mean = n_gates * PAIR_RATE * max(reference_born(product_ket(*setting), rho), 0.0)
        true_counts = rng.poisson(mean)
        acc_in_window = rng.poisson(acc_mean)
        acc_estimate = rng.poisson(acc_mean)
        cc = min(int(true_counts + acc_in_window), n_gates)
        coincidences.append(float(cc))
        accidentals.append(float(min(int(acc_estimate), n_gates)))
    return TomographyRecord(coincidences, accidentals, n_gates)


def reference_basis_sum(coeffs):
    """The ordered Python ``sum`` of 16 basis products that one reduction replaced."""
    return sum(c * b for c, b in zip(coeffs, tomography._HERM_BASIS))


def seeded_counts(p, xi, seed):
    return subtract_accidentals(simulate_counts(damp_werner(p, xi), GATES, 1e-6, seed))


def reference_t_from_params(theta):
    """The diag/tril/complex-add packing the slot table replaced."""
    t = np.zeros((4, 4), dtype=complex)
    t[np.diag_indices(4)] = theta[:4]
    t[np.tril_indices(4, -1)] = theta[4::2] + 1j * theta[5::2]
    return t


def reference_params_from_t(t):
    """The diag-plus-slices unpacking the slot table replaced."""
    lower = np.tril_indices(4, -1)
    theta = np.empty(16)
    theta[:4] = np.real(np.diag(t))
    theta[4::2] = t[lower].real
    theta[5::2] = t[lower].imag
    return theta


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# a T parameter before scaling: 0, or a magnitude in [1e-3, 1] of either sign
T_ENTRY = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
RANK_ONE = [0.0, 0.0, 0.0, 0.5] + [0.0] * 6 + [0.3, -0.2, 0.1, 0.7, -0.4, 0.25]  # row 3 only


class TestSettingsAndProjectors:
    def test_sixteen_distinct(self):
        assert len(SETTINGS) == 16
        assert len(set(SETTINGS)) == 16

    def test_projector_examples(self):
        np.testing.assert_allclose(tomography._KETS[row("H", "H")],
                                   [1, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(tomography._KETS[row("D", "D")],
                                   [0.5, 0.5, 0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(tomography._KETS[row("R", "R")],
                                   [0.5, -0.5j, -0.5j, -0.5], atol=1e-15)

    def test_informationally_complete(self):
        a = tomography._DESIGN
        assert np.linalg.matrix_rank(a) == 16
        assert np.linalg.cond(a) < 1e4

    def test_ket_table_rows_are_projectors(self):
        assert tomography._KETS.shape == (16, 4)
        for k, setting in enumerate(SETTINGS):
            assert np.array_equal(tomography._KETS[k], product_ket(*setting))

    def test_design_matrix_equals_product_loop(self):
        # the design table's rows are the settings in SETTINGS order
        assert tomography._DESIGN.tobytes() == reference_design(SETTINGS).tobytes()


class TestSimulateCounts:
    def test_deterministic_per_seed(self):
        rho = make_werner(0.8)
        a = simulate_counts(rho, GATES, 1e-6, seed=42)
        b = simulate_counts(rho, GATES, 1e-6, seed=42)
        assert same_record(a, b)
        c = simulate_counts(rho, GATES, 1e-6, seed=43)
        assert not same_record(a, c)

    def test_orthogonal_setting_sees_only_accidentals(self):
        bell = np.outer(make_bell_phi_plus(), make_bell_phi_plus().conj())
        record = simulate_counts(bell, GATES, 0.0, seed=1)
        assert record.coincidences[row("H", "V")] == 0
        assert record.coincidences[row("V", "H")] == 0

    def test_uniform_state_rates(self):
        record = simulate_counts(np.eye(4) / 4, GATES, 0.0, seed=5)
        # every setting projects with probability 1/4
        np.testing.assert_allclose(record.coincidences, GATES * 1e-3 / 4, rtol=0.02)

    def test_rejects_invalid_state(self):
        with pytest.raises(ValueError):
            simulate_counts(np.eye(4), GATES, 0.0, seed=1)

    @settings(max_examples=200, deadline=None)
    @given(rho=st.one_of(DAMPED_WERNER, random_states()), gates=st.integers(1, 2**53),
           acc_rate=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
           seed=st.integers(0, 2**64 - 1))
    # the delayed-gate estimate of a 9.999 mean exceeds 10 gates on 6 settings
    @example(rho=np.eye(4) / 4, gates=10, acc_rate=0.9999, seed=1)
    def test_equals_per_setting_draw_loop(self, rho, gates, acc_rate, seed):
        assert same_record(simulate_counts(rho, gates, acc_rate, seed),
                           reference_simulate_counts(rho, gates, acc_rate, seed))

    def test_expected_counts_noise_free(self):
        record = expected_counts(make_werner(0.75), GATES, accidental_rate=1e-6)
        hh = row("H", "H")
        assert record.coincidences[hh] == pytest.approx(GATES * 1e-3 * (1.75 / 4) + GATES * 1e-6)
        assert record.accidentals[hh] == pytest.approx(GATES * 1e-6)

    @settings(max_examples=200, deadline=None)
    @given(rho=st.one_of(DAMPED_WERNER, random_states()),
           acc_rate=st.sampled_from((0.0, 1e-6)))
    def test_expected_counts_equal_per_setting_born_rule(self, rho, acc_rate):
        acc = GATES * acc_rate
        record = expected_counts(rho, GATES, acc_rate)
        for setting, coincidences, accidentals in zip(SETTINGS, record.coincidences,
                                                      record.accidentals):
            want = GATES * PAIR_RATE * max(reference_born(product_ket(*setting), rho), 0.0) + acc
            assert coincidences == want
            assert accidentals == acc


class TestSubtractAccidentals:
    def test_plain_subtraction(self):
        counts = subtract_accidentals(uniform_record(100, 20, 10_000))
        assert counts.shape == (16,) and np.all(counts == 80)

    def test_clamped_at_zero(self):
        assert np.all(subtract_accidentals(uniform_record(5, 9, 10_000)) == 0)
        # -0.0 - 0.0 clamps to +0.0, as Python's max(0.0, x) did per setting
        assert not np.signbit(subtract_accidentals(uniform_record(-0.0, 0.0, 10))).any()

    def test_no_accidentals_unchanged(self):
        record = expected_counts(make_werner(0.5), GATES)
        assert subtract_accidentals(record).tobytes() == record.coincidences.tobytes()


class TestLinearInversion:
    def test_recovers_werner(self):
        counts = subtract_accidentals(expected_counts(make_werner(0.8), GATES))
        rho = linear_inversion(counts)
        assert np.abs(rho - make_werner(0.8)).max() < 1e-10

    def test_recovers_bell(self):
        bell = np.outer(make_bell_phi_plus(), make_bell_phi_plus().conj())
        counts = subtract_accidentals(expected_counts(bell, GATES))
        rho = linear_inversion(counts)
        assert np.abs(rho - bell).max() < 1e-10

    def test_uniform_counts_give_maximally_mixed(self):
        rho = linear_inversion(np.full(16, 1000.0))
        assert np.abs(rho - np.eye(4) / 4).max() < 1e-10

    def test_duplicate_setting_rejected(self):
        # 17 counts, a complete set plus one repeat: each position is a setting,
        # so there is no place for the repeat
        for solve in (linear_inversion, reconstruct_mle):
            with pytest.raises(ValueError, match=r"^counts must hold 16 entries, one per setting"):
                solve(np.append(np.full(16, 100.0), 100.0))

    def test_degenerate_settings_rejected(self):
        # 16 counts, but as a 4x4 grid and not one per setting in SETTINGS order
        for solve in (linear_inversion, reconstruct_mle):
            with pytest.raises(ValueError, match=r"got \(4, 4\)$"):
                solve(np.full((4, 4), 100.0))

    def test_missing_rectilinear_quartet_rejected(self):
        # the H/V quartet provides the pair-number normalization; 15 counts
        # are a wrong shape
        counts = np.full(16, 100.0)
        counts[[row("H", "H"), row("H", "V"), row("V", "H"), row("V", "V")]] = 0.0
        with pytest.raises(TomographyError, match="rectilinear counts must be positive"):
            linear_inversion(counts)
        with pytest.raises(ValueError, match=r"got \(15,\)$"):
            linear_inversion(counts[1:])

    @settings(max_examples=500, deadline=None)
    @given(coeffs=st.lists(st.one_of(FINITE, st.sampled_from((0.0, -0.0, 1e300, -1e-300))),
                           min_size=16, max_size=16))
    @example(coeffs=[-0.0] * 16)
    @example(coeffs=[0.0] * 16)
    @example(coeffs=[0.25, -0.0, 0.0, -0.0] * 4)
    @example(coeffs=[1e300, -1e300, 1e-300, -0.0] * 4)
    def test_basis_sum_equals_ordered_sum(self, coeffs):
        coeffs = np.array(coeffs)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = tomography._basis_sum(coeffs), reference_basis_sum(coeffs)
        assert got.dtype == want.dtype == complex
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(counts=st.one_of(
        st.builds(lambda rho, seed: subtract_accidentals(simulate_counts(rho, GATES, 1e-6, seed)),
                  random_states(), st.integers(0, 2**32 - 1)),
        st.lists(st.floats(0.0, 1e290), min_size=16, max_size=16).map(lambda counts: np.array([
            max(c, 1.0) if signal in "HV" and idler in "HV" else c
            for (signal, idler), c in zip(SETTINGS, counts)]))))
    def test_exactly_hermitian(self, counts):
        # real coefficients times the exactly Hermitian basis sum to an exactly
        # Hermitian matrix, with no symmetrizing step
        rho = linear_inversion(counts)
        assert np.array_equal(rho, rho.conj().T)

    def test_can_return_unphysical_matrix(self):
        # crafted counts push an eigenvalue negative; the oracle must not hide it
        rho = linear_inversion(adversarial_counts())
        assert np.linalg.eigvalsh(rho)[0] < -1e-3
        assert np.real(rho.trace()) == pytest.approx(1.0, abs=1e-12)


class TestReconstructMle:
    def test_noiseless_bell_fidelity(self):
        bell_vec = make_bell_phi_plus()
        bell = np.outer(bell_vec, bell_vec.conj())
        result = reconstruct_mle(subtract_accidentals(expected_counts(bell, GATES)))
        assert result.converged
        assert np.real(bell_vec.conj() @ result.rho_hat @ bell_vec) >= 0.9999

    def test_noiseless_werner_round_trip(self):
        counts = subtract_accidentals(expected_counts(make_werner(0.75), GATES))
        result = reconstruct_mle(counts)
        assert estimate_werner_probability(result.rho_hat) == pytest.approx(0.75,
                                                                            abs=1e-4)
        oracle = linear_inversion(counts)
        assert trace_distance(result.rho_hat, oracle) < 1e-6

    def test_output_always_physical(self):
        result = reconstruct_mle(adversarial_counts())
        assert validate(result.rho_hat).passed

    def test_poisson_noise_fidelity(self):
        truth = make_werner(0.9)
        good = 0
        for seed in range(20):
            record = simulate_counts(truth, GATES, 0.0, seed=seed)
            result = reconstruct_mle(subtract_accidentals(record))
            assert result.converged
            if fidelity(truth, result.rho_hat) >= 0.995:
                good += 1
        assert good >= 18

    def test_all_zero_counts_rejected(self):
        with pytest.raises(TomographyError):
            reconstruct_mle(np.zeros(16))

    def test_zero_rectilinear_counts_start_maximally_mixed(self, monkeypatch):
        # no linear inversion without the H/V quartet: the MLE starts from I/4
        # and the solver moves it
        seen = {}

        def spy(fun, x0):
            seen["x0"] = x0
            return _optimize.minimize(fun, x0)

        monkeypatch.setattr(tomography, "minimize", spy)
        counts = np.full(16, 100.0)
        counts[[row("H", "H"), row("H", "V"), row("V", "H"), row("V", "V")]] = 0.0
        result = reconstruct_mle(counts)
        start = tomography._rho_from_t(tomography._t_from_params(seen["x0"]))
        assert np.abs(start - np.eye(4) / 4).max() < 1e-12
        assert validate(result.rho_hat).passed

    @pytest.mark.parametrize("counts", [
        pytest.param(seeded_counts(p, xi, seed), id=f"P{p}-xi{xi}-seed{seed}")
        for p, xi, seed in [(0.3, 0.1, 5), (0.5, 0.0, 12345), (0.9, 0.02, 12345),
                            (0.95, 0.0, 7), (1.0, 0.0, 3), (0.99, 0.02, 4)]
    ] + [
        pytest.param(subtract_accidentals(expected_counts(damp_werner(0.8, 0.05), GATES,
                                                          1e-6)), id="exact-P0.8"),
        pytest.param(subtract_accidentals(expected_counts(damp_werner(1.0, 0.0), GATES)),
                     id="exact-P1.0"),
        pytest.param(adversarial_counts(), id="adversarial"),
    ])
    def test_equals_solver_that_always_runs(self, counts):
        # a PSD linear inversion is returned as is: the solver's 0-iteration
        # answer to rounding; every other record takes the solver's path bit
        # for bit
        got, want = reconstruct_mle(counts), reference_mle(counts)
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        if np.linalg.eigvalsh(linear_inversion(counts))[0] >= 0:
            assert np.abs(got.rho_hat - want.rho_hat).max() <= 1e-15
            assert abs(got.log_likelihood - want.log_likelihood) <= 1e-15 * abs(want.log_likelihood)
        else:
            assert got.rho_hat.tobytes() == want.rho_hat.tobytes()
            assert got.log_likelihood.hex() == want.log_likelihood.hex()

    @settings(max_examples=300, deadline=None)
    @given(p=st.floats(0.0, 1.0), xi=st.floats(0.0, 1.0), acc_rate=st.sampled_from((0.0, 1e-6)))
    @example(p=1.0 - 1e-9, xi=0.0, acc_rate=1e-6)
    @example(p=1.0 - 1e-9, xi=0.1, acc_rate=0.0)
    @example(p=0.9, xi=1.0 - 1e-9, acc_rate=1e-6)
    def test_exact_full_rank_record_is_its_truth(self, p, xi, acc_rate):
        # a full-rank truth's exact record inverts to a PSD matrix, the truth,
        # returned without iterating; a solver started from the linear
        # inversion clipped at 1e-6 moves a truth with an eigenvalue below that
        truth = damp_werner(p, xi)
        assume(np.linalg.eigvalsh(truth)[0] >= 1e-12)
        result = reconstruct_mle(subtract_accidentals(expected_counts(truth, GATES, acc_rate)))
        assert result.iterations == 0
        assert np.abs(result.rho_hat - truth).max() <= 1e-14

    def test_solver_called_only_when_the_start_iterates(self, monkeypatch):
        class Called(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Called

        monkeypatch.setattr(tomography, "minimize", refuse)
        result = reconstruct_mle(seeded_counts(0.5, 0.0, 12345))  # interior
        assert (result.iterations, result.converged) == (0, True)
        with pytest.raises(Called):  # the known 195-iteration boundary record
            reconstruct_mle(seeded_counts(0.99, 0.0, 12345))

    def test_objective_not_reevaluated_after_the_solver(self, monkeypatch):
        # the solver's nfev and one unpacking of its result into rho_hat:
        # each evaluation unpacks T once, into the buffer the spy forwards
        unpacked, seen, t_from_params = [], {}, tomography._t_from_params

        def spy(fun, x0):
            seen["result"] = _optimize.minimize(fun, x0)
            return seen["result"]

        monkeypatch.setattr(tomography, "_t_from_params",
                            lambda *args: unpacked.append(1) or t_from_params(*args))
        monkeypatch.setattr(tomography, "minimize", spy)
        reconstruct_mle(seeded_counts(0.99, 0.0, 12345))
        assert len(unpacked) == seen["result"].nfev + 1

    def test_known_boundary_failure(self, monkeypatch):
        # bench/test_qbbench.py::test_known_failure_is_counted counts this
        # record as a failed item: its L-BFGS-B stops unconverged
        seen = {}

        def spy(fun, x0):
            seen["result"] = _optimize.minimize(fun, x0)
            return seen["result"]

        monkeypatch.setattr(tomography, "minimize", spy)
        result = reconstruct_mle(seeded_counts(0.99, 0.0, 12345))
        assert (result.iterations, seen["result"].nfev, result.converged) == (195, 247, False)

    @pytest.mark.parametrize("p, iterations", [(0.5, 0), (0.99, 195)],
                             ids=["interior", "boundary"])
    def test_rho_hat_is_not_validated_again(self, monkeypatch, p, iterations):
        # T^dag T over its trace is a state by construction (TestRhoFromT)
        counts = seeded_counts(p, 0.0, 12345)

        def refuse(rho):
            raise AssertionError("reconstruct_mle checked a density matrix")

        monkeypatch.setattr(states, "validate", refuse)
        monkeypatch.setattr(states, "require_valid", refuse)
        monkeypatch.setattr(tomography, "require_valid", refuse)
        assert reconstruct_mle(counts).iterations == iterations

    def test_gradient_matches_central_differences(self, monkeypatch):
        # a swapped (re, im) pair would still converge, so check the gradient
        # itself: capture the objective L-BFGS-B is handed
        seen = {}

        def spy(fun, x0):
            seen["fun"], seen["x0"] = fun, x0
            return _optimize.minimize(fun, x0)

        monkeypatch.setattr(tomography, "minimize", spy)
        reconstruct_mle(adversarial_counts())  # unphysical start: a large gradient
        fun, x0 = seen["fun"], seen["x0"]
        rng = np.random.default_rng(7)
        spread = 0.3 * np.abs(x0).max()
        for theta in [x0, *(x0 + rng.normal(scale=spread, size=(3, 16)))]:
            _, grad = fun(theta)
            h = 1e-5 * np.abs(theta).max()
            numeric = np.array([(fun(theta + h * e)[0] - fun(theta - h * e)[0]) / (2 * h)
                                for e in np.eye(16)])
            assert np.linalg.norm(grad - numeric) <= 1e-6 * np.linalg.norm(grad)

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(0.99, 1.0), xi=st.floats(0.0, 0.05), seed=st.integers(0, 2**31 - 1),
           theta=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
           scale=st.floats(-3.0, 3.0))
    @example(p=0.99, xi=0.0, seed=12345, theta=[0.5] * 16, scale=0.0)
    def test_objective_is_the_reference_form(self, p, xi, seed, theta, scale):
        # f and the gradient keep their bits at random points of a boundary
        # record's objective, far from the solver's path as well as on it
        class Captured(Exception):
            pass

        def capture(fun, x0):
            seen["fun"] = fun
            raise Captured

        counts, seen = seeded_counts(p, xi, seed), {}
        saved, tomography.minimize = tomography.minimize, capture
        try:
            reconstruct_mle(counts)
        except Captured:
            pass
        finally:
            tomography.minimize = saved
        assume("fun" in seen)  # a PSD linear inversion calls no solver
        theta = np.array(theta) * 10.0**scale
        (f, g), (f_ref, g_ref) = seen["fun"](theta), reference_objective(counts)(theta)
        assert (f.hex(), g.tobytes()) == (f_ref.hex(), g_ref.tobytes())


class TestTLayout:
    @settings(max_examples=200, deadline=None)
    @given(theta=st.lists(FINITE, min_size=16, max_size=16))
    def test_t_from_params_equals_reference(self, theta):
        theta = np.array(theta)
        t = tomography._t_from_params(theta)
        assert t.shape == (4, 4) and t.dtype == complex
        assert np.array_equal(t, reference_t_from_params(theta))
        assert tomography._params_from_t(t).tobytes() == theta.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(parts=st.lists(FINITE, min_size=32, max_size=32))
    def test_params_from_t_equals_reference(self, parts):
        # a full matrix, as the gradient hands it over: the upper triangle and
        # the diagonal's imaginary parts are not parameters
        t = np.array(parts[:16]).reshape(4, 4) + 1j * np.array(parts[16:]).reshape(4, 4)
        want = reference_params_from_t(t)
        assert np.array_equal(tomography._params_from_t(t), want)
        assert np.array_equal(tomography._params_from_t(np.asfortranarray(t)), want)


class TestRhoFromT:
    @settings(max_examples=500, deadline=None)
    @given(entries=st.lists(T_ENTRY, min_size=16, max_size=16),
           scale=st.integers(-100, 100))
    @example(entries=[1.0] + [0.0] * 15, scale=0)  # one nonzero diagonal entry
    @example(entries=[0.0] * 15 + [1.0], scale=-100)  # one strictly-lower entry
    @example(entries=RANK_ONE, scale=0)
    @example(entries=RANK_ONE, scale=100)
    @example(entries=RANK_ONE, scale=-100)
    def test_any_nonzero_t_gives_a_state(self, entries, scale):
        # why reconstruct_mle returns rho_hat unchecked: every finite nonzero T
        # passes the density-matrix contract, at any scale and any rank
        theta = np.array(entries) * 10.0 ** scale
        assume(theta.any())
        rho = tomography._rho_from_t(tomography._t_from_params(theta))
        assert validate(rho).passed


class TestWernerExtraction:
    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 21))
    def test_identity_on_werner(self, p):
        assert estimate_werner_probability(make_werner(p)) == pytest.approx(p,
                                                                            abs=1e-12)

    def test_maximally_mixed_gives_zero(self):
        assert estimate_werner_probability(np.eye(4) / 4) == pytest.approx(0.0,
                                                                           abs=1e-12)

    def test_damped_state_average_identity(self):
        for p in (0.3, 0.9):
            for xi in (0.01, 0.04, 0.3):
                got = estimate_werner_probability(damp_werner(p, xi))
                expect = p * (4 - 4 * xi + 2 * np.sqrt(1 - xi)) / 6
                assert got == pytest.approx(expect, abs=1e-12)

    def test_strictly_decreasing_in_damping(self):
        xis = np.linspace(0.0, 1.0, 40)
        for p in (0.25, 0.75, 1.0):
            vals = [estimate_werner_probability(damp_werner(p, xi)) for xi in xis]
            assert np.all(np.diff(vals) < 0)

    def test_imaginary_residual_reported(self):
        rho = make_werner(0.6).astype(complex)
        rho[0, 3] += 1e-3j
        rho[3, 0] -= 1e-3j
        est = werner_estimators(rho)
        assert est.imag_residual == pytest.approx(1e-3, abs=1e-12)


class TestStateFunctionals:
    def test_fidelity_of_identical_states(self):
        w = make_werner(0.37)
        assert fidelity(w, w) == pytest.approx(1.0, abs=1e-10)

    def test_fidelity_pure_vs_mixed(self):
        bell_vec = make_bell_phi_plus()
        bell = np.outer(bell_vec, bell_vec.conj())
        for p in (0.2, 0.7):
            # for a pure target, fidelity is the overlap (1 + 3p)/4; rank
            # deficiency of the projector costs a few digits
            assert fidelity(bell, make_werner(p)) == pytest.approx((1 + 3 * p) / 4,
                                                                   abs=1e-7)

    def test_trace_distance_bounds(self):
        a = make_werner(1.0)
        b = np.eye(4) / 4
        d = trace_distance(a, b)
        assert 0 < d <= 1
        assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_trace_distance_of_orthogonal_projectors(self):
        v1 = np.zeros((4, 4)); v1[0, 0] = 1.0
        v2 = np.zeros((4, 4)); v2[1, 1] = 1.0
        assert trace_distance(v1, v2) == pytest.approx(1.0, abs=1e-12)


class TestRecordsCsv:
    def test_round_trip(self):
        record = simulate_counts(make_werner(0.8), GATES, 1e-6, seed=9)
        text = records_to_csv(record)
        assert text.splitlines()[0] == "signal,idler,coincidences,accidentals,gates"
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [(signal, idler) for signal, idler, *_ in rows] == list(SETTINGS)
        again = TomographyRecord([float(cc) for _, _, cc, _, _ in rows],
                                 [float(ac) for _, _, _, ac, _ in rows],
                                 *{int(gates) for *_, gates in rows})
        assert same_record(again, record)


class TestRecordValidation:
    def test_counts_cannot_exceed_gates(self):
        with pytest.raises(ValueError, match="^coincidences cannot exceed the gate count"):
            uniform_record(11, 0, 10)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="^counts must be nonnegative"):
            uniform_record(-1, 0, 10)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["coincidences", "accidentals"])
    def test_nonfinite_rejected(self, field, value):
        # nan < 0 and nan > gates are both False, so NaN used to pass
        fields = {"coincidences": 5, "accidentals": 1, "gates": 10, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            uniform_record(**fields)

    @pytest.mark.parametrize("position", [0, 15])
    @pytest.mark.parametrize("field, value, message", [
        ("coincidences", np.nan, "coincidences must be finite, got nan"),
        ("accidentals", -np.inf, "accidentals must be finite, got -inf"),
        ("coincidences", -1.0, "counts must be nonnegative"),
        ("accidentals", -1.0, "counts must be nonnegative"),
        ("coincidences", 11.0, "coincidences cannot exceed the gate count"),
        ("accidentals", 50.0, "accidentals cannot exceed the gate count"),
    ])
    def test_bad_entry_in_first_or_last_setting(self, position, field, value, message):
        # every entry is checked, with the message a one-setting record gave
        fields = {"coincidences": np.full(16, 5.0), "accidentals": np.full(16, 1.0)}
        fields[field][position] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            TomographyRecord(**fields, gates=10)

    @pytest.mark.parametrize("length", [15, 17])
    @pytest.mark.parametrize("field", ["coincidences", "accidentals"])
    def test_one_entry_per_setting(self, field, length):
        fields = {"coincidences": np.full(16, 5.0), "accidentals": np.full(16, 1.0),
                  field: np.full(length, 1.0)}
        with pytest.raises(ValueError, match=f"^{field} must hold 16 counts, one per setting"):
            TomographyRecord(**fields, gates=10)

    def test_arrays_are_read_only_copies(self):
        # a frozen record keeps the counts it checked
        counts = np.full(16, 5.0)
        record = TomographyRecord(counts, counts, 10)
        with pytest.raises(ValueError, match="read-only"):
            record.coincidences[0] = np.nan
        counts[0] = 6.0  # the caller's array stays writable and is not shared
        assert record.coincidences[0] == record.accidentals[0] == 5.0

    @pytest.mark.parametrize("gates", [10.5, 10.0, True, np.float64(10),
                                       np.nan, np.inf, -np.inf, "10", None])
    def test_gates_must_be_an_integer(self, gates):
        # the CSV's gates column is an integer: 10.5 or True would be written
        # as is; the one integer test also rejects nan, +-inf, text and None
        with pytest.raises(ValueError, match="^gates must be an integer, got"):
            uniform_record(1, 0, gates)
        assert uniform_record(1, 0, np.int64(10)).gates == 10

    @pytest.mark.parametrize("count", [np.nan, np.inf, -np.inf, -1.0])
    def test_corrected_count_must_be_finite_and_nonnegative(self, count):
        # a NaN count used to give an all-NaN linear inversion and an
        # eigenvalue failure inside the MLE; the first and the last setting
        # are checked alike
        for solve in (linear_inversion, reconstruct_mle):
            for position in (0, 15):
                counts = np.full(16, 100.0)
                counts[position] = count
                with pytest.raises(ValueError, match="^count must be finite and nonnegative"):
                    solve(counts)
