"""Simulated two-photon state tomography and density-matrix reconstruction.

The measurement set is the 16-setting product grid {H, V, D, R} x {H, V, D, R},
which is informationally complete for two qubits.  Its 16 projector kets and
16x16 design matrix are built once, at import.  Coincidence and accidental
counts are modeled as independent Poisson draws, and an acquisition is one
record of 16-entry arrays in ``SETTINGS`` order; neither the count model
nor the record checks again the inputs that ``damp_werner`` and
``cli.build_config`` checked.  Reconstruction offers a linear-inversion
oracle (exact but possibly unphysical) and a maximum-likelihood estimate
constrained to physical states through the T^dag T parametrization, which
is the linear inversion itself whenever that is a state.

The 16x16 solve and the Hermitian eigendecompositions call the gufuncs
that ``np.linalg.solve``, ``eigh`` and ``eigvalsh`` call
(``numpy.linalg._umath_linalg``): the same LAPACK routines and bits, without
the wrapper's per-call checks and error state, which cost as much as the
LAPACK work on 4x4 and 16-entry arrays.  ``linear_inversion``, ``fidelity``
and ``trace_distance`` check no input either: the pipeline hands them a checked
acquisition's counts and the states it built, whose arithmetic stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from ._optimize import minimize
from .states import product_ket

SETTING_LABELS = ("H", "V", "D", "R")
# one analyzer configuration per entry: the (signal, idler) polarization labels
SETTINGS = tuple((s, i) for s in SETTING_LABELS for i in SETTING_LABELS)


def _born(kets: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Re <psi_k|op|psi_k> per row of ``kets``, for one 4x4 ``op`` (shape (K,))
    or a stack of B (shape (B, K)); bit-identical to ``psi.conj() @ op @ psi``."""
    return np.real((kets.conj() @ op)[..., None, :] @ kets[:, :, None])[..., 0, 0]


_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# Orthonormal Hermitian basis under the Hilbert-Schmidt inner product.
_HERM_BASIS = np.array([np.kron(a, b) / 2.0 for a in _PAULIS for b in _PAULIS])

_KETS = np.array([product_ket(*s) for s in SETTINGS])  # row k projects SETTINGS[k]
_DESIGN = _born(_KETS, _HERM_BASIS).T
_TWO = np.array(2.0 + 0j)  # the MLE gradient's factor: the bits of 2.0, converted once


@dataclass(frozen=True)
class TomographyRecord:
    """Raw counts of one acquisition, unchecked: ``coincidences`` and
    ``accidentals`` are float arrays with one entry per setting, in ``SETTINGS``
    order, each finite, nonnegative and at most the integer ``gates``.  They are
    Poisson draws for simulated acquisitions but may be real-valued for
    expected-value (noise-free) records.
    """

    coincidences: np.ndarray
    accidentals: np.ndarray
    gates: int


PAIR_RATE = 1e-3  # expected true pairs per gate at unit projection


def _mean_counts(rho: np.ndarray, n_gates: int,
                 accidental_rate: float) -> tuple[np.ndarray, float]:
    """Count model of a state, gate count and accidental rate checked where they
    entered: the true-coincidence mean of each setting,
    n_gates * PAIR_RATE * <proj|rho|proj>, and the accidental mean."""
    means = n_gates * PAIR_RATE * np.maximum(_born(_KETS, rho), 0.0)
    return means, n_gates * accidental_rate


def simulate_counts(rho: np.ndarray, n_gates: int, accidental_rate: float,
                    seed: int) -> TomographyRecord:
    """Draw Poisson counts for all 16 settings.

    True-coincidence mean per setting is n_gates * PAIR_RATE * <proj|rho|proj>;
    accidentals contribute an independent Poisson term to the coincidence
    window and are estimated separately from a delayed-gate draw of the same
    mean.  All 48 counts come from one draw, in the order true, in-window,
    estimate per setting; the in-window count and the estimate are each
    clamped at n_gates.  Identical seeds give identical records.
    """
    means, acc_mean = _mean_counts(rho, n_gates, accidental_rate)
    lam = np.full((16, 3), acc_mean, dtype=float)  # each draw's mean, a row per setting
    lam[:, 0] = means
    true, acc, estimate = np.random.default_rng(seed).poisson(lam).T
    return TomographyRecord(np.minimum(true + acc, n_gates).astype(float),
                            np.minimum(estimate, n_gates).astype(float), n_gates)


def expected_counts(rho: np.ndarray, n_gates: int,
                    accidental_rate: float) -> TomographyRecord:
    """Expected-value record of the count model, in-window counts clamped at n_gates."""
    means, acc_mean = _mean_counts(rho, n_gates, accidental_rate)
    return TomographyRecord(np.minimum(means + acc_mean, n_gates),
                            np.full(len(means), acc_mean), n_gates)


def subtract_accidentals(record: TomographyRecord) -> np.ndarray:
    """Each setting's coincidences minus its accidental estimate, clamped at zero."""
    return np.maximum(record.coincidences - record.accidentals, 0.0)  # -0.0 clamps to +0.0


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

class TomographyError(RuntimeError):
    pass


def _basis_sum(coeffs: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] * _HERM_BASIS[j], added in j order as Python's ``sum`` adds."""
    return np.add.reduce(coeffs[:, None, None] * _HERM_BASIS, axis=0, initial=0)


def linear_inversion(counts: np.ndarray) -> np.ndarray:
    """Solve the 16x16 linear system for the state; exact on clean data.

    ``counts`` is a float array of the corrected count of each setting in
    ``SETTINGS`` order, as ``subtract_accidentals`` gives it from a checked
    acquisition: each in [0, 2**53], the rectilinear ones summing to 0 or at
    least 2**-53, so every frequency and the result are finite.  The result is
    Hermitian with unit trace but can carry negative eigenvalues when the
    counts are noisy; it is returned as a raw matrix, not a validated state.
    The 16 design rows are independent, so the system is square and
    nonsingular.  The rectilinear quartet (H/V on both arms) is a complete
    basis, so its summed counts estimate the pair number that turns counts
    into frequencies; a sum of 0 raises TomographyError.
    """
    n_pairs = counts.item(0) + counts.item(1) + counts.item(4) + counts.item(5)  # HH, HV, VH, VV
    if n_pairs <= 0:
        raise TomographyError("total rectilinear counts must be positive")
    coeffs = _umath_linalg.solve1(_DESIGN, counts / n_pairs, signature="dd->d")
    rho = _basis_sum(coeffs)
    return rho / rho.trace().real


@dataclass(frozen=True)
class ReconstructionResult:
    rho_hat: np.ndarray
    log_likelihood: float   # Poisson log-likelihood without the ln(n!) data term
    iterations: int
    converged: bool


# Lower-triangular parametrization: 4 real diagonal entries followed by
# (re, im) pairs for the strictly-lower entries in row-major order.  _SLOTS[i]
# is the position of parameter i in the row-major (re, im) float view of a
# 4x4 complex T, so packing and unpacking move values without arithmetic.
_SLOTS = np.concatenate([
    2 * np.ravel_multi_index(np.diag_indices(4), (4, 4)),
    (2 * np.ravel_multi_index(np.tril_indices(4, -1), (4, 4))[:, None] + [0, 1]).ravel()])


def _t_from_params(theta: np.ndarray) -> np.ndarray:
    flat = np.zeros(32)
    flat[_SLOTS] = theta
    return flat.view(complex).reshape(4, 4)


def _params_from_t(t: np.ndarray) -> np.ndarray:
    return t.ravel().view(float)[_SLOTS]


def _rho_from_t(t: np.ndarray) -> np.ndarray:
    gram = t.conj().T @ t
    return gram / np.real(gram.trace())


def _lower_factor(gram: np.ndarray) -> np.ndarray:
    """Lower-triangular T with T^dag T equal to the given PSD matrix.

    Cholesky produces L with gram = L L^dag; reversing the index order before
    and after turns that into the T^dag T form while keeping T triangular in
    the lower half.
    """
    l = np.linalg.cholesky(gram[::-1, ::-1])
    return l.conj().T[::-1, ::-1]


def reconstruct_mle(counts: np.ndarray) -> ReconstructionResult:
    """Maximum-likelihood state estimate from corrected counts.

    ``counts`` is the float array of corrected counts in ``SETTINGS`` order
    that ``subtract_accidentals`` returns and ``linear_inversion`` takes.
    The state is parametrized as rho = T^dag T / tr(T^dag T) with T lower
    triangular (16 real parameters); the overall scale of T doubles as the
    pair-number estimate, so the Poisson rates are m_k = |T psi_k|^2 and the
    objective is the (constant-free) Poisson log-likelihood
    sum_k [n_k ln m_k - m_k].

    16 settings and 16 parameters make the model saturated: the linear
    inversion fits every count (m_k = n_k), which maximizes each term, so
    when it is positive semidefinite it is the MLE, returned after 0
    iterations with the log-likelihood sum_k [n_k ln n_k - n_k] and no solver
    call.  Otherwise ``minimize`` (``_optimize``'s unbounded L-BFGS-B)
    starts from the linear inversion, clipped to a physical state, or from
    the maximally mixed state when the rectilinear counts are all zero;
    convergence is declared when it reports success or the final gradient
    norm is below 1e-8.

    ``rho_hat`` is not checked again: a PSD linear inversion has unit trace,
    and T^dag T / tr is a state for any nonzero T, while no solver result's
    objective exceeds the start's, far below 690.8 sum(n) at T = 0.
    """
    # The linear inversion is the MLE when it is a state; otherwise start from
    # it clipped to a physical state and rescaled so the initial rates match
    # the data.
    try:
        rho_lin = linear_inversion(counts)
        eigvals, eigvecs = _umath_linalg.eigh_lo(rho_lin, signature="D->dD")
        if eigvals[0] >= 0:
            m = np.maximum(counts, 1e-300)  # the objective's floor: 0 ln 0 reads 0
            return ReconstructionResult(rho_lin, -float((m - counts * np.log(m)).sum()), 0, True)
        eigvals = np.maximum(eigvals, 1e-6)
        rho0 = (eigvecs * eigvals) @ eigvecs.conj().T
        rho0 /= np.real(rho0.trace())
    except TomographyError:  # no rectilinear counts
        if counts.sum() <= 0:
            raise TomographyError("all counts are zero; nothing to reconstruct") from None
        rho0 = np.eye(4, dtype=complex) / 4.0
    # each <psi_k|rho0|psi_k> is at least rho0's smallest eigenvalue, which the
    # clip keeps positive, so the scale is finite
    probs0 = np.real(np.einsum("ki,ij,kj->k", _KETS.conj(), rho0, _KETS))
    scale = counts.sum() / probs0.sum()
    theta0 = _params_from_t(_lower_factor(scale * rho0))

    flat = np.zeros(32)  # the objective's T, packed in place at each evaluation
    t_transposed = flat.view(complex).reshape(4, 4).T

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        flat[_SLOTS] = theta
        u = _KETS @ t_transposed          # row k = T psi_k
        a = np.abs(u)
        a *= a
        m = np.maximum(np.add.reduce(a, axis=1), 1e-300)
        f = float(np.add.reduce(m - counts * np.log(m)))
        # dm_k/dT_{rc} = 2 Re(conj(u_kr) psi_kc); weight w_k = 1 - n_k/m_k and
        # G = sum_k w_k conj(u_kr) psi_kc, so df/dRe T_rc = 2 Re G_rc and
        # df/dIm T_rc = -2 Im G_rc: 2 conj(G) in T layout.  G is conjugated
        # after the sum, not term by term, which fixes the sign of a zero entry
        grad = np.einsum("k,kr,kc->rc", 1.0 - counts / m, u.conj(), _KETS)
        np.conjugate(grad, out=grad)
        grad *= _TWO
        return f, _params_from_t(grad)

    result = minimize(objective, theta0)
    converged = bool(result.success) or float(np.linalg.norm(result.jac)) < 1e-8
    rho_hat = _rho_from_t(_t_from_params(result.x))
    # the objective is minus the log-likelihood, term by term, so negating
    # its sum reproduces sum_k [n_k ln m_k - m_k] exactly
    return ReconstructionResult(rho_hat, -result.fun, int(result.nit), converged)


# ---------------------------------------------------------------------------
# state functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WernerEstimators:
    """The six single-element probability estimators and their mean.

    p1/p2 come from the outer diagonal entries, p3/p4 from the corner
    coherences (real parts), p5/p6 from the inner diagonal entries;
    ``imag_residual`` reports the discarded imaginary magnitude of the
    corners.
    """

    p1: float
    p2: float
    p3: float
    p4: float
    p5: float
    p6: float
    imag_residual: float

    @property
    def mean(self) -> float:
        return (self.p1 + self.p2 + self.p3 + self.p4 + self.p5 + self.p6) / 6.0


def werner_estimators(rho: np.ndarray) -> WernerEstimators:
    (r00, _, _, r03), (_, r11, _, _), (_, _, r22, _), (r30, _, _, r33) = rho.tolist()
    return WernerEstimators(
        p1=4.0 * r00.real - 1.0,
        p2=4.0 * r33.real - 1.0,
        p3=2.0 * r03.real,
        p4=2.0 * r30.real,
        p5=1.0 - 4.0 * r11.real,
        p6=1.0 - 4.0 * r22.real,
        imag_residual=max(abs(r03.imag), abs(r30.imag)),
    )


def estimate_werner_probability(rho: np.ndarray) -> float:
    """Arithmetic mean of the six single-element Werner-probability estimators."""
    return werner_estimators(rho).mean


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clamped at 1: the
    roots of a near-pure state's near-zero eigenvalues carry O(sqrt(eps)) errors.
    ``rho`` and ``sigma`` are 4x4 arrays of states, as ``cli.cmd_tomo`` passes
    the true state and the estimate."""
    vals, vecs = _umath_linalg.eigh_lo(0.5 * (rho + rho.conj().T), signature="D->dD")
    sqrt_rho = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.conj().T
    inner = sqrt_rho @ sigma @ sqrt_rho
    inner_vals = _umath_linalg.eigvalsh_lo(0.5 * (inner + inner.conj().T), signature="D->d")
    return min(float(np.sum(np.sqrt(np.maximum(inner_vals, 0.0)))) ** 2, 1.0)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of the difference of two Hermitian 4x4 arrays whose
    entries are at most 1e307 in modulus, as states' are."""
    diff = rho - sigma
    half = 0.5 * (diff + diff.conj().T)
    return float(0.5 * np.sum(np.abs(_umath_linalg.eigvalsh_lo(half, signature="D->d"))))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

RECORDS_CSV_HEADER = "signal,idler,coincidences,accidentals,gates"


# the whole file with a (coincidences, accidentals, gates) slot per setting
_RECORDS_CSV = RECORDS_CSV_HEADER + "\n" + "".join(
    f"{signal},{idler},%.17g,%.17g,%s\n" for signal, idler in SETTINGS)


def records_to_csv(record: TomographyRecord) -> str:
    """The record's 16 settings as CSV rows, in ``SETTINGS`` order."""
    fields = [record.gates] * 48
    fields[0::3] = record.coincidences.tolist()
    fields[1::3] = record.accidentals.tolist()
    return _RECORDS_CSV % tuple(fields)
