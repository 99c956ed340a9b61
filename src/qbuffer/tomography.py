"""Simulated two-photon state tomography and density-matrix reconstruction.

The measurement set is the 16-setting product grid {H, V, D, R} x {H, V, D, R},
which is informationally complete for two qubits.  Its 16 projector kets and
16x16 design matrix are built once, at import.  Coincidence and accidental
counts are modeled as independent Poisson draws, and an acquisition is one
record of 16-entry arrays in ``SETTINGS`` order; reconstruction offers a
linear-inversion oracle (exact but possibly unphysical) and a
maximum-likelihood estimate constrained to physical states through the
T^dag T parametrization, which is the linear inversion itself whenever that
is a state.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._optimize import minimize
from .states import product_ket, require_valid

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
_KETS_CONJ = _KETS.conj()
_DESIGN = _born(_KETS, _HERM_BASIS).T


@dataclass(frozen=True)
class TomographyRecord:
    """Raw counts of one acquisition: ``coincidences`` and ``accidentals`` are
    read-only float arrays with one entry per setting, in ``SETTINGS`` order.
    They are Poisson draws for simulated acquisitions but may be real-valued
    for expected-value (noise-free) records.
    """

    coincidences: np.ndarray
    accidentals: np.ndarray
    gates: int

    def __post_init__(self) -> None:
        for name in ("coincidences", "accidentals"):
            value = np.array(getattr(self, name), dtype=float)  # a copy, then read-only
            value.flags.writeable = False
            if value.shape != (16,):
                raise ValueError(f"{name} must hold 16 counts, one per setting, got {value.shape}")
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got "
                                 f"{float(value[~np.isfinite(value)][0])!r}")
            object.__setattr__(self, name, value)
        if isinstance(self.gates, bool) or not isinstance(self.gates, numbers.Integral):
            raise ValueError(f"gates must be an integer, got {self.gates!r}")
        if self.gates <= 0:
            raise ValueError("gate count must be positive")
        if min(self.coincidences.min(), self.accidentals.min()) < 0:
            raise ValueError("counts must be nonnegative")
        for name in ("coincidences", "accidentals"):
            if float(getattr(self, name).max()) > self.gates:  # exact for any int
                raise ValueError(f"{name} cannot exceed the gate count")


PAIR_RATE = 1e-3  # expected true pairs per gate at unit projection


def _mean_counts(rho: np.ndarray, n_gates: int,
                 accidental_rate: float) -> tuple[np.ndarray, float]:
    """Validated count model: the true-coincidence mean of each setting,
    n_gates * PAIR_RATE * <proj|rho|proj>, and the accidental mean."""
    rho = require_valid(rho)
    if not 0.0 <= accidental_rate < 1.0:
        raise ValueError("accidental rate must lie in [0, 1)")
    if n_gates <= 0:
        raise ValueError("n_gates must be positive")
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
    true, acc, estimate = np.random.default_rng(seed).poisson(
        np.column_stack([means, np.full((len(means), 2), acc_mean)])).T
    return TomographyRecord(np.minimum((true + acc).astype(float), n_gates),
                            np.minimum(estimate, n_gates), n_gates)


def expected_counts(rho: np.ndarray, n_gates: int,
                    accidental_rate: float = 0.0) -> TomographyRecord:
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


def _checked(counts: np.ndarray) -> np.ndarray:
    """``counts`` as 16 floats in ``SETTINGS`` order, each finite and nonnegative."""
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (16,):
        raise ValueError(f"counts must hold 16 entries, one per setting, got {counts.shape}")
    good = (counts >= 0.0) & (counts < math.inf)
    if not good.all():
        raise ValueError(f"count must be finite and nonnegative, got {float(counts[~good][0])!r}")
    return counts


def _basis_sum(coeffs: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] * _HERM_BASIS[j], added in j order as Python's ``sum`` adds."""
    return np.add.reduce(coeffs[:, None, None] * _HERM_BASIS, axis=0, initial=0)


def linear_inversion(counts: np.ndarray) -> np.ndarray:
    """Solve the 16x16 linear system for the state; exact on clean data.

    ``counts`` holds the corrected count of each setting in ``SETTINGS``
    order.  The result is Hermitian with unit trace but can carry negative
    eigenvalues when the counts are noisy; it is returned as a raw matrix,
    not a validated state.  The 16 design rows are independent, so the system
    is square and nonsingular.  The rectilinear quartet (H/V on both arms) is
    a complete basis, so its summed counts estimate the pair number that
    turns counts into frequencies.
    """
    counts = _checked(counts)
    n_pairs = sum(counts[row] for row in (0, 1, 4, 5))  # HH, HV, VH, VV
    if n_pairs <= 0:
        raise TomographyError("total rectilinear counts must be positive")
    coeffs = np.linalg.solve(_DESIGN, counts / n_pairs)
    rho = _basis_sum(coeffs)
    return rho / np.real(rho.trace())


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


def _t_from_params(theta: np.ndarray, flat: np.ndarray | None = None) -> np.ndarray:
    """T of the parameters, in ``flat`` (32 floats, zero outside _SLOTS) when given."""
    flat = np.zeros(32) if flat is None else flat
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

    ``counts`` holds the corrected count of each setting in ``SETTINGS``
    order.  The state is parametrized as rho = T^dag T / tr(T^dag T) with T
    lower triangular (16 real parameters); the overall scale of T doubles as
    the pair-number estimate, so the Poisson rates are m_k = |T psi_k|^2 and
    the objective is the (constant-free) Poisson log-likelihood
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
    counts = _checked(counts)
    if counts.sum() <= 0:
        raise TomographyError("all counts are zero; nothing to reconstruct")
    flat = np.zeros(32)  # the objective's T, rewritten at each evaluation

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        t = _t_from_params(theta, flat)
        u = _KETS @ t.T                   # row k = T psi_k
        a = np.abs(u)
        a *= a
        m = np.maximum(np.add.reduce(a, axis=1), 1e-300)
        f = float(np.add.reduce(m - counts * np.log(m)))
        # dm_k/dT_{rc} = 2 Re(conj(u_kr) psi_kc); weight w_k = 1 - n_k/m_k, so
        # df/dRe T_rc = 2 Re G_rc, df/dIm T_rc = -2 Im G_rc: 2 conj(G) in T
        # layout, which is sum_k 2 w_k u_kr conj(psi_kc)
        w = 1.0 - counts / m
        w += w
        return f, _params_from_t(np.einsum("k,kr,kc->rc", w, u, _KETS_CONJ))

    # The linear inversion is the MLE when it is a state; otherwise start from
    # it clipped to a physical state and rescaled so the initial rates match
    # the data.
    try:
        rho_lin = linear_inversion(counts)
        eigvals, eigvecs = np.linalg.eigh(rho_lin)
        if eigvals[0] >= 0:
            m = np.maximum(counts, 1e-300)  # the objective's floor: 0 ln 0 reads 0
            return ReconstructionResult(rho_lin, -float((m - counts * np.log(m)).sum()), 0, True)
        eigvals = np.maximum(eigvals, 1e-6)
        rho0 = (eigvecs * eigvals) @ eigvecs.conj().T
        rho0 /= np.real(rho0.trace())
    except TomographyError:
        rho0 = np.eye(4, dtype=complex) / 4.0
    probs0 = np.maximum(np.real(np.einsum("ki,ij,kj->k", _KETS.conj(), rho0, _KETS)),
                        1e-12)
    scale = counts.sum() / probs0.sum()
    theta0 = _params_from_t(_lower_factor(scale * rho0))
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
    rho = np.asarray(rho, dtype=complex)
    return WernerEstimators(
        p1=float(4.0 * rho[0, 0].real - 1.0),
        p2=float(4.0 * rho[3, 3].real - 1.0),
        p3=float(2.0 * rho[0, 3].real),
        p4=float(2.0 * rho[3, 0].real),
        p5=float(1.0 - 4.0 * rho[1, 1].real),
        p6=float(1.0 - 4.0 * rho[2, 2].real),
        imag_residual=float(max(abs(rho[0, 3].imag), abs(rho[3, 0].imag))),
    )


def estimate_werner_probability(rho: np.ndarray) -> float:
    """Arithmetic mean of the six single-element Werner-probability estimators."""
    return werner_estimators(rho).mean


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clamped at 1: the
    roots of a near-pure state's near-zero eigenvalues carry O(sqrt(eps)) errors."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    sqrt_rho = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.conj().T
    inner = sqrt_rho @ sigma @ sqrt_rho
    inner_vals = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    return min(float(np.sum(np.sqrt(np.maximum(inner_vals, 0.0))) ** 2), 1.0)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of the difference of two Hermitian matrices."""
    diff = np.asarray(rho, dtype=complex) - np.asarray(sigma, dtype=complex)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

RECORDS_CSV_HEADER = "signal,idler,coincidences,accidentals,gates"


def records_to_csv(record: TomographyRecord) -> str:
    """The record's 16 settings as CSV rows, in ``SETTINGS`` order."""
    rows = (f"{signal},{idler},{format(cc, '.17g')},{format(ac, '.17g')},{record.gates}\n"
            for (signal, idler), cc, ac in zip(SETTINGS, record.coincidences.tolist(),
                                               record.accidentals.tolist()))
    return RECORDS_CSV_HEADER + "\n" + "".join(rows)
