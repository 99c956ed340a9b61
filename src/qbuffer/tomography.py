"""Simulated two-photon state tomography and density-matrix reconstruction.

The measurement set is the 16-setting product grid {H, V, D, R} x {H, V, D, R},
which is informationally complete for two qubits.  Its 16 projector kets and
16x16 design matrix are built once, at import.  Coincidence and accidental
counts are modeled as independent Poisson draws; reconstruction offers a
linear-inversion oracle (exact but possibly unphysical; it needs each setting
exactly once) and a maximum-likelihood estimate constrained to physical states
through the T^dag T parametrization.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from ._optimize import minimize
from .states import product_ket, require_valid

SETTING_LABELS = ("H", "V", "D", "R")


@dataclass(frozen=True)
class MeasurementSetting:
    """One analyzer configuration: a polarization label per arm."""

    signal: str
    idler: str

    def __post_init__(self) -> None:
        if self.signal not in SETTING_LABELS or self.idler not in SETTING_LABELS:
            raise ValueError(
                f"settings must use labels {SETTING_LABELS}, got "
                f"({self.signal!r}, {self.idler!r})")


SETTINGS = tuple(MeasurementSetting(s, i)
                 for s in SETTING_LABELS for i in SETTING_LABELS)


def projector(setting: MeasurementSetting) -> np.ndarray:
    """Pure product state |signal> (x) |idler> the setting projects onto."""
    return product_ket(setting.signal, setting.idler)


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
_HERM_BASIS = tuple(np.kron(a, b) / 2.0 for a in _PAULIS for b in _PAULIS)

_KETS = np.array([projector(s) for s in SETTINGS])  # row k projects SETTINGS[k]
_ROW = {s: k for k, s in enumerate(SETTINGS)}
_DESIGN = _born(_KETS, np.array(_HERM_BASIS)).T


@dataclass(frozen=True)
class TomographyRecord:
    """Raw counts of one acquisition.

    ``coincidences`` and ``accidentals`` are Poisson draws for simulated
    acquisitions but may be real-valued for expected-value (noise-free)
    records.
    """

    setting: MeasurementSetting
    coincidences: float
    accidentals: float
    gates: int

    def __post_init__(self) -> None:
        for name in ("coincidences", "accidentals", "gates"):
            value = getattr(self, name)
            if not -math.inf < value < math.inf:  # ints of any size pass
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.gates <= 0:
            raise ValueError("gate count must be positive")
        if self.coincidences < 0 or self.accidentals < 0:
            raise ValueError("counts must be nonnegative")
        if self.coincidences > self.gates:
            raise ValueError("coincidences cannot exceed the gate count")


@dataclass(frozen=True)
class CorrectedRecord:
    """Accidental-subtracted counts, clamped at zero."""

    setting: MeasurementSetting
    count: float
    gates: int

    def __post_init__(self) -> None:
        if not 0 <= self.count < math.inf:
            raise ValueError(f"count must be finite and nonnegative, got {self.count!r}")


PAIR_RATE = 1e-3  # expected true pairs per gate at unit projection


def _mean_counts(rho: np.ndarray, n_gates: int,
                 accidental_rate: float) -> tuple[list[float], float]:
    """Validated count model: the true-coincidence mean of each setting,
    n_gates * PAIR_RATE * <proj|rho|proj>, and the accidental mean."""
    rho = require_valid(rho)
    if not 0.0 <= accidental_rate < 1.0:
        raise ValueError("accidental rate must lie in [0, 1)")
    if n_gates <= 0:
        raise ValueError("n_gates must be positive")
    means = n_gates * PAIR_RATE * np.maximum(_born(_KETS, rho), 0.0)
    return means.tolist(), n_gates * accidental_rate


def simulate_counts(rho: np.ndarray, n_gates: int, accidental_rate: float,
                    seed: int) -> list[TomographyRecord]:
    """Draw Poisson counts for all 16 settings.

    True-coincidence mean per setting is n_gates * PAIR_RATE * <proj|rho|proj>;
    accidentals contribute an independent Poisson term to the coincidence
    window and are estimated separately from a delayed-gate draw of the same
    mean.  Identical seeds give identical records.
    """
    means, acc_mean = _mean_counts(rho, n_gates, accidental_rate)
    rng = np.random.default_rng(seed)
    records = []
    for setting, mean in zip(SETTINGS, means):
        true_counts = rng.poisson(mean)
        acc_in_window = rng.poisson(acc_mean)
        acc_estimate = rng.poisson(acc_mean)
        cc = min(int(true_counts + acc_in_window), n_gates)
        records.append(TomographyRecord(setting, float(cc), float(acc_estimate),
                                        n_gates))
    return records


def expected_counts(rho: np.ndarray, n_gates: int,
                    accidental_rate: float = 0.0) -> list[TomographyRecord]:
    """Noise-free records carrying the expected values of the count model."""
    means, acc_mean = _mean_counts(rho, n_gates, accidental_rate)
    return [TomographyRecord(setting, mean + acc_mean, acc_mean, n_gates)
            for setting, mean in zip(SETTINGS, means)]


def subtract_accidentals(records: list[TomographyRecord]) -> list[CorrectedRecord]:
    """Subtract each record's accidental estimate, clamping at zero."""
    return [CorrectedRecord(r.setting, max(0.0, r.coincidences - r.accidentals),
                            r.gates) for r in records]


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

class TomographyError(RuntimeError):
    pass


_RECT_SETTINGS = tuple(MeasurementSetting(s, i) for s in "HV" for i in "HV")


def _frequencies(records: list[CorrectedRecord]) -> tuple[list[MeasurementSetting], np.ndarray]:
    """Normalize corrected counts by the pair-number estimate.

    The rectilinear quartet (H/V on both arms) forms a complete basis whose
    probabilities sum to one, so its summed counts estimate the produced
    pair number.
    """
    by_setting = {r.setting: r for r in records}
    missing = [s for s in _RECT_SETTINGS if s not in by_setting]
    if missing:
        raise TomographyError(f"records lack the rectilinear settings {missing}")
    n_pairs = sum(by_setting[s].count for s in _RECT_SETTINGS)
    if n_pairs <= 0:
        raise TomographyError("total rectilinear counts must be positive")
    settings = [r.setting for r in records]
    freqs = np.array([r.count for r in records]) / n_pairs
    return settings, freqs


def design_matrix(settings: list[MeasurementSetting]) -> np.ndarray:
    """Linear map from Hermitian-basis coefficients to setting probabilities."""
    return _DESIGN[[_ROW[s] for s in settings]]


def linear_inversion(records: list[CorrectedRecord]) -> np.ndarray:
    """Solve the 16x16 linear system for the state; exact on clean data.

    The result is Hermitian with unit trace but can carry negative
    eigenvalues when the counts are noisy; it is returned as a raw matrix,
    not a validated state.  The 16 design rows are independent, so the system
    is square and nonsingular exactly when each setting appears once.
    """
    settings, freqs = _frequencies(records)
    if len(settings) != 16 or len(set(settings)) != 16:
        raise TomographyError("linear inversion needs each of the 16 settings exactly once")
    coeffs = np.linalg.solve(design_matrix(settings), freqs)
    rho = sum(c * b for c, b in zip(coeffs, _HERM_BASIS))
    # x over the Hermitian basis gives an exactly Hermitian matrix up to
    # floating error; tidy it and renormalize the trace
    rho = 0.5 * (rho + rho.conj().T)
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

    Cholesky produces L with gram = L L^dag; conjugating by the index-reversal
    permutation turns that into the T^dag T form while keeping T triangular
    in the lower half.
    """
    flip = np.fliplr(np.eye(4))
    l = np.linalg.cholesky(flip @ gram @ flip)
    return flip @ l.conj().T @ flip


_GTOL = 1e-10  # L-BFGS-B's projected-gradient tolerance, also tested before calling it


def reconstruct_mle(records: list[CorrectedRecord]) -> ReconstructionResult:
    """Maximum-likelihood state estimate from corrected counts.

    The state is parametrized as rho = T^dag T / tr(T^dag T) with T lower
    triangular (16 real parameters); the overall scale of T doubles as the
    pair-number estimate, so the Poisson rates are m_k = |T psi_k|^2 and the
    objective is the (constant-free) Poisson log-likelihood
    sum_k [n_k ln m_k - m_k].

    The start is the linear inversion, clipped to a physical state.  When the
    largest gradient component there is at most ``_GTOL`` (a state inside the
    physical region, whose linear inversion already is the MLE), the start is
    returned after 0 iterations with no solver call: that is the test L-BFGS-B
    applies before its first iteration, so the result is the one it would
    return.  Otherwise L-BFGS-B runs with ``gtol=_GTOL``; convergence is
    declared when it reports success or the final gradient norm is below 1e-8.
    """
    counts = np.array([r.count for r in records], dtype=float)
    if counts.sum() <= 0:
        raise TomographyError("all counts are zero; nothing to reconstruct")
    psis = _KETS[[_ROW[r.setting] for r in records]]  # (K, 4)

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        t = _t_from_params(theta)
        u = psis @ t.T                    # row k = T psi_k
        m = np.maximum(np.sum(np.abs(u) ** 2, axis=1), 1e-300)
        f = float(np.sum(m - counts * np.log(m)))
        # dm_k/dT_{rc} = 2 Re(conj(u_kr) psi_kc); weight w_k = 1 - n_k/m_k, so
        # df/dRe T_rc = 2 Re G_rc, df/dIm T_rc = -2 Im G_rc: 2 conj(G) in T layout
        w = 1.0 - counts / m
        g_mat = np.einsum("k,kr,kc->rc", w, u.conj(), psis)
        return f, _params_from_t(2.0 * g_mat.conj())

    # Start from the linear-inversion estimate, clipped to a physical state
    # and rescaled so the initial rates match the data.
    try:
        rho_lin = linear_inversion(records)
        eigvals, eigvecs = np.linalg.eigh(rho_lin)
        eigvals = np.maximum(eigvals, 1e-6)
        rho0 = (eigvecs * eigvals) @ eigvecs.conj().T
        rho0 /= np.real(rho0.trace())
    except TomographyError:
        rho0 = np.eye(4, dtype=complex) / 4.0
    probs0 = np.maximum(np.real(np.einsum("ki,ij,kj->k", psis.conj(), rho0, psis)),
                        1e-12)
    scale = counts.sum() / probs0.sum()
    theta0 = _params_from_t(_lower_factor(scale * rho0))

    f, grad = objective(theta0)
    if np.max(np.abs(grad)) <= _GTOL:
        # L-BFGS-B's own test before its first iteration (the projected
        # gradient is the gradient: no bounds); it would return theta0 as is
        theta, iterations, converged = theta0, 0, True
    else:
        result = minimize(objective, theta0, jac=True, method="L-BFGS-B",
                          options={"maxiter": 10_000, "maxfun": 40_000,
                                   "ftol": 1e-15, "gtol": _GTOL})
        f, grad = objective(result.x)
        theta, iterations = result.x, int(result.nit)
        converged = bool(result.success) or float(np.linalg.norm(grad)) < 1e-8
    rho_hat = require_valid(_rho_from_t(_t_from_params(theta)))
    # the objective is minus the log-likelihood, term by term, so negating
    # its sum reproduces sum_k [n_k ln m_k - m_k] exactly
    return ReconstructionResult(rho_hat, -f, iterations, converged)


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


def records_to_csv(records: list[TomographyRecord]) -> str:
    buf = io.StringIO()
    buf.write(RECORDS_CSV_HEADER + "\n")
    for r in records:
        buf.write(f"{r.setting.signal},{r.setting.idler},"
                  f"{format(r.coincidences, '.17g')},"
                  f"{format(r.accidentals, '.17g')},{r.gates}\n")
    return buf.getvalue()

