"""Weighted nonlinear least-squares fits of the decay models to (t, P) data.

Both decay models have the separable form P = w1 c1(theta1, rate) +
w2 c2(theta2, rate), linear in the weights, with the component functions
taken from ``dynamics`` (pa/psy for pasy, p1/p2 for p3).  One code path fits
either: a small model spec holds the component functions, the lab-unit
scales and the scan grid.  The free parameters are rescaled to lab units
(ps/sqrt(km), 1/km, 1/ms) so every one is O(1); SI magnitudes like
D_p ~ 1e-17 s/sqrt(m) would otherwise wreck the solver's unit-scaled trust
region and its step tolerances.  Every free parameter is bounded to [0, inf).

Initialization (when no explicit guess is given) is a deterministic scan:
a crude exponential pre-fit pins the envelope rate, a coarse grid over the
two phase parameters with the component weights solved by closed-form
two-column NNLS at each grid point (one Gram pass per rate) ranks candidate
basins, the ``nnls`` solver finds the weights of the few kept candidates, and
each is polished by a trust-region least-squares pass, keeping the best.
One complex-step Jacobian, from a single model call, serves both the polish
and the covariance at the solution.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import dynamics
from ._optimize import least_squares, nnls
from .dynamics import (PER_KM, PER_MS, PS_PER_SQRT_KM, CavityModelParams,
                       PmdModelParams, UnitContext)


class FittingError(RuntimeError):
    pass


@dataclass(frozen=True)
class DataSeries:
    """Measured probability series: strictly increasing times, optional sigmas."""

    t: np.ndarray       # seconds
    p: np.ndarray
    sigma: np.ndarray   # per-point uncertainty; 1.0 when unknown

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        p = np.asarray(self.p, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if t.ndim != 1 or t.shape != p.shape or t.shape != sigma.shape:
            raise ValueError("t, p and sigma must be 1-d arrays of equal length")
        for name, values in (("times", t), ("probabilities", p), ("uncertainties", sigma)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite")
        if not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        if np.any(sigma <= 0):
            raise ValueError("uncertainties must be positive")
        with np.errstate(over="ignore"):
            # the fits square these: values whose sum of squares overflows, or
            # underflows although they are not all zero, cannot be fitted
            for name, values in (("times", t), ("probabilities/uncertainties", p / sigma),
                                 ("1/uncertainties", 1.0 / sigma)):
                total = np.sum(values * values)
                if not np.isfinite(total):
                    raise ValueError(f"{name} are too large: their sum of squares overflows")
                if total < np.finfo(float).tiny and np.any(values != 0):
                    raise ValueError(f"{name} are too small: their sum of squares underflows")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "sigma", sigma)

    @classmethod
    def from_points(cls, t: Sequence[float], p: Sequence[float],
                    sigma: Optional[Sequence[float]] = None) -> "DataSeries":
        t = np.asarray(t, dtype=float)
        if sigma is None:
            sigma = np.ones_like(t)
        return cls(t, np.asarray(p, dtype=float), np.asarray(sigma, dtype=float))

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class ExponentialParams:
    p0: float
    rate: float  # 1/s


@dataclass(frozen=True)
class FitResult:
    """Outcome of one model fit.

    ``covariance_diag`` holds per-parameter variance estimates in the same
    (SI) units as the parameter object, in the documented free-parameter
    order, from the model Jacobian at the solution (so a parameter pinned at
    a bound still gets its unconstrained local variance, not zero);
    ``at_bounds`` names parameters pinned at a bound.
    """

    model: str  # 'pasy', 'p3' or 'exp'
    params: object
    residual_norm: float
    covariance_diag: tuple[float, ...]
    converged: bool
    iterations: int
    at_bounds: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.residual_norm < 0:
            raise ValueError("residual norm must be nonnegative")


PASY_FREE_PARAMS = ("d_p1", "d_p2", "mu", "a1", "a2")
P3_FREE_PARAMS = ("kappa1", "kappa2", "gamma0", "w1", "w2")


class _TwoComponent(NamedTuple):
    """P = w1 c1(theta1, rate) + w2 c2(theta2, rate) over lab-unit parameters.

    x = (theta1, theta2, rate, w1, w2) are the free parameters, named by
    ``free`` and multiplied by ``scales`` to give SI; ``c1``/``c2`` take
    (t, theta, rate) in SI; ``grid(t, p)`` returns the scan's rates, theta2
    values and theta1 values in lab units.
    """

    name: str
    free: tuple[str, ...]
    scales: np.ndarray
    c1: Callable
    c2: Callable
    grid: Callable

    def __call__(self, t, x):
        s = self.scales
        return (x[3] * self.c1(t, x[0] * s[0], x[2] * s[2])
                + x[4] * self.c2(t, x[1] * s[1], x[2] * s[2]))


def _pasy_model(delta_omega: float, sign: int, units: UnitContext) -> _TwoComponent:
    def grid(t, p):
        slope = _envelope_prefit(t, p)
        mu0 = max(-slope * units.n_r / (2.0 * units.c) / PER_KM, 1e-9)
        # widest phase observable on this record sets the dp2 grid ceiling
        root = math.sqrt(dynamics.length_from_time(t[-1], units))
        dp_hi = math.pi / max(delta_omega * PS_PER_SQRT_KM * root, 1e-30)
        return ((0.75 * mu0, mu0, 1.25 * mu0),
                np.linspace(dp_hi / 120.0, 1.2 * dp_hi, 90),
                np.concatenate([[0.0], np.geomspace(dp_hi / 400.0, 1.2 * dp_hi, 26)]))

    return _TwoComponent(
        "pasy", PASY_FREE_PARAMS, np.array([PS_PER_SQRT_KM, PS_PER_SQRT_KM, PER_KM, 1.0, 1.0]),
        lambda t, d_p, mu: dynamics.pa(t, delta_omega, d_p, mu, sign, units),
        lambda t, d_p, mu: dynamics.psy(t, delta_omega, d_p, mu, units), grid)


def _p3_grid(t, p):
    tm = t * 1e3
    slope = _envelope_prefit(tm, p)
    g0_0 = max(-2.0 * slope, 1e-3)
    k_hi = 0.5 * math.pi / max(float(np.median(np.diff(tm))), 1e-12)
    return ((0.7 * g0_0, g0_0, 1.3 * g0_0),
            np.linspace(k_hi / 150.0, k_hi, 90),
            np.concatenate([[0.0], np.geomspace(k_hi / 400.0, k_hi, 26)]))


_P3_MODEL = _TwoComponent("p3", P3_FREE_PARAMS, np.array([PER_MS, PER_MS, PER_MS, 1.0, 1.0]),
                          dynamics.p1, dynamics.p2, _p3_grid)


def _jacobian(model: _TwoComponent, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d model / d x by complex step, one column per free parameter.

    Exact to rounding for any x, so unlike a finite-difference step relative
    to |x| it keeps a nonzero column for a parameter pinned at a zero bound
    (zero variance would be reported for the least identified parameter).
    """
    h = 1e-20
    steps = (x[:, None] + 1j * h * np.eye(len(x)))[:, :, None]  # row k steps x[k]
    return np.ascontiguousarray((model(t, steps).imag / h).T)


def _envelope_prefit(t_scaled: np.ndarray, p: np.ndarray) -> float:
    """Slope of ln p against scaled time, ignoring nonpositive points."""
    mask = p > 0
    if mask.sum() < 2:
        raise FittingError("too few positive points for the envelope pre-fit")
    return float(np.polyfit(t_scaled[mask], np.log(p[mask]), 1)[0])


def _nnls2(c1: np.ndarray, c2: np.ndarray, y: np.ndarray):
    """Weights and SSE of min ||w1 c1[i] + w2 c2[j] - y|| over w >= 0 for
    every row pair (i, j), each returned array shaped (len(c1), len(c2)).

    The KKT point in closed form (Lawson & Hanson): the unconstrained
    solution of the 2x2 normal equations when both its weights are
    positive, otherwise the better of the two clipped one-column solutions.
    At that point SSE = y.y - w1 b1 - w2 b2 with b = A^T y.
    """
    a11 = np.einsum("in,in->i", c1, c1)[:, None]
    a22 = np.einsum("jn,jn->j", c2, c2)
    a12 = c1 @ c2.T
    b1 = (c1 @ y)[:, None]
    b2 = c2 @ y
    det = a11 * a22 - a12 * a12
    with np.errstate(divide="ignore", invalid="ignore"):
        w1 = (a22 * b1 - a12 * b2) / det
        w2 = (a11 * b2 - a12 * b1) / det
        u1 = np.where(a11 > 0, np.maximum(b1 / a11, 0.0), 0.0)  # c1 alone
        u2 = np.where(a22 > 0, np.maximum(b2 / a22, 0.0), 0.0)  # c2 alone
    interior = (det > 0) & (w1 > 0) & (w2 > 0)
    first = u1 * b1 >= u2 * b2
    w1 = np.where(interior, w1, np.where(first, u1, 0.0))
    w2 = np.where(interior, w2, np.where(first, 0.0, u2))
    return w1, w2, y @ y - w1 * b1 - w2 * b2


def _scan(model: _TwoComponent, t: np.ndarray, p: np.ndarray,
          sigma: np.ndarray) -> list[np.ndarray]:
    """Up to four starting points from the model's grid.

    At every grid point with theta1 <= theta2 the weights are solved by
    closed-form two-column NNLS, one Gram pass over all theta pairs per
    rate.  Points are ranked by SSE, ties in grid order (rate, theta2,
    theta1), and kept only if their theta2 differs by more than a relative
    5 % from every point already kept.  The weights of a kept point are
    recomputed by the ``nnls`` solver from that point's own columns.
    """
    rates, theta2s, theta1s = model.grid(t, p)
    s = model.scales
    y = p / sigma
    sse = np.empty((len(rates), len(theta2s), len(theta1s)))
    for k, rate in enumerate(rates):
        with np.errstate(all="ignore"):  # a value that overflowed is reported below
            c1 = model.c1(t, theta1s[:, None] * s[0], rate * s[2]) / sigma
            c2 = model.c2(t, theta2s[:, None] * s[1], rate * s[2]) / sigma
        if not (np.all(np.isfinite(c1)) and np.all(np.isfinite(c2))):
            raise FittingError(f"the {model.name} model is not finite on this record's "
                               f"scan grid; check the fixed model parameters")
        sse[k] = _nnls2(c1, c2, y)[2].T
    ranked = np.flatnonzero(np.broadcast_to(theta1s <= theta2s[:, None], sse.shape))
    ranked = ranked[np.argsort(sse.ravel()[ranked], kind="stable")]
    picked: list[np.ndarray] = []
    for i_rate, i2, i1 in zip(*np.unravel_index(ranked, sse.shape)):
        rate, theta2, theta1 = rates[i_rate], theta2s[i2], theta1s[i1]
        if all(abs(theta2 - other[1]) > 0.05 * max(other[1], 1e-9) for other in picked):
            c1 = model.c1(t, theta1 * s[0], rate * s[2])
            c2 = model.c2(t, theta2 * s[1], rate * s[2])
            weights, _ = nnls(np.column_stack([c1, c2]) / sigma[:, None], y)
            picked.append(np.array([theta1, theta2, rate,
                                    max(weights[0], 1e-6), max(weights[1], 1e-6)]))
            if len(picked) >= 4:
                break
    return picked


def _polish(model, t, p, sigma, x0):
    def jac(x):
        j = _jacobian(model, t, x) / sigma[:, None]
        if not np.all(np.isfinite(j)):
            raise FittingError(f"the {model.name} model's derivative is not finite at "
                               f"a polish step; check the fixed model parameters")
        return j

    # numpy's warnings are off: the solver shrinks its step past a non-finite
    # residual, and a non-finite derivative raises above
    with np.errstate(all="ignore"):
        return least_squares(lambda x: (model(t, x) - p) / sigma, np.maximum(x0, 0.0),
                             jac=jac, bounds=(0.0, np.inf), method="trf",
                             xtol=1e-12, ftol=1e-12, gtol=1e-13, max_nfev=4000)


def _covariance_diag(jac: np.ndarray, cost: float, n_free: int,
                     scales: np.ndarray, sigmas_known: bool) -> tuple[float, ...]:
    """Diagonal of pinv(J^T J) in SI units, J the sigma-weighted Jacobian,
    clamped at 0: a near-singular J^T J leaves rounding-level negatives."""
    n_points = jac.shape[0]
    cov = np.linalg.pinv(jac.T @ jac)
    if not sigmas_known and n_points > n_free:
        cov = cov * (2.0 * cost / (n_points - n_free))
    return tuple(float(v) for v in np.maximum(np.diag(cov), 0.0) * scales ** 2)


def _fit(model: _TwoComponent, data: DataSeries, init,
         make_params: Callable[[np.ndarray], object]) -> FitResult:
    """Scan (or start from ``init``), polish each candidate once and keep the
    least cost; ``make_params`` builds the parameters from their SI values."""
    if len(data) < 6:
        raise FittingError(f"need at least 6 points for 5 free parameters, got {len(data)}")
    t, p, sigma = data.t, data.p, data.sigma
    sigmas_known = bool(np.any(sigma != 1.0))
    if init is not None:
        candidates = [np.array([getattr(init, name) for name in model.free]) / model.scales]
    else:
        candidates = _scan(model, t, p, sigma)
    best = min((_polish(model, t, p, sigma, x0) for x0 in candidates), key=lambda r: r.cost)
    cov = _covariance_diag(best.jac, best.cost, len(model.free), model.scales,
                           sigmas_known)
    at_bounds = tuple(name for name, x in zip(model.free, best.x) if x <= 1e-9)
    return FitResult(model.name, make_params(best.x * model.scales),
                     float(math.sqrt(2.0 * best.cost)), cov, best.status > 0,
                     int(best.nfev), at_bounds)


def fit_pasy(data: DataSeries, init: Optional[PmdModelParams] = None,
             units: UnitContext = UnitContext(), delta_omega: Optional[float] = None,
             sign: Optional[int] = None) -> FitResult:
    """Fit the sqrt(L)-phase model; free parameters (d_p1, d_p2, mu, a1, a2).

    The detuning ``delta_omega`` (rad/s) and the ``sign`` branch are held
    fixed; each not given is taken from ``init``, else defaults to
    2 pi x 200 GHz and +.  Every free parameter is bounded to [0, inf).
    """
    if delta_omega is None:
        delta_omega = init.delta_omega if init is not None else 2.0 * math.pi * 200e9
    if sign is None:
        sign = init.sign if init is not None else +1
    return _fit(_pasy_model(delta_omega, sign, units), data, init,
                lambda si: PmdModelParams(delta_omega, *si, sign=sign))


def fit_p3(data: DataSeries, init: Optional[CavityModelParams] = None,
           lambda_width: Optional[float] = None) -> FitResult:
    """Fit the linear-phase model; free parameters (kappa1, kappa2, gamma0, w1, w2).

    The reservoir width ``lambda_width`` (1/s) does not enter the curve and
    is carried through unchanged; when not given it is taken from ``init``,
    else defaults to 1e6.  Every free parameter is bounded to [0, inf).
    """
    if lambda_width is None:
        lambda_width = init.lambda_width if init is not None else 1e6
    return _fit(_P3_MODEL, data, init,
                lambda si: CavityModelParams(*si, lambda_width=lambda_width))


def fit_exponential(data: DataSeries) -> FitResult:
    """Weighted linear fit of ln p = ln p0 - rate t; sigma on p is sigma/p on ln p.

    Times are divided by max|t|, so both design columns are O(1) at any time
    scale; the covariance follows the two-component fits' rule.
    """
    if len(data) < 2:
        raise FittingError(f"need at least 2 points, got {len(data)}")
    if np.any(data.p <= 0):
        raise FittingError("exponential fit requires strictly positive p")
    sigmas_known = bool(np.any(data.sigma != 1.0))
    w = data.p / data.sigma if sigmas_known else np.ones_like(data.p)
    t_scale = float(np.max(np.abs(data.t)))
    lhs = np.column_stack([w, -w * (data.t / t_scale)])
    rhs = np.log(data.p) * w
    coef, _, rank, _ = np.linalg.lstsq(lhs, rhs, rcond=None)
    if rank < 2:
        raise FittingError(f"times {data.t[0]:.17g} to {data.t[-1]:.17g} s are too "
                           f"close together for their size to resolve a rate")
    log_resid = rhs - lhs @ coef
    rate = float(coef[1] / t_scale)
    with np.errstate(all="ignore"):  # an overflow raises below
        p0 = float(np.exp(coef[0]))
        norm = float(np.linalg.norm((p0 * np.exp(-rate * data.t) - data.p) / data.sigma))
        cov = _covariance_diag(lhs, 0.5 * float(log_resid @ log_resid), 2,
                               np.array([p0, 1.0 / t_scale]), sigmas_known)
    if not np.all(np.isfinite([p0, norm, *cov])):
        raise FittingError("the exponential fit overflows on this record")
    return FitResult("exp", ExponentialParams(p0, rate), norm, cov, True, 1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

SERIES_CSV_HEADER = "t_s,p,sigma"


def series_from_csv(text: str) -> DataSeries:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0].strip() != SERIES_CSV_HEADER:
        raise ValueError(f"expected header {SERIES_CSV_HEADER!r}")
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    if any(len(r) != 3 for r in rows):
        raise ValueError("every data row must have t_s,p,sigma")
    t, p, sigma = np.array(rows, dtype=float).reshape(-1, 3).T.copy()
    return DataSeries(t, p, sigma)


def series_to_csv(data: DataSeries) -> str:
    buf = io.StringIO()
    buf.write(SERIES_CSV_HEADER + "\n")
    for t, p, s in zip(data.t, data.p, data.sigma):
        buf.write(f"{format(t, '.17g')},{format(p, '.17g')},{format(s, '.17g')}\n")
    return buf.getvalue()


def fit_result_to_dict(fit: FitResult) -> dict:
    out: dict = {
        "model": fit.model,
        "residual_norm": fit.residual_norm,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "at_bounds": list(fit.at_bounds),
        "covariance_diag": list(fit.covariance_diag),
    }
    fields = {"pasy": dynamics._PMD_FIELDS, "p3": dynamics._CAVITY_FIELDS}.get(fit.model)
    if fields is not None:
        out.update({key: getattr(fit.params, attr) for key, attr in fields.items()})
    elif fit.model == "exp":
        out.update({"p0": fit.params.p0, "rate_per_s": fit.params.rate})
    return out


def fit_result_to_json(fit: FitResult) -> str:
    return json.dumps(fit_result_to_dict(fit), sort_keys=True, indent=2)
