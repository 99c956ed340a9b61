"""Weighted nonlinear least-squares fits of the decay models to (t, P) data.

Both decay models have the separable form P = w1 c1(theta1, rate) +
w2 c2(theta2, rate), linear in the weights.  Each component is
env (cos phi + s sin phi)^2, phi linear in its theta and ln env in the rate
(``dynamics``'s pa/psy for pasy, p1/p2 for p3), and one closed form of it on
the record's times gives the fit's model values, scan columns and Jacobian.
One code path fits either model, in the record's own units: each rate per
record duration (mu per fiber length at the last time), each phase parameter
per radian at the last time.  Every free parameter is then O(1) at any time
scale, where SI magnitudes like D_p ~ 1e-17 s/sqrt(m) would wreck the
solver's unit-scaled trust region and its step tolerances; the fitted
parameters reach SI once, at the end.  Every free parameter is bounded to
[0, inf), and every threshold of the scan and the polish is relative.

Every pasy and p3 fit starts from a deterministic scan: a crude exponential
pre-fit pins the envelope rate, one coarse grid for both models over three
rates and the two phase parameters, with the weights solved by closed-form
two-column NNLS at each point (``_optimize.nnls``, one Gram pass for the
whole grid), ranks candidate basins; each of the few kept ones starts from
the weights solved there.  All of them are polished at once by qbuffer's
own bounded Levenberg-Marquardt solver (``_optimize.least_squares``), which
moves the stack of starts in lockstep, each on its own path, and the best is
kept.  The values at a trial point and the closed-form Jacobian, in real
arithmetic, are made from one set of pieces (``_TwoComponent.pieces``), and
that Jacobian serves both the polish and the covariance at the solution.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import dynamics
from ._optimize import _AT_BOUND, least_squares, nnls
from .dynamics import CavityModelParams, PmdModelParams, UnitContext


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
_UNIT_RESOLUTION = 1e-20  # of a record unit; its SI value must be a normal float


class _TwoComponent(NamedTuple):
    """P = w1 c1(theta1, rate) + w2 c2(theta2, rate) in the record's units.

    x = (theta1, theta2, rate, w1, w2) are the free parameters, named by
    ``free`` and multiplied by ``scales`` to give SI.  ``envelope`` maps the
    slope of ln P per record duration to the rate, and ``ceiling`` is the top
    of both theta grids.  Each component is env (cos phi + s sin phi)^2, phi
    linear in its theta and ln env in the rate: on the record's times,
    ``signs`` holds each s, ``phase_slopes`` each d phi / d theta and
    ``rate_slope`` d ln env / d rate.
    """

    name: str
    free: tuple[str, ...]
    scales: np.ndarray
    envelope: float
    ceiling: float
    signs: np.ndarray
    phase_slopes: np.ndarray
    rate_slope: np.ndarray

    def component(self, i: int, theta, rate):
        """c_i, ``theta`` and ``rate`` broadcast against the record's times; no sine if s_i = 0."""
        bracket = dynamics._bracket(theta * self.phase_slopes[i], self.signs[i, 0])
        c = np.exp(rate * self.rate_slope) * bracket
        c *= bracket  # in place: no second full-size temporary
        return c

    def pieces(self, x):
        """cos phi, sin phi, B = cos phi + s sin phi, env and c = env B^2 of
        both components at x of shape (..., 5), each (..., 2, n) but env
        (..., 1, n): what the values and the Jacobian at x are made of."""
        phi = x[..., :2, None] * self.phase_slopes
        cos, sin = np.cos(phi), np.sin(phi)
        bracket = cos + self.signs * sin
        env = np.exp(x[..., 2, None, None] * self.rate_slope)
        return cos, sin, bracket, env, env * bracket * bracket

    def __call__(self, x, c=None):
        """P at x of shape (..., 5); ``c``, when given, is ``pieces(x)``'s."""
        c = self.pieces(x)[4] if c is None else c
        return x[..., 3, None] * c[..., 0, :] + x[..., 4, None] * c[..., 1, :]


def _pasy_model(delta_omega: float, sign: int, units: UnitContext, t: np.ndarray) -> _TwoComponent:
    """mu per fiber length at the last time, d_p per radian there; pa and psy
    change only their sign branch with the sign of delta_omega."""
    lengths = dynamics.length_from_time(t, units)
    with np.errstate(all="ignore"):  # units that are not finite fail the scan or the unit check
        phases = dynamics.pmd_phase(abs(delta_omega), 1.0, lengths)
        scales = 1.0 / np.array([phases[-1], phases[-1], lengths[-1], 1.0, 1.0])
        phase_slope = math.copysign(scales[0], delta_omega) * phases
    return _TwoComponent("pasy", PASY_FREE_PARAMS, scales, -0.5, 1.2 * math.pi,
                         np.array([[sign], [0]]), np.array([phase_slope, phase_slope]),
                         -2.0 * lengths * scales[2])


def _p3_model(t: np.ndarray) -> _TwoComponent:
    """Every rate per record duration; the kappa ceiling turns kappa t by pi/2 per median step."""
    with np.errstate(over="ignore"):  # a ceiling that overflowed fails the scan
        scales = 1.0 / np.array([t[-1], t[-1], t[-1], 1.0, 1.0])
        ceiling = 0.5 * math.pi * t[-1] / np.median(np.diff(t))
    return _TwoComponent("p3", P3_FREE_PARAMS, scales, -2.0, ceiling,
                         np.array([[1], [0]]), np.outer([scales[0] / math.sqrt(2.0), scales[1]], t),
                         -0.5 * t * scales[2])


def _jacobian(model: _TwoComponent, x: np.ndarray, pieces=None) -> np.ndarray:
    """d model / d x in closed form, on the record's times, for x of shape
    (..., 5), from ``model.pieces(x)`` unless they are given: with
    B = cos phi + s sin phi and B' = s cos phi - sin phi, the columns are
    w_i 2 env B B' d phi / d theta_i, (w1 c1 + w2 c2) d ln env / d rate and
    c_i.  Exact at any x: a parameter pinned at a zero bound keeps its column."""
    cos, sin, bracket, env, c = model.pieces(x) if pieces is None else pieces
    jac = np.empty(c.shape[:-2] + (c.shape[-1], 5))
    columns = jac.swapaxes(-1, -2)
    np.multiply(2.0 * x[..., 3:, None] * env * bracket * (model.signs * cos - sin),
                model.phase_slopes, out=columns[..., :2, :])
    np.multiply((x[..., None, 3:] @ c)[..., 0, :], model.rate_slope, out=columns[..., 2, :])
    columns[..., 3:, :] = c
    return jac


def _unresolved(t: np.ndarray) -> FittingError:
    return FittingError(f"times {t[0]:.17g} to {t[-1]:.17g} s are too close together "
                        f"for their size to resolve a rate")


def _envelope_prefit(t: np.ndarray, p: np.ndarray) -> float:
    """Slope of ln p against t / t[-1], ignoring nonpositive points."""
    mask = p > 0
    if mask.sum() < 2:
        raise FittingError("too few positive points for the envelope pre-fit")
    coef, _, rank, _, _ = np.polyfit(t[mask] / t[-1], np.log(p[mask]), 1, full=True)
    if rank < 2:
        raise _unresolved(t)
    return float(coef[0])


def _grid(model: _TwoComponent, t: np.ndarray, p: np.ndarray):
    """The scan's three rates, theta2 values and theta1 values: arrays in record units."""
    rate, c = max(model.envelope * _envelope_prefit(t, p), 0.0), model.ceiling
    return (rate * np.array([0.7, 1.0, 1.3]), np.linspace(c / 150.0, c, 90),
            np.concatenate([[0.0], np.geomspace(c / 400.0, c, 26)]))


def _scan(model: _TwoComponent, t: np.ndarray, p: np.ndarray,
          sigma: np.ndarray) -> list[np.ndarray]:
    """Up to four starting points from ``_grid``.

    Each component is evaluated once, against the three rates, and at every
    grid point with theta1 <= theta2 the weights are solved by closed-form
    two-column NNLS (``nnls``), one call for the whole grid.  Points are
    ranked by SSE, ties in grid order (rate, theta2, theta1), and kept only
    if their theta2 differs by more than a relative 5 % from every point
    already kept.  A kept point starts from the weights solved at it.
    Raises when no grid point fits better than P = 0.
    """
    y = p / sigma
    with np.errstate(all="ignore"):  # a value that overflowed is reported below
        rates, theta2s, theta1s = _grid(model, t, p)
        c1 = model.component(0, theta1s[:, None], rates[:, None, None])
        c1 /= sigma
        c2 = model.component(1, theta2s[:, None], rates[:, None, None])
        c2 /= sigma
    if not (np.all(np.isfinite(c1)) and np.all(np.isfinite(c2))):
        raise FittingError(f"the {model.name} model is not finite on this record's "
                           f"scan grid; check its times and the fixed model parameters")
    w1, w2, sse = np.swapaxes(nnls(c1, c2, y), -1, -2)  # (rate, theta2, theta1)
    ranked = np.flatnonzero(np.broadcast_to(theta1s <= theta2s[:, None], sse.shape))
    ranked = ranked[np.argsort(sse.ravel()[ranked], kind="stable")]
    if not sse.ravel()[ranked[0]] < y @ y:  # every start would have both weights at 0
        raise FittingError(f"no point of the {model.name} scan grid fits times {t[0]:.17g} "
                           f"to {t[-1]:.17g} s better than P = 0")
    picked: list[np.ndarray] = []
    for i in zip(*np.unravel_index(ranked, sse.shape)):
        rate, theta2, theta1 = rates[i[0]], theta2s[i[1]], theta1s[i[2]]
        if all(abs(theta2 - other[1]) > 0.05 * other[1] for other in picked):
            picked.append(np.array([theta1, theta2, rate, w1[i], w2[i]]))
            if len(picked) >= 4:
                break
    return picked


def _polish(model, p, sigma, x0):
    """Bounded Levenberg-Marquardt from every row of ``x0`` at once, in
    lockstep, over x >= 0 on the sigma-weighted residuals; the least-cost
    start's result, whose status is 0 when the evaluation cap stopped it.
    The Jacobian at an accepted point is made from the pieces its values
    were made of."""
    def fun(x):
        pieces = model.pieces(x)

        def jac(rows):
            j = _jacobian(model, x[rows], [piece[rows] for piece in pieces])
            j /= sigma[:, None]
            if not np.all(np.isfinite(j)):
                raise FittingError(f"the {model.name} model's derivative is not finite at "
                                   f"a polish step; check the fixed model parameters")
            return j

        return (model(x, pieces[4]) - p) / sigma, jac

    # numpy's warnings are off: the solver rejects a step whose residual is
    # not finite, and a non-finite derivative raises above
    with np.errstate(all="ignore"):
        return least_squares(fun, x0)


def _covariance_diag(jac: np.ndarray, cost: float, scales: np.ndarray,
                     sigma: np.ndarray) -> tuple[float, ...]:
    """Diagonal of pinv(J^T J) in SI units, J the sigma-weighted Jacobian,
    clamped at 0: a near-singular J^T J leaves rounding-level negatives.
    Sigmas all 1.0 are unknown, so the residual variance scales the result."""
    n_points, n_free = jac.shape
    cov = np.linalg.pinv(jac.T @ jac)
    if np.all(sigma == 1.0) and n_points > n_free:
        cov = cov * (2.0 * cost / (n_points - n_free))
    return tuple(float(v) for v in np.maximum(np.diag(cov), 0.0) * scales ** 2)


def _fit(make_model: Callable[[np.ndarray], _TwoComponent], data: DataSeries,
         make_params: Callable[[np.ndarray], object]) -> FitResult:
    """Scan, polish all starts in lockstep and keep the least cost, in ``make_model(t)``'s units."""
    if len(data) < 6:
        raise FittingError(f"need at least 6 points for 5 free parameters, got {len(data)}")
    t, p, sigma = data.t, data.p, data.sigma
    if t[0] < 0:  # both models start at t = 0, and the record's units need t[-1] > 0
        raise FittingError("time must be nonnegative")
    model = make_model(t)
    if not np.all(_UNIT_RESOLUTION * model.scales >= np.finfo(float).tiny):
        raise FittingError(f"the {model.name} fit's record units are too small: 1e-20 of one "
                           f"is not a normal float in SI")
    best = _polish(model, p, sigma, np.array(_scan(model, t, p, sigma)))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        si = best.x * model.scales
        cov = _covariance_diag(best.jac, best.cost, model.scales, sigma)
    if not np.all(np.isfinite([*si, *cov])):
        raise FittingError(f"the {model.name} fit overflows on this record")
    at_bounds = tuple(name for name, x in zip(model.free, best.x) if x <= _AT_BOUND)
    return FitResult(model.name, make_params(si),
                     float(math.sqrt(2.0 * best.cost)), cov, best.status > 0,
                     int(best.nfev), at_bounds)


def fit_pasy(data: DataSeries, units: UnitContext = UnitContext(),
             delta_omega: float = 2.0 * math.pi * 200e9, sign: int = +1) -> FitResult:
    """Fit the sqrt(L)-phase model; free parameters (d_p1, d_p2, mu, a1, a2).

    The detuning ``delta_omega`` (rad/s) and the ``sign`` branch are held
    fixed.  Every free parameter is bounded to [0, inf).
    """
    return _fit(lambda t: _pasy_model(delta_omega, sign, units, t), data,
                lambda si: PmdModelParams(delta_omega, *si, sign=sign))


def fit_p3(data: DataSeries, lambda_width: float = 1e6) -> FitResult:
    """Fit the linear-phase model; free parameters (kappa1, kappa2, gamma0, w1, w2).

    The reservoir width ``lambda_width`` (1/s) does not enter the curve and
    is carried through unchanged.  Every free parameter is bounded to [0, inf).
    """
    return _fit(_p3_model, data, lambda si: CavityModelParams(*si, lambda_width=lambda_width))


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
        raise _unresolved(data.t)
    log_resid = rhs - lhs @ coef
    rate = float(coef[1] / t_scale)
    with np.errstate(all="ignore"):  # an overflow raises below
        p0 = float(np.exp(coef[0]))
        norm = float(np.linalg.norm((p0 * np.exp(-rate * data.t) - data.p) / data.sigma))
        cov = _covariance_diag(lhs, 0.5 * float(log_resid @ log_resid),
                               np.array([p0, 1.0 / t_scale]), data.sigma)
    if not np.all(np.isfinite([p0, norm, *cov])):
        raise FittingError("the exponential fit overflows on this record")
    return FitResult("exp", ExponentialParams(p0, rate), norm, cov, True, 1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

SERIES_CSV_HEADER = "t_s,p,sigma"


def series_from_csv(text: str) -> DataSeries:
    """Every cell is read by ``float``, in one pass over the body, before the
    rows are counted; the first cell it rejects raises its error."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0].strip() != SERIES_CSV_HEADER:
        raise ValueError(f"expected header {SERIES_CSV_HEADER!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    values = np.fromiter(map(float, itertools.chain.from_iterable(rows)), dtype=float)
    if any(len(row) != 3 for row in rows):
        raise ValueError("every data row must have t_s,p,sigma")
    t, p, sigma = values.reshape(-1, 3).T.copy()
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
