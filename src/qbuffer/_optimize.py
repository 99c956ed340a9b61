"""qbuffer's own two-column NNLS and bounded least-squares solver, and
scipy.optimize entry points imported on first call.

Importing scipy.optimize is most of a cold command's start-up, and
``classify``, ``sweep`` and ``fit`` never need it.  Callers keep these names
as module globals, so tests and the benchmark's tracer can swap them.  The
two scipy entry points (``brentq``, ``minimize``) are objects rather than
functions, so that tracer, which wraps every qbuffer function, wraps each one
once, as the scipy entry point it stands for.  ``nnls`` and
``least_squares`` are functions, so the tracer wraps each twice: as
``_optimize.nnls`` inside ``fitting.nnls``, and likewise for
``least_squares``.
"""

from typing import Callable, NamedTuple

import numpy as np


class _OnFirstCall:
    def __init__(self, name: str) -> None:
        self.__name__ = name

    def __call__(self, *args, **kwargs):
        import scipy.optimize
        return getattr(scipy.optimize, self.__name__)(*args, **kwargs)


brentq = _OnFirstCall("brentq")
minimize = _OnFirstCall("minimize")


def nnls(c1: np.ndarray, c2: np.ndarray, y: np.ndarray):
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


class LeastSquaresResult(NamedTuple):
    x: np.ndarray
    cost: float         # 0.5 * |fun(x)|^2
    jac: np.ndarray     # jac(x)
    nfev: int
    status: int         # 0: evaluation cap; 1: zero gradient; 2: cost test; 3: step test


_DAMPING = 2e-4    # the first lam, relative to the largest diagonal entry
_INTERIOR = 1e-10  # start this far inside the bound
_AT_BOUND = 1e-9   # a variable this close to it is held when its step points outward
_STEP_BACK = 0.995
_FTOL = 1e-15
_XTOL = 1e-13
_MAX_NFEV = 4000


def least_squares(fun: Callable, x0, jac: Callable) -> LeastSquaresResult:
    """Minimize 0.5 |fun(x)|^2 over x >= 0 by Levenberg-Marquardt.

    Each step solves (D J^T J D + diag(g dv) + lam I) s = -D g for the step
    D s, with g = J^T r and Coleman & Li's (1996) scaling D^2 = diag(v):
    v_i = x_i where g_i > 0 (the descent direction points at the bound), else
    1, and dv its derivative in x.  lam starts at 2e-4 of the largest
    diagonal entry and follows Nielsen's update: times max(1/3, 1 - (2 rho -
    1)^3) on an accepted step (rho: actual over Gauss-Newton predicted
    decrease), times nu, with nu doubling, on a rejected one.  A variable
    within 1e-9 of the bound whose step points outward is held and the system
    re-solved without it; a step that would cross the bound goes 0.995 of the
    way to it.  A trial whose residual is not finite is rejected.  Stops on a
    relative cost decrease <= 1e-15 or a relative step <= 1e-13; status 0
    means 4000 evaluations of ``fun`` were spent first.
    """
    x = np.maximum(np.asarray(x0, dtype=float), _INTERIOR)
    r = fun(x)
    cost, nfev, status = 0.5 * float(r @ r), 1, 0
    j = jac(x)
    lam, nu = None, 2.0
    while status == 0 and nfev < _MAX_NFEV:
        g = j.T @ r
        if not g.any():
            status = 1
            break
        outward = g > 0
        d = np.sqrt(np.where(outward, x, 1.0))
        a = (j.T @ j) * np.outer(d, d) + np.diag(np.where(outward, g, 0.0))
        if lam is None:
            lam = _DAMPING * a.diagonal().max()
        while nfev < _MAX_NFEV:
            step = _step(a, d, g, x, lam)
            crossing = step < 0
            reach = np.min(x[crossing] / -step[crossing], initial=np.inf)
            if reach <= 1.0:
                step = _STEP_BACK * reach * step
            x_new = x + step
            r_new = fun(x_new)
            nfev += 1
            cost_new = 0.5 * float(r_new @ r_new)  # nan or inf: not a decrease below
            decrease = cost - cost_new
            small_step = step @ step <= _XTOL**2 * (x @ x)
            if decrease > 0:
                js = j @ step
                predicted = -float(g @ step + 0.5 * (js @ js))
                rho = min(decrease / predicted, 1.0) if predicted > 0 else 1.0
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
                if decrease <= _FTOL * cost:
                    status = 2
                elif small_step:
                    status = 3
                x, r, cost = x_new, r_new, cost_new
                j = jac(x)
                break
            if small_step:
                status = 3
                break
            lam *= nu
            nu *= 2.0
    return LeastSquaresResult(x, cost, j, nfev, status)


def _step(a: np.ndarray, d: np.ndarray, g: np.ndarray, x: np.ndarray,
          lam: float) -> np.ndarray:
    """The damped step in x, with every outward-pointing variable at the bound held."""
    free = np.ones(len(x), dtype=bool)
    step = d * np.linalg.solve(a + lam * np.eye(len(x)), -d * g)
    while True:
        held = free & (x <= _AT_BOUND) & (step < 0)
        if not held.any():
            return step
        free &= ~held
        step = np.zeros(len(x))
        sub = a[np.ix_(free, free)] + lam * np.eye(np.count_nonzero(free))
        step[free] = d[free] * np.linalg.solve(sub, -d[free] * g[free])
