"""qbuffer's own two-column NNLS and bounded least-squares solver, which
moves a stack of starting points in lockstep, and scipy.optimize entry points
imported on first call.  The solver's damped systems are solved as stacks,
one batched ``np.linalg.solve`` each; a held variable's row and column become
the identity's within its stack.

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
    """Weights and SSE of min ||w1 c1[..., i, :] + w2 c2[..., j, :] - y||
    over w >= 0 for every row pair (i, j) of every stacked problem: c1 of
    shape (..., m, n) and c2 (..., k, n) give arrays shaped (..., m, k).

    The KKT point in closed form (Lawson & Hanson): the unconstrained
    solution of the 2x2 normal equations when both its weights are
    positive, otherwise the better of the two clipped one-column solutions.
    At that point SSE = y.y - w1 b1 - w2 b2 with b = A^T y.
    """
    a11 = np.einsum("...in,...in->...i", c1, c1)[..., None]
    a22 = np.einsum("...jn,...jn->...j", c2, c2)[..., None, :]
    a12 = c1 @ c2.swapaxes(-1, -2)
    b1 = (c1 @ y)[..., None]
    b2 = (c2 @ y)[..., None, :]
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
    jac: np.ndarray     # the Jacobian at x
    nfev: int
    status: int         # 0: evaluation cap; 1: zero gradient; 2: cost test; 3: step test


_DAMPING = 2e-4    # the first lam, relative to the largest diagonal entry
_INTERIOR = 1e-10  # start this far inside the bound
_AT_BOUND = 1e-9   # a variable this close to it is held when its step points outward
_STEP_BACK = 0.995
_FTOL = 1e-15
_XTOL = 1e-13
_MAX_NFEV = 4000


def least_squares(fun: Callable, x0) -> LeastSquaresResult:
    """The least-cost result of ``lockstep`` from the starts ``x0``, the first on ties."""
    return min(lockstep(fun, x0), key=lambda result: result.cost)


def lockstep(fun: Callable, x0) -> list[LeastSquaresResult]:
    """Minimize 0.5 |fun(x)|^2 over x >= 0 by Levenberg-Marquardt from every
    row of ``x0`` at once; one result per start, in their order.

    ``fun`` maps a stack of points, shape (k, n), to their residuals (k, m)
    and a function ``jac(rows)`` that gives the Jacobians, (len(rows), m, n),
    at the points that ``rows`` (a slice or a list) selects.  Each pass
    builds the damped system of every start still running from its x, r and
    J, and makes one trial step of each, evaluated by one ``fun`` call, and
    one ``jac`` call for the trials it accepts; a start leaves the stack when
    it stops.  Each start keeps its own lam, nu, evaluation count and status,
    so it takes the steps it would take alone.

    Each step solves (D J^T J D + diag(g dv) + lam I) s = -D g for the step
    D s, with g = J^T r and Coleman & Li's (1996) scaling D^2 = diag(v):
    v_i = x_i where g_i > 0 (the descent direction points at the bound), else
    1, and dv its derivative in x.  lam starts at 2e-4 of the largest
    diagonal entry and follows Nielsen's update: times max(1/3, 1 - (2 rho -
    1)^3) on an accepted step (rho: actual over Gauss-Newton predicted
    decrease), times nu, with nu doubling, on a rejected one.  A variable
    within 1e-9 of the bound whose step points outward is held: its row and
    column of the damped system become the identity's and its right-hand side
    0, and the starts that gained a hold solve again, together, which gives
    the bits of the system without it.  A step that would cross the bound
    goes 0.995 of the way to it.  A trial whose residual is not finite is
    rejected, and so is a step whose damped system is singular: it is nan.
    Stops on a zero gradient, a relative cost decrease <= 1e-15 or a relative
    step <= 1e-13; status 0 means 4000 evaluations of ``fun`` were spent first.
    """
    x = np.maximum(np.array(x0, dtype=float, ndmin=2), _INTERIOR)
    r, jac = fun(x)
    r, j = np.array(r, dtype=float), np.array(jac(slice(None)), dtype=float)
    n_starts, n = x.shape
    starts, eye = list(range(n_starts)), np.eye(n)
    cost = (0.5 * _rowdot(r, r)).tolist()
    nfev, status, nu = [1] * n_starts, [0] * n_starts, [2.0] * n_starts
    lam = None  # set at the first systems
    results: list = [None] * n_starts
    while starts:
        stopped = [s > 0 or e >= _MAX_NFEV for s, e in zip(status, nfev)]
        if any(stopped):  # they leave the stack
            for row in (row for row, s in enumerate(stopped) if s):
                results[starts[row]] = LeastSquaresResult(x[row], cost[row], j[row],
                                                          nfev[row], status[row])
            if all(stopped):
                break
            keep = [row for row, s in enumerate(stopped) if not s]
            starts, cost, nfev, status, nu = ([column[row] for row in keep]
                                              for column in (starts, cost, nfev, status, nu))
            x, r, j, lam = (v[keep] for v in (x, r, j, lam))
        # the damped systems at the starts' points
        jt = j.transpose(0, 2, 1)
        g = (jt @ r[:, :, None])[:, :, 0]
        outward = g > 0
        d = np.sqrt(np.where(outward, x, 1.0))
        diag = np.zeros((len(g), n * n))
        diag[:, ::n + 1] = np.where(outward, g, 0.0)  # each system's diagonal
        a = (jt @ j) * (d[:, :, None] * d[:, None, :]) + diag.reshape(-1, n, n)
        if lam is None:
            lam = _DAMPING * a.diagonal(axis1=1, axis2=2).max(axis=1)
        flat = ~g.any(axis=1)
        if flat.any():  # a zero gradient stops these starts
            for row in np.flatnonzero(flat).tolist():
                status[row] = 1
            continue
        step = _step(a + lam[:, None, None] * eye, d, g, x)
        reach = np.divide(x, -step, out=np.full_like(x, np.inf), where=step < 0).min(axis=1)
        cut = reach <= 1.0
        if cut.any():
            step[cut] = (_STEP_BACK * reach[cut])[:, None] * step[cut]
        js = (j @ step[:, :, None])[:, :, 0]
        predicted = (-(_rowdot(g, step) + 0.5 * _rowdot(js, js))).tolist()
        small_step = (_rowdot(step, step) <= _XTOL**2 * _rowdot(x, x)).tolist()
        x_new = x + step
        r_new, jac = fun(x_new)
        cost_new = (0.5 * _rowdot(r_new, r_new)).tolist()  # nan or inf: not a decrease below
        moved = []
        for row in range(len(starts)):
            nfev[row] += 1
            decrease = cost[row] - cost_new[row]
            if decrease > 0:
                moved.append(row)
                pred = predicted[row]
                rho = min(decrease / pred, 1.0) if pred > 0 else 1.0
                lam[row] *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu[row] = 2.0
                if decrease <= _FTOL * cost[row]:
                    status[row] = 2
                elif small_step[row]:
                    status[row] = 3
                cost[row] = cost_new[row]
            elif small_step[row]:
                status[row] = 3
            else:
                lam[row] *= nu[row]
                nu[row] *= 2.0
        if len(moved) == len(starts):  # x_new is this loop's own; fun's arrays are copied
            x, r[:], j[:] = x_new, r_new, jac(slice(None))
        elif moved:
            x[moved], r[moved] = x_new[moved], r_new[moved]
            j[moved] = jac(moved)
    return results


def _rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u[k] @ v[k] for every row k, summed as the 1-d product sums it."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _step(damped: np.ndarray, d: np.ndarray, g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The step in x of every start from its damped system; nan where the
    system is singular.  A variable at the bound whose step points outward is
    held: its row and column become the identity's and its right-hand side 0,
    and the starts that gained a hold solve again, until none gains one."""
    rhs = -d * g
    step = d * _solve(damped, rhs)
    free = np.ones(x.shape, dtype=bool)
    while (gained := free & (x <= _AT_BOUND) & (step < 0)).any():
        rows = np.flatnonzero(gained.any(axis=1))
        free &= ~gained
        keep = free[rows]
        m = np.where(keep[:, :, None] & keep[:, None, :], damped[rows], np.eye(x.shape[1]))
        step[rows] = d[rows] * _solve(m, np.where(keep, rhs[rows], 0.0))
    return step


def _solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """m[k]^-1 b[k] for every system k of the stack; nan where m[k] is singular."""
    try:
        return np.linalg.solve(m, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:  # a singular system fails the stack: solve each alone
        if len(m) == 1:
            return np.full_like(b, np.nan)
        return np.concatenate([_solve(m[k:k + 1], b[k:k + 1]) for k in range(len(m))])
