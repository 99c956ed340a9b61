"""qbuffer's own solvers: Brent's zero step, step for step scipy's
``brentq``; the two-column NNLS; and the bounded least-squares solver, which
moves a stack of starting points in lockstep; plus an L-BFGS-B driver around
scipy's compiled routine, imported on the first call that needs it.  The
least-squares solver's damped systems are solved as stacks, one batched
``np.linalg.solve`` each; a held variable's row and column become the
identity's within its stack.

Importing scipy.optimize is most of a cold command's start-up, and only the
boundary MLE needs it.  Callers keep these names as module globals, so tests
and the benchmark's tracer can swap them.  All four are functions, so the
tracer, which wraps every qbuffer function, wraps each twice: as
``_optimize.brentq`` inside ``measures.brentq``, and likewise for ``nnls`` and
``least_squares`` inside ``fitting`` and for ``minimize`` inside
``tomography``.
"""

import math
from typing import Callable, NamedTuple

import numpy as np


def brentq(f: Callable, a: float, b: float, xtol: float, rtol: float, maxiter: int) -> float:
    """A zero of ``f`` in [a, b], where f(a) and f(b) differ in sign, by
    Brent's (1973) method: inverse quadratic or secant steps, falling back to
    bisection.

    Step for step scipy's ``brentq`` (its C routine and the wrapper around
    it), so every root is the same float: the search stops when the bracket
    half-width falls below (xtol + rtol |x|) / 2 or f(x) == 0.  scipy's
    bounds hold for the tolerances: xtol > 0 and rtol >= 4 eps.  Raises
    ValueError when f(a) and f(b) have one sign or f returns nan, and
    RuntimeError after ``maxiter`` steps without convergence.
    """
    def value(x: float) -> float:
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the better end at xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.nan  # bisect, unless interpolation gives a good short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # inf or nan in C, which bisects too
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")


class MinimizeResult(NamedTuple):
    x: np.ndarray
    fun: float
    jac: np.ndarray     # the gradient setulb last held
    nit: int
    nfev: int
    success: bool       # setulb reported convergence


_MAXCOR = 10
_MAXLS = 20
_FACTR = 1e-15 / np.finfo(float).eps  # a relative decrease of 1e-15 stops
_PGTOL = 1e-10
_MAXITER = 10_000
_MAXFUN = 40_000


def minimize(fun: Callable, x0) -> MinimizeResult:
    """Minimize ``fun(x) -> (f, gradient)`` over unbounded x by L-BFGS-B
    (Byrd, Lu, Nocedal & Zhu 1995), from ``x0``.

    The loop is scipy's ``_minimize_lbfgsb`` around the same compiled
    routine, ``scipy.optimize._lbfgsb.setulb`` (scipy's C translation of
    Zhu et al.'s Algorithm 778), with no bounds and fixed settings: 10
    corrections, 20 line-search steps, a relative decrease of 1e-15 and a
    projected gradient of 1e-10.  Each iteration counts when setulb reports a
    new x; the solve stops after 10 000 iterations, or once ``fun`` has been
    called more than 40 000 times.  ``fun`` gets a copy of each point; when
    setulb asks again at the point of the last call, that call's (f, g) is
    reused, as scipy's ``ScalarFunction`` does.  So every bit of x, f, the
    gradient and the counts is scipy's ``minimize(fun, x0, jac=True,
    method="L-BFGS-B")`` with those options.
    """
    from scipy.optimize import _lbfgsb
    x = np.array(x0, dtype=float)
    n, m = len(x), _MAXCOR
    # points compare as Python floats, as np.array_equal compares them: nan
    # differs from itself, -0.0 equals 0.0
    seen = x.tolist()
    f_seen, g_seen = fun(x.copy())
    nfev, nit, f = 1, 0, 0.0
    g, bound, nbd = np.zeros(n), np.zeros(n), np.zeros(n, np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    while True:
        _lbfgsb.setulb(m, x, bound, bound, nbd, f, g, _FACTR, _PGTOL, wa, iwa, task,
                       lsave, isave, dsave, _MAXLS, ln_task)
        if task[0] == 3:  # f and g wanted at x
            point = x.tolist()
            if point != seen:
                seen = point
                f_seen, g_seen = fun(x.copy())
                nfev += 1
            f, g[:] = f_seen, g_seen
        elif task[0] == 1:  # a new iterate
            nit += 1
            if nit >= _MAXITER:
                task[:] = 5, 504
            elif nfev > _MAXFUN:
                task[:] = 5, 502
        else:
            return MinimizeResult(x, f, g, nit, nfev, bool(task[0] == 4))


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
