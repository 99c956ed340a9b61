"""Quantum-information measures of the Werner family and threshold solvers.

All measures are closed-form functions of the Werner probability P, in bits.
The x log2 x terms use the entropy convention x log2 x -> 0 as x -> 0.
Every measure broadcasts over numpy arrays of P, the way the ``dynamics``
models broadcast over time: a scalar input gives a Python float, an array
input an array of the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._optimize import brentq


def _xlog2(x):
    """x * log2(x) with the continuous extension 0 at x = 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError(f"xlog2 argument must be nonnegative, got {x[x < 0.0][0]}")
    out = x * np.log2(np.where(x > 0.0, x, 1.0))  # 0 * log2(1) = 0 at x = 0
    return float(out) if out.ndim == 0 else out


def _check_p(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    outside = ~((0.0 <= p) & (p <= 1.0))  # NaN is outside too
    if np.any(outside):
        raise ValueError(f"Werner probability must lie in [0, 1], got {p[outside][0]}")
    return p


def total_correlation(p):
    """Mutual information of the Werner state:
    (3(1-P)/4) log2(1-P) + ((1+3P)/4) log2(1+3P)."""
    p = _check_p(p)
    out = 0.75 * _xlog2(1.0 - p) + 0.25 * _xlog2(1.0 + 3.0 * p)
    return float(out) if p.ndim == 0 else out


def classical_correlation(p):
    """Classical part of the correlation:
    ((1-P)/2) log2(1-P) + ((1+P)/2) log2(1+P)."""
    p = _check_p(p)
    out = 0.5 * _xlog2(1.0 - p) + 0.5 * _xlog2(1.0 + p)
    return float(out) if p.ndim == 0 else out


def discord(p):
    """Quantum discord: total minus classical correlation."""
    return total_correlation(p) - classical_correlation(p)


def concurrence(p):
    """Entanglement monotone max(0, (3P - 1)/2); zero at and below P = 1/3."""
    p = _check_p(p)
    out = np.maximum(0.0, (3.0 * p - 1.0) / 2.0)
    return float(out) if p.ndim == 0 else out


@dataclass(frozen=True)
class CorrelationReport:
    """All four measures evaluated at one Werner probability, or at each
    element of an array of them."""

    p: float | np.ndarray
    total: float | np.ndarray
    classical: float | np.ndarray
    discord: float | np.ndarray
    concurrence: float | np.ndarray


def correlation_report(p) -> CorrelationReport:
    checked = _check_p(p)
    total = total_correlation(checked)
    classical = classical_correlation(checked)
    # discord defined by subtraction, so discord == total - classical exactly;
    # classical + discord can still differ from total by one rounding
    return CorrelationReport(float(checked) if checked.ndim == 0 else checked,
                             total, classical, total - classical, concurrence(checked))


def solve_level_crossing(model: Callable, level: float,
                         bracket: tuple[float, float]) -> Optional[float]:
    """Earliest time in ``bracket`` where ``model`` crosses ``level``.

    ``model`` must broadcast like the ``dynamics`` models: called once with
    a numpy array of times it returns the array of values, called with a
    float it returns a float.  The bracket is first subdivided on a uniform
    10 000-point grid, evaluated in one call, to isolate the first sign
    change (oscillatory models cross many times); only that interval is
    then refined, until |model(t*) - level| < 1e-9.  Returns None when no
    sign change exists on the grid.  Resolution limit: a dip below ``level``
    that starts and ends between two grid points (about 1 us apart in a
    10 ms bracket) is missed, and the next crossing, if any, is returned.
    """
    t_lo, t_hi = bracket
    if not t_hi > t_lo:
        raise ValueError("bracket must satisfy t_hi > t_lo")
    grid = np.linspace(t_lo, t_hi, 10_000)
    values = np.asarray(model(grid), dtype=float) - level
    if values.shape != grid.shape:
        raise ValueError("model must broadcast over an array of times")
    exact = np.nonzero(values == 0.0)[0]
    changes = np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]
    first_exact = exact[0] if exact.size else None
    first_change = changes[0] if changes.size else None
    if first_exact is not None and (first_change is None or first_exact <= first_change):
        return float(grid[first_exact])
    if first_change is None:
        return None
    i = first_change
    root = brentq(lambda t: model(t) - level, grid[i], grid[i + 1],
                  xtol=1e-18 * max(1.0, abs(grid[i + 1])), rtol=8.9e-16, maxiter=200)
    residual = abs(model(root) - level)
    if residual > 1e-9:
        raise RuntimeError(f"root refinement stalled: residual {residual:.3g}")
    return float(root)


def discord_concurrence_crossover() -> float:
    """The unique P in (1/3, 1) where discord equals concurrence.

    Found by Brent's method; discord exceeds concurrence just above 1/3 and
    falls below it before P reaches 1 (both equal 1 exactly at P = 1, which
    is not a crossing of interest).
    """
    gap = lambda p: discord(p) - concurrence(p)
    return float(brentq(gap, 0.34, 0.999, xtol=1e-9))
