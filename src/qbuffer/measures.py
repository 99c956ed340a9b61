"""Quantum-information measures of the Werner family and threshold solvers.

All measures are closed-form functions of the Werner probability P in
[0, 1], in bits, and take P as given: the sweep passes its model values
clipped at 1, which the models keep >= 0, and the crossover a constant
bracket.  The x log2 x terms use the entropy convention x log2 x -> 0 as x -> 0.
Every measure is a plain numpy expression of P, as the ``dynamics`` models
are of time: an array gives the array of values, and a float gives whatever
numpy returns for it, with the same bits as the array's element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._optimize import brentq


def _xlog2(x):
    """x * log2(x) with the continuous extension 0 at x = 0, for x >= 0: the
    callers pass 1 - P, 1 + P and 1 + 3P for P in [0, 1]."""
    return x * np.log2(np.where(x > 0.0, x, 1.0))  # 0 * log2(1) = 0 at x = 0


def total_correlation(p):
    """Mutual information of the Werner state:
    (3(1-P)/4) log2(1-P) + ((1+3P)/4) log2(1+3P)."""
    return 0.75 * _xlog2(1.0 - p) + 0.25 * _xlog2(1.0 + 3.0 * p)


def classical_correlation(p):
    """Classical part of the correlation:
    ((1-P)/2) log2(1-P) + ((1+P)/2) log2(1+P)."""
    return 0.5 * _xlog2(1.0 - p) + 0.5 * _xlog2(1.0 + p)


def discord(p):
    """Quantum discord: total minus classical correlation."""
    return total_correlation(p) - classical_correlation(p)


def concurrence(p):
    """Entanglement monotone max(0, (3P - 1)/2); zero at and below P = 1/3."""
    return np.maximum(0.0, (3.0 * p - 1.0) / 2.0)


@dataclass(frozen=True)
class CorrelationReport:
    """All four measures evaluated at one Werner probability, or at each
    element of an array of them."""

    total: float | np.ndarray
    classical: float | np.ndarray
    discord: float | np.ndarray
    concurrence: float | np.ndarray


def correlation_report(p) -> CorrelationReport:
    total = total_correlation(p)
    classical = classical_correlation(p)
    # discord defined by subtraction, so discord == total - classical exactly;
    # classical + discord can still differ from total by one rounding
    return CorrelationReport(total, classical, total - classical, concurrence(p))


def solve_level_crossing(model: Callable, level: float,
                         bracket: tuple[float, float]) -> Optional[float]:
    """Earliest time in ``bracket`` where ``model`` crosses ``level``.

    ``model`` must broadcast like the ``dynamics`` models: called once with
    a numpy array of times it returns the array of values, and called with a
    float it returns that time's element's bits, as a number or 0-d array
    that ``brentq`` turns into a float.  The bracket is first subdivided on a
    uniform 10 000-point grid, evaluated in one call, to isolate the first
    sign change (oscillatory models cross many times); only that interval is
    then refined from its two grid values, until |model(t*) - level| < 1e-9.
    Returns None when no sign change exists on the grid.  Resolution limit: a dip below
    ``level`` that starts and ends between two grid points (about 1 us apart in
    a 10 ms bracket) is missed, and the next crossing, if any, is returned.
    Both callers pass a constant bracket with t_lo < t_hi, and a model that
    broadcasts: ``cli.cmd_threshold`` a ``dynamics`` model on
    ``THRESHOLD_BRACKET_S``, the crossover the measures on (0.34, 0.999).
    """
    grid = np.linspace(*bracket, 10_000)
    values = model(grid) - level
    sign = np.sign(values)
    hits = np.flatnonzero((sign == 0.0) | np.append(sign[:-1] * sign[1:] < 0, False))
    if not hits.size:
        return None
    i = hits[0]
    if sign[i] == 0.0:
        return float(grid[i])
    root, residual = brentq(lambda t: model(t) - level, *grid[i:i + 2], *values[i:i + 2],
                            xtol=1e-18 * max(1.0, abs(grid[i + 1])), rtol=8.9e-16, maxiter=200)
    if abs(residual) > 1e-9:
        raise RuntimeError(f"root refinement stalled: residual {abs(residual):.3g}")
    return root


def discord_concurrence_crossover() -> float:
    """The unique P in (1/3, 1) where discord equals concurrence: discord
    exceeds concurrence just above 1/3 and falls below it before P reaches 1
    (both equal 1 exactly at P = 1, which is not a crossing of interest)."""
    return solve_level_crossing(lambda p: discord(p) - concurrence(p), 0.0, (0.34, 0.999))
