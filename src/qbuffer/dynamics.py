"""Scalar decay models for the buffered pair probability versus time.

Two model families are implemented:

* PMD-driven models, where the phases grow like sqrt(L) along the fiber
  (the components pa and psy, summed into prob_pasy, and the two-phase
  forms prob_pf and prob_asym), under the envelope exp(-2 mu L);
* cavity-style models, where the harmonic argument is linear in time
  (cavity_p and the two limiting cases p1, p2, summed into p3), under the
  envelope exp(-gamma0 t / 2).  Each is the square of ``_bracket``.

Everything is in SI units (seconds, meters, rad/s, 1/m, s/sqrt(m)), and so
is every config field that fills the parameter records; there is no lab-unit
constructor.  Every model is a plain numpy expression of its arguments: an
array of times gives the array of values, and a float time gives whatever
numpy returns for it (a numpy float or a 0-d array), with the same bits as
the array's element.  Times become fiber lengths through the group index n_r,
passed as a float.

The models take times and lengths t >= 0 unchecked: ``cli.build_config``'s
grid starts at t_start_s >= 0, ``fitting`` rejects a record with t[0] < 0,
and the threshold's bracket is a constant.  The parameter records are plain
and check nothing either: ``cli.build_config`` checks every config field
before it builds them, and ``fitting._fit`` states why a fit's are in range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 2.99792458e8  # m/s

PS_PER_SQRT_KM = 1e-12 / math.sqrt(1000.0)  # ps/sqrt(km) -> s/sqrt(m)


def length_from_time(t, n_r: float):
    """Fiber length L = (c / n_r) t traversed during buffer time t >= 0, for
    the fiber's group index n_r > 1."""
    return SPEED_OF_LIGHT / n_r * t


@dataclass(frozen=True)
class PmdModelParams:
    """Parameters of the sqrt(L)-phase decay model (SI units).

    The two components carry free nonnegative weights a1, a2; the raw
    two-component sum at t = 0 equals a1 + a2, which plays the role of the
    modeled initial probability.  ``sign`` selects the branch of the
    counter-rotating component, +1 or -1.
    """

    delta_omega: float         # rad/s
    d_p1: float                # s/sqrt(m)
    d_p2: float                # s/sqrt(m)
    mu: float                  # 1/m
    a1: float
    a2: float
    sign: int


@dataclass(frozen=True)
class CavityModelParams:
    """Parameters of the linear-phase decay model (SI units).

    ``lambda_width`` is the reservoir spectral width; it enters no curve and
    is carried from the config to the p3 fit's report.  Fields >= 0, w1 + w2 > 0.
    """

    kappa1: float              # 1/s
    kappa2: float              # 1/s
    gamma0: float              # 1/s
    w1: float
    w2: float
    lambda_width: float        # 1/s


# each record attribute's field name in the CLI config and the fit JSON
_PMD_FIELDS = {
    "delta_omega_rad_s": "delta_omega",
    "d_p1_s_per_sqrt_m": "d_p1",
    "d_p2_s_per_sqrt_m": "d_p2",
    "mu_per_m": "mu",
    "a1": "a1",
    "a2": "a2",
    "sign": "sign",
}
_CAVITY_FIELDS = {
    "kappa1_per_s": "kappa1",
    "kappa2_per_s": "kappa2",
    "gamma0_per_s": "gamma0",
    "w1": "w1",
    "w2": "w2",
    "lambda_per_s": "lambda_width",
}


def _bracket(phi, sign: int):
    """cos(phi) + sign sin(phi); broadcasts, and evaluates no sine when
    sign is 0."""
    return np.cos(phi) + sign * np.sin(phi) if sign else np.cos(phi)


# ---------------------------------------------------------------------------
# sqrt(L) phase models
# ---------------------------------------------------------------------------

def pmd_phase(delta_omega: float, d_p: float, length):
    """Differential phase delta_omega * D_p * sqrt(L) accumulated over L >= 0 meters."""
    return delta_omega * d_p * np.sqrt(length)


def prob_pf(dphi_h, dphi_v, mu: float, length):
    """Pair probability after the polarization map, normalized to 1 at zero
    phase and zero loss:

        (1/4) exp(-2 mu L) [cos(dphi_h) + sin(dphi_h) - sin(dphi_v) + cos(dphi_v)]^2

    Its range is [0, 2], not [0, 1]: the bracket reaches 2 sqrt(2) at
    (dphi_h, dphi_v) = (pi/4, -pi/4), where the value is 2 at zero loss.
    """
    bracket = _bracket(dphi_h, +1) + _bracket(dphi_v, -1)
    return 0.25 * np.exp(-2.0 * mu * length) * bracket**2


def pa(t, delta_omega: float, d_p: float, mu: float, sign: int, n_r: float):
    """Counter-rotating component exp(-2 mu L) [cos(dphi) + sign sin(dphi)]^2,
    dphi = delta_omega d_p sqrt(L) (unweighted)."""
    length = length_from_time(t, n_r)
    phi = pmd_phase(delta_omega, d_p, length)
    return np.exp(-2.0 * mu * length) * _bracket(phi, sign)**2


def psy(t, delta_omega: float, d_p: float, mu: float, n_r: float):
    """Co-rotating component exp(-2 mu L) cos^2(dphi), dphi = delta_omega d_p
    sqrt(L) (unweighted): :func:`pa` without the sine term."""
    return pa(t, delta_omega, d_p, mu, 0, n_r)


def prob_pasy(t, params: PmdModelParams, n_r: float):
    """Weighted two-component PMD model a1 * pa(d_p1, sign) + a2 * psy(d_p2)."""
    return (params.a1 * pa(t, params.delta_omega, params.d_p1, params.mu, params.sign, n_r)
            + params.a2 * psy(t, params.delta_omega, params.d_p2, params.mu, n_r))


def prob_asym(dphi_h, dphi_v, mu: float, length, sign: int):
    """Expanded seven-term pair probability for unequal phases, s = sign
    (+1 or -1) selecting the rotation branch:

        exp(-2 mu L) [ 2 + 2 cos(dv) cos(dh) - 2 sin(dh) sin(dv)
                       + s (  2 cos(dh) sin(dh) - 2 cos(dh) sin(dv)
                            - 2 cos(dv) sin(dv) + 2 cos(dv) sin(dh) ) ]

    On both branches this equals 4 * prob_pf of the phases (s dh, s dv), the
    unnormalized square of the four-term bracket, and is evaluated as such.
    """
    return 4.0 * prob_pf(sign * dphi_h, sign * dphi_v, mu, length)


def asym_series_residual(dphi_h, dphi_v, mu: float, length):
    """Gap between prob_asym (+ branch) and its small-angle expansion through
    the terms quadratic in the phases:

        exp(-2 mu L) [ 4 + 4 (dh - dv) - (dh + dv)^2 ]

    When the phases scale like sqrt(L) the leading omitted term is cubic, so
    the residual shrinks like L^(3/2).
    """
    truncated = np.exp(-2.0 * mu * length) * (
        4.0 + 4.0 * (dphi_h - dphi_v) - (dphi_h + dphi_v)**2)
    return abs(prob_asym(dphi_h, dphi_v, mu, length, +1) - truncated)


# ---------------------------------------------------------------------------
# linear-phase (cavity-style) models
# ---------------------------------------------------------------------------

_RATE_MAX = 1e150  # 1/s; rates beyond any physical buffer are an input error


def _check_rates(kappa: float, gamma0: float) -> None:
    if not (0.0 <= kappa <= _RATE_MAX and 0.0 <= gamma0 <= _RATE_MAX):
        raise ValueError(f"kappa and gamma0 must be finite, nonnegative and at "
                         f"most {_RATE_MAX:g}, "
                         f"got {kappa} and {gamma0}")


def _regime(kappa: float, gamma0: float) -> tuple[float, float]:
    """diff = 4 kappa - gamma0, whose sign is the regime, and delta =
    |sqrt(16 kappa^2 - gamma0^2)| from its factors, so no square underflows."""
    _check_rates(kappa, gamma0)
    diff = 4.0 * kappa - gamma0
    return diff, math.sqrt(abs(diff)) * math.sqrt(4.0 * kappa + gamma0)


def _enveloped(gamma0: float, t: np.ndarray, square: np.ndarray) -> np.ndarray:
    """exp(-gamma0 t / 2) * square, and 0 where that envelope is 0: there a
    phase that overflowed leaves square nan, but the product's limit is 0."""
    env = np.exp(-gamma0 * t / 2.0)
    return np.where(env > 0, env * square, 0.0)


def cavity_p(t, kappa: float, gamma0: float):
    """Qubit survival probability in the coupled-mode model, p(0) = 1.

    p(t) = exp(-gamma0 t / 2) [cos(delta t / 4) + (gamma0/delta) sin(delta t / 4)]^2
    with delta = sqrt(16 kappa^2 - gamma0^2).  For 4 kappa < gamma0 the root
    is imaginary and the harmonics turn hyperbolic; at 4 kappa = gamma0 the
    sinc form gives [1 + gamma0 t / 4]^2.  Both branches are one analytic
    function, so the value is continuous in the parameters.  The branch is
    the exact sign of 4 kappa - gamma0 (see ``_regime``).
    """
    diff, delta = _regime(kappa, gamma0)
    with np.errstate(over="ignore", invalid="ignore"):  # rate x time may overflow
        x = delta * t / 4.0
        if diff < 0:
            # e^-x [cosh x + (gamma0/delta) sinh x] <= 1 + gamma0/delta; the exponent
            # left for e^2x and the envelope, (delta - gamma0) t / 2, is <= 0
            bracket = 0.5 * (1.0 + np.exp(-2.0 * x)) - 0.5 * (gamma0 / delta) * np.expm1(-2.0 * x)
            exponent = 2.0 * x - gamma0 * t / 2.0
            # where both terms overflowed: delta - gamma0 = -16 kappa^2 / (delta + gamma0)
            exponent = np.where(np.isnan(exponent),
                                -4.0 * kappa * (4.0 * kappa / (delta + gamma0)) * t / 2.0, exponent)
            return np.exp(exponent) * bracket**2
        # (gamma0/delta) sin(delta t/4) written via sinc to stay smooth as delta -> 0
        bracket = np.cos(x) + gamma0 * (t / 4.0) * np.sinc(x / np.pi)
        return _enveloped(gamma0, t, bracket**2)


def p1(t, kappa1: float, gamma0: float):
    """Component with the counter-rotating bracket:
    exp(-gamma0 t/2) [cos(kappa1 t / sqrt2) + sin(kappa1 t / sqrt2)]^2."""
    with np.errstate(over="ignore", invalid="ignore"):  # kappa1 x time may overflow
        return _enveloped(gamma0, t, _bracket(kappa1 * t / math.sqrt(2.0), +1)**2)


def p2(t, kappa2: float, gamma0: float):
    """Component with the plain harmonic: exp(-gamma0 t/2) cos^2(kappa2 t)."""
    with np.errstate(over="ignore", invalid="ignore"):  # kappa2 x time may overflow
        return _enveloped(gamma0, t, _bracket(kappa2 * t, 0)**2)


def p3(t, params: CavityModelParams):
    """Weighted two-component cavity model w1 * p1 + w2 * p2."""
    return (params.w1 * p1(t, params.kappa1, params.gamma0)
            + params.w2 * p2(t, params.kappa2, params.gamma0))


# ---------------------------------------------------------------------------
# regime classification and auxiliary models
# ---------------------------------------------------------------------------

REGIME_MARKOVIAN = "Markovian"
REGIME_NON_MARKOVIAN = "NonMarkovian"
REGIME_BOUNDARY = "Boundary"

_BOUNDARY_RTOL = 1e-12


@dataclass(frozen=True)
class RegimeResult:
    regime: str
    delta: float                # |sqrt(16 kappa^2 - gamma0^2)|, 1/s
    delta_is_imaginary: bool


def classify_regime(kappa: float, gamma0: float) -> RegimeResult:
    """Classify the dynamics by the sign of 4 kappa - gamma0.

    Non-Markovian when 4 kappa > gamma0, Markovian when 4 kappa < gamma0,
    Boundary when equal to within a relative 1e-12.  The criterion depends
    only on the ratio, and ``_regime`` computes it without squaring a rate,
    so rescaling both rates by a power of two changes neither the regime nor
    any bit of delta beyond the same power of two.
    """
    diff, delta = _regime(kappa, gamma0)
    if abs(diff) <= _BOUNDARY_RTOL * max(4.0 * kappa, gamma0):
        return RegimeResult(REGIME_BOUNDARY, 0.0, False)
    if diff > 0:
        return RegimeResult(REGIME_NON_MARKOVIAN, delta, False)
    return RegimeResult(REGIME_MARKOVIAN, delta, True)


def markovian_exponential(t, mu: float, n_r: float):
    """Memoryless control model exp(-2 mu L), L = (c / n_r) t: the PMD
    models' fiber attenuation alone, p(0) = 1, decaying at the rate 2 mu c / n_r."""
    return np.exp(-(2.0 * mu * SPEED_OF_LIGHT / n_r) * t)
