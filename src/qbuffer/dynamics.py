"""Scalar decay models for the buffered pair probability versus time.

Two model families are implemented:

* PMD-driven models, where the phases grow like sqrt(L) along the fiber
  (the components pa and psy, summed into prob_pasy, and the two-phase
  forms prob_pf and prob_asym), under the envelope exp(-2 mu L);
* cavity-style models, where the harmonic argument is linear in time
  (cavity_p and the two limiting cases p1, p2, summed into p3), under the
  envelope exp(-gamma0 t / 2).  Each is the square of ``_bracket``.

Everything is stored in SI units (seconds, meters, rad/s, 1/m, s/sqrt(m));
constructors accept the usual lab units (GHz, ps/sqrt(km), 1/km, 1/ms) and
convert exactly once.  All model functions broadcast over numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .channels import PmdPhases

SPEED_OF_LIGHT = 2.99792458e8  # m/s

# unit conversion constants
PS_PER_SQRT_KM = 1e-12 / math.sqrt(1000.0)  # -> s/sqrt(m)
PER_KM = 1e-3                               # -> 1/m
PER_MS = 1e3                                # -> 1/s


@dataclass(frozen=True)
class UnitContext:
    """Propagation constants tying buffer time to fiber length."""

    n_r: float = 1.468  # group index of standard single-mode fiber
    c: ClassVar[float] = SPEED_OF_LIGHT  # a constant, not a setting

    def __post_init__(self) -> None:
        if not self.n_r > 1.0:
            raise ValueError(f"refractive index must exceed 1, got {self.n_r}")


def length_from_time(t, units: UnitContext = UnitContext()):
    """Fiber length L = (c / n_r) t traversed during buffer time t."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("buffer time must be nonnegative")
    out = units.c / units.n_r * t
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PmdModelParams:
    """Parameters of the sqrt(L)-phase decay model (SI units).

    The two components carry free nonnegative weights a1, a2; the raw
    two-component sum at t = 0 equals a1 + a2, which plays the role of the
    modeled initial probability.  ``sign`` selects the branch of the
    counter-rotating component.
    """

    delta_omega: float         # rad/s
    d_p1: float                # s/sqrt(m)
    d_p2: float                # s/sqrt(m)
    mu: float                  # 1/m
    a1: float
    a2: float
    sign: int = +1

    def __post_init__(self) -> None:
        for name in ("delta_omega", "d_p1", "d_p2", "mu", "a1", "a2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.mu < 0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")
        if self.a1 < 0 or self.a2 < 0 or self.a1 + self.a2 <= 0:
            raise ValueError("weights must be nonnegative with a positive sum")
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    @classmethod
    def from_lab_units(cls, freq_ghz: float, d_p1_ps_sqrt_km: float,
                       d_p2_ps_sqrt_km: float, mu_per_km: float,
                       a1: float, a2: float, sign: int = +1) -> "PmdModelParams":
        """Build from detuning frequency [GHz], PMD coefficients [ps/sqrt(km)]
        and loss [1/km]."""
        return cls(
            delta_omega=2.0 * math.pi * freq_ghz * 1e9,
            d_p1=d_p1_ps_sqrt_km * PS_PER_SQRT_KM,
            d_p2=d_p2_ps_sqrt_km * PS_PER_SQRT_KM,
            mu=mu_per_km * PER_KM,
            a1=a1, a2=a2, sign=sign,
        )


@dataclass(frozen=True)
class CavityModelParams:
    """Parameters of the linear-phase decay model (SI units).

    ``lambda_width`` is the reservoir spectral width; it enters only the
    spectral-density diagnostic, not the decay curves.
    """

    kappa1: float              # 1/s
    kappa2: float              # 1/s
    gamma0: float              # 1/s
    w1: float
    w2: float
    lambda_width: float = 1e6  # 1/s

    def __post_init__(self) -> None:
        for name in ("kappa1", "kappa2", "gamma0", "w1", "w2", "lambda_width"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative")
        if self.w1 + self.w2 <= 0:
            raise ValueError("weights must have a positive sum")

    @classmethod
    def from_lab_units(cls, kappa1_per_ms: float, kappa2_per_ms: float,
                       gamma0_per_ms: float, w1: float, w2: float,
                       lambda_per_ms: float = 1e3) -> "CavityModelParams":
        return cls(kappa1=kappa1_per_ms * PER_MS, kappa2=kappa2_per_ms * PER_MS,
                   gamma0=gamma0_per_ms * PER_MS, w1=w1, w2=w2,
                   lambda_width=lambda_per_ms * PER_MS)


# JSON field names shared with the CLI config format.
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


def params_from_dict(data: dict) -> tuple[PmdModelParams, CavityModelParams, UnitContext]:
    """Both parameter sets and the unit context from a flat dict keyed by the
    config field names; raises KeyError on missing fields."""
    units = UnitContext(n_r=float(data["n_r"]))
    pmd = PmdModelParams(**{attr: (int(data[key]) if attr == "sign" else float(data[key]))
                            for key, attr in _PMD_FIELDS.items()})
    cavity = CavityModelParams(**{attr: float(data[key])
                                  for key, attr in _CAVITY_FIELDS.items()})
    return pmd, cavity, units


def _bracket(phi, sign: int):
    """cos(phi) + sign sin(phi); broadcasts, accepts complex phi, and
    evaluates no sine when sign is 0."""
    return np.cos(phi) + sign * np.sin(phi) if sign else np.cos(phi)


# ---------------------------------------------------------------------------
# sqrt(L) phase models
# ---------------------------------------------------------------------------

def pmd_phase(delta_omega: float, d_p: float, length):
    """Differential phase delta_omega * D_p * sqrt(L) accumulated over L meters."""
    length = np.asarray(length, dtype=float)
    if np.any(length < 0):
        raise ValueError("fiber length must be nonnegative")
    out = delta_omega * d_p * np.sqrt(length)
    return float(out) if out.ndim == 0 else out


def prob_pf(phases: PmdPhases, mu: float, length: float) -> float:
    """Pair probability after the polarization map, normalized to 1 at zero
    phase and zero loss:

        (1/4) exp(-2 mu L) [cos(dphi_h) + sin(dphi_h) - sin(dphi_v) + cos(dphi_v)]^2

    Its range is [0, 2], not [0, 1]: the bracket reaches 2 sqrt(2) at
    (dphi_h, dphi_v) = (pi/4, -pi/4), where the value is 2 at zero loss.
    """
    if mu < 0 or length < 0:
        raise ValueError("mu and length must be nonnegative")
    bracket = _bracket(phases.dphi_h, +1) + _bracket(phases.dphi_v, -1)
    return float(0.25 * np.exp(-2.0 * mu * length) * bracket**2)


def pa(t, delta_omega: float, d_p: float, mu: float, sign: int,
       units: UnitContext = UnitContext()):
    """Counter-rotating component exp(-2 mu L) [cos(dphi) + sign sin(dphi)]^2,
    dphi = delta_omega d_p sqrt(L) (unweighted)."""
    length = length_from_time(t, units)
    phi = pmd_phase(delta_omega, d_p, length)
    out = np.exp(-2.0 * mu * np.asarray(length)) * _bracket(phi, sign)**2
    return float(out) if np.ndim(out) == 0 else out


def psy(t, delta_omega: float, d_p: float, mu: float,
        units: UnitContext = UnitContext()):
    """Co-rotating component exp(-2 mu L) cos^2(dphi), dphi = delta_omega d_p
    sqrt(L) (unweighted): :func:`pa` without the sine term."""
    return pa(t, delta_omega, d_p, mu, 0, units)


def prob_pasy(t, params: PmdModelParams, units: UnitContext = UnitContext()):
    """Weighted two-component PMD model a1 * pa(d_p1, sign) + a2 * psy(d_p2)."""
    out = (params.a1 * pa(t, params.delta_omega, params.d_p1, params.mu, params.sign, units)
           + params.a2 * psy(t, params.delta_omega, params.d_p2, params.mu, units))
    return float(out) if np.ndim(out) == 0 else out


def prob_asym(phases: PmdPhases, mu: float, length: float, sign: int = +1) -> float:
    """Expanded seven-term pair probability for unequal phases, s = sign
    selecting the rotation branch:

        exp(-2 mu L) [ 2 + 2 cos(dv) cos(dh) - 2 sin(dh) sin(dv)
                       + s (  2 cos(dh) sin(dh) - 2 cos(dh) sin(dv)
                            - 2 cos(dv) sin(dv) + 2 cos(dv) sin(dh) ) ]

    On both branches this equals 4 * prob_pf of the phases (s dh, s dv), the
    unnormalized square of the four-term bracket, and is evaluated as such.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return 4.0 * prob_pf(PmdPhases(sign * phases.dphi_h, sign * phases.dphi_v), mu, length)


def asym_series_residual(phases: PmdPhases, mu: float, length: float) -> float:
    """Gap between prob_asym (+ branch) and its small-angle expansion through
    the terms quadratic in the phases:

        exp(-2 mu L) [ 4 + 4 (dh - dv) - (dh + dv)^2 ]

    When the phases scale like sqrt(L) the leading omitted term is cubic, so
    the residual shrinks like L^(3/2).
    """
    dh, dv = phases.dphi_h, phases.dphi_v
    truncated = np.exp(-2.0 * mu * length) * (4.0 + 4.0 * (dh - dv) - (dh + dv)**2)
    return float(abs(prob_asym(phases, mu, length, +1) - truncated))


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
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
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
            out = np.exp(exponent) * bracket**2
        else:
            # (gamma0/delta) sin(delta t/4) written via sinc to stay smooth as delta -> 0
            bracket = np.cos(x) + gamma0 * (t / 4.0) * np.sinc(x / np.pi)
            out = _enveloped(gamma0, t, bracket**2)
    return float(out) if out.ndim == 0 else out


def p1(t, kappa1: float, gamma0: float):
    """Component with the counter-rotating bracket:
    exp(-gamma0 t/2) [cos(kappa1 t / sqrt2) + sin(kappa1 t / sqrt2)]^2."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):  # kappa1 x time may overflow
        out = _enveloped(gamma0, t, _bracket(kappa1 * t / math.sqrt(2.0), +1)**2)
    return float(out) if out.ndim == 0 else out


def p2(t, kappa2: float, gamma0: float):
    """Component with the plain harmonic: exp(-gamma0 t/2) cos^2(kappa2 t)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):  # kappa2 x time may overflow
        out = _enveloped(gamma0, t, _bracket(kappa2 * t, 0)**2)
    return float(out) if out.ndim == 0 else out


def p3(t, params: CavityModelParams):
    """Weighted two-component cavity model w1 * p1 + w2 * p2."""
    out = (params.w1 * p1(t, params.kappa1, params.gamma0)
           + params.w2 * p2(t, params.kappa2, params.gamma0))
    return float(out) if np.ndim(out) == 0 else out


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


def lorentzian_spectral_density(omega: float, omega0: float, gamma0: float,
                                lambda_width: float) -> float:
    """Effective reservoir spectral density
    gamma0 Lambda^2 / ((omega0 - omega)^2 + Lambda^2)."""
    if lambda_width <= 0:
        raise ValueError("spectral width must be positive")
    detune = omega0 - omega
    return float(gamma0 * lambda_width**2 / (detune**2 + lambda_width**2))


def markovian_exponential(t, p0: float, rate: float):
    """Memoryless control model p0 * exp(-rate * t)."""
    if not 0.0 < p0 <= 1.0:
        raise ValueError(f"initial probability must lie in (0, 1], got {p0}")
    if rate < 0.0:
        raise ValueError(f"decay rate must be nonnegative, got {rate}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    out = p0 * np.exp(-rate * t)
    return float(out) if out.ndim == 0 else out
