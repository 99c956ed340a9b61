"""Decoherence channels acting on the buffered photon pair.

Two mechanisms act on the buffered (idler) photon, each a complex 2x2 array:
the birefringence-induced polarization rotation (PMD) and amplitude damping.
Scalar fiber attenuation exp(-2 mu L) enters only as the envelope of the PMD
decay models in ``dynamics``.

``pmd_operator`` takes its two phase angles and ``amplitude_damping_kraus``
its xi unchecked, as no command reaches either; ``damp_werner`` checks tomo's
--xi.
"""

from __future__ import annotations

import math

import numpy as np

from .states import make_werner


def pmd_operator(dphi_h: float, dphi_v: float) -> np.ndarray:
    """Polarization map of the buffered (idler) photon, for the phases the
    fiber birefringence pulls onto each polarization component (radians,
    finite and unbounded: they wrap).

    Sends H -> cos(dphi_h) H + sin(dphi_h) V and
          V -> cos(dphi_v) V - sin(dphi_v) H.
    Unitary only when the two phases coincide.
    """
    ch, sh = np.cos(dphi_h), np.sin(dphi_h)
    cv, sv = np.cos(dphi_v), np.sin(dphi_v)
    return np.array([[ch, -sv], [sh, cv]], dtype=complex)


def amplitude_damping_kraus(xi: float) -> tuple[np.ndarray, np.ndarray]:
    """Kraus pair of the amplitude-damping channel with decay probability xi.

    Gamma0 = diag(1, sqrt(1-xi)) attenuates the V amplitude; Gamma1 moves
    population V -> H with weight sqrt(xi).  The pair satisfies
    Gamma0^dag Gamma0 + Gamma1^dag Gamma1 = I.
    """
    return (np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - xi)]], dtype=complex),
            np.array([[0.0, np.sqrt(xi)], [0.0, 0.0]], dtype=complex))


def damp_werner(p: float, xi: float) -> np.ndarray:
    """Werner state after amplitude relaxation of the buffered arm.

    Operator-sum action of diag(1, sqrt(1-xi)) together with the H -> V
    population feed sqrt(xi)|V><H|, which yields the closed form

        diag( (1+p)/4,
              (1-p)(1-xi)/4 + (1+p) xi/4,
              (1-p)/4,
              (1+p)(1-xi)/4 + (1-p) xi/4 )

    with corner coherences p sqrt(1-xi)/2.  This pair is trace-preserving on
    the Werner family (though not universally), keeps the maximally mixed
    state fixed, and reproduces the single-element probability estimators
    p'11 = p, p'22 = p(1-2 xi), p'14 = p sqrt(1-xi) extracted downstream by
    tomography.  The feed matches the excited-H/ground-V reading of the
    buffer; Gamma1 of :func:`amplitude_damping_kraus` feeds V -> H instead.

    Written on the idler index directly, each product taken in the order of
    I (x) K rho (I (x) K)^dag, so the bytes equal the sum of
    ``states.apply_operator`` over the two operators.
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"damping probability must lie in [0, 1], got {xi}")
    rho = make_werner(p)
    keep, feed = math.sqrt(1.0 - xi), math.sqrt(xi)
    d = np.array([1.0, keep, 1.0, keep])
    out = rho * d[:, None] * d
    out[1::2, 1::2] += rho[::2, ::2] * feed * feed
    return out
