"""Two-qubit polarization states and basic operator algebra.

Conventions used throughout the package:

* computational basis order (|HH>, |HV>, |VH>, |VV>), with the signal
  photon as the left tensor factor and the idler as the right one;
* derived single-photon states D = (H+V)/sqrt(2), A = (H-V)/sqrt(2),
  R = (H-iV)/sqrt(2), L = (H+iV)/sqrt(2);
* pure states are complex 4-vectors, density matrices complex 4x4 arrays.

All functions are pure and never mutate their arguments.  No function
requires a state: ``validate`` is the tests' oracle for the states that
``make_werner`` and ``channels.damp_werner`` build from checked parameters.
``apply_operator`` takes complex 4x4 and 2x2 arrays unchecked: no command calls it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_D = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_A = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
KET_R = np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0)
KET_L = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)

SINGLE_QUBIT_KETS = {"H": KET_H, "V": KET_V, "D": KET_D, "A": KET_A,
                     "R": KET_R, "L": KET_L}

# Numerical tolerances for the density-matrix contract.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
MIN_EIGENVALUE = -1e-9
_MAX_MODULUS = sys.float_info.max / 8  # larger entries could overflow a residual


@dataclass(frozen=True)
class ValidationReport:
    """Residuals of the density-matrix contract, plus the overall verdict."""

    hermiticity_residual: float
    trace_residual: float
    min_eigenvalue: float

    @property
    def passed(self) -> bool:
        return (self.hermiticity_residual <= HERMITICITY_TOL
                and self.trace_residual <= TRACE_TOL
                and self.min_eigenvalue >= MIN_EIGENVALUE)


def make_bell_phi_plus() -> np.ndarray:
    """The maximally entangled state (|HH> + |VV>)/sqrt(2)."""
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def product_ket(signal: str, idler: str) -> np.ndarray:
    """Two-photon product state |signal> (x) |idler> from polarization labels,
    keys of ``SINGLE_QUBIT_KETS``: its one caller passes ``tomography.SETTINGS``."""
    return np.kron(SINGLE_QUBIT_KETS[signal], SINGLE_QUBIT_KETS[idler])


_BELL = make_bell_phi_plus()
_BELL_PROJECTOR = np.outer(_BELL, _BELL.conj())
_IDENTITY = np.eye(4, dtype=complex)


def make_werner(p: float) -> np.ndarray:
    """Werner state: the Bell projector mixed with identity.

    W = p |phi+><phi+| + (1-p)/4 * I, for mixing probability p in [0, 1].
    Diagonal ((1+p)/4, (1-p)/4, (1-p)/4, (1+p)/4), corner entries p/2.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Werner probability must lie in [0, 1], got {p}")
    return p * _BELL_PROJECTOR + (1.0 - p) / 4.0 * _IDENTITY


def validate(rho: np.ndarray) -> ValidationReport:
    """Report how far a matrix deviates from being a physical two-qubit state.

    Never raises: reconstruction noise routinely produces slightly unphysical
    matrices, and callers need the residuals to decide.  A shape other than
    4x4, or an entry not finite or of modulus above an eighth of the largest
    float, fails the matrix with nan residuals before any arithmetic.
    """
    # nan fails the modulus test too
    if rho.shape != (4, 4) or not np.maximum.reduce(np.abs(rho), axis=None) <= _MAX_MODULUS:
        return ValidationReport(math.nan, math.nan, math.nan)
    adjoint = rho.conj().T
    herm = float(np.abs(rho - adjoint).max())
    trace = float(abs(rho.trace() - 1.0))
    # the eigenvalues need an exactly Hermitian input; symmetrize first.  The
    # gufunc is np.linalg.eigvalsh's LAPACK call without the wrapper's checks
    sym = 0.5 * (rho + adjoint)
    min_eig = float(_umath_linalg.eigvalsh_lo(sym, signature="D->d")[0])
    return ValidationReport(herm, trace, min_eig)


def apply_operator(rho: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Conjugate rho by a 2x2 operator on the idler: K rho K^dag with K = I (x) op.

    The result is not renormalized; Kraus pairs summing to a trace-preserving
    map rely on this.  ``rho`` is a 4x4 array and ``op`` a finite 2x2 one.
    """
    k = np.kron(np.eye(2, dtype=complex), op)
    return k @ rho @ k.conj().T


def rho_to_pairs(rho: np.ndarray) -> list:
    """A 4x4 matrix as row-major nested lists of [re, im] pairs of Python floats."""
    # a complex128 array's memory holds each entry as its (re, im) pair
    return np.ascontiguousarray(rho, dtype=complex).view(float).reshape(4, 4, 2).tolist()
