"""Dichotomized-quadrature (homodyne) correlators.

Quadrature outcomes are binned by sign.  For Gaussian states the correlator
is the bivariate-normal orthant arcsine of the quadrature correlation
coefficient, so it never beats the two-party local bound; the heralded
non-Gaussian state has a closed form in the combined angle psi and stays
below the classical sawtooth in magnitude everywhere.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .conditional import ConditionalParams, two_gaussian_form
from .errors import InvalidParameterError, PrecisionError
from .gaussian import GaussianState
from .bell_dp import CHSH_TERMS, _bell_sum

# columns of [theta, theta', phi, phi'] for the four CHSH terms
_THETA_COLS = CHSH_TERMS[:, 0]
_PHI_COLS = 2 + CHSH_TERMS[:, 1]


def classical_reference(psi: float) -> float:
    """Sawtooth correlation of two perfectly correlated classical dichotomic spins.

    1 - 2|psi|/pi on [-pi, pi], continued 2pi-periodically.
    """
    w = math.remainder(psi, 2.0 * math.pi)  # wraps into [-pi, pi]
    return 1.0 - 2.0 * abs(w) / math.pi


def e_h(target: ConditionalParams | GaussianState,
        theta: ArrayLike, phi: ArrayLike) -> NDArray[np.float64]:
    """Sign-binned quadrature correlator at local-oscillator phases ``theta``
    (mode 1) and ``phi`` (mode 2), broadcast elementwise over arrays of them.

    A two-mode ``GaussianState`` gives (2/pi) arcsin(rho), with the quadrature
    variances and covariance written out from its covariance matrix.  A
    ``ConditionalParams`` gives the heralded state's closed two-arctangent form
    in psi = theta + phi + phi2.  The overall sign is fixed by the Fock orthant
    oracle (positive correlation at psi = 0); it vanishes at psi = pi/2 by the
    odd symmetry in cos(psi).  Raises ``InvalidParameterError`` on a
    non-finite phase, ``UndefinedStateError`` for a heralded state that admits
    no click (eta = 0 or n3 = 0), and ``PrecisionError`` if any element leaves
    the arcsine or arctangent domain.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if not (np.isfinite(theta).all() and np.isfinite(phi).all()):
        raise InvalidParameterError("phases must be finite")
    if isinstance(target, ConditionalParams):
        return _e_h_heralded(target, theta + phi + target.phi2)
    return _e_h_orthant(target, theta, phi)


def _e_h_orthant(s: GaussianState, theta: NDArray, phi: NDArray) -> NDArray[np.float64]:
    if s.n_modes != 2:
        raise InvalidParameterError("two-mode Gaussian state required")
    (c00, c01, c02, c03), (_, c11, c12, c13), (_, _, c22, c23), (_, _, _, c33) = s.cov.tolist()
    c1, s1 = np.cos(theta), np.sin(theta)     # mode 1 quadrature x1 cos + y1 sin
    c2, s2 = np.cos(phi), np.sin(phi)         # mode 2 quadrature x2 cos + y2 sin
    var1 = c00 * c1 * c1 + 2.0 * c02 * c1 * s1 + c22 * s1 * s1
    var2 = c11 * c2 * c2 + 2.0 * c13 * c2 * s2 + c33 * s2 * s2
    cov = c01 * c1 * c2 + c03 * c1 * s2 + c12 * s1 * c2 + c23 * s1 * s2
    rho = cov / np.sqrt(var1 * var2)
    worst = np.max(np.abs(rho), initial=0.0)
    if worst > 1.0 + 1e-12:
        raise PrecisionError(f"quadrature correlation {worst} outside [-1, 1]")
    return (2.0 / math.pi) * np.arcsin(np.clip(rho, -1.0, 1.0))


def _e_h_heralded(p: ConditionalParams, psi: NDArray) -> NDArray[np.float64]:
    form = two_gaussian_form(p)
    if p.n2 <= 0.0:
        raise PrecisionError("the closed form needs n2 > 0")
    n1, n2, n3, eta = p.n2 + p.n3, p.n2, p.n3, p.eta
    det_vp, det_d = form.norm_a, form.norm_b
    cs = np.cos(psi)
    z1 = (1 + 2 * n1) * (1 + 2 * n2) / ((1 + n1) * n2)
    z2 = (1 + 2 * n1 - n3 * eta) * (1 + 2 * n2 + n3 * eta) / ((1 + n1) * n2)
    d1, d2 = z1 - 4 * cs * cs, z2 - 4 * cs * cs
    if not ((d1 > 0).all() and (d2 > 0).all()):
        raise PrecisionError("arctangent argument left its domain")
    pref = (1 + eta * n3) / (4 * eta * n3)
    t1 = -(2 / math.pi) ** 2 / math.sqrt(det_vp) * (
        2 * (1 + 2 * n3) * math.pi * np.arctan(2 * cs / np.sqrt(d1)))
    t2 = -(1 / eta) * (2 / math.pi) ** 2 * 2 / math.sqrt(det_d) * (
        2 * math.pi * (-1 + n3 * (eta - 2)) / (1 + n3 * eta)
        * np.arctan(2 * cs / np.sqrt(d2)))
    # the printed closed form carries a global minus sign relative to the
    # orthant oracle; return the oracle-signed value
    return -pref * (t1 + t2)


def chsh_h(target: ConditionalParams | GaussianState, angles: ArrayLike) -> NDArray[np.float64]:
    """|E(t, p) + E(t, p') + E(t', p) - E(t', p')| for each row [t, t', p, p']
    of an (m, 4) array of phases, from one stacked call of ``e_h``."""
    a = np.asarray(angles, dtype=float)
    if a.ndim != 2 or a.shape[1] != 4:
        raise InvalidParameterError(f"angles must have shape (m, 4), got {a.shape}")
    e = e_h(target, a.take(_THETA_COLS, axis=1), a.take(_PHI_COLS, axis=1))
    return _bell_sum(e)
