"""Dichotomized-quadrature (homodyne) correlators.

Quadrature outcomes are binned by sign.  For Gaussian states the correlator
is the bivariate-normal orthant arcsine of the quadrature correlation
coefficient, so it never beats the two-party local bound.  The heralded
non-Gaussian state is the traced Gaussian state minus the one heralded by no
click, so its correlator is two arcsines in the combined angle psi; it stays
below the classical sawtooth in magnitude everywhere.  Its overall sign is the
orthant oracle's, which is opposite to the sign of the printed closed form.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .conditional import ConditionalParams, _check_click
from .errors import InvalidParameterError, PrecisionError
from .gaussian import GaussianState
from .bell_dp import CHSH_TERMS, _bell_sum

# columns of [theta, theta', phi, phi'] for the four CHSH terms
_THETA_COLS = CHSH_TERMS[:, 0]
_PHI_COLS = 2 + CHSH_TERMS[:, 1]
_ROWS = 1024   # rows of phases per ``e_h`` call in ``chsh_h``


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
    ``ConditionalParams`` gives, in psi = theta + phi + phi2, the traced
    state's arcsine minus P_off times the no-click state's, over P_on:
    (2/pi) [(1 + eta n3) arcsin(r_tr cos psi) - arcsin(r_off cos psi)] / (eta n3),
    r_tr^2 = 4(1+n1)n2 / ((1+2n1)(1+2n2)), r_off^2 = 4(1+n1)n2 / ((1+2n1-eta n3)
    (1+2n2+eta n3)); it is zero at n2 = 0, and the difference of the two
    arcsines is formed without cancellation, so the 1/(eta n3) does not
    scale rounding as eta n3 -> 0.  Raises ``InvalidParameterError`` on a
    non-finite phase or a target that is neither ``ConditionalParams`` nor
    two-mode, ``UndefinedStateError`` for a heralded state that admits no
    click (eta = 0 or n3 = 0), and ``PrecisionError`` if rounding puts a Gaussian
    state's correlation outside the arcsine domain.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if (np.count_nonzero(np.isfinite(theta)) < theta.size
            or np.count_nonzero(np.isfinite(phi)) < phi.size):
        raise InvalidParameterError("phases must be finite")
    return _correlator(target)(theta, phi)


def _correlator(target: ConditionalParams | GaussianState
                ) -> Callable[[ArrayLike, ArrayLike], NDArray[np.float64]]:
    """``target``'s correlator as a function of finite phases (theta, phi),
    the target checked once, here: a heralded state must admit a click, and
    any other target must have ``n_modes`` = 2.  ``e_h`` checks the phases
    and calls it; a scan over phases it generates calls it directly."""
    if isinstance(target, ConditionalParams):
        _check_click(target)
        return lambda theta, phi: _e_h_heralded(target, theta + phi + target.phi2)
    modes = getattr(target, "n_modes", None)     # not a class check: any two-mode target with a cov
    if modes != 2:
        raise InvalidParameterError(f"two-mode Gaussian state required, got"
                                    f" {type(target).__name__} with n_modes = {modes}")
    return lambda theta, phi: _e_h_orthant(target, theta, phi)


def _e_h_orthant(s: GaussianState, theta: ArrayLike, phi: ArrayLike) -> NDArray[np.float64]:
    (c00, c01, c02, c03), (_, c11, c12, c13), (_, _, c22, c23), (_, _, _, c33) = s.cov.tolist()
    c1, s1 = np.cos(theta), np.sin(theta)     # mode 1 quadrature x1 cos + y1 sin
    c2, s2 = np.cos(phi), np.sin(phi)         # mode 2 quadrature x2 cos + y2 sin
    var1 = c00 * c1 * c1 + 2.0 * c02 * c1 * s1 + c22 * s1 * s1
    var2 = c11 * c2 * c2 + 2.0 * c13 * c2 * s2 + c33 * s2 * s2
    cov = c01 * c1 * c2 + c03 * c1 * s2 + c12 * s1 * c2 + c23 * s1 * s2
    rho = cov / np.sqrt(var1 * var2)
    worst = np.abs(rho).max(initial=0.0)
    if worst > 1.0 + 1e-12:
        raise PrecisionError(f"quadrature correlation {worst} outside [-1, 1]")
    return (2.0 / math.pi) * np.arcsin(np.clip(rho, -1.0, 1.0))


def _e_h_heralded(p: ConditionalParams, psi: NDArray) -> NDArray[np.float64]:
    # ON-heralded = (traced - P_off * OFF-heralded) / P_on, two Gaussian states with
    # correlation r cos(psi), r^2 = n2 rho, rho = 4 (1+n1) / (a b), 1 - r^2 = c / (a b).
    # Each arcsin(r cos psi) = 2 arcsin(y), y^2 = (1 - s)/2, s = sqrt(c/(ab) + r^2 sin^2 psi);
    # E = (4/pi) [arcsin(y_tr) + arcsin(w) / (eta n3)], w = y_tr k_off - y_off k_tr,
    # k = sqrt(1 - y^2), written through rho_tr - rho_off = rho_tr (2 - eta) eta n3^2 /
    # (a_off b_off), so that nothing cancels as |r cos psi| -> 1 or eta n3 -> 0
    n2, n3, eta, en3 = p.n2, p.n3, p.eta, p.eta * p.n3
    cs, sn2 = np.cos(psi), np.sin(psi) ** 2
    a_tr, b_tr, c_tr = 1 + 2 * (n2 + n3), 1 + 2 * n2, 1 + 2 * n3
    a_off, b_off, c_off = 1 + 2 * n2 + (2 - eta) * n3, 1 + 2 * n2 + en3, 1 + 2 * n3 + (2 - eta) * en3 * n3
    rho_tr, rho_off = 4 * (1 + n2 + n3) / a_tr / b_tr, 4 * (1 + n2 + n3) / a_off / b_off
    s_tr = np.sqrt(c_tr / a_tr / b_tr + n2 * rho_tr * sn2)
    s_off = np.sqrt(c_off / a_off / b_off + n2 * rho_off * sn2)
    y_tr = math.sqrt(n2 * rho_tr / 2) * cs / np.sqrt(1 + s_tr)
    w = (cs * math.sqrt(n2) * rho_tr * ((2 - eta) * en3 * n3 / a_off / b_off)
         * np.sqrt((1 + s_tr) * (1 + s_off))
         / (math.sqrt(rho_tr) * (1 + s_off) + math.sqrt(rho_off) * (1 + s_tr)))
    # s_tr + s_off = 0 only where c/(ab) underflows (n2 above about 1e154 at
    # sin psi = 0); w is below 1/n2 there
    s_sum = s_tr + s_off
    w = np.divide(w, s_sum, out=np.zeros(np.shape(s_sum)), where=s_sum > 0)
    # at aligned phases the sum rounds one step past pi/4 from n2 of about 1e16 on
    return np.clip((4 / math.pi) * (np.arcsin(y_tr) + np.arcsin(w) / en3), -1.0, 1.0)


def chsh_h(target: ConditionalParams | GaussianState, angles: ArrayLike) -> NDArray[np.float64]:
    """|E(t, p) + E(t, p') + E(t', p) - E(t', p')| for each row [t, t', p, p']
    of an (m, 4) array of phases, one stacked call of ``e_h`` per ``_ROWS``
    rows, so a long sweep's temporaries stay in cache; each row's value is
    the one a single call over all rows gives."""
    a = np.asarray(angles, dtype=float)
    if a.ndim != 2 or a.shape[1] != 4:
        raise InvalidParameterError(f"angles must have shape (m, 4), got {a.shape}")
    return np.concatenate([
        _bell_sum(e_h(target, b.take(_THETA_COLS, axis=1), b.take(_PHI_COLS, axis=1)))
        for b in np.split(a, range(_ROWS, len(a), _ROWS))])
