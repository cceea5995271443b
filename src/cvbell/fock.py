"""Brute-force truncated Fock-space engine.

Everything here is an independent numerical oracle: every state is a
``FockDensityOperator``, weighted kets over a truncated number basis (a pure
state is one renormalized ket), and all expectation values are computed by
operator algebra with no reference to the closed forms they are used to check.  The displacement operator is the exact
number-basis matrix, cropped to the cutoff, from its Laguerre closed form; it
shares nothing with the Gaussian covariance path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import CutoffTooSmallError, InvalidParameterError, PrecisionError, UndefinedStateError
from .gaussian import TripartitePhotonNumbers

TAIL_BUDGET = 1e-6


@dataclass(frozen=True)
class FockDensityOperator:
    """Density operator sum_i w_i |k_i><k_i| over the truncated product basis.

    ``kets`` has shape (r,) + (cutoff,)*n_modes and ``weights`` shape (r,);
    the kets need not be normalized, but the weights must be finite and
    non-negative and the trace sum_i w_i <k_i|k_i> must be 1.
    """

    n_modes: int
    cutoff: int
    kets: NDArray[np.complex128]
    weights: NDArray[np.float64]

    def __post_init__(self):
        k = np.asarray(self.kets, dtype=complex)
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or k.shape != w.shape + (self.cutoff,) * self.n_modes:
            raise InvalidParameterError(
                "kets must have shape (r,) + (cutoff,)*n_modes for r weights")
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise InvalidParameterError("weights must be finite and non-negative")
        tr = float(w @ np.sum(np.abs(k.reshape(w.size, -1)) ** 2, axis=1))
        if not abs(tr - 1.0) <= 1e-9:
            raise InvalidParameterError(f"trace must be 1, got {tr}")
        k.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "kets", k)
        object.__setattr__(self, "weights", w)


def su21_fock(p: TripartitePhotonNumbers, cutoff: int) -> FockDensityOperator:
    """The interlinked-interaction state as one ket, truncated at ``cutoff``
    and renormalized by its weight.

    Support is |p+q, p, q> with amplitude
    (1+N1)^{-1/2} x^{p/2} y^{q/2} e^{-i(p phi2 + q phi3)} sqrt((p+q)!/(p! q!)),
    x = N2/(1+N1), y = N3/(1+N1).
    """
    if cutoff < 2:
        raise InvalidParameterError("cutoff must be >= 2")
    n1 = p.n1
    tail = (n1 / (1 + n1)) ** cutoff if n1 > 0 else 0.0
    if tail > TAIL_BUDGET:
        need = math.ceil(math.log(TAIL_BUDGET) / math.log(n1 / (1 + n1)))
        raise CutoffTooSmallError(
            f"tail mass {tail:.3e} exceeds {TAIL_BUDGET:.1e}; use cutoff >= {need}", need
        )
    x = p.n2 / (1 + n1)
    y = p.n3 / (1 + n1)
    amps = np.zeros((cutoff,) * 3, dtype=complex)
    for pp in range(cutoff):
        if x == 0.0 and pp > 0:
            break
        for q in range(cutoff - pp):
            if y == 0.0 and q > 0:
                break
            lg = 0.5 * (math.lgamma(pp + q + 1) - math.lgamma(pp + 1) - math.lgamma(q + 1))
            mag = (1 + n1) ** -0.5 * x ** (pp / 2) * y ** (q / 2) * math.exp(lg)
            amps[pp + q, pp, q] = mag * np.exp(-1j * (pp * p.phi2 + q * p.phi3))
    return FockDensityOperator(3, cutoff, amps[None], [1 / np.sum(np.abs(amps) ** 2)])


def twb_fock(x: float, cutoff: int) -> FockDensityOperator:
    """Twin beam sqrt(1-X^2) sum_n X^n |n,n> as one ket, truncated at ``cutoff``
    and renormalized by its weight."""
    if not 0.0 <= x < 1.0:
        raise InvalidParameterError("X must lie in [0, 1)")
    if cutoff < 2:
        raise InvalidParameterError("cutoff must be >= 2")
    tail = x ** (2 * cutoff)
    if tail > TAIL_BUDGET:
        need = math.ceil(math.log(TAIL_BUDGET) / (2 * math.log(x)))
        raise CutoffTooSmallError(
            f"tail mass {tail:.3e} exceeds {TAIL_BUDGET:.1e}; use cutoff >= {need}", need
        )
    amps = np.zeros((cutoff, cutoff), dtype=complex)
    amps[np.arange(cutoff), np.arange(cutoff)] = np.sqrt(1 - x**2) * x ** np.arange(cutoff)
    return FockDensityOperator(2, cutoff, amps[None], [1 / np.sum(np.abs(amps) ** 2)])


# ---------------------------------------------------------------------------
# mode operators

def displacement(alpha: complex, cutoff: int) -> NDArray[np.complex128]:
    """<m|D(alpha)|n> for m, n < cutoff: the exact matrix elements, cropped.

    For m >= n the element is sqrt(n!/m!) alpha^(m-n) e^(-|alpha|^2/2)
    L_n^(m-n)(|alpha|^2); for m < n, swap m and n and put -alpha* in place of
    alpha (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)).  The Laguerre
    values come from the three-term recurrence in the degree, one vector over
    k = |m-n| per step, and the magnitude prefactor is taken in log space.
    """
    alpha = complex(alpha)
    if alpha == 0:
        return np.eye(cutoff, dtype=complex)
    r = abs(alpha)
    x = r * r
    k = np.arange(cutoff)
    j = k[:, None]
    # L_{j+1}^(k) = a[j, k] L_j^(k) - b[j, k] L_{j-1}^(k); forming a and b once
    # leaves two row products per step
    a = (2 * j + 1 + k - x) / (j + 1)
    b = (j + k) / (j + 1)
    lag = np.empty((cutoff, cutoff))   # lag[j, k] = L_j^(k)(x)
    lag[0] = 1.0
    if cutoff > 1:
        lag[1] = 1.0 + k - x
    for i in range(1, cutoff - 1):
        lag[i + 1] = a[i] * lag[i] - b[i] * lag[i - 1]

    m, n = np.indices((cutoff, cutoff))
    lo, d = np.minimum(m, n), np.abs(m - n)
    log_fact = np.array([math.lgamma(i + 1) for i in range(cutoff)])
    log_mag = 0.5 * (log_fact[lo] - log_fact[lo + d]) + d * math.log(r) - x / 2
    u = alpha / r
    phase = np.where(m >= n, (u**k)[d], ((-u.conjugate()) ** k)[d])
    return np.exp(log_mag) * lag[lo, d] * phase


@lru_cache(maxsize=32)
def _parity(cutoff: int) -> NDArray[np.float64]:
    d = np.ones(cutoff)
    d[1::2] = -1.0
    return d


def _sz(cutoff: int) -> NDArray[np.float64]:
    # odd number states +1, even -1, exactly as defined
    return np.diag(-_parity(cutoff))


def _s_minus(cutoff: int) -> NDArray[np.float64]:
    m = np.zeros((cutoff, cutoff))
    ev = np.arange(0, cutoff - 1, 2)
    m[ev, ev + 1] = 1.0
    return m


def pseudospin_axis_op(theta: float, phi: float, cutoff: int) -> NDArray[np.complex128]:
    """d.s = s_z cos(theta) + sin(theta)(e^{i phi} s_- + e^{-i phi} s_+)."""
    sm = _s_minus(cutoff)
    return (_sz(cutoff) * np.cos(theta)
            + np.sin(theta) * (np.exp(1j * phi) * sm + np.exp(-1j * phi) * sm.T))


def _apply_mode_op(amps: NDArray, op: NDArray, axis: int) -> NDArray:
    out = np.tensordot(op, amps, axes=(1, axis))
    return np.moveaxis(out, 0, axis)


def _expect(state: FockDensityOperator, ops: Sequence[NDArray]) -> float:
    """sum_i w_i <k_i| (x)ops |k_i>."""
    phi = state.kets
    for j, op in enumerate(ops, start=1):
        phi = _apply_mode_op(phi, op, j)
    per_ket = np.sum((state.kets.conj() * phi).reshape(state.weights.size, -1), axis=1)
    return float(state.weights @ np.real(per_ket))


def _check_finite(what: str, values) -> None:
    if not np.all(np.isfinite(np.asarray(values))):
        raise InvalidParameterError(f"{what} must be finite, got {values!r}")


def displaced_parity_expect(state: FockDensityOperator,
                            alphas: Sequence[complex]) -> float:
    """<prod_j D(a_j)(-1)^{n_j} D^dag(a_j)>, in [-1, 1].

    Guard: each |alpha|^2 <= cutoff/10, keeping the displaced state far from
    the truncation edge.  A non-finite displacement is an ``InvalidParameterError``.
    """
    cutoff = state.cutoff
    alphas = [complex(a) for a in alphas]
    if len(alphas) != state.n_modes:
        raise InvalidParameterError("one displacement per mode required")
    _check_finite("displacements", alphas)
    for a in alphas:
        if abs(a) ** 2 > cutoff / 10.0:
            raise PrecisionError(
                f"|alpha|^2 = {abs(a)**2:.3f} exceeds cutoff/10 = {cutoff / 10:.1f}"
            )
    par = _parity(cutoff)
    ops = []
    for a in alphas:
        d = displacement(a, cutoff)
        ops.append(d @ (par[:, None] * d.conj().T))
    return _expect(state, ops)


def pseudospin_expect(state: FockDensityOperator,
                      axes: Sequence[tuple[float, float]]) -> float:
    """<prod_j d_j . s_j> for one finite (theta, phi) pair per mode; even cutoff only."""
    if state.cutoff % 2 != 0:
        raise InvalidParameterError("pseudospin requires an even cutoff")
    if len(axes) != state.n_modes:
        raise InvalidParameterError("one (theta, phi) pair per mode required")
    _check_finite("pseudospin axes", axes)
    return _expect(state, [pseudospin_axis_op(th, ph, state.cutoff) for th, ph in axes])


def _click_weights(cutoff: int, eta: float) -> NDArray[np.float64]:
    # diagonal of Pi_1 = I - sum_n (1-eta)^n |n><n|
    return 1.0 - (1.0 - eta) ** np.arange(cutoff)


def click_probability(state: FockDensityOperator, mode: int, eta: float) -> float:
    """Probability that an ON/OFF detector of efficiency ``eta`` on ``mode`` fires.

    Weighs the squared norm of each number-outcome slice of ``mode``, summed
    over the kets with their weights; no conditioned state is formed.
    """
    if not 0.0 <= eta <= 1.0:
        raise InvalidParameterError("eta must lie in [0, 1]")
    if not 0 <= mode < state.n_modes:
        raise InvalidParameterError("mode index out of range")
    others = tuple(j for j in range(1, state.n_modes + 1) if j != mode + 1)
    slice_norms = state.weights @ np.sum(np.abs(state.kets) ** 2, axis=others)
    return float(_click_weights(state.cutoff, eta) @ slice_norms)


def onoff_condition(state: FockDensityOperator, mode: int, eta: float) -> FockDensityOperator:
    """The state heralded by at least one photon on ``mode`` at an ON/OFF
    detector.

    Applies Pi_1 = I - sum_n (1-eta)^n |n><n| on the chosen mode, traces that
    mode out and renormalizes: the heralded operator holds the number-outcome
    slices of ``mode`` of each ket k_i as kets, weighted w_i (1 - (1-eta)^n)/P,
    with P = ``click_probability(state, mode, eta)``.  Where P = 0 (eta = 0, or
    no photon on ``mode``) the heralded state is undefined: ``UndefinedStateError``.
    """
    prob = click_probability(state, mode, eta)
    if prob <= 0.0:
        raise UndefinedStateError(f"the click probability on mode {mode} is 0;"
                                  " the heralded state is undefined")
    c = state.cutoff
    kets = np.moveaxis(state.kets, mode + 1, 1).reshape((-1,) + (c,) * (state.n_modes - 1))
    weights = np.outer(state.weights, _click_weights(c, eta)).ravel() / prob
    return FockDensityOperator(state.n_modes - 1, c, kets, weights)


# ---------------------------------------------------------------------------
# dichotomized quadratures

@lru_cache(maxsize=16)
def _half_line_matrices(cutoff: int) -> tuple[NDArray, NDArray]:
    """(H, G): H_mn = int_0^inf psi_m psi_n for the oscillator eigenfunctions
    (vacuum variance 1/2), and the sign-quadrature matrix G = 2H - I.

    Exact, from psi_n'' = (x^2 - 2n - 1) psi_n: for m + n odd,
    H_mn = (psi_m(0) psi_n'(0) - psi_m'(0) psi_n(0)) / (2(n - m)), with
    psi_2k(0) = -sqrt((2k-1)/2k) psi_2k-2(0) and psi_n'(0) = sqrt(2n) psi_n-1(0);
    for m + n even, parity makes H_mn = delta_mn / 2.
    """
    psi = np.zeros(cutoff)     # psi_n(0)
    psi[0] = np.pi**-0.25
    for k in range(2, cutoff, 2):
        psi[k] = -math.sqrt((k - 1) / k) * psi[k - 2]
    dpsi = np.zeros(cutoff)    # psi_n'(0)
    dpsi[1:] = np.sqrt(2.0 * np.arange(1, cutoff)) * psi[:-1]
    n = np.arange(cutoff)
    odd = (n[:, None] + n[None, :]) % 2 == 1
    H = np.divide(np.outer(psi, dpsi) - np.outer(dpsi, psi), 2.0 * (n[None, :] - n[:, None]),
                  out=np.eye(cutoff) / 2, where=odd)
    return H, 2 * H - np.eye(cutoff)


def _rotated(op: NDArray, theta: float) -> NDArray[np.complex128]:
    """R^dag op R with R = exp(-i theta n), so x^theta becomes the plain x quadrature."""
    ph = np.exp(1j * theta * np.arange(op.shape[0]))
    return ph[:, None] * op * ph.conj()


def quadrature_orthant_expect(state: FockDensityOperator,
                              theta: float, phi: float) -> float:
    """E_H = P++ + P-- - P+- - P-+ with the sign domains fixed to R+/R-, at
    finite phases ``theta`` and ``phi``."""
    if state.n_modes != 2:
        raise InvalidParameterError("the homodyne correlator is defined for two modes")
    _check_finite("phases", (theta, phi))
    _, G = _half_line_matrices(state.cutoff)
    return _expect(state, [_rotated(G, theta), _rotated(G, phi)])


def wigner_reconstruct(state: FockDensityOperator,
                       point: NDArray) -> float:
    """Wigner value at a finite point (x_1..x_n, y_1..y_n), from the
    displaced-parity identity."""
    pt = np.asarray(point, dtype=float)
    n = state.n_modes
    if pt.shape != (2 * n,):
        raise InvalidParameterError(f"point must have length {2 * n}")
    _check_finite("point", pt)
    alphas = (pt[:n] + 1j * pt[n:]) / np.sqrt(2.0)
    return displaced_parity_expect(state, alphas) / np.pi**n
