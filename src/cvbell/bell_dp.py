"""Displaced-parity correlators and their Bell combinations.

For a zero-mean Gaussian state with covariance C the correlator is

    E(alpha_1..alpha_n) = det(C)^{-1/2} exp(-2 u^T C^{-1} u),

with u = (Re alpha_1..Re alpha_n, Im alpha_1..Im alpha_n) in coherent-amplitude
units; for the heralded two-mode state the Wigner two-Gaussian form replaces
the single exponential.  Built-in displacement families reproduce the known
optimal parameterizations for each state; their docstrings record the
orientation and the units of the magnitude parameter J.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .conditional import ConditionalParams, two_gaussian_form
from .errors import InvalidParameterError
from .gaussian import (
    GaussianState,
    TripartitePhotonNumbers,
    ghz_state,
    su21_state,
    twb_state,
)

_SQRT2 = math.sqrt(2.0)
_B2_BOUND = 2.0 * _SQRT2 + 1e-9
_B3_BOUND = 4.0 + 1e-9

# Bell combinations, one row per correlator term giving the setting each party
# measures (0 unprimed, 1 primed); the terms are summed with TERM_SIGNS.
#   CHSH:     E(a,b) + E(a,b') + E(a',b) - E(a',b')
#   Klyshko:  E(a,b,c') + E(a,b',c) + E(a',b,c) - E(a',b',c')
CHSH_TERMS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
KLYSHKO_TERMS = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]])
TERM_SIGNS = (1.0, 1.0, 1.0, -1.0)


def _bell_sum(e):
    """|sum_t TERM_SIGNS[t] e[..., t]| of the four stacked term correlators."""
    return np.abs(e[..., 0] + e[..., 1] + e[..., 2] - e[..., 3])


def _check_j(j_mag: float) -> float:
    """The displacement magnitude J, which must be finite and >= 0."""
    if not 0.0 <= j_mag < math.inf:
        raise InvalidParameterError(f"J must be finite and >= 0, got {j_mag}")
    return j_mag


@dataclass(frozen=True)
class DpSettings:
    """One displacement per mode for each of the two measurement choices."""

    unprimed: tuple[complex, ...]
    primed: tuple[complex, ...]
    j_mag: float | None = None

    def __post_init__(self):
        if len(self.unprimed) != len(self.primed):
            raise InvalidParameterError("unprimed and primed settings must have equal length")
        if self.j_mag is not None:
            _check_j(self.j_mag)
        object.__setattr__(self, "unprimed", tuple(map(complex, self.unprimed)))
        object.__setattr__(self, "primed", tuple(map(complex, self.primed)))


@dataclass(frozen=True)
class BellValue:
    """A Bell-combination value together with the settings that produced it."""

    value: float
    n_parties: int
    settings: object = None

    def __post_init__(self):
        bound = _B2_BOUND if self.n_parties == 2 else _B3_BOUND
        if abs(self.value) > bound:
            raise InvalidParameterError(
                f"|B| = {abs(self.value)} exceeds the {self.n_parties}-party quantum bound"
            )


def _phase_space(alphas: ArrayLike, n_modes: int) -> NDArray[np.float64]:
    """(Re alpha_1..Re alpha_n, Im alpha_1..Im alpha_n) along the last axis."""
    al = np.asarray(alphas, dtype=complex)
    if al.ndim == 0 or al.shape[-1] != n_modes:
        raise InvalidParameterError(f"one displacement per mode required ({n_modes} modes)")
    return np.concatenate([al.real, al.imag], axis=-1)


def e_dp_gaussian(s: GaussianState, alphas: ArrayLike) -> float | NDArray[np.float64]:
    """Displaced-parity correlator of a Gaussian state; in (0, 1].

    ``alphas`` holds one displacement per mode along its last axis: a
    (..., n_modes) array gives shape (...), a single row gives a float.  The
    quadratic form is one stacked vector-matrix product with the state's
    cached inverse; ``vecmat``/``vecdot`` keep each row's summation order, so
    a batch is bit-identical to row-by-row calls.
    """
    u = _phase_space(alphas, s.n_modes)
    inv, det = s.factors
    out = det ** -0.5 * np.exp(np.vecdot(np.vecmat(-2.0 * u, inv), u))
    return float(out) if out.ndim == 0 else out


def e_dp_conditional(p: ConditionalParams, alphas: ArrayLike) -> float | NDArray[np.float64]:
    """Displaced-parity correlator of the heralded two-mode state; in [-1, 1].

    Batched like ``e_dp_gaussian`` over (..., 2) arrays of displacements.
    """
    return np.pi**2 * two_gaussian_form(p).eval(_SQRT2 * _phase_space(alphas, 2))


def e_dp_ghz_closed(r: float, alphas: Sequence[complex]) -> float:
    """Explicit correlator of the GHZ-type state, written out directly.

    Expressed in the orientation of the covariance construction (x-sum and
    y-difference directions squeezed); an independent code path from
    ``e_dp_gaussian`` used to cross-check it.
    """
    al = np.asarray(alphas, dtype=complex)
    if al.shape != (3,):
        raise InvalidParameterError("three displacements required")
    x, y = al.real, al.imag
    e2r = math.exp(2.0 * r)
    quad_fast = (x.sum() ** 2 + (y[1] - y[2]) ** 2 + (y[1] - y[0]) ** 2 + (y[0] - y[2]) ** 2)
    quad_slow = (y.sum() ** 2 + (x[1] - x[2]) ** 2 + (x[1] - x[0]) ** 2 + (x[0] - x[2]) ** 2)
    return math.exp(-(2.0 / 3.0) * (e2r * quad_fast + quad_slow / e2r))


def large_squeezing_residual(settings: DpSettings) -> float:
    """Sum of the three constraint expressions that keep the positive Bell terms
    alive at large squeezing.

    Written in the frame where the optimal symmetric family is imaginary
    (multiply the package's real family by 1j to land in this frame).  Zero
    exactly when every positive correlator survives the large-r limit.
    """
    if len(settings.unprimed) != 3:
        raise InvalidParameterError("three-mode settings required")
    a = np.asarray(settings.unprimed, dtype=complex)
    ap = np.asarray(settings.primed, dtype=complex)
    x, y = a.real, a.imag
    xp, yp = ap.real, ap.imag
    total = 0.0
    for k in range(3):
        yk = y.copy()
        yk[k] = yp[k]
        xk = x.copy()
        xk[k] = xp[k]
        others = [i for i in range(3) if i != k]
        i1, i2 = others
        total += (yk.sum() ** 2 + (xk[i1] - xk[i2]) ** 2
                  + (xk[i1] - xk[k]) ** 2 + (xk[k] - xk[i2]) ** 2)
    return float(total)


def _assemble(correlator, target, settings: DpSettings) -> float:
    """Bell combination of one ``correlator`` call on the four stacked term rows."""
    terms = KLYSHKO_TERMS if len(settings.unprimed) == 3 else CHSH_TERMS
    choices = np.array([settings.unprimed, settings.primed])     # (setting, mode)
    return float(_bell_sum(correlator(target, choices[terms, np.arange(terms.shape[1])])))


def b3_dp_general(s: GaussianState, settings: DpSettings) -> BellValue:
    """Three-party Bell-Klyshko combination from displaced-parity correlators."""
    if s.n_modes != 3 or len(settings.unprimed) != 3:
        raise InvalidParameterError("b3_dp_general needs a three-mode state and settings")
    return BellValue(_assemble(e_dp_gaussian, s, settings), 3, settings)


def b2_dp(target: GaussianState | ConditionalParams, settings: DpSettings) -> BellValue:
    """Two-party CHSH combination from displaced-parity correlators."""
    if len(settings.unprimed) != 2:
        raise InvalidParameterError("two-mode settings required")
    if isinstance(target, ConditionalParams):
        corr = e_dp_conditional
    else:
        if target.n_modes != 2:
            raise InvalidParameterError("b2_dp needs a two-mode state")
        corr = e_dp_gaussian
    return BellValue(_assemble(corr, target, settings), 2, settings)


# ---------------------------------------------------------------------------
# closed forms

def b3_ghz_closed(r: float, j_mag: float) -> BellValue:
    """Closed-form B3 of the GHZ-type state under its symmetric displacement family:

        B3 = 3 exp(-12 e^{-2r} J) - exp(-24 e^{2r} J).

    The sign of the second exponent is fixed by re-deriving the combination
    from the explicit correlator; tends to 3 for large r at fixed J > 0 and
    equals 2 exactly at J = 0.
    """
    if not 0.0 <= r < math.inf:
        raise InvalidParameterError(f"r must be finite and >= 0, got {r}")
    _check_j(j_mag)
    # 24 e^{2r} J is formed in log space so that it cannot overflow; past
    # e^7 its exponential underflows to 0 anyway
    log_second = 2.0 * r + math.log(24.0 * j_mag) if j_mag > 0.0 else -math.inf
    val = 3.0 * math.exp(-12.0 * math.exp(-2.0 * r) * j_mag) \
        - math.exp(-math.exp(min(log_second, 7.0)))
    return BellValue(abs(val), 3, ghz_dp_settings(j_mag))


def b3_su21_closed(n: float, j_mag: float) -> BellValue:
    """Closed-form B3 of the trilinear state, symmetric split n2 = n3 = N/4,
    under the symmetric displacement family (J in phase-space units)."""
    if not 0.0 <= n < math.inf:
        raise InvalidParameterError(f"N must be finite and >= 0, got {n}")
    _check_j(j_mag)
    q = math.sqrt(n * (2.0 + n))
    s2 = math.sqrt(2.0)
    # the ratio of exponentials folded into three non-positive exponents so the
    # expression stays finite at any J*N
    val = (2.0 * math.exp(-j_mag * (6.0 + 1.5 * n - s2 * q))
           + math.exp(-2.0 * j_mag * (3.0 + 3.0 * n - 2.0 * s2 * q))
           - math.exp(-4.0 * j_mag * (3.0 + 3.0 * n + 2.0 * s2 * q)))
    return BellValue(abs(val), 3, su21_sym_dp_settings(j_mag))


# ---------------------------------------------------------------------------
# displacement families (orientation fixed to the covariance construction)

def ghz_dp_settings(j_mag: float) -> DpSettings:
    """Symmetric family for the GHZ-type state: real sqrt(J)(1,1,1) and
    -2 sqrt(J)(1,1,1); J in coherent-amplitude units."""
    w = math.sqrt(_check_j(j_mag))
    return DpSettings((w, w, w), (-2 * w, -2 * w, -2 * w), j_mag)


def su21_sym_dp_settings(j_mag: float) -> DpSettings:
    """Symmetric family for the trilinear state with phases phi2 = phi3 = pi:
    real sqrt(J/2)(1,1,1) and -2 sqrt(J/2)(1,1,1); J in phase-space units
    (coherent amplitude sqrt(J/2))."""
    w = math.sqrt(_check_j(j_mag) / 2.0)
    return DpSettings((w, w, w), (-2 * w, -2 * w, -2 * w), j_mag)


def su21_opt_dp_settings(j_mag: float) -> DpSettings:
    """Numerically optimized family for the trilinear state with phases
    phi2 = 0, phi3 = pi: imaginary (2/3, 0, 0) and (0, -1, 1) times
    sqrt(J/2); J in phase-space units."""
    w = 1j * math.sqrt(_check_j(j_mag) / 2.0)
    return DpSettings((2.0 / 3.0 * w, 0.0, 0.0), (0.0, -w, w), j_mag)


def twb_dp_settings(j_mag: float) -> DpSettings:
    """Optimal twin-beam family: real (sqrt(J), -sqrt(J)) and
    (-3, 3) sqrt(J); J in coherent-amplitude units."""
    w = math.sqrt(_check_j(j_mag))
    return DpSettings((w, -w), (-3 * w, 3 * w), j_mag)


def twb_bw_dp_settings(j_mag: float) -> DpSettings:
    """Original two-settings family: zero displacements against
    real (sqrt(J), -sqrt(J)); J in coherent-amplitude units."""
    w = math.sqrt(_check_j(j_mag))
    return DpSettings((0.0, 0.0), (w, -w), j_mag)


def conditional_dp_settings(j_mag: float) -> DpSettings:
    """Optimized family for the heralded state: real (1, 2) and (3, 0) times
    sqrt(J/2); J in phase-space units."""
    w = math.sqrt(_check_j(j_mag) / 2.0)
    return DpSettings((w, 2 * w), (3 * w, 0.0), j_mag)


# ---------------------------------------------------------------------------
# convenience evaluators for the built-in families

def b3_ghz_dp(r: float, j_mag: float) -> BellValue:
    return b3_dp_general(ghz_state(r), ghz_dp_settings(j_mag))


def su21_sym_state(n: float) -> GaussianState:
    """Trilinear state at the symmetric split n2 = n3 = N/4 with the phases
    the symmetric displacement family assumes."""
    return su21_state(TripartitePhotonNumbers(n / 4.0, n / 4.0, math.pi, math.pi))


def su21_opt_state(n: float) -> GaussianState:
    """Trilinear state at the symmetric split with phases (0, pi) assumed by
    the optimized displacement family."""
    return su21_state(TripartitePhotonNumbers(n / 4.0, n / 4.0, 0.0, math.pi))


def b3_su21_sym_dp(n: float, j_mag: float) -> BellValue:
    return b3_dp_general(su21_sym_state(n), su21_sym_dp_settings(j_mag))


def b3_su21_opt_dp(n: float, j_mag: float) -> BellValue:
    return b3_dp_general(su21_opt_state(n), su21_opt_dp_settings(j_mag))


def b2_twb_dp(n: float, j_mag: float) -> BellValue:
    return b2_dp(twb_state(n), twb_dp_settings(j_mag))


def b2_twb_bw_dp(n: float, j_mag: float) -> BellValue:
    return b2_dp(twb_state(n), twb_bw_dp_settings(j_mag))


def b2_conditional_dp(p: ConditionalParams, j_mag: float) -> BellValue:
    return b2_dp(p, conditional_dp_settings(j_mag))
