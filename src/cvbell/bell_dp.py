"""Displaced-parity correlators and their Bell combinations.

For a zero-mean Gaussian state with covariance C the correlator is

    E(alpha_1..alpha_n) = det(C)^{-1/2} exp(-2 u^T C^{-1} u),

with u = (Re alpha_1..Re alpha_n, Im alpha_1..Im alpha_n) in coherent-amplitude
units; for the heralded two-mode state the Wigner two-Gaussian form replaces
the single exponential.  Built-in displacement families reproduce the known
optimal parameterizations for each state; their docstrings record the
orientation and the units of the magnitude parameter J.

Each built-in family is sqrt(J) times one fixed setting, so every exponent is
J times its J = 1 value.  ``DpRates`` uses that for the two-party CHSH: it
reads the exponents off once per state and then costs a few exponentials per
J, which is how the CLI scans J.  The explicit settings path (``b2_dp``,
``b3_dp_general``) takes any settings and is what the figures and ``verify``
use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .conditional import ConditionalParams, two_gaussian_form
from .errors import InvalidParameterError
from .gaussian import GaussianState, TripartitePhotonNumbers, su21_state

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


def _check_j(j_mag: ArrayLike) -> NDArray[np.float64]:
    """The displacement magnitudes J, of any shape; each must be finite and >= 0."""
    j = np.asarray(j_mag, dtype=float)
    bad = ~((0.0 <= j) & (j < math.inf))
    if bad.any():
        raise InvalidParameterError(f"J must be finite and >= 0, got {j[bad].flat[0]}")
    return j


@dataclass(frozen=True)
class DpSettings:
    """One displacement per mode for each of the two measurement choices:
    complex (..., n_modes) arrays of one shape, a leading axis per batch."""

    unprimed: NDArray[np.complex128]
    primed: NDArray[np.complex128]

    def __post_init__(self):
        unprimed = np.asarray(self.unprimed, dtype=complex)
        primed = np.asarray(self.primed, dtype=complex)
        if unprimed.ndim == 0 or unprimed.shape != primed.shape:
            raise InvalidParameterError("unprimed and primed settings must be arrays of one shape")
        object.__setattr__(self, "unprimed", unprimed)
        object.__setattr__(self, "primed", primed)


@dataclass(frozen=True)
class BellValue:
    """A Bell-combination value (a float, or an array for a batch of settings),
    with the settings that produced it where the caller has them."""

    value: float | NDArray[np.float64]
    n_parties: int
    settings: object = None

    def __post_init__(self):
        value = np.asarray(self.value, dtype=float)
        if not np.isfinite(value).all():
            raise InvalidParameterError(f"Bell value must be finite, got {self.value}")
        bound = _B2_BOUND if self.n_parties == 2 else _B3_BOUND
        if (np.abs(value) > bound).any():
            raise InvalidParameterError(
                f"|B| = {np.max(np.abs(value))} exceeds the {self.n_parties}-party quantum bound"
            )
        object.__setattr__(self, "value", float(value) if value.ndim == 0 else value)


def _phase_space(alphas: ArrayLike, n_modes: int) -> NDArray[np.float64]:
    """(Re alpha_1..Re alpha_n, Im alpha_1..Im alpha_n) along the last axis;
    every displacement must be finite."""
    al = np.asarray(alphas, dtype=complex)
    if al.ndim == 0 or al.shape[-1] != n_modes:
        raise InvalidParameterError(f"one displacement per mode required ({n_modes} modes)")
    u = np.ascontiguousarray(np.concatenate([al.real, al.imag], axis=-1))
    if not np.isfinite(u).all():
        raise InvalidParameterError("displacements must be finite")
    return u


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


def _term_rows(settings: DpSettings) -> NDArray[np.complex128]:
    """The (..., term, mode) displacements of the four Bell terms: each term's
    row takes the setting its parties measure."""
    terms = KLYSHKO_TERMS if settings.unprimed.shape[-1] == 3 else CHSH_TERMS
    return np.where(terms == 0, settings.unprimed[..., None, :], settings.primed[..., None, :])


def _assemble(correlator, target, settings: DpSettings) -> NDArray[np.float64]:
    """Bell combinations, shape (...), of one ``correlator`` call on the four
    stacked term rows of each of the (..., n_modes) settings."""
    return _bell_sum(correlator(target, _term_rows(settings)))


def b3_dp_general(s: GaussianState, settings: DpSettings) -> BellValue:
    """Three-party Bell-Klyshko combination from displaced-parity correlators;
    (..., 3) settings give a value of shape (...)."""
    if s.n_modes != 3 or settings.unprimed.shape[-1] != 3:
        raise InvalidParameterError("b3_dp_general needs a three-mode state and settings")
    return BellValue(_assemble(e_dp_gaussian, s, settings), 3, settings)


def b2_dp(target: GaussianState | ConditionalParams, settings: DpSettings) -> BellValue:
    """Two-party CHSH combination from displaced-parity correlators; (..., 2)
    settings give a value of shape (...)."""
    if settings.unprimed.shape[-1] != 2:
        raise InvalidParameterError("two-mode settings required")
    if isinstance(target, ConditionalParams):
        corr = e_dp_conditional
    else:
        if target.n_modes != 2:
            raise InvalidParameterError("b2_dp needs a two-mode state")
        corr = e_dp_gaussian
    return BellValue(_assemble(corr, target, settings), 2, settings)


# ---------------------------------------------------------------------------
# rate form: a family that scales as sqrt(J) scales each exponent by J

@dataclass(frozen=True)
class DpRates:
    """``b2_dp(target, family(J))`` as a function of J alone, for a ``family``
    whose displacements are sqrt(J) times their J = 1 values:

        B(J) = |sum_t TERM_SIGNS[t] sum_g w_g exp(J k_gt)|,

    one weight w_g per Gaussian of the correlator (det^{-1/2}; for the
    heralded state pi^2 w_a and -pi^2 w_b) and one J = 1 exponent k_gt per
    Gaussian and term.  Like ``GaussianState.factors``, ``rates`` is computed
    at the first ``bell`` call, after its J is checked, from the factors the
    explicit correlators use, so it raises their errors there."""

    target: GaussianState | ConditionalParams
    family: Callable[[ArrayLike], DpSettings]

    def __post_init__(self):
        if isinstance(self.target, GaussianState) and self.target.n_modes != 2:
            raise InvalidParameterError("DpRates needs a two-mode state")

    @cached_property
    def rates(self) -> tuple[tuple[float, ...], NDArray[np.float64]]:
        """``(weights, exponents)``: one weight per Gaussian, and a (Gaussian,
        term) array of the exponents at J = 1."""
        u = _phase_space(_term_rows(self.family(1.0)), 2)
        if isinstance(self.target, ConditionalParams):
            form = two_gaussian_form(self.target)
            v = _SQRT2 * u
            return ((np.pi**2 * form.weight_a, -np.pi**2 * form.weight_b),
                    np.stack([-np.einsum("...i,ij,...j->...", v, q, v)
                              for q in (form.quad_form_a, form.quad_form_b)]))
        inv, det = self.target.factors
        return (det ** -0.5,), np.vecdot(np.vecmat(-2.0 * u, inv), u)[None]

    def bell(self, j_mag: ArrayLike) -> BellValue:
        """B at J of any shape: a scalar J gives a float value, and an array
        of J its shape, bit-identical to one call per J."""
        j = _check_j(j_mag)[..., None]
        weights, exponents = self.rates
        e = sum(w * np.exp(j * k) for w, k in zip(weights, exponents))
        return BellValue(_bell_sum(e), 2)


# ---------------------------------------------------------------------------
# closed forms

def b3_ghz_closed(r: float, j_mag: ArrayLike) -> BellValue:
    """Closed-form B3 of the GHZ-type state under its symmetric displacement
    family, real sqrt(J)(1,1,1) and -2 sqrt(J)(1,1,1) (J in coherent-amplitude
    units):

        B3 = 3 exp(-12 e^{-2r} J) - exp(-24 e^{2r} J).

    The sign of the second exponent is fixed by re-deriving the combination
    from the explicit correlator; tends to 3 for large r at fixed J > 0 and
    equals 2 exactly at J = 0.  J of any shape gives a value of that shape.
    """
    if not 0.0 <= r < math.inf:
        raise InvalidParameterError(f"r must be finite and >= 0, got {r}")
    j = _check_j(j_mag)
    # 24 e^{2r} J is formed in log space so that it cannot overflow; past
    # e^7 its exponential underflows to 0 anyway
    log_second = 2.0 * r + np.log(24.0 * j, out=np.full_like(j, -np.inf), where=j > 0.0)
    val = 3.0 * np.exp(-12.0 * math.exp(-2.0 * r) * j) \
        - np.exp(-np.exp(np.minimum(log_second, 7.0)))
    return BellValue(np.abs(val), 3)


def b3_su21_closed(n: float, j_mag: ArrayLike) -> BellValue:
    """Closed-form B3 of the trilinear state, symmetric split n2 = n3 = N/4,
    with phases phi2 = phi3 = pi, under the symmetric displacement family real
    sqrt(J/2)(1,1,1) and -2 sqrt(J/2)(1,1,1) (J in phase-space units).  J of
    any shape gives a value of that shape."""
    if not 0.0 <= n < math.inf:
        raise InvalidParameterError(f"N must be finite and >= 0, got {n}")
    j = _check_j(j_mag)
    q = math.sqrt(n * (2.0 + n))
    s2 = math.sqrt(2.0)
    # the ratio of exponentials folded into three non-positive exponents so the
    # expression stays finite at any J*N
    val = (2.0 * np.exp(-j * (6.0 + 1.5 * n - s2 * q))
           + np.exp(-2.0 * j * (3.0 + 3.0 * n - 2.0 * s2 * q))
           - np.exp(-4.0 * j * (3.0 + 3.0 * n + 2.0 * s2 * q)))
    return BellValue(np.abs(val), 3)


# ---------------------------------------------------------------------------
# displacement families (orientation fixed to the covariance construction);
# J of any shape gives (..., n_modes) settings

def _family(unprimed, primed) -> DpSettings:
    return DpSettings(np.stack(unprimed, axis=-1), np.stack(primed, axis=-1))


def su21_opt_dp_settings(j_mag: ArrayLike) -> DpSettings:
    """Numerically optimized family for the trilinear state with phases
    phi2 = 0, phi3 = pi: imaginary (2/3, 0, 0) and (0, -1, 1) times
    sqrt(J/2); J in phase-space units."""
    w = 1j * np.sqrt(_check_j(j_mag) / 2.0)
    zero = np.zeros_like(w)
    return _family((2.0 / 3.0 * w, zero, zero), (zero, -w, w))


def twb_dp_settings(j_mag: ArrayLike) -> DpSettings:
    """Optimal twin-beam family: real (sqrt(J), -sqrt(J)) and
    (-3, 3) sqrt(J); J in coherent-amplitude units."""
    w = np.sqrt(_check_j(j_mag))
    return _family((w, -w), (-3 * w, 3 * w))


def conditional_dp_settings(j_mag: ArrayLike) -> DpSettings:
    """Optimized family for the heralded state: real (1, 2) and (3, 0) times
    sqrt(J/2); J in phase-space units."""
    w = np.sqrt(_check_j(j_mag) / 2.0)
    return _family((w, 2 * w), (3 * w, np.zeros_like(w)))


# ---------------------------------------------------------------------------
# states the trilinear displacement families assume

def su21_sym_state(n: float) -> GaussianState:
    """Trilinear state at the symmetric split n2 = n3 = N/4 with the phases
    phi2 = phi3 = pi that ``b3_su21_closed``'s symmetric family assumes."""
    return su21_state(TripartitePhotonNumbers(n / 4.0, n / 4.0, math.pi, math.pi))


def su21_opt_state(n: float) -> GaussianState:
    """Trilinear state at the symmetric split with phases (0, pi) assumed by
    the optimized displacement family."""
    return su21_state(TripartitePhotonNumbers(n / 4.0, n / 4.0, 0.0, math.pi))
