"""Displaced-parity correlators and their Bell combinations.

For a zero-mean Gaussian state with covariance C the correlator is

    E(alpha_1..alpha_n) = det(C)^{-1/2} exp(-2 u^T C^{-1} u),

with u = (Re alpha_1..Re alpha_n, Im alpha_1..Im alpha_n) in coherent-amplitude
units; for the heralded two-mode state the Wigner two-Gaussian form replaces
the single exponential.  Built-in displacement families reproduce the known
optimal parameterizations for each state; their docstrings record the
orientation and the units of the magnitude parameter J.

Every Bell value is assembled in one place, ``DpRates``: its exponents are
read off once per (state, settings) pair, and ``bell(J)`` is the value at the
settings scaled by sqrt(J), so each exponent is J times its J = 1 value and a
J costs a few exponentials.  ``bell()`` is the value at the settings
themselves; the CLI scans J on the built-in families at J = 1, each of which
is sqrt(J) times that one setting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .conditional import ConditionalParams, _heralded_forms, two_gaussian_form
from .errors import InvalidParameterError
from .gaussian import GaussianState, TripartitePhotonNumbers, _nonnegative, su21_state

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


def _bell(value: ArrayLike, n_parties: int) -> float | NDArray[np.float64]:
    """A Bell-combination value, a float (an array for a batch of settings),
    once checked: a non-finite entry, or one past the ``n_parties`` quantum
    bound, is an ``InvalidParameterError``."""
    value = np.asarray(value, dtype=float)
    bound = _B2_BOUND if n_parties == 2 else _B3_BOUND
    peak = np.abs(value).max(initial=0.0)     # NaN if any entry is NaN
    if not peak <= bound:
        bad = ~np.isfinite(value)
        if bad.any():
            raise InvalidParameterError(f"Bell value must be finite, got {value[bad].flat[0]}"
                                        f" ({np.count_nonzero(bad)} of {value.size} values)")
        raise InvalidParameterError(
            f"|B| = {peak} exceeds the {n_parties}-party quantum bound"
            f" ({np.count_nonzero(np.abs(value) > bound)} of {value.size} values)")
    return float(value) if value.ndim == 0 else value


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


def _gaussians(target: GaussianState | ConditionalParams, alphas: ArrayLike
               ) -> tuple[float, tuple[float, ...], tuple[NDArray[np.float64], ...]]:
    """``(scale, weights, exponents)`` of the correlator at ``alphas``, a
    (..., n_modes) array: E = scale sum_g weights[g] exp(exponents[g]), each
    exponent of shape (...).  A Gaussian state has one Gaussian, weight
    det^{-1/2}; its quadratic form is one stacked vector-matrix product with
    the cached inverse, and ``vecmat``/``vecdot`` keep each row's summation
    order, so a batch is bit-identical to row-by-row calls.  The heralded
    state has two, ``two_gaussian_form``'s pi^2 (w_a, -w_b) at x = sqrt(2) u,
    with exponents -x.Q.x.  Any other target is an ``InvalidParameterError``.

    A batch of states (a ``GaussianState`` of stacked covariances, or
    ``ConditionalParams`` of arrays) of batch shape (b...) reads ``alphas`` as
    (..., k, n_modes): (b...) broadcasts against (...), and the k points of a
    row share its state.  Each entry is bit for bit that of its own state."""
    if isinstance(target, ConditionalParams):
        batch = any(isinstance(v, np.ndarray)
                    for v in (target.n2, target.n3, target.phi2, target.eta))
        weights, forms = _heralded_forms(target) if batch else two_gaussian_form(target)
        x = _SQRT2 * _phase_space(alphas, 2)
        if batch:
            _broadcasts(np.shape(weights[0]), x.shape)
            weights, forms = [w[..., None] for w in weights], [q[..., None, :, :] for q in forms]
        return np.pi**2, tuple(weights), tuple(-np.einsum("...i,...ij,...j->...", x, q, x)
                                               for q in forms)
    if not isinstance(target, GaussianState):
        raise InvalidParameterError("the target must be a GaussianState or ConditionalParams,"
                                    f" got {type(target).__name__}")
    u = _phase_space(alphas, target.n_modes)
    inv, det = target.factors
    if np.ndim(det) == 0:
        weight = det ** -0.5
    else:
        _broadcasts(det.shape, u.shape)
        # Python's float pow per row: numpy's array power can differ in the last bit
        weight = np.reshape([d ** -0.5 for d in det.ravel().tolist()], (*det.shape, 1))
        inv = inv[..., None, :, :]
    return 1.0, (weight,), (np.vecdot(np.vecmat(-2.0 * u, inv), u),)


def _broadcasts(batch: tuple[int, ...], points: tuple[int, ...]) -> None:
    """``InvalidParameterError`` unless a batch of states broadcasts against
    (..., k, 2 n_modes) displacements."""
    try:
        np.broadcast_shapes(batch, points[:-2])
    except ValueError:
        raise InvalidParameterError(f"states of batch shape {batch} do not broadcast against"
                                    f" displacements of batch shape {points[:-2]}") from None


def _evaluate(scale, weights, exponents, j: ArrayLike = 1.0):
    """scale sum_g w_g exp(J k_g): the correlator at displacements sqrt(J) alpha.
    Every k_g is <= 0, so a product J k_g past the float range is -inf, whose
    exponential is the limit, 0."""
    with np.errstate(over="ignore"):
        terms = [w * np.exp(j * k) for w, k in zip(weights, exponents)]
    return scale * sum(terms[1:], terms[0])


def e_dp(target: GaussianState | ConditionalParams,
         alphas: ArrayLike) -> float | NDArray[np.float64]:
    """Displaced-parity correlator of a Gaussian state (in (0, 1]) or of the
    heralded two-mode state (in [-1, 1]) at ``alphas``, one displacement per
    mode along the last axis: (..., n_modes) gives shape (...), a row a float.
    A batch of states (see ``DpRates``) reads ``alphas`` as (..., k, n_modes),
    each of its states at the k points of a row, and gives the broadcast (..., k)."""
    out = _evaluate(*_gaussians(target, alphas))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DpRates:
    """The Bell combination of ``target`` at ``settings`` scaled by sqrt(J), as
    a function of J alone:

        B(J) = |sum_t TERM_SIGNS[t] scale sum_g w_g exp(J k_gt)|,

    with the weights and J = 1 exponents k_gt of ``_gaussians`` on the four
    term rows: CHSH for two-party settings, Bell-Klyshko for three; ``bell()``
    is the value at ``settings``.  Like ``GaussianState.factors``, ``rates``
    is computed at the first ``bell`` call, after its J is checked, so the
    state's errors raise there, as does a target whose mode count is not the
    settings' party count, or that is neither a ``GaussianState`` nor
    ``ConditionalParams`` (``InvalidParameterError``).

    A batch of states, ``su21_state`` of array parameters or
    ``ConditionalParams`` of arrays, broadcasts its batch shape against the
    settings' batch shape: states of shape (S, 1) at settings of shape (M,)
    give (S, M) values, each bit for bit that of its own state."""

    target: GaussianState | ConditionalParams
    settings: DpSettings

    def __post_init__(self):
        if self.settings.unprimed.shape[-1] not in (2, 3):
            raise InvalidParameterError("DpRates needs two- or three-party settings")

    @cached_property
    def rates(self):
        """``_gaussians`` at J = 1 of the (..., term, mode) displacements of the
        four Bell terms: each term's row takes the setting its parties measure."""
        s = self.settings
        terms = KLYSHKO_TERMS if s.unprimed.shape[-1] == 3 else CHSH_TERMS
        return _gaussians(self.target,
                          np.where(terms == 0, s.unprimed[..., None, :], s.primed[..., None, :]))

    def bell(self, j_mag: ArrayLike = 1.0) -> float | NDArray[np.float64]:
        """B at J of any shape, broadcast against the batch shape of the
        states and settings; a scalar J on an unbatched state and settings
        gives a float value.  Values are bit-identical to one call per J, and
        J = 1 is the value at ``settings`` itself: J is checked, ``_core``
        evaluates B, and ``_bell`` checks its values."""
        return _bell(self._core(_nonnegative("J", j_mag)), self.settings.unprimed.shape[-1])

    def _core(self, j: NDArray[np.float64]) -> NDArray[np.float64]:
        """B at a float array ``j`` already checked finite and >= 0, its
        values unchecked: a scan evaluates this, and checks its maximum once."""
        scale, weights, exponents = self.rates
        batch = exponents[0].shape[:-1]
        try:   # a scalar J, or an unbatched state and settings, always broadcasts
            if j.ndim and batch:
                np.broadcast_shapes(j.shape, batch)
        except ValueError:
            raise InvalidParameterError(f"J of shape {j.shape} does not broadcast against "
                                        f"states and settings of batch shape {batch}") from None
        return _bell_sum(_evaluate(scale, weights, exponents, j[..., None]))


# ---------------------------------------------------------------------------
# closed forms

def b3_ghz_closed(r: ArrayLike, j_mag: ArrayLike) -> float | NDArray[np.float64]:
    """Closed-form B3 of the GHZ-type state under its symmetric displacement
    family, real sqrt(J)(1,1,1) and -2 sqrt(J)(1,1,1) (J in coherent-amplitude
    units):

        B3 = 3 exp(-12 e^{-2r} J) - exp(-24 e^{2r} J).

    The sign of the second exponent is fixed by re-deriving the combination
    from the explicit correlator; tends to 3 for large r at fixed J > 0 and
    equals 2 exactly at J = 0.  r and J broadcast; each entry equals the
    call on its own r and J.
    """
    # [()] makes a 0-d r a numpy scalar, whose arithmetic is several times faster
    r, j = _nonnegative("r", r)[()], _nonnegative("J", j_mag)
    # math.exp of each r, as the float form has always taken it
    e_minus = math.exp(-2.0 * r) if r.ndim == 0 else np.array(
        [math.exp(-2.0 * x) for x in r.ravel().tolist()]).reshape(r.shape)
    # 24 e^{2r} J is formed in log space so that it cannot overflow; past
    # e^7 its exponential underflows to 0 anyway, and log(24 J) is -inf at
    # J = 0.  A J near the top of the float range overflows 24 J or
    # 12 e^{-2r} J to inf, whose terms are then their limits, exactly 0
    with np.errstate(over="ignore", divide="ignore"):
        log_second = 2.0 * r + np.log(24.0 * j)
        val = 3.0 * np.exp(-12.0 * e_minus * j) - np.exp(-np.exp(np.minimum(log_second, 7.0)))
    return _bell(np.abs(val), 3)


def b3_su21_closed(n: ArrayLike, j_mag: ArrayLike) -> float | NDArray[np.float64]:
    """Closed-form B3 of the trilinear state, symmetric split n2 = n3 = N/4,
    with phases phi2 = phi3 = pi, under the symmetric displacement family real
    sqrt(J/2)(1,1,1) and -2 sqrt(J/2)(1,1,1) (J in phase-space units).  N and
    J broadcast; each entry equals the call on its own N and J."""
    n, j = _nonnegative("N", n)[()], _nonnegative("J", j_mag)     # a 0-d N as a scalar, as for r
    # B3 = 2 e^{-J A1} + e^{-2J A2} - e^{-4J A3}, each A_k formed as a_k = A_k/16
    # from N/16 so that 3N cannot overflow (exactly: each exponent is bit for bit
    # the unscaled one).  J is capped at 125/a2: there 32 J a2 = 4000, 16 J a1 >
    # 1000 (2 A1 = A2 + 9) and 64 J a3 > 8000, so every exponential is already
    # 0, and no J N product overflows.  A2 >= 1 (its minimum, at N = 2).
    m = n / 16.0
    p = np.sqrt(m) * np.sqrt(0.125 + m)     # sqrt(N (2 + N))/16, as sqrt(N) sqrt(2 + N)
    s2 = math.sqrt(2.0)
    a1 = 0.375 + 1.5 * m - s2 * p
    a2 = 0.1875 + 3.0 * m - 2.0 * s2 * p
    a3 = 0.1875 + 3.0 * m + 2.0 * s2 * p
    j = np.minimum(j, 125.0 / a2)
    val = 2.0 * np.exp(-16.0 * j * a1) + np.exp(-32.0 * j * a2) - np.exp(-64.0 * j * a3)
    return _bell(np.abs(val), 3)


# ---------------------------------------------------------------------------
# displacement families (orientation fixed to the covariance construction);
# J of any shape gives (..., n_modes) settings

def _family(unprimed, primed) -> DpSettings:
    return DpSettings(np.stack(unprimed, axis=-1), np.stack(primed, axis=-1))


def su21_opt_dp_settings(j_mag: ArrayLike) -> DpSettings:
    """Numerically optimized family for the trilinear state with phases
    phi2 = 0, phi3 = pi: imaginary (2/3, 0, 0) and (0, -1, 1) times
    sqrt(J/2); J in phase-space units."""
    w = 1j * np.sqrt(_nonnegative("J", j_mag) / 2.0)
    zero = np.zeros_like(w)
    return _family((2.0 / 3.0 * w, zero, zero), (zero, -w, w))


def twb_dp_settings(j_mag: ArrayLike) -> DpSettings:
    """Optimal twin-beam family: real (sqrt(J), -sqrt(J)) and
    (-3, 3) sqrt(J); J in coherent-amplitude units."""
    w = np.sqrt(_nonnegative("J", j_mag))
    return _family((w, -w), (-3 * w, 3 * w))


def conditional_dp_settings(j_mag: ArrayLike) -> DpSettings:
    """Optimized family for the heralded state: real (1, 2) and (3, 0) times
    sqrt(J/2); J in phase-space units."""
    w = np.sqrt(_nonnegative("J", j_mag) / 2.0)
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
