"""Pseudospin correlators: series coefficients, closed forms, Bell combinations.

Two inequivalent operator representations are covered: the number-parity
ladder operators (the double series) and the quadrature-sign/point operators
(the ``*_pi_coeffs`` closed forms).
Coefficient signs follow the closed-form convention in which the all-z
correlator is +1; the Fock oracle, which uses the ladder definition verbatim
(odd number states +1), reports the opposite global sign, so oracle
comparisons are made in absolute value.  Bell maximization depends only on
the coefficient magnitudes once the azimuthal angles are free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .conditional import ConditionalParams, _check_click
from .errors import InvalidParameterError, PrecisionError
from .gaussian import GaussianState
from .bell_dp import BellValue
from .optim import klyshko_max

_MAX_TERMS = 10**7


@dataclass(frozen=True)
class PsCoefficients:
    """The three nonvanishing mixed correlator coefficients."""

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        for name in ("c1", "c2", "c3"):
            v = getattr(self, name)
            if not np.isfinite(v) or abs(v) > 1.0 + 1e-9:
                raise InvalidParameterError(f"|{name}| must be <= 1, got {v}")

    def magnitudes(self) -> tuple[float, float, float]:
        return abs(self.c1), abs(self.c2), abs(self.c3)


@dataclass(frozen=True)
class PsSettings:
    """Measurement axes (polar, azimuthal) per mode, plus primed counterparts."""

    thetas: tuple[float, ...]
    phis: tuple[float, ...]
    thetas_primed: tuple[float, ...]
    phis_primed: tuple[float, ...]

    def __post_init__(self):
        arrs = (self.thetas, self.phis, self.thetas_primed, self.phis_primed)
        if len({len(a) for a in arrs}) != 1:
            raise InvalidParameterError("angle tuples must have matching lengths")
        if not all(np.isfinite(a).all() for a in map(np.asarray, arrs)):
            raise InvalidParameterError("angles must be finite")


AZIMUTHAL_PRESET = (0.0, math.pi, math.pi)


# ---------------------------------------------------------------------------
# series machinery

def _sum_diagonals(log_term, x: float, y: float, tol: float,
                   extra=None) -> float:
    """Sum term(s, t) x^{2s} y^{pow t} over anti-diagonals s + t = M.

    ``log_term(s_arr, t_arr)`` returns the log of the combinatorial factor;
    ``extra(t_arr)`` an optional extra linear-scale factor.  Stops once the
    running geometric majorant of the tail drops below ``tol``.
    """
    total = 0.0
    prev = None
    terms_used = 0
    M = 0
    while True:
        s = np.arange(M + 1)
        t = M - s
        logs = log_term(s, t).astype(float)
        if x > 0:
            le = 2 * s * math.log(x)
        else:
            le = np.where(s > 0, -np.inf, 0.0)
        if y > 0:
            le = le + t * math.log(y)
        else:
            le = le + np.where(t > 0, -np.inf, 0.0)
        vals = np.exp(logs + le)
        if extra is not None:
            vals = vals * extra(t)
        diag = float(np.sum(vals))
        total += diag
        terms_used += M + 1
        if terms_used > _MAX_TERMS:
            raise PrecisionError("series did not converge within the term cap")
        if M >= 2 and prev is not None and prev > 0 and diag < prev:
            ratio = diag / prev
            tail = diag * ratio / (1.0 - ratio)
            if tail < tol:
                total += tail
                break
        if diag == 0.0 and M >= 2:
            break
        prev = diag
        M += 1
    return total


def _log_t_spin_flip(s, t):
    """log[C(2s+2t, 2s) sqrt((2s+2t+1)/(2s+1))]: the term of c3 and of ``f_traced``."""
    return (gammaln(2 * s + 2 * t + 1) - gammaln(2 * s + 1) - gammaln(2 * t + 1)
            + 0.5 * (np.log(2 * s + 2 * t + 1) - np.log(2 * s + 1)))


def su21_ps_coeffs(n2: float, n3: float, tol: float = 1e-8) -> PsCoefficients:
    """Ladder-representation coefficients of the trilinear state by double series.

    c1 multiplies the z-first pattern and carries the overall minus sign; c2
    and c3 are positive.  Factorials evaluated in log space; anti-diagonal
    summation with a geometric tail bound.
    """
    if not (0 <= n2 < math.inf and 0 <= n3 < math.inf and 0 < tol < math.inf):
        raise InvalidParameterError("need n2, n3 finite and >= 0 and tol finite and > 0")
    n1 = n2 + n3
    x = n2 / (1 + n1)
    y = n3 / (1 + n1)

    def log_t1(s, t):
        return (gammaln(2 * s + 2 * t + 2) - gammaln(2 * s + 1) - gammaln(2 * t + 1)
                - 0.5 * (np.log(2 * s + 1) + np.log(2 * t + 1)))

    def log_t2(s, t):
        return (gammaln(2 * s + 2 * t + 1) - gammaln(2 * s + 1) - gammaln(2 * t + 1)
                + 0.5 * (np.log(2 * s + 2 * t + 1) - np.log(2 * t + 1)))

    # tail budgets are on the final coefficients, so each series tolerance is
    # scaled down by its prefactor
    p1 = 2.0 * math.sqrt(n2 * n3) / (1 + n1) ** 2
    p2 = 2.0 * math.sqrt(n3) / (1 + n1) ** 1.5
    p3 = 2.0 * math.sqrt(n2) / (1 + n1) ** 1.5
    c1 = -p1 * _sum_diagonals(log_t1, x, y**2, tol / p1) if p1 > 0 else 0.0
    c2 = p2 * _sum_diagonals(log_t2, x, y**2, tol / p2) if p2 > 0 else 0.0
    c3 = p3 * _sum_diagonals(_log_t_spin_flip, x, y**2, tol / p3) if p3 > 0 else 0.0
    return PsCoefficients(c1, c2, c3)


def f_twb(n: float) -> float:
    """Twin-beam spin-flip correlator sqrt(N(N+2))/(1+N); rises monotonically to 1."""
    if n < 0:
        raise InvalidParameterError("photon number must be >= 0")
    return math.sqrt(n * (n + 2.0)) / (1.0 + n)


def f_traced(p: ConditionalParams, tol: float = 1e-8) -> float:
    """Spin-flip coefficient of the mode-3-discarded two-mode state."""
    if not 0 < tol < math.inf:
        raise InvalidParameterError("tol must be finite and > 0")
    n1 = p.n2 + p.n3
    x = p.n2 / (1 + n1)
    y = p.n3 / (1 + n1)

    pref = 2.0 * math.sqrt(x) / (1 + n1)
    if pref == 0.0:
        return 0.0
    return pref * _sum_diagonals(_log_t_spin_flip, x, y**2, tol / pref)


def f_conditional(p: ConditionalParams, tol: float = 1e-8) -> float:
    """Spin-flip coefficient of the heralded two-mode state.

    Series over the spin-pair index and the detector photon number p, the
    latter weighted by 1 - (1-eta)^p.
    """
    if not 0 < tol < math.inf:
        raise InvalidParameterError("tol must be finite and > 0")
    _check_click(p)
    n1 = p.n2 + p.n3
    x = p.n2 / (1 + n1)
    y = p.n3 / (1 + n1)
    eta = p.eta

    def log_t(k, q):
        return (gammaln(2 * k + q + 1) - gammaln(2 * k + 1) - gammaln(q + 1)
                + 0.5 * (np.log(2 * k + q + 1) - np.log(2 * k + 1)))

    def extra(q):
        return 1.0 - (1.0 - eta) ** q

    pref = 2.0 * math.sqrt(x) * (1 + eta * p.n3) / (p.n3 * (1 + n1) * eta)
    if pref == 0.0:
        return 0.0
    return pref * _sum_diagonals(log_t, x, y, tol / pref, extra=extra)


# ---------------------------------------------------------------------------
# point-operator (Pi) representation closed forms

def su21_pi_coeffs(n: float) -> PsCoefficients:
    """Point-operator coefficients of the trilinear state, symmetric split
    n2 = n3 = N/4, as functions of the total photon number."""
    if not 0 <= n < math.inf:
        raise InvalidParameterError(f"photon number must be finite and >= 0, got {n}")
    c1 = 2.0 * math.atan(n / (2.0 * math.sqrt(1.0 + n))) / (math.pi * (1.0 + n))
    c23 = 2.0 * math.atan(math.sqrt(n)) / (math.pi * (1.0 + n / 2.0))
    return PsCoefficients(-c1, c23, c23)


def ghz_pi_coeffs(r: float) -> PsCoefficients:
    """Point-operator coefficients of the GHZ-type state (all three equal)."""
    if not 0 <= r < math.inf:
        raise InvalidParameterError(f"squeezing must be finite and >= 0, got {r}")
    # e^{4r} factored out with q = e^{-4r}, so large r cannot overflow
    q = math.exp(-4.0 * r)
    num = -6.0 * math.atan((1.0 - q) / math.sqrt(3.0 * (1.0 + 2.0 * q)))
    c = num * math.exp(-2.0 * r) / (math.pi * math.sqrt(2.0 + 5.0 * q + 2.0 * q * q))
    return PsCoefficients(c, c, c)


def pi_coeffs_quadrature(state: GaussianState) -> PsCoefficients:
    """Phase-space quadrature oracle for the point-operator coefficients.

    Correlator pattern: a point operator (delta kernel) on one mode against
    sign-of-quadrature kernels on the other two.  The delta slices the Wigner
    exponent (restrict the inverse covariance), the untested quadratures are
    marginalized (Schur complement), and the remaining two-variable sign-sign
    average is the bivariate-normal orthant arcsine.  The sign kernel is taken
    along the y quadrature, which matches the closed forms' orientation.
    """
    if state.n_modes != 3:
        raise InvalidParameterError("three-mode state required")
    vi = np.linalg.inv(state.cov)
    det_v = state.det()
    out = []
    for z in range(3):
        keep = [i for i in range(6) if i not in (z, z + 3)]
        m = vi[np.ix_(keep, keep)]
        # keep-order: the two x's then the two y's; sign kernels act on y
        sgn, marg = [2, 3], [0, 1]
        mss = m[np.ix_(sgn, sgn)]
        msm = m[np.ix_(sgn, marg)]
        mmm = m[np.ix_(marg, marg)]
        schur = mss - msm @ np.linalg.inv(mmm) @ msm.T
        sinv = np.linalg.inv(schur)
        rho = sinv[0, 1] / math.sqrt(sinv[0, 0] * sinv[1, 1])
        val = -(2.0 / math.pi) * det_v**-0.5 * np.linalg.det(m) ** -0.5 * math.asin(rho)
        out.append(float(val))
    return PsCoefficients(*out)


# ---------------------------------------------------------------------------
# correlation function and Bell combinations

def e_ps3(c: PsCoefficients, thetas, phis) -> float:
    """Three-mode pseudospin correlation function for one angle triple.

    The all-z term enters with coefficient +1; the three mixed terms carry
    c1, c2, c3 with their azimuthal factors.
    """
    t1, t2, t3 = thetas
    p1, p2, p3 = phis
    return (math.cos(t1) * math.cos(t2) * math.cos(t3)
            + c.c1 * math.cos(t1) * math.sin(t2) * math.sin(t3)
            * (math.cos(p2) * math.cos(p3) + math.sin(p2) * math.sin(p3))
            + c.c2 * math.cos(t2) * math.sin(t1) * math.sin(t3)
            * (math.cos(p1) * math.cos(p3) - math.sin(p1) * math.sin(p3))
            + c.c3 * math.cos(t3) * math.sin(t1) * math.sin(t2)
            * (math.cos(p1) * math.cos(p2) + math.sin(p1) * math.sin(p2)))


def b3_ps_from_coeffs(c: PsCoefficients, tol: float = 1e-10) -> BellValue:
    """Maximal Bell-Klyshko value over the polar angles, from ``klyshko_max``
    (a fixed 6^6 start grid, then exact refinement to ``tol``).

    Azimuthal freedom reduces any coefficient sign pattern to the canonical
    all-negative-magnitude form, so only |c_i| matter; the canonical form is
    realized by the (0, pi, pi) azimuthal preset for the ladder-representation
    signs.
    """
    res = klyshko_max(c.magnitudes(), tol=tol)
    settings = PsSettings(
        thetas=tuple(res.arg_max[:3]), phis=AZIMUTHAL_PRESET,
        thetas_primed=tuple(res.arg_max[3:]), phis_primed=AZIMUTHAL_PRESET,
    )
    return BellValue(res.max_value, 3, settings)


def b3_ps(n2: float, n3: float, tol: float = 1e-8) -> BellValue:
    """Angle-maximized three-party pseudospin Bell value of the trilinear state:
    ``b3_ps_from_coeffs`` of its ladder-operator coefficients."""
    return b3_ps_from_coeffs(su21_ps_coeffs(n2, n3, tol), tol=min(tol, 1e-8))


def b2_ps_from_f(f: float) -> BellValue:
    """CHSH maximum 2 sqrt(1 + f^2) for a correlator cos cos + f sin sin.

    The maximizing angles are included in the returned settings: party 1 at
    (0, pi/2), party 2 at (+/- chi) with tan(chi) = f.
    """
    if not 0.0 <= f <= 1.0 + 1e-12:
        raise InvalidParameterError("f must lie in [0, 1]")
    f = min(f, 1.0)
    chi = math.atan2(f, 1.0)
    settings = PsSettings(
        thetas=(0.0, chi), phis=(0.0, 0.0),
        thetas_primed=(math.pi / 2.0, -chi), phis_primed=(0.0, 0.0),
    )
    return BellValue(2.0 * math.sqrt(1.0 + f * f), 2, settings)
