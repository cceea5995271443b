"""Pseudospin correlators: ladder coefficients, closed forms, Bell combinations.

Two inequivalent operator representations are covered: the number-parity
ladder operators (coefficients from one fixed 2-D quadrature, checked for
n2 + n3 <= 4e6) and the quadrature-sign/point operators (the ``*_pi_coeffs``
closed forms).
Coefficient signs follow the closed-form convention in which the all-z
correlator is +1; the Fock oracle, which uses the ladder definition verbatim
(odd number states +1), reports the opposite global sign: -c_k, and -1 for
the all-z correlator.  Bell maximization depends only on the coefficient
magnitudes once the azimuthal angles are free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditional import ConditionalParams, _check_click
from .errors import InvalidParameterError, PrecisionError
from .gaussian import GaussianState, _nonnegative
from .bell_dp import _bell
from .optim import klyshko_max


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


# ---------------------------------------------------------------------------
# ladder coefficients: one fixed 2-D quadrature
#
# Each ladder coefficient is a double series whose terms are binomials times
# factors (2k+1)^(-1/2).  Writing each such factor as
# (2/sqrt(pi)) int_0^inf e^{-(2k+1)u^2} du closes both sums, so a coefficient
# is the integral over (u, v) in [0, inf)^2, against
# dmu = (4/pi) e^{-u^2-v^2} du dv, of a rational function of P = e^{-u^2} and
# Q = e^{-v^2}.  With x = n2/(1+n1), y = n3/(1+n1), eps = 1/(1+n1) and sums
# over s = +1, -1:
#   c3 = p3 F(x, y), c2 = p2 F(y, x), F(a, b) = 1/2 sum_s (1+w^2)/(1-w^2)^2,
#        w = (b + s a Q) P;
#   c1 = -p1 1/2 sum_s (1+z^2)/(1-z^2)^2, z = x P + s y Q;
#   f_conditional = pref 1/2 sum_s [A^-2 - B^-2], A = 1 - (y + s x Q) P,
#        B = 1 - ((1-eta) y + s x Q) P.
# Since (1+w^2)/(1-w^2)^2 = [(1-w)^-2 + (1+w)^-2]/2, every factor is one of
# 1 -+ w, and each equals (E + g)/(1 + E) with E = e^{u^2} - 1 and g a
# function of Q alone, written as a sum of nonnegative terms (1 - a - b = eps
# is never formed by subtraction).  So the rule contracts (E_i + g_j)^-2
# against the u weights times (1 + E)^2.

_MAX_N1 = 4e6   # largest n2 + n3 at which the rule is checked to 1e-12


def _rule():
    """Nodes and weights of the rule in one variable, used for both u and v.

    A trapezoid rule with step 0.39 in t, through the change of variable
    ell = log(e^{u^2} - 1) = t - 1.5 e^{-(t+15.5)/1.5} + 1.5 e^{(t-2)/1.5}:
    uniform in ell across the kernels' peaks (from ell ~ log eps up) and
    double-exponential in both tails (Takahasi & Mori, Publ. RIMS 9, 721
    (1974)).  72 nodes.  Against the same change of variable at step 0.15 it
    agrees to 3e-14 for n1 <= 3e6 and to 2e-13 at n1 = 4e6, but only to 2e-11
    at n1 = 1e7; hence ``_MAX_N1``.
    """
    t = np.arange(-54, 18) * 0.39
    low, high = np.exp(-(t + 15.5) / 1.5), np.exp((t - 2.0) / 1.5)
    ell = t - 1.5 * low + 1.5 * high            # u from 1.5e-18 to 6.3
    d_ell = 0.39 * (1.0 + low + high)
    e = np.exp(ell)
    # (2/sqrt(pi)) e^{-u^2} du = P (1-P) d_ell / sqrt(pi u^2), u^2 = log(1 + E)
    weight_e = d_ell * e / np.sqrt(math.pi * np.logaddexp(0.0, ell))   # times (1 + E)^2
    return e, 1.0 / (1.0 + e), e / (1.0 + e), weight_e / (1.0 + e) ** 2, weight_e


_E, _Q, _M, _W, _WE = _rule()   # E, Q = e^{-v^2}, 1 - Q, v weights, u weights (1+E)^2
_MQQM = np.stack((_M, _Q, _Q, _M))   # the Q-dependence of the four factors of a kernel


def _ratios(n2: float, n3: float) -> tuple[float, float, float]:
    """x = n2/(1+n1), y = n3/(1+n1) and eps = 1/(1+n1), inside the checked range."""
    n1 = n2 + n3
    if n1 > _MAX_N1:
        raise PrecisionError(f"n2 + n3 = {n1:.10g} is above {_MAX_N1:g}, the largest photon "
                             "number at which the pseudospin quadrature is checked")
    return n2 / (1 + n1), n3 / (1 + n1), 1.0 / (1 + n1)


def _kernels(a: float, b: float, eps: float) -> np.ndarray:
    """The four factors 1 -+ w of F(a, b), over the v nodes, as the g of
    (E + g)/(1 + E): c3 reads F(x, y) and c2 reads F(y, x)."""
    return np.array([eps, a + eps, 1 + b, 2 * b + eps])[:, None] + a * _MQQM


def _integrals(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A quarter of the integral of (E_i + g_kj)^-2 for each row k of g,
    against the u weights and the row's v weights w[k]; a coefficient sums
    the four rows of its factors."""
    s = _E[:, None] + g.reshape(-1)
    s *= s
    np.reciprocal(s, out=s)                   # (E_i + g_j)^-2
    return 0.25 * np.vecdot((_WE @ s).reshape(g.shape), w)


def su21_ps_coeffs(n2: float, n3: float) -> PsCoefficients:
    """Ladder-representation coefficients of the trilinear state.

    c1 multiplies the z-first pattern and carries the overall minus sign; c2
    and c3 are positive.  Raises ``PrecisionError`` above n2 + n3 = 4e6.
    """
    n2, n3 = float(_nonnegative("n2", n2)), float(_nonnegative("n3", n3))
    x, y, eps = _ratios(n2, n3)     # the domain check first: past it the p_k can overflow
    n1 = n2 + n3
    p1 = 2.0 * math.sqrt(n2 * n3) / (1 + n1) ** 2
    p2 = 2.0 * math.sqrt(n3) / (1 + n1) ** 1.5
    p3 = 2.0 * math.sqrt(n2) / (1 + n1) ** 1.5
    if p2 == p3 == 0.0:
        return PsCoefficients(0.0, 0.0, 0.0)
    g2 = _kernels(y, x, eps)
    # c1's factors 1 -+ z over 1 -+ y Q are c2's; the divisors go to the v weights
    den = np.array([x + eps, 1.0, 1.0, x + eps])[:, None] + y * _MQQM
    g = np.concatenate((g2 / den, g2, _kernels(x, y, eps)))
    w = np.concatenate((_W / den**2, np.broadcast_to(_W, (8, _W.size))))
    f1, f2, f3 = _integrals(g, w).reshape(3, 4).sum(axis=1)
    return PsCoefficients(-p1 * f1 if p1 else 0.0, p2 * f2, p3 * f3)


def f_twb(n: float) -> float:
    """Twin-beam spin-flip correlator sqrt(N(N+2))/(1+N); rises monotonically to 1."""
    n = float(_nonnegative("photon number", n))
    return math.sqrt(n * (n + 2.0)) / (1.0 + n)


def f_traced(p: ConditionalParams) -> float:
    """Spin-flip coefficient of the mode-3-discarded two-mode state: c3 of
    ``su21_ps_coeffs(p.n2, p.n3)``, bit for bit, from its four kernels alone."""
    if p.n2 == 0.0:
        return 0.0
    x, y, eps = _ratios(p.n2, p.n3)
    p3 = 2.0 * math.sqrt(p.n2) / (1 + (p.n2 + p.n3)) ** 1.5
    return p3 * _integrals(_kernels(x, y, eps), _W).sum()


def f_conditional(p: ConditionalParams) -> float:
    """Spin-flip coefficient of the heralded two-mode state.

    The detector photon number enters through the weight 1 - (1-eta)^q, a
    difference of two geometric series; the kernel is that difference
    (B - A)(B + A)/(A B)^2 with B - A = eta y P, so it does not cancel as
    n3 -> 0.
    """
    _check_click(p)
    if p.n2 == 0.0:
        return 0.0
    x, y, eps = _ratios(p.n2, p.n3)     # the domain check first: past it pref can underflow
    n1 = p.n2 + p.n3
    pref = 2.0 * math.sqrt(p.n2 / (1 + n1)) * (1 + p.eta * p.n3) / (p.n3 * (1 + n1) * p.eta)
    a = _E[:, None] + (np.array([eps, x + eps])[:, None] + x * _MQQM[:2]).reshape(-1)  # (1+E) A
    b = a + p.eta * y                                                                   # (1+E) B
    k = (a + b) / (a * b) ** 2
    return pref * 0.5 * p.eta * y * float(np.sum((_WE @ k).reshape(2, -1) @ _W))


# ---------------------------------------------------------------------------
# point-operator (Pi) representation closed forms

def su21_pi_coeffs(n: float) -> PsCoefficients:
    """Point-operator coefficients of the trilinear state, symmetric split
    n2 = n3 = N/4, as functions of the total photon number."""
    n = float(_nonnegative("photon number", n))
    c1 = 2.0 * math.atan(n / (2.0 * math.sqrt(1.0 + n))) / (math.pi * (1.0 + n))
    c23 = 2.0 * math.atan(math.sqrt(n)) / (math.pi * (1.0 + n / 2.0))
    return PsCoefficients(-c1, c23, c23)


def ghz_pi_coeffs(r: float) -> PsCoefficients:
    """Point-operator coefficients of the GHZ-type state (all three equal)."""
    r = float(_nonnegative("squeezing", r))
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
    along the y quadrature, which gives the GHZ closed form and the negative of
    the trilinear one.
    """
    if state.n_modes != 3:
        raise InvalidParameterError("three-mode state required")
    vi = np.linalg.inv(state.cov)
    det_v = state.factors[1]
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

def b3_ps_from_coeffs(c: PsCoefficients) -> float:
    """Maximal Bell-Klyshko value over the polar angles, from ``klyshko_max``
    (a fixed 6^6 start grid, then exact refinement to gradient 1e-10).

    Azimuthal freedom reduces any coefficient sign pattern to the canonical
    all-negative-magnitude form, so only |c_i| matter; the canonical form is
    realized by the (0, pi, pi) azimuthal preset for the ladder-representation
    signs.
    """
    return _bell(klyshko_max(c.magnitudes()).max_value, 3)


def b2_ps_from_f(f: float) -> float:
    """CHSH maximum 2 sqrt(1 + f^2) for a correlator cos cos + f sin sin,
    reached with party 1 at (0, pi/2) and party 2 at +/- chi, tan(chi) = f."""
    if not 0.0 <= f <= 1.0 + 1e-12:
        raise InvalidParameterError("f must lie in [0, 1]")
    f = min(f, 1.0)
    return _bell(2.0 * math.sqrt(1.0 + f * f), 2)
