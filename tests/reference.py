"""Reference implementations the tests compare against.

These are not part of the ``cvbell`` package: the program does not run them.
They are the Gaussian Wigner function and partial trace, the heralded state's
Wigner function read off the displaced-parity correlator, the coupling-to-photon
map of the interlinked interactions, the three displacement families and the
large-squeezing residual that only the closed forms' tests assemble, the
three-mode pseudospin correlator written out, the large-energy relations of the
optimized displacements, the dense matrix of a Fock-space state, the dense
pseudospin axis operator, the interlinked-interaction and twin-beam kets exact
to 50 digits, the GHZ-type state's correlator written out, and the
displacement matrix built for one amplitude alone, the one-bracket scan
maximizer in plain floats, and the figure-table writers that format every cell,
repeated or not.
"""
from __future__ import annotations

import decimal
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np
from numpy.typing import ArrayLike, NDArray

from cvbell import (ConditionalParams, DpSettings, FockDensityOperator, GaussianState,
                    InvalidParameterError, PsCoefficients, TripartitePhotonNumbers, bell_dp,
                    e_dp, log_j_maximize, twb_state)
from cvbell.bell_dp import _family
from cvbell.gaussian import _nonnegative


# ---------------------------------------------------------------------------
# Gaussian states

def wigner_eval(s: GaussianState, point: NDArray[np.float64]) -> float | NDArray[np.float64]:
    """Wigner function at ``point`` = (x_1..x_n, y_1..y_n); strictly positive.

    Accepts a trailing-dimension batch: shape (..., 2n) returns shape (...).
    """
    pt = np.asarray(point, dtype=float)
    d = 2 * s.n_modes
    if pt.shape[-1] != d:
        raise InvalidParameterError(f"point must have length {d}")
    inv, det = s.factors
    quad = np.einsum("...i,ij,...j->...", pt, inv, pt)
    out = np.pi ** (-s.n_modes) * det ** -0.5 * np.exp(-quad)
    return float(out) if out.ndim == 0 else out


def heralded_wigner(p: ConditionalParams, point: ArrayLike) -> float | NDArray[np.float64]:
    """Wigner function of the heralded state at (x1, x2, y1, y2), batched over
    leading axes: W(x) = e_dp(p, (x + iy)/sqrt(2)) / pi^2, the displaced-parity
    correlator (Royer, PRA 15, 449 (1977))."""
    pt = np.asarray(point, dtype=float)
    return e_dp(p, (pt[..., :2] + 1j * pt[..., 2:]) / math.sqrt(2.0)) / math.pi**2


def reduce_state(s: GaussianState, keep: Iterable[int]) -> GaussianState:
    """Partial trace down to the modes in ``keep`` (0-based indices).

    Tracing a Gaussian state just deletes the rows/columns of the dropped
    modes from the covariance matrix.
    """
    modes = sorted(set(int(k) for k in keep))
    if not modes:
        raise InvalidParameterError("keep must be a nonempty set of mode indices")
    if modes[0] < 0 or modes[-1] >= s.n_modes:
        raise InvalidParameterError(f"mode indices must lie in [0, {s.n_modes - 1}]")
    idx = modes + [m + s.n_modes for m in modes]
    sub = s.cov[np.ix_(idx, idx)]
    return GaussianState(len(modes), sub)


@dataclass(frozen=True)
class CouplingParams:
    """Couplings of the two interlinked bilinear interactions, plus the time."""

    gamma1: complex
    gamma2: complex
    t: float

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "t"):
            v = getattr(self, name)
            if not np.all(np.isfinite([np.real(v), np.imag(v)])):
                raise InvalidParameterError(f"{name} must be finite")
        if abs(self.gamma2) <= abs(self.gamma1):
            raise ValueError(
                "|gamma2| must exceed |gamma1| (oscillatory regime only)"
            )


def coupling_to_photons(c: CouplingParams) -> TripartitePhotonNumbers:
    """Photon numbers generated from vacuum by the interlinked couplings at time t."""
    g1, g2 = abs(c.gamma1), abs(c.gamma2)
    omega = np.sqrt(g2**2 - g1**2)
    n2 = (g1**2 * g2**2 / omega**4) * (np.cos(omega * c.t) - 1.0) ** 2
    n3 = (g1**2 / omega**2) * np.sin(omega * c.t) ** 2
    return TripartitePhotonNumbers(n2=float(n2), n3=float(n3))


# ---------------------------------------------------------------------------
# displaced parity

def ghz_dp_settings(j_mag: ArrayLike) -> DpSettings:
    """Symmetric family for the GHZ-type state: real sqrt(J)(1,1,1) and
    -2 sqrt(J)(1,1,1); J in coherent-amplitude units."""
    w = np.sqrt(_nonnegative("J", j_mag))
    return _family((w, w, w), (-2 * w, -2 * w, -2 * w))


def su21_sym_dp_settings(j_mag: ArrayLike) -> DpSettings:
    """Symmetric family for the trilinear state with phases phi2 = phi3 = pi:
    real sqrt(J/2)(1,1,1) and -2 sqrt(J/2)(1,1,1); J in phase-space units
    (coherent amplitude sqrt(J/2))."""
    w = np.sqrt(_nonnegative("J", j_mag) / 2.0)
    return _family((w, w, w), (-2 * w, -2 * w, -2 * w))


def twb_bw_dp_settings(j_mag: ArrayLike) -> DpSettings:
    """Original two-settings family: zero displacements against
    real (sqrt(J), -sqrt(J)); J in coherent-amplitude units."""
    w = np.sqrt(_nonnegative("J", j_mag))
    zero = np.zeros_like(w)
    return _family((zero, zero), (w, -w))


def e_dp_ghz_closed(r: float, alphas) -> float:
    """Explicit displaced-parity correlator of the GHZ-type state, written out
    directly in the orientation of ``ghz_state`` (x-sum and y-differences
    squeezed): a second derivation from the same covariance as ``e_dp``."""
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
    if settings.unprimed.shape != (3,):
        raise InvalidParameterError("three-mode settings required")
    x, y = settings.unprimed.real, settings.unprimed.imag
    xp, yp = settings.primed.real, settings.primed.imag
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


def asymptote_relations() -> list[dict]:
    """Numerically optimized displacements against their large-energy predictions.

    Each row reports the optimized J, the predicted value, and their ratio.
    """
    rows: list[dict] = []

    n = 1e3
    res = log_j_maximize(lambda j: bell_dp.b3_ghz_closed(
        math.asinh(math.sqrt(n / 3.0)), j), 1e-8, 1.0)
    pred = math.asinh(math.sqrt(n / 3.0)) / (8.0 * n)
    rows.append({
        "name": "ghz_dp_j", "energy": n, "j_opt": float(res.arg_max[0]),
        "j_predicted": pred, "ratio": float(res.arg_max[0]) / pred,
        "bell_value": res.max_value,
    })

    n = 1e5
    s = bell_dp.su21_opt_state(n)
    res = log_j_maximize(lambda j: bell_dp.DpRates(
        s, bell_dp.su21_opt_dp_settings(j)).bell(), 1e-8, 1.0)
    pred = 3.21 / n
    rows.append({
        "name": "su21_opt_dp_jn", "energy": n, "j_opt": float(res.arg_max[0]),
        "j_predicted": pred, "ratio": float(res.arg_max[0]) / pred,
        "bell_value": res.max_value,
    })

    r = 5.0
    n = 2.0 * math.sinh(r) ** 2
    s = twb_state(n)
    res = log_j_maximize(lambda j: bell_dp.DpRates(s, bell_dp.twb_dp_settings(j)).bell(),
                         1e-10, 1.0)
    pred = math.log(3.0) / 32.0 * math.exp(-2.0 * r)
    rows.append({
        "name": "twb_dp_exp2r_j", "energy": n, "j_opt": float(res.arg_max[0]),
        "j_predicted": pred, "ratio": float(res.arg_max[0]) / pred,
        "bell_value": res.max_value,
    })

    n2 = 1e3
    p = ConditionalParams(n2=n2, n3=1e-2 / n2, eta=1.0)
    res = log_j_maximize(
        lambda j: bell_dp.DpRates(p, bell_dp.conditional_dp_settings(j)).bell(), 1e-9, 1.0)
    pred = 0.042 / n2
    rows.append({
        "name": "conditional_dp_jn2", "energy": n2, "j_opt": float(res.arg_max[0]),
        "j_predicted": pred, "ratio": float(res.arg_max[0]) / pred,
        "bell_value": res.max_value,
    })
    return rows


# ---------------------------------------------------------------------------
# pseudospin

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


# ---------------------------------------------------------------------------
# Fock-space states

def matrix(state: FockDensityOperator) -> NDArray[np.complex128]:
    """The (cutoff**n_modes,)*2 matrix of ``state``."""
    flat = state.kets.reshape(state.weights.size, -1)
    return (flat.T * state.weights) @ flat.conj()


def min_eigenvalue(state: FockDensityOperator) -> float:
    return float(np.min(np.linalg.eigvalsh(matrix(state))))


def pseudospin_axis_op(theta: float, phi: float, cutoff: int) -> NDArray[np.complex128]:
    """The dense d.s = s_z cos(theta) + sin(theta)(e^{i phi} s_- + e^{-i phi} s_+)
    on ``cutoff`` number states, with s_z = +1 on odd and -1 on even states and
    s_- = sum_k |2k><2k+1|."""
    sz = np.diag(np.where(np.arange(cutoff) % 2 == 1, 1.0, -1.0))
    sm = np.zeros((cutoff, cutoff))
    ev = np.arange(0, cutoff - 1, 2)
    sm[ev, ev + 1] = 1.0
    return sz * np.cos(theta) + np.sin(theta) * (np.exp(1j * phi) * sm + np.exp(-1j * phi) * sm.T)


def _root(f: Fraction) -> decimal.Decimal:
    return (decimal.Decimal(f.numerator) / f.denominator).sqrt()


def _unit(theta: float) -> tuple[decimal.Decimal, decimal.Decimal]:
    """(cos, sin) of the float ``theta``, from the series of e^{i theta}, summed with digits
    to spare for its largest terms, about e^|theta|."""
    with decimal.localcontext() as ctx:
        ctx.prec += math.ceil(abs(theta) / math.log(10)) + 5
        t = decimal.Decimal(theta)
        re, im = decimal.Decimal(1), decimal.Decimal(0)
        term, k = (re, im), 0
        while abs(term[0]) + abs(term[1]) > decimal.Decimal(10) ** -(ctx.prec + 10):
            k += 1
            term = (-term[1] * t / k, term[0] * t / k)
            re, im = re + term[0], im + term[1]
    return +re, +im


def su21_amplitudes(p: TripartitePhotonNumbers, cutoff: int) -> NDArray[np.complex128]:
    """Amplitudes of the interlinked-interaction ket at the float inputs, exact to
    50 digits before the final rounding: (1+N1)^{-1/2} x^{p/2} y^{q/2}
    e^{-i(p phi2 + q phi3)} sqrt((p+q)!/(p! q!)) on |p+q, p, q> for p + q < cutoff,
    x = N2/(1+N1), y = N3/(1+N1); the magnitudes from exact rationals, the phases
    as powers of e^{-i phi} in decimal."""
    n2, n3 = Fraction(p.n2), Fraction(p.n3)
    d = 1 + n2 + n3
    amps = np.zeros((cutoff,) * 3, dtype=complex)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        powers = []
        for phi in (p.phi2, p.phi3):
            c, s = _unit(-phi)
            pw = [(decimal.Decimal(1), decimal.Decimal(0))]
            for _ in range(cutoff):
                a, b = pw[-1]
                pw.append((a * c - b * s, a * s + b * c))
            powers.append(pw)
        for pp in range(cutoff):
            for q in range(cutoff - pp):
                mag = _root(n2**pp * n3**q * math.comb(pp + q, pp) / d ** (pp + q + 1))
                (a, b), (c, s) = powers[0][pp], powers[1][q]
                amps[pp + q, pp, q] = complex(float(mag * (a * c - b * s)),
                                              float(mag * (a * s + b * c)))
    return amps


def twb_amplitudes(x: float, cutoff: int) -> NDArray[np.complex128]:
    """Amplitudes sqrt(1-X^2) X^n on |n, n> of the twin beam at the float X, for
    n < cutoff, exact to 50 digits before the final rounding."""
    f = Fraction(x)
    amps = np.zeros((cutoff, cutoff), dtype=complex)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for n in range(cutoff):
            amps[n, n] = float(_root((1 - f * f) * f ** (2 * n)))
    return amps


def displacement_one(alpha: complex, cutoff: int) -> NDArray[np.complex128]:
    """<m|D(alpha)|n> for m, n < cutoff from one alpha alone: the Laguerre
    recurrence over k = |m-n| for this alpha only, in the arithmetic order of
    ``cvbell.fock.displacement``, so each row of that batch equals it bit for bit."""
    alpha = complex(alpha)
    if alpha == 0:
        return np.eye(cutoff, dtype=complex)
    r = abs(alpha)
    x = r * r
    k = np.arange(cutoff)
    j = k[:, None]
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


# ---------------------------------------------------------------------------
# maximizer

def scan_maximize(f, lo: float, hi: float, tol: float) -> tuple[float, float, int, bool]:
    """``(arg_max, max_value, evaluations, converged)`` of repeated 256-point
    ``np.linspace`` scans of one bracket, each narrowing it to its best
    point's two neighbours until it is at most ``tol`` or stops shrinking:
    ``optim.maximize_scalar``'s algorithm, one bracket at a time in floats."""
    a, b = lo, hi
    best_x, best_v, evaluations = lo, -math.inf, 0
    while True:
        xs = np.linspace(a, b, 256)
        vals = f(xs)
        evaluations += 256
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_x, best_v = float(xs[i]), float(vals[i])
        width, a, b = b - a, float(xs[max(i - 1, 0)]), float(xs[min(i + 1, 255)])
        if not tol < b - a < width:
            return best_x, best_v, evaluations, 0.0 < b - a <= tol


# ---------------------------------------------------------------------------
# figure tables

def figure_csv(figure_id: str, meta: dict, cols: list[str], rows) -> str:
    """A figure's CSV text, each row's cells formatted by one ``%.12g`` %-format
    of the whole row: the metadata comments, the header, then the rows."""
    head = "".join(f"# {k}={v}\n" for k, v in sorted({"figure": figure_id, **meta}.items()))
    line = ",".join(["%.12g"] * len(cols)) + "\n"
    return head + ",".join(cols) + "\n" + "".join(
        line % tuple(row) for row in np.asarray(rows, dtype=float).tolist())


def figure_json(figure_id: str, meta: dict, cols: list[str], rows) -> str:
    """A figure's JSON-lines text: one object of the figure id and the metadata,
    then one record per row, each cell the float of its own ``%.12g`` text."""
    return json.dumps({"figure": figure_id, **meta}, sort_keys=True) + "\n" + "".join(
        json.dumps({c: float("%.12g" % v) for c, v in zip(cols, row)}, sort_keys=True) + "\n"
        for row in rows)
