"""Brute-force truncated Fock-space engine.

Everything here is an independent numerical oracle: every state is a ``FockDensityOperator``
of weighted kets over a truncated number basis (a pure Gaussian state is one renormalized ket,
from its A matrix alone), and every expectation is operator algebra, with no reference to the
closed forms it checks.  The displacement operator is the exact number-basis matrix from its
Laguerre closed form, cropped to the cutoff; it shares nothing with the covariance path.

An expectation is sum w_i conj(a_s) a_t prod_m O_m[s_m, t_m] over the pairs of
nonzero amplitudes of one ket k_i, from a table each state builds once, where it
holds no more pairs than the kets hold amplitudes; otherwise each O_m is
contracted densely into the kets.  The pseudospin operators are one 2x2 block on
each {|2k>, |2k+1>}, so their sum runs over the pairs that share every block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import CutoffTooSmallError, InvalidParameterError, PrecisionError, UndefinedStateError
from .gaussian import TripartitePhotonNumbers, _nonnegative

TAIL_BUDGET = 1e-6
# the most amplitudes, cutoff**n_modes, a built ket holds: cutoff <= 100 on three modes, 1000 on two
MAX_AMPLITUDES = 10**6


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
        k = np.ascontiguousarray(self.kets, dtype=complex)
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or k.shape != w.shape + (self.cutoff,) * self.n_modes:
            raise InvalidParameterError(
                "kets must have shape (r,) + (cutoff,)*n_modes for r weights")
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise InvalidParameterError("weights must be finite and non-negative")
        flat = k.reshape(w.size, -1).view(float)     # re, im interleaved
        tr = float(w @ np.einsum("ij,ij->i", flat, flat))
        if not abs(tr - 1.0) <= 1e-9:
            raise InvalidParameterError(f"trace must be 1, got {tr}")
        k.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "kets", k)
        object.__setattr__(self, "weights", w)

    @cached_property
    def _pairs(self) -> tuple[NDArray, tuple[NDArray, ...]] | None:
        """``_pair_table(cutoff)``, or None where the sum_i s_i^2 ordered pairs of
        each ket's s_i nonzero amplitudes outnumber the amplitudes."""
        size = np.count_nonzero(self.kets.reshape(self.weights.size, -1), axis=1)
        return self._pair_table(self.cutoff) if size @ size <= self.kets.size else None

    @cached_property
    def _marginals(self) -> tuple[NDArray[np.float64], ...]:
        """Per mode, the (cutoff,) number distribution sum_i w_i sum |k_i|^2 over
        the other modes' numbers."""
        sq = np.abs(self.kets) ** 2
        modes = range(1, self.n_modes + 1)
        return tuple(self.weights @ np.sum(sq, axis=tuple(j for j in modes if j != m))
                     for m in modes)

    @cached_property
    def _blocks(self) -> tuple[NDArray, tuple[NDArray, ...]]:
        return self._pair_table(2)

    def _pair_table(self, d: int) -> tuple[NDArray, tuple[NDArray, ...]]:
        """``(coef, idx)`` over the pairs s <= t of nonzero amplitudes of one ket k_i
        of positive weight with s_m // d = t_m // d on every mode m: coef =
        w_i conj(a_s) a_t, doubled for s < t to stand for the conjugate (t, s) term
        of Hermitian operators, and idx[m] = (s_m % d) d + t_m % d, flat in d x d."""
        r, c, flat = self.weights.size, self.cutoff, self.kets.reshape(self.weights.size, -1)
        ket, pos = np.nonzero((flat != 0) & (self.weights > 0)[:, None])
        n = np.unravel_index(pos, (c,) * self.n_modes)
        key = np.ravel_multi_index((ket, *(m // d for m in n)), (r,) + (-(-c // d),) * self.n_modes)
        order = np.argsort(key, kind="stable")
        ks = key[order]
        # each element of the sorted order pairs with itself and the rest of its group
        rep = np.searchsorted(ks, ks, side="right") - np.arange(ks.size)
        e = np.repeat(np.arange(ks.size), rep)
        f = e + np.arange(e.size) - np.repeat(np.cumsum(rep) - rep, rep)
        s, t, amps = order[e], order[f], flat[ket, pos]
        coef = np.where(e == f, 1.0, 2.0) * self.weights[ket[s]] * amps[s].conj() * amps[t]
        return coef, tuple((m[s] % d) * d + m[t] % d for m in n)


def _pure_fock(a: ArrayLike, cutoff: int, log_z: Sequence[complex] = ()) -> FockDensityOperator:
    """det(I - A^2)^{1/4} exp(a^dag . DAD a^dag / 2)|0> for a real symmetric A, a row per mode,
    and D = diag(e^{log_z}), |z_j| = 1 to rounding (I by default), as one ket on n_j < ``cutoff``
    renormalized by its weight.  sqrt(n_k + 1) psi(n + e_k) = sum_j A_kj sqrt(n_j) psi(n - e_j)
    (Miatto & Quesada, Quantum 4, 366 (2020)) runs in real arithmetic; D then scales psi(n) by
    prod_j z_j^{n_j}, so a coupling's phase or rounding put in log z_j enters once, not per step.
    psi(0) is physical, so the tail is 1 - sum |psi|^2.  A's largest singular value rounding to 1
    is a ``PrecisionError``, a tail past ``TAIL_BUDGET`` a ``CutoffTooSmallError``, and a ket
    of more than ``MAX_AMPLITUDES`` an ``InvalidParameterError``, raised before any allocation."""
    if cutoff < 2:
        raise InvalidParameterError("cutoff must be >= 2")
    a = np.asarray(a, dtype=float)
    if cutoff ** len(a) > MAX_AMPLITUDES:
        raise InvalidParameterError(f"cutoff {cutoff} on {len(a)} modes gives {cutoff ** len(a):.3g}"
                                    f" amplitudes, above the limit {MAX_AMPLITUDES}")
    sv = np.linalg.svd(a, compute_uv=False)
    if not sv[0] < 1.0:
        raise PrecisionError(f"A's largest singular value {float(sv[0])!r} is not below 1")
    m = len(a)
    psi = np.zeros((cutoff,) * m)
    psi[(0,) * m] = np.prod(1.0 - sv**2) ** 0.25
    root = np.sqrt(np.arange(cutoff))
    for k in reversed(range(m)):
        f = psi[(0,) * k]       # a view at n_j = 0 for j < k, whose slabs n_k >= 1 fill here
        # slab n_k = n takes A_kj sqrt(n_j)/sqrt(n) times slab n - 1 one step along mode j's axis
        shifts = [((slice(None),) * (j - k), (a[k, j] * root[1:] / root[1:, None]).reshape(
            (cutoff - 1, -1) + (1,) * (m - 1 - j))) for j in range(k + 1, m) if a[k, j] != 0]
        for n in range(1, cutoff if a[k, k:].any() else 1):
            slab, prev = f[n:n + 1], f[n - 1:n]     # (1, cutoff, ...): a one-mode slab too
            if n > 1 and a[k, k] != 0:
                slab += a[k, k] * root[n - 1] / root[n] * f[n - 2:n - 1]
            for lead, w in shifts:
                slab[lead + (slice(1, None),)] += w[n - 1] * prev[lead + (slice(None, -1),)]
    norm = float(np.sum(psi * psi))
    tail = 1.0 - norm
    if tail > TAIL_BUDGET:
        # q^n, a mode's slowest decay: q = (N + |M|)/(1 + N + |M|), N = <a^dag a>, M = <a a>
        inv = np.linalg.inv(np.eye(m) - a @ a)
        big = np.max(np.diagonal(inv) - 1.0 + np.abs(np.diagonal(inv @ a)))
        # + 1e-6: a crossing at a whole cutoff takes the next, past the tail's rounding
        need = cutoff + math.ceil(math.log(TAIL_BUDGET / tail) / -math.log1p(1 / big) + 1e-6)
        raise CutoffTooSmallError(
            f"tail mass {tail:.3e} exceeds {TAIL_BUDGET:.1e}; use cutoff >= {need}", need)
    n, z = np.arange(cutoff), 1.0
    for j, w in enumerate(log_z):
        if w:
            frac, e = math.frexp(w.imag)        # Im w cut to 24 bits, so n * hi is exact
            hi = math.ldexp(round(frac * 2**24), e - 24)
            zn = np.exp(1j * (n * hi)) * np.exp(n * complex(w.real, w.imag - hi))
            z = z * zn.reshape((-1,) + (1,) * (m - 1 - j))
    return FockDensityOperator(m, cutoff, (psi * z)[None], [1.0 / norm])


def su21_fock(p: TripartitePhotonNumbers, cutoff: int) -> FockDensityOperator:
    """The interlinked-interaction state as one renormalized ket on |p+q, p, q>, n_j < ``cutoff``:
    A couples mode 1 to mode j = 2, 3 by c_j e^{-i phi_j}, c_j^2 = N_j/(1+N1), and log z_j
    carries the phase and, from exact rationals, the rounding of c_j."""
    n2, n3 = Fraction(p.n2), Fraction(p.n3)
    c, log_z = [0.0], [0j]
    for nj, phi in ((n2, p.phi2), (n3, p.phi3)):
        q = nj / (1 + n2 + n3)
        c.append(math.sqrt(q))
        # log(sqrt(q)/c_j), to first order in the rounding
        log_z.append(complex(float(q / Fraction(c[-1]) ** 2 - 1) / 2 if q else 0.0, -phi))
    return _pure_fock([[0, c[1], c[2]], [c[1], 0, 0], [c[2], 0, 0]], cutoff, log_z)


def twb_fock(x: float, cutoff: int) -> FockDensityOperator:
    """Twin beam sqrt(1-X^2) sum_n X^n |n,n>, A = X sigma_x, as one renormalized ket."""
    if not 0.0 <= x < 1.0:
        raise InvalidParameterError("X must lie in [0, 1)")
    return _pure_fock([[0, x], [x, 0]], cutoff)


def ghz_fock(r: float, cutoff: int) -> FockDensityOperator:
    """``ghz_state`` (three modes squeezed by r, mixed by a symmetric tritter) as one renormalized
    ket on n_j < ``cutoff``: A = tanh(r) (I - 2J/3), J all ones (van Loock & Braunstein, 2000)."""
    t = math.tanh(float(_nonnegative("squeezing parameter", r)))
    return _pure_fock(t * (np.eye(3) - 2.0 / 3.0), cutoff)


# ---------------------------------------------------------------------------
# mode operators

def displacement(alphas: Sequence[complex], cutoff: int) -> NDArray[np.complex128]:
    """<m|D(alpha)|n> for m, n < cutoff: the exact matrix elements, cropped, one
    (cutoff, cutoff) row of the returned (len(alphas), cutoff, cutoff) array per alpha.

    For m >= n the element is sqrt(n!/m!) alpha^(m-n) e^(-|alpha|^2/2)
    L_n^(m-n)(|alpha|^2); for m < n, swap m and n and put -alpha* in place of
    alpha (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)).  The Laguerre
    values come from the three-term recurrence in the degree, one run over an
    (alpha, k = |m-n|) array per step, and the magnitude prefactor is taken in
    log space.  alpha = 0 gives the identity exactly, and each row is bit for
    bit the matrix its alpha gives alone.
    """
    alphas = [complex(a) for a in alphas]
    out = np.zeros((len(alphas), cutoff, cutoff), dtype=complex)
    out[:] = np.eye(cutoff)
    live = [i for i, a in enumerate(alphas) if a != 0]
    if not live:
        return out
    # |alpha|, its log and alpha/|alpha| in Python scalars, as one alpha alone takes them
    r = [abs(alphas[i]) for i in live]
    log_r = np.array([math.log(v) for v in r])[:, None, None]
    u = np.array([alphas[i] / v for i, v in zip(live, r)])[:, None]
    x = np.array(r)[:, None, None] ** 2
    k = np.arange(cutoff)
    j = k[:, None]
    # L_{j+1}^(k) = a[., j, k] L_j^(k) - b[j, k] L_{j-1}^(k); forming a and b once
    # leaves two row products per step
    a = (2 * j + 1 + k - x) / (j + 1)
    b = (j + k) / (j + 1)
    lag = np.empty((len(live), cutoff, cutoff))   # lag[., j, k] = L_j^(k)(x)
    lag[:, 0] = 1.0
    if cutoff > 1:
        lag[:, 1] = 1.0 + k - x[:, 0]
    for i in range(1, cutoff - 1):
        lag[:, i + 1] = a[:, i] * lag[:, i] - b[i] * lag[:, i - 1]

    m, n = np.indices((cutoff, cutoff))
    lo, d = np.minimum(m, n), np.abs(m - n)
    log_fact = np.array([math.lgamma(i + 1) for i in range(cutoff)])
    log_mag = 0.5 * (log_fact[lo] - log_fact[lo + d]) + d * log_r - x / 2
    phase = np.where(m >= n, (u**k)[:, d], ((-u.conjugate()) ** k)[:, d])
    out[live] = np.exp(log_mag) * lag[:, lo, d] * phase
    return out


def _pair_sum(table: tuple[NDArray, tuple[NDArray, ...]], ops: Sequence[NDArray]) -> float:
    """Re sum_p coef_p prod_m ops[m].flat[idx[m][p]] over a ``_pair_table``, for
    Hermitian ``ops``."""
    coef, idx = table
    for i, op in zip(idx, ops):
        coef = coef * np.take(op, i)
    return float(np.real(np.sum(coef)))


def _expect(state: FockDensityOperator, ops: Sequence[NDArray]) -> float:
    """sum_i w_i <k_i| (x)ops |k_i> for Hermitian ``ops``, over the state's pair table where
    it has one, else by matrix products into the flat kets, which move and copy no axis."""
    if state._pairs is not None:
        return _pair_sum(state._pairs, ops)
    c, phi = state.cutoff, state.kets
    for j, op in enumerate(ops, start=1):
        rest = c ** (state.n_modes - j)     # the numbers of the modes after j
        phi = phi.reshape(-1, c) @ op.T if rest == 1 else op @ phi.reshape(-1, c, rest)
    r = state.weights.size
    per_ket = np.sum(state.kets.reshape(r, -1).conj() * phi.reshape(r, -1), axis=1)
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
    par = (-1.0) ** np.arange(cutoff)
    return _expect(state, [d @ (par[:, None] * d.conj().T) for d in displacement(alphas, cutoff)])


def pseudospin_expect(state: FockDensityOperator,
                      axes: Sequence[tuple[float, float]]) -> float:
    """<prod_j d_j . s_j> for one finite (theta, phi) pair per mode, at any cutoff.

    d.s = s_z cos(theta) + sin(theta)(e^{i phi} s_- + e^{-i phi} s_+) is one 2x2 block
    on each {|2k>, |2k+1>}, s_z = diag(-1, +1) (odd states +1, as defined) and
    s_- = |2k><2k+1| (Chen, Pan, Hou & Zhang, PRL 88, 040406 (2002)).  At an odd cutoff the
    top level's partner is cut off, so its block is s_z's entry alone: the exact expectation.
    """
    if len(axes) != state.n_modes:
        raise InvalidParameterError("one (theta, phi) pair per mode required")
    _check_finite("pseudospin axes", axes)
    blocks = [np.array([[-math.cos(th), math.sin(th) * np.exp(1j * ph)],
                        [math.sin(th) * np.exp(-1j * ph), math.cos(th)]]) for th, ph in axes]
    return _pair_sum(state._blocks, blocks)


def _click_weights(cutoff: int, eta: float) -> NDArray[np.float64]:
    # diagonal of Pi_1 = I - sum_n (1-eta)^n |n><n|
    return 1.0 - (1.0 - eta) ** np.arange(cutoff)


def click_probability(state: FockDensityOperator, mode: int, eta: float) -> float:
    """Probability that an ON/OFF detector of efficiency ``eta`` on ``mode`` fires.

    Weighs the state's number distribution on ``mode``, which it computes once;
    no conditioned state is formed.
    """
    if not 0.0 <= eta <= 1.0:
        raise InvalidParameterError("eta must lie in [0, 1]")
    if not 0 <= mode < state.n_modes:
        raise InvalidParameterError("mode index out of range")
    return float(_click_weights(state.cutoff, eta) @ state._marginals[mode])


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
