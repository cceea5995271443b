"""Deterministic scalar and small-dimension maximizers.

No stochastic search anywhere: coarse grids pick a bracket or a start
point, golden-section (or, for the Klyshko sum, exact per-angle and Newton
steps) refines it, ties break toward the lowest index.  Identical inputs give
bit-identical results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .bell_dp import KLYSHKO_TERMS, TERM_SIGNS
from .errors import InvalidParameterError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ScanResult:
    arg_max: NDArray[np.float64]
    max_value: float
    evaluations: int
    bracket: NDArray[np.float64]
    converged: bool = False


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise InvalidParameterError(f"tol must be finite and > 0, got {tol}")


def _golden_max(f: Callable[[float], float], lo: float, hi: float,
                tol: float) -> tuple[float, float, int, float]:
    """Golden-section maximum on [lo, hi]; returns (x, f(x), evaluations,
    final bracket width).  Stops at width ``tol``, or earlier once rounding
    keeps the bracket from shrinking."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    width = math.inf
    while tol < b - a < width:
        width = b - a
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        evals += 1
    x = c if fc >= fd else d
    fx = fc if fc >= fd else fd
    return x, fx, evals, b - a


def maximize_scalar(f: Callable[[float], float], lo: float, hi: float,
                    tol: float = 1e-8, coarse: int = 256) -> ScanResult:
    """Coarse scan then golden-section refinement of a scalar function.

    ``converged`` is True when the golden-section bracket has shrunk to
    ``tol`` (finite and > 0).
    """
    _check_tol(tol)
    if not lo < hi:
        raise InvalidParameterError("need lo < hi")
    xs = np.linspace(lo, hi, coarse)
    vals = np.array([f(x) for x in xs], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise InvalidParameterError("objective returned non-finite values on the scan grid")
    i = int(np.argmax(vals))
    best_x, best_v = float(xs[i]), float(vals[i])
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, coarse - 1)])
    evals = coarse
    converged = False
    if b > a:
        x, v, n, width = _golden_max(f, a, b, tol)
        evals += n
        converged = width <= tol
        if v > best_v:
            best_x, best_v = x, v
    return ScanResult(
        arg_max=np.array([best_x]), max_value=best_v,
        evaluations=evals, bracket=np.array([b - a]), converged=converged,
    )


# One product grid per angle maximizer: _ANGLE_GRID^dim points for
# ``maximize_angles`` (dim <= 4), _KLYSHKO_GRID^6 for ``klyshko_max``.
_ANGLE_GRID = 12
_KLYSHKO_GRID = 6


def maximize_angles(f: Callable[[NDArray], NDArray], dim: int, tol: float = 1e-8,
                    max_passes: int = 60) -> ScanResult:
    """Full 12^dim product-grid scan over [0, 2 pi)^dim plus coordinate-wise
    golden-section passes.

    ``f`` must be vectorized: it receives an (m, dim) array and returns (m,).
    ``dim`` lies in 1..4, so the scan is one call of at most 20,736 points.
    ``tol`` (finite and > 0) bounds each golden-section bracket and the last
    pass's gain.
    """
    _check_tol(tol)
    if dim < 1 or dim > 4:
        raise InvalidParameterError("dim must lie in 1..4")
    axis = np.linspace(0.0, 2.0 * math.pi, _ANGLE_GRID, endpoint=False)
    pts = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    vals = np.asarray(f(pts), dtype=float)
    evals = pts.shape[0]
    j = int(np.argmax(vals))
    best_v = float(vals[j])
    theta = pts[j].copy()
    step = 2.0 * math.pi / _ANGLE_GRID

    def f1(x: float, k: int) -> float:
        t = theta.copy()
        t[k] = x
        return float(f(t[None, :])[0])

    width = np.full(dim, step)
    converged = False
    for _ in range(max_passes):
        improved = 0.0
        for k in range(dim):
            x, v, n, width[k] = _golden_max(lambda u: f1(u, k), theta[k] - step,
                                            theta[k] + step, tol)
            evals += n
            if v > best_v:
                improved = max(improved, v - best_v)
                best_v = v
                theta[k] = x
        if improved < tol:
            converged = bool(np.all(width <= tol))
            break
    return ScanResult(arg_max=theta, max_value=best_v, evaluations=evals, bracket=width,
                      converged=converged)


# The Klyshko sum (``bell_dp.KLYSHKO_TERMS``) over theta = (a, b, c, a', b', c'):
# party p measuring its primed setting reads angle p + 3.
_KLYSHKO_SLOTS = (np.arange(3) + 3 * KLYSHKO_TERMS).T    # angle per party and term
_KLYSHKO_ROUNDS = 100
_ROUNDING = 4.0 * np.finfo(float).eps


def _klyshko_scatter() -> NDArray[np.float64]:
    """Matrix that sums the term derivatives r[t, a, b, c] into (B, grad, Hessian).

    Index a (b, c) is 1 where term t's party-1 (2, 3) unit vector
    u = (cos, sin) is differentiated once.  Each term is linear in each of
    its vectors and u'' = -u, so first and mixed derivatives are single
    entries of r and a diagonal second derivative is minus the term.
    """
    m = np.zeros((1 + 6 + 36, len(TERM_SIGNS), 2, 2, 2))
    for t, ((x, y, z), sign) in enumerate(zip(_KLYSHKO_SLOTS.T.tolist(), TERM_SIGNS)):
        m[0, t, 0, 0, 0] += sign
        for k, d in ((x, (1, 0, 0)), (y, (0, 1, 0)), (z, (0, 0, 1))):
            m[(1 + k, t) + d] += sign
            m[7 + 7 * k, t, 0, 0, 0] -= sign
        for p, q, d in ((x, y, (1, 1, 0)), (x, z, (1, 0, 1)), (y, z, (0, 1, 1))):
            m[(7 + 6 * p + q, t) + d] += sign
            m[(7 + 6 * q + p, t) + d] += sign
    return m.reshape(m.shape[0], -1)


_KLYSHKO_SCATTER = _klyshko_scatter()


def _klyshko_derivatives(tensor: NDArray[np.float64], theta: NDArray[np.float64]
                         ) -> tuple[float, NDArray[np.float64], NDArray[np.float64]]:
    """Value, gradient and Hessian of the Klyshko sum at ``theta``, for the
    correlator E(u_1, u_2, u_3) = tensor[i, j, k] u_1i u_2j u_3k."""
    c, s = np.cos(theta), np.sin(theta)
    v = np.stack([np.stack([c, s], axis=1), np.stack([-s, c], axis=1)], axis=1)  # (u, u')
    x, y, z = _KLYSHKO_SLOTS
    r = np.einsum("ijk,tai,tbj,tck->tabc", tensor, v[x], v[y], v[z])
    out = _KLYSHKO_SCATTER @ r.ravel()
    return float(out[0]), out[1:7], out[7:].reshape(6, 6)


def _klyshko_start(tensor: NDArray[np.float64]) -> tuple[NDArray[np.float64], int]:
    """Best point of the Klyshko sum on the full 6^6 angle grid, and the
    number of grid values computed (the 6^3 correlator table plus the 6^6
    sums)."""
    th = np.linspace(0.0, 2.0 * np.pi, _KLYSHKO_GRID, endpoint=False)
    u = np.stack([np.cos(th), np.sin(th)], axis=1)
    E = np.einsum("ijk,ai,bj,ck->abc", tensor, u, u, u)
    B = np.zeros((_KLYSHKO_GRID,) * 6)
    for slots, sign in zip(_KLYSHKO_SLOTS.T.tolist(), TERM_SIGNS):
        # party p's axis of E goes to angle slot slots[p]; the other three broadcast
        order = np.argsort(slots)
        B += sign * np.expand_dims(E.transpose(order), [k for k in range(6) if k not in slots])
    idx = np.unravel_index(int(np.argmax(B)), B.shape)
    return th[list(idx)], E.size + B.size


def klyshko_max(mags: Sequence[float], tol: float = 1e-10) -> ScanResult:
    """Maximal three-party Bell-Klyshko combination for the correlator family

        E = cos cos cos - g1 cos sin sin - g2 sin cos sin - g3 sin sin cos

    over the six polar angles.  The start is the best point of a full 6^6
    grid over [0, 2 pi)^6.  From it the refinement repeats three steps.  An
    exact per-angle sweep: the sum is affine in (cos, sin) of each angle, so
    each angle's global maximum is one atan2 of its gradient and minus its
    Hessian diagonal.  A Newton step on all six angles, or, where the Hessian
    has a positive eigenvalue, an uphill step along that eigenvector to leave
    the saddle.  Newton and saddle steps are halved until they are accepted.

    ``converged`` is True when the returned point has ||grad||_inf <= tol and
    a Hessian whose largest eigenvalue is <= tol (negative semidefinite to
    within tol).  ``evaluations`` counts the 6^3 correlator table, the 6^6
    grid sums and one per derivative evaluation of the refinement.
    """
    g1, g2, g3 = (float(g) for g in mags)
    tensor = np.zeros((2, 2, 2))
    tensor[0, 0, 0], tensor[0, 1, 1], tensor[1, 0, 1], tensor[1, 1, 0] = 1.0, -g1, -g2, -g3
    theta, evals = _klyshko_start(tensor)
    value, grad, hess = _klyshko_derivatives(tensor, theta)
    evals += 1
    converged = False
    for _ in range(_KLYSHKO_ROUNDS):
        lam, vecs = np.linalg.eigh(hess)
        newton = lam[-1] <= tol
        if newton and np.max(np.abs(grad)) <= tol:
            converged = True
            break
        if newton:      # Newton step in the strictly concave subspace
            keep = lam < -tol
            step = -vecs[:, keep] @ ((vecs[:, keep].T @ grad) / lam[keep])
        else:           # saddle escape: uphill along the positive-curvature direction
            step = vecs[:, -1] if grad @ vecs[:, -1] >= 0.0 else -vecs[:, -1]
        accepted = False
        for halving in range(30):
            trial = theta + 0.5**halving * step
            t_value, t_grad, t_hess = _klyshko_derivatives(tensor, trial)
            evals += 1
            # near the maximum a Newton step moves B by less than rounding;
            # there it must shrink the gradient instead
            if t_value > value or (newton and t_value >= value - _ROUNDING * abs(value)
                                   and np.max(np.abs(t_grad)) < np.max(np.abs(grad))):
                theta, value, grad, hess = trial, t_value, t_grad, t_hess
                accepted = True
                break
        if newton and accepted:
            continue
        for kk in range(6):     # exact per-angle maxima
            theta[kk] += math.atan2(grad[kk], -hess[kk, kk])
            value, grad, hess = _klyshko_derivatives(tensor, theta)
            evals += 1
    return ScanResult(arg_max=theta, max_value=value, evaluations=evals,
                      bracket=np.full(6, tol), converged=converged)


def log_j_maximize(f_of_j: Callable[[float], float], j_lo: float = 1e-8,
                   j_hi: float = 10.0, tol: float = 1e-8) -> ScanResult:
    """Maximize over the displacement magnitude on a logarithmic axis.

    The optima move across decades with energy, so the scan runs in log J;
    ``tol`` (finite and > 0) is the bracket width in log J.
    """
    res = maximize_scalar(lambda u: f_of_j(math.exp(u)),
                          math.log(j_lo), math.log(j_hi), tol)
    return ScanResult(arg_max=np.exp(res.arg_max), max_value=res.max_value,
                      evaluations=res.evaluations, bracket=res.bracket,
                      converged=res.converged)


def asymptote_relations() -> list[dict]:
    """Numerically optimized displacements against their large-energy predictions.

    Each row reports the optimized J, the predicted value, and their ratio.
    """
    from . import bell_dp
    from .conditional import ConditionalParams
    from .gaussian import twb_state

    rows: list[dict] = []

    n = 1e3
    res = log_j_maximize(lambda j: bell_dp.b3_ghz_closed(
        math.asinh(math.sqrt(n / 3.0)), j).value, 1e-8, 1.0)
    pred = math.asinh(math.sqrt(n / 3.0)) / (8.0 * n)
    rows.append({
        "name": "ghz_dp_j", "energy": n, "j_opt": float(res.arg_max[0]),
        "j_predicted": pred, "ratio": float(res.arg_max[0]) / pred,
        "bell_value": res.max_value,
    })

    n = 1e5
    s = bell_dp.su21_opt_state(n)
    res = log_j_maximize(lambda j: bell_dp.b3_dp_general(
        s, bell_dp.su21_opt_dp_settings(j)).value, 1e-8, 1.0)
    pred = 3.21 / n
    rows.append({
        "name": "su21_opt_dp_jn", "energy": n, "j_opt": float(res.arg_max[0]),
        "j_predicted": pred, "ratio": float(res.arg_max[0]) / pred,
        "bell_value": res.max_value,
    })

    r = 5.0
    n = 2.0 * math.sinh(r) ** 2
    s = twb_state(n)
    res = log_j_maximize(lambda j: bell_dp.b2_dp(s, bell_dp.twb_dp_settings(j)).value,
                         1e-10, 1.0)
    pred = math.log(3.0) / 32.0 * math.exp(-2.0 * r)
    rows.append({
        "name": "twb_dp_exp2r_j", "energy": n, "j_opt": float(res.arg_max[0]),
        "j_predicted": pred, "ratio": float(res.arg_max[0]) / pred,
        "bell_value": res.max_value,
    })

    n2 = 1e3
    p = ConditionalParams(n2=n2, n3=1e-2 / n2, eta=1.0)
    res = log_j_maximize(lambda j: bell_dp.b2_conditional_dp(p, j).value, 1e-9, 1.0)
    pred = 0.042 / n2
    rows.append({
        "name": "conditional_dp_jn2", "energy": n2, "j_opt": float(res.arg_max[0]),
        "j_predicted": pred, "ratio": float(res.arg_max[0]) / pred,
        "bell_value": res.max_value,
    })
    return rows
