"""Deterministic maximizers.

``maximize_scalar`` is the one general maximizer: 256-point scans, each
narrowing the bracket to the neighbours of its best point.  Its objective takes
a 1-D array of points and returns one value per point, so each scan is a single
call; m independent brackets scan in lockstep, one call per scan on the points
of those still scanning, with one set of array operations for all of them.
``log_j_maximize`` runs it in log J over an objective that takes an array of
J; the Klyshko sum has its own exact per-angle and Newton steps.  No
stochastic search anywhere, ties break toward the lowest index, and identical
inputs give bit-identical results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .bell_dp import KLYSHKO_TERMS, TERM_SIGNS
from .errors import InvalidParameterError


@dataclass(frozen=True)
class ScanResult:
    """A maximizer's result.  For m brackets of ``maximize_scalar`` or
    ``log_j_maximize``, ``arg_max``, ``max_value`` and ``converged`` hold one
    entry per bracket and ``evaluations`` is their total."""

    arg_max: NDArray[np.float64]
    max_value: float | NDArray[np.float64]
    evaluations: int
    converged: bool | NDArray[np.bool_]


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise InvalidParameterError(f"tol must be finite and > 0, got {tol}")


_SCAN = 256         # points per scan of ``maximize_scalar``
_RAMP = np.arange(float(_SCAN))
# scan index -> (left neighbour, itself, right neighbour), each end its own neighbour
_NEIGHBOURS = np.stack([np.maximum(np.arange(_SCAN) - 1, 0), np.arange(_SCAN),
                        np.minimum(np.arange(_SCAN) + 1, _SCAN - 1)], axis=1)


def _scan_points(a: NDArray[np.float64], b: NDArray[np.float64],
                 widths: list[float]) -> NDArray[np.float64]:
    """``np.linspace(a_k, b_k, 256)`` for each row k of the (m,) bracket
    ends, whose widths b_k - a_k are given, bit for bit, as one (m, 256) array."""
    steps = [w / (_SCAN - 1) for w in widths]
    xs = np.multiply.outer(steps, _RAMP)
    xs += a[:, None]
    if 0.0 in steps:    # a subnormal width: linspace divides before it multiplies
        for k in [k for k, step in enumerate(steps) if step == 0.0]:
            xs[k] = _RAMP / (_SCAN - 1) * widths[k] + a[k]
    xs[:, -1] = b
    return xs


def maximize_scalar(f: Callable[..., ArrayLike], lo: ArrayLike, hi: ArrayLike,
                    tol: float = 1e-8) -> ScanResult:
    """Repeated 256-point scans of a function of one variable.

    Each scan evaluates 256 evenly spaced points of the bracket, which then
    narrows to the best point's two neighbours (127.5x per scan).  The scans
    repeat until the bracket is at most ``tol`` (finite and > 0) or rounding
    stops it shrinking; there is always at least one.  The result is the best
    point of all scans, ``evaluations`` is 256 per scan, and ``converged`` is
    True when the final bracket is nonzero and at most ``tol``.

    ``lo`` and ``hi`` are floats, one bracket, and ``f`` takes a scan's
    (256,) points.  Or they are 1-D arrays of m brackets, scanned in
    lockstep: ``f(xs, rows)`` takes the (k, 256) points of the k brackets
    still scanning and ``rows``, their indices into ``lo``, so each scan is
    one call.  One bracket is the case k = 1 of the same scan: its points,
    argmax and next bracket are array operations over the k live brackets,
    and one pass over their best values keeps each bracket's best point and
    stop test, so each bracket's entry is bit for bit the result of its own
    call.  An objective that does not return one finite value per point
    raises ``InvalidParameterError``.
    """
    _check_tol(tol)
    los, his = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if los.ndim > 1 or los.shape != his.shape or los.size == 0:
        raise InvalidParameterError("need lo and hi of one shape: floats or 1-D arrays")
    a, b = los.ravel(), his.ravel()     # the brackets of the live rows
    if not all(x < y for x, y in zip(a.tolist(), b.tolist())):
        raise InvalidParameterError("need lo < hi")
    batch = los.ndim == 1
    widths = (b - a).tolist()
    live = list(range(a.size))
    best = [(x, -math.inf) for x in a.tolist()]     # (point, value) per row
    converged = [False] * a.size
    at = np.arange(0, a.size * _SCAN, _SCAN)[:, None]    # each live row's flat offset
    evaluations = 0
    while True:
        xs = _scan_points(a, b, widths)
        vals = np.asarray(f(xs, np.array(live)) if batch else f(xs[0]), dtype=float)
        if vals.shape != (xs.shape if batch else xs.shape[1:]):
            raise InvalidParameterError(f"objective must return one value per point:"
                                        f" {xs.size} points gave shape {vals.shape}")
        if np.count_nonzero(np.isfinite(vals)) < vals.size:
            raise InvalidParameterError("objective returned non-finite values")
        evaluations += xs.size
        # flat indices of each row's best point and its two neighbours: the next bracket
        near = _NEIGHBOURS[vals.argmax(axis=-1)] + at
        brackets = xs.take(near)
        keep, narrowed = [], []
        for k, (row, (x_lo, x, x_hi), v, width) in enumerate(zip(
                live, brackets.tolist(), vals.take(near[:, 1]).tolist(), widths)):
            if v > best[row][1]:
                best[row] = x, v
            if tol < x_hi - x_lo < width:
                keep.append(k)
                narrowed.append(x_hi - x_lo)
            else:
                converged[row] = 0.0 < x_hi - x_lo <= tol
        widths = narrowed
        if len(keep) < len(live):
            if not keep:
                break
            brackets, live, at = brackets[keep], [live[k] for k in keep], at[:len(keep)]
        a, b = brackets[:, 0], brackets[:, 2]
    arg_max, max_value = zip(*best)
    if not batch:
        return ScanResult(arg_max=np.array(arg_max), max_value=max_value[0],
                          evaluations=evaluations, converged=converged[0])
    return ScanResult(arg_max=np.array(arg_max), max_value=np.array(max_value),
                      evaluations=evaluations, converged=np.array(converged))


# The Klyshko sum (``bell_dp.KLYSHKO_TERMS``) over theta = (a, b, c, a', b', c'):
# party p measuring its primed setting reads angle p + 3.
_KLYSHKO_SLOTS = (np.arange(3) + 3 * KLYSHKO_TERMS).T    # angle per party and term
_KLYSHKO_GRID = 6       # points per angle of the start grid
_KLYSHKO_ROUNDS = 100
_KLYSHKO_TOL = 1e-10    # gradient and Hessian tolerance of ``klyshko_max``
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


def klyshko_max(mags: Sequence[float]) -> ScanResult:
    """Maximal three-party Bell-Klyshko combination for the correlator family

        E = cos cos cos - g1 cos sin sin - g2 sin cos sin - g3 sin sin cos

    over the six polar angles.  The start is the best point of a full 6^6
    grid over [0, 2 pi)^6.  From it the refinement repeats three steps.  An
    exact per-angle sweep: the sum is affine in (cos, sin) of each angle, so
    each angle's global maximum is one atan2 of its gradient and minus its
    Hessian diagonal.  A Newton step on all six angles, or, where the Hessian
    has a positive eigenvalue, an uphill step along that eigenvector to leave
    the saddle.  Newton and saddle steps are halved until they are accepted.

    ``mags`` is three finite numbers.  ``converged`` is True when the returned
    point has ||grad||_inf <= 1e-10 and no Hessian eigenvalue above 1e-10.
    ``evaluations`` counts the 6^3 correlator table, the 6^6 grid sums and
    one per derivative evaluation of the refinement.
    """
    g = np.asarray(mags, dtype=float)
    if g.shape != (3,) or not np.all(np.isfinite(g)):
        raise InvalidParameterError(f"need three finite magnitudes, got {mags!r}")
    g1, g2, g3 = g.tolist()
    tensor = np.zeros((2, 2, 2))
    tensor[0, 0, 0], tensor[0, 1, 1], tensor[1, 0, 1], tensor[1, 1, 0] = 1.0, -g1, -g2, -g3
    theta, evals = _klyshko_start(tensor)
    value, grad, hess = _klyshko_derivatives(tensor, theta)
    evals += 1
    converged = False
    for _ in range(_KLYSHKO_ROUNDS):
        lam, vecs = np.linalg.eigh(hess)
        newton = lam[-1] <= _KLYSHKO_TOL
        if newton and np.max(np.abs(grad)) <= _KLYSHKO_TOL:
            converged = True
            break
        if newton:      # Newton step in the strictly concave subspace
            keep = lam < -_KLYSHKO_TOL
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
    return ScanResult(arg_max=theta, max_value=value, evaluations=evals, converged=converged)


def log_j_maximize(f_of_j: Callable[..., ArrayLike], j_lo: ArrayLike, j_hi: ArrayLike,
                   tol: float = 1e-8) -> ScanResult:
    """Maximize a function of the displacement magnitude J over [j_lo, j_hi],
    0 < j_lo < j_hi < inf.

    The optima move across decades with energy, so ``maximize_scalar`` runs in
    log J, and ``tol`` (finite and > 0) is the bracket width in log J.  For
    float bounds ``f_of_j`` takes a 1-D array of J and returns one value per
    point.  Bounds that broadcast to a 1-D array are m brackets in lockstep,
    and ``f_of_j(j, rows)`` takes the (k, 256) J of the k brackets still
    scanning and their indices.
    """
    batch = np.ndim(j_lo) or np.ndim(j_hi)
    lo, hi = np.broadcast_arrays(j_lo, j_hi) if batch else (j_lo, j_hi)
    log_lo, log_hi = [], []
    for a, b in zip(np.ravel(lo).tolist(), np.ravel(hi).tolist()):
        if not 0.0 < a < b < math.inf:
            raise InvalidParameterError(f"need 0 < j_lo < j_hi < inf, got {a}, {b}")
        log_lo.append(math.log(a))
        log_hi.append(math.log(b))
    if batch:
        res = maximize_scalar(lambda us, rows: f_of_j(np.exp(us), rows),
                              np.reshape(log_lo, lo.shape), np.reshape(log_hi, lo.shape), tol)
    else:
        res = maximize_scalar(lambda us: f_of_j(np.exp(us)), log_lo[0], log_hi[0], tol)
    return ScanResult(np.exp(res.arg_max), res.max_value, res.evaluations, res.converged)
