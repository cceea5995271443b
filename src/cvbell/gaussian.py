"""Zero-mean Gaussian states at the covariance-matrix level.

The Wigner function convention is

    W(v) = pi^{-n} det(C)^{-1/2} exp(-v C^{-1} v^T),

with v = (x_1..x_n, y_1..y_n) ordered position-block first and the vacuum
covariance equal to the identity (quadrature x = (a e^{-i theta} + h.c.)/sqrt(2),
so each vacuum quadrature has variance 1/2 under W).  All constructors return
pure states with det(C) = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import ConditioningError, InvalidParameterError

COND_LIMIT = 1e12


def _check_condition(cov: NDArray[np.float64]) -> None:
    """Raise ``ConditioningError`` if the condition number of ``cov``, or of
    any matrix of a (..., d, d) stack, exceeds ``COND_LIMIT``: the ratio of
    the extreme singular values of one stacked SVD, which passes and fails
    the matrices ``np.linalg.cond`` does, with its message."""
    s = np.linalg.svd(cov, compute_uv=False)
    with np.errstate(all="ignore"):     # np.linalg.cond's 2-norm ratio, exactly
        cond = s[..., 0] / s[..., -1]
    ok = cond <= COND_LIMIT     # False for NaN too
    if np.count_nonzero(ok) < np.size(ok):
        # as np.linalg.cond reports it: a NaN ratio (0/0) is inf unless cov has a NaN
        cond = np.where(np.isnan(cond) & ~np.isnan(cov).any(axis=(-2, -1)), np.inf, cond)
        worst = np.ravel(cond)[~np.ravel(ok)][0]
        raise ConditioningError(
            f"covariance condition number {worst:.3e} exceeds guard {COND_LIMIT:.0e}")


def _nonnegative(name: str, x: ArrayLike) -> NDArray[np.float64]:
    """``x`` as a float array of any shape; each entry must be finite and >= 0,
    and the first one that is not is named."""
    a = np.asarray(x, dtype=float)
    # a 0-d array is read as a float, several times faster than its min and max
    lo, hi = (a.item(),) * 2 if a.ndim == 0 else (a.min(initial=0.0), a.max(initial=0.0))
    if not 0.0 <= lo <= hi < np.inf:    # NaN fails too
        bad = a[~((0.0 <= a) & (a < np.inf))]
        raise InvalidParameterError(f"{name} must be finite and >= 0, got {bad.flat[0]}")
    return a


def _entries(*fields: ArrayLike) -> list[list[float]]:
    """Each float or array field as a list of its entries, for a parameter
    dataclass's checks: Python comparisons, as fast for a float as for a batch."""
    return [[f] if isinstance(f, (int, float)) else np.ravel(f).tolist() for f in fields]


@dataclass(frozen=True)
class GaussianState:
    """Zero-mean Gaussian state of ``n_modes`` modes.

    ``cov`` is the 2n x 2n symmetric positive-definite covariance matrix in
    the (x_1..x_n, y_1..y_n) ordering, dimensionless with vacuum = identity,
    or a (..., 2n, 2n) stack of them: a batch of states, one per row.
    Construction checks it and keeps the Cholesky factor of its
    positive-definiteness check; the inverse (through that factor) and the
    determinant that correlators read are computed on first use and cached,
    so an ill-conditioned state constructs and raises ``ConditioningError``
    at its first correlator.
    """

    n_modes: int
    cov: NDArray[np.float64]

    def __post_init__(self):
        if self.n_modes < 1:
            raise InvalidParameterError("n_modes must be a positive integer")
        cov = np.array(self.cov, dtype=float)
        d = 2 * self.n_modes
        if cov.shape[-2:] != (d, d):
            raise InvalidParameterError(f"covariance must be {d}x{d}, got {cov.shape}")
        if np.count_nonzero(np.isfinite(cov)) < cov.size:
            raise InvalidParameterError("covariance has non-finite entries")
        cov_t = np.swapaxes(cov, -1, -2)
        if np.count_nonzero(cov != cov_t):
            # symmetrized only when it is not exactly symmetric, where the sum is
            # a no-op that overflows for entries above half the float range
            with np.errstate(over="ignore", invalid="ignore"):
                scale = np.maximum(1.0, np.max(np.abs(cov), axis=(-2, -1)))
                if not np.all(np.max(np.abs(cov - cov_t), axis=(-2, -1)) <= 1e-9 * scale):
                    raise InvalidParameterError("covariance must be symmetric")
                cov = 0.5 * (cov + cov_t)
            if not np.isfinite(cov).all():
                raise InvalidParameterError("covariance overflows when symmetrized")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise InvalidParameterError("covariance must be positive definite") from None
        cov.setflags(write=False)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", chol)     # the factor ``factors`` inverts

    @cached_property
    def factors(self) -> tuple[NDArray[np.float64], float | NDArray[np.float64]]:
        """``(inverse, det)`` of ``cov``, one stacked LAPACK call each for a
        batch, whose ``det`` is an array; ``ConditioningError`` above
        ``COND_LIMIT``."""
        _check_condition(self.cov)
        # SPD inverse through the Cholesky factor of the construction's check
        inv_chol = np.linalg.inv(self._chol)
        inv = np.swapaxes(inv_chol, -1, -2) @ inv_chol
        inv.setflags(write=False)
        det = np.linalg.det(self.cov)
        return inv, float(det) if det.ndim == 0 else det


@dataclass(frozen=True)
class TripartitePhotonNumbers:
    """Mean photon numbers of modes 2 and 3, plus their phases: floats, or
    arrays that broadcast together for a batch of states.

    Mode 1 always carries n1 = n2 + n3 photons.
    """

    n2: float | NDArray[np.float64]
    n3: float | NDArray[np.float64]
    phi2: float | NDArray[np.float64] = 0.0
    phi3: float | NDArray[np.float64] = 0.0

    def __post_init__(self):
        n2, n3, phi2, phi3 = _entries(self.n2, self.n3, self.phi2, self.phi3)
        if not all(map(math.isfinite, n2 + n3 + phi2 + phi3)):
            raise InvalidParameterError("photon numbers and phases must be finite")
        if min(n2 + n3) < 0:
            raise InvalidParameterError("photon numbers must be >= 0")

    @property
    def n1(self) -> float | NDArray[np.float64]:
        return self.n2 + self.n3


def ghz_state(r: float) -> GaussianState:
    """Tripartite GHZ-type state: three equally squeezed modes mixed symmetrically.

    The x-block is R on the diagonal and S off-diagonal, the y-block T diagonal
    and -S off-diagonal, with R = cosh2r + sinh2r/3, T = cosh2r - sinh2r/3,
    S = -(4/3) cosh r sinh r.  Total mean photon number is 3 sinh^2 r.
    """
    r = float(_nonnegative("squeezing parameter", r))
    R = np.cosh(2 * r) + np.sinh(2 * r) / 3
    T = np.cosh(2 * r) - np.sinh(2 * r) / 3
    S = -4.0 / 3.0 * np.cosh(r) * np.sinh(r)
    X = np.full((3, 3), S)
    np.fill_diagonal(X, R)
    Y = np.full((3, 3), -S)
    np.fill_diagonal(Y, T)
    cov = np.zeros((6, 6))
    cov[:3, :3] = X
    cov[3:, 3:] = Y
    return GaussianState(3, cov)


def ghz_r_from_photons(n: ArrayLike) -> float | NDArray[np.float64]:
    """Squeezing parameter at which ``ghz_state`` carries n photons in total;
    an array of n gives an array of that shape."""
    r = np.arcsinh(np.sqrt(_nonnegative("photon number", n)[()] / 3.0))   # [()]: 0-d to scalar
    return float(r) if r.ndim == 0 else r


def su21_state(p: TripartitePhotonNumbers) -> GaussianState:
    """Tripartite state of the interlinked bilinear interactions (SU(2,1) coherent state).

    Mode 1 is perfectly photon-number correlated with modes 2 and 3
    (n1 = n2 + n3).  Covariance entries follow the pairwise two-mode-squeezing
    (modes 1-2, 1-3) and beam-splitter-like (modes 2-3) correlations.
    Parameters of broadcast shape (...) give one state of (..., 6, 6) stacked
    covariances, each row bit for bit the state of its own parameters.
    """
    try:
        shape = np.broadcast(p.n2, p.n3, p.phi2, p.phi3).shape
    except ValueError:
        raise InvalidParameterError("photon numbers and phases must broadcast together") from None
    n1 = p.n1
    # past the float range an entry is inf or NaN, which GaussianState rejects
    with np.errstate(over="ignore", invalid="ignore"):
        A = 2 * np.sqrt(p.n2 * (1 + n1)) * np.cos(p.phi2)
        D = 2 * np.sqrt(p.n2 * (1 + n1)) * np.sin(p.phi2)
        F = 2 * n1 + 1
        B = 2 * np.sqrt(p.n3 * (1 + n1)) * np.cos(p.phi3)
        E = 2 * np.sqrt(p.n3 * (1 + n1)) * np.sin(p.phi3)
        G = 2 * p.n2 + 1
        C = 2 * np.sqrt(p.n2 * p.n3) * np.cos(p.phi2 - p.phi3)
        L = 2 * np.sqrt(p.n2 * p.n3) * np.sin(p.phi2 - p.phi3)
        H = 2 * p.n3 + 1
    Z = 0.0
    if shape:   # a batch: every entry takes its shape
        A, B, C, D, E, F, G, H, L, Z = np.broadcast_arrays(A, B, C, D, E, F, G, H, L, Z)
    cov = np.array(
        [
            [F, A, B, Z, -D, -E],
            [A, G, C, -D, Z, L],
            [B, C, H, -E, -L, Z],
            [Z, -D, -E, F, -A, -B],
            [-D, Z, -L, -A, G, C],
            [-E, L, Z, -B, C, H],
        ]
    )
    return GaussianState(3, np.moveaxis(cov, (0, 1), (-2, -1)) if shape else cov)


def twb_state(n: float) -> GaussianState:
    """Twin-beam (two-mode squeezed vacuum) with mean total photon number n.

    Diagonal cosh2r; x1x2 block +sinh2r; y1y2 block -sinh2r; n = 2 sinh^2 r.
    """
    n = float(_nonnegative("photon number", n))
    r = np.arcsinh(np.sqrt(n / 2.0))
    c, s = np.cosh(2 * r), np.sinh(2 * r)
    cov = np.diag([c, c, c, c]).astype(float)
    cov[0, 1] = cov[1, 0] = s
    cov[2, 3] = cov[3, 2] = -s
    return GaussianState(2, cov)
