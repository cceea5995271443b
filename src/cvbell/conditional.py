"""Closed forms for the two-mode state heralded by an ON/OFF click on mode 3.

The heralded state is non-Gaussian: its Wigner function is a difference of two
Gaussians and takes negative values.  The first Gaussian restricts the
covariance to modes 1, 2 and then inverts (a partial trace); the second inverts
the detector-broadened 6x6 covariance first and then restricts (a Gaussian
integral over the measured mode).  The asymmetry is deliberate and is
validated against the Fock oracle in the test suite.

The click is insensitive to the phase of mode 3, and a phase on mode 3 is a
local rotation of the measured mode, so the heralded state does not depend on
it: ``ConditionalParams`` carries no mode-3 phase, and the source is built
with phi3 = 0.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidParameterError, PrecisionError, UndefinedStateError
from .gaussian import TripartitePhotonNumbers, _check_condition, _entries, su21_state

@dataclass(frozen=True)
class ConditionalParams:
    """Source photon numbers, the mode-2 phase, and the ON/OFF detector
    efficiency: floats, or arrays that broadcast together for a batch of
    heralded states (``bell_dp.DpRates`` reads one; the cached
    ``two_gaussian_form`` takes floats)."""

    n2: float | NDArray[np.float64]
    n3: float | NDArray[np.float64]
    phi2: float | NDArray[np.float64] = 0.0
    eta: float | NDArray[np.float64] = 1.0

    def __post_init__(self):
        n2, n3, phi2, eta = _entries(self.n2, self.n3, self.phi2, self.eta)
        if not all(map(math.isfinite, n2 + n3 + phi2 + eta)):
            raise InvalidParameterError("parameters must be finite")
        if min(n2 + n3) < 0:
            raise InvalidParameterError("photon numbers must be >= 0")
        if not 0.0 <= min(eta) <= max(eta) <= 1.0:
            raise InvalidParameterError("eta must lie in [0, 1]")

    def photons(self) -> TripartitePhotonNumbers:
        return TripartitePhotonNumbers(self.n2, self.n3, self.phi2)


def p_click(p: ConditionalParams) -> float:
    """Probability that the ON/OFF detector fires: eta N3 / (1 + eta N3)."""
    return p.eta * p.n3 / (1.0 + p.eta * p.n3)


def _check_click(p: ConditionalParams) -> None:
    """Raise ``UndefinedStateError`` where no click is possible (eta = 0 or
    n3 = 0), so the heralded state does not exist, and ``PrecisionError`` where
    eta n3, which the heralded prefactors divide by, is below the normal floats;
    for a batch, where any row is."""
    eta, n3, product = _entries(p.eta, p.n3, p.eta * p.n3)
    if 0.0 in eta:
        raise UndefinedStateError("eta = 0 admits no click; the heralded state is undefined")
    if 0.0 in n3:
        raise UndefinedStateError("n3 = 0 admits no click; the heralded state is undefined")
    small = min(product)
    if small < sys.float_info.min:
        raise PrecisionError(f"eta * n3 = {small:.3g} is below the smallest normal float"
                             f" {sys.float_info.min:.3g}; the heralded prefactors divide by it")


_BROADEN = np.diag([0.0, 0.0, 1.0, 0.0, 0.0, 1.0]) == 1.0     # the x3 and y3 variances
_KEEP = np.array([0, 1, 3, 4])  # x1, x2, y1, y2 of the 6x6 (x1 x2 x3 y1 y2 y3) ordering
_ROWS, _COLS = _KEEP[:, None], _KEEP


def _heralded_forms(p: ConditionalParams
                    ) -> tuple[tuple[float, float], tuple[NDArray[np.float64], NDArray[np.float64]]]:
    """``two_gaussian_form`` of ``p``, whose parameters may be arrays: their
    broadcast shape (...) gives weights of shape (...) and (..., 4, 4) forms,
    from one stacked LAPACK call per check, determinant and inverse, each row
    bit for bit the form of its own parameters."""
    _check_click(p)
    V = su21_state(p.photons()).cov
    with np.errstate(over="ignore"):    # at a subnormal eta; caught here
        broaden = np.asarray((2.0 - p.eta) / p.eta)
    if not np.isfinite(broaden).all():
        eta = np.broadcast_to(p.eta, broaden.shape)[~np.isfinite(broaden)][0]
        raise PrecisionError(f"the detector broadening (2 - eta)/eta overflows at eta = {eta:.3g}")
    # V + diag(0, 0, b, 0, 0, b), the zeros added too: they turn V's -0.0 entries into +0.0
    D = V + np.where(_BROADEN, broaden[..., None, None], 0.0)
    Vp = V[..., _ROWS, _COLS]
    _check_condition(Vp)
    _check_condition(D)
    pref = (1.0 + p.eta * p.n3) / (4.0 * p.eta * p.n3)
    with np.errstate(over="ignore"):    # an overflow is caught below
        wa = pref * (2.0 / np.pi) ** 2 / np.sqrt(np.linalg.det(Vp))
        wb = pref * (1.0 / p.eta) * (2.0 / np.pi) ** 2 * 2.0 / np.sqrt(np.linalg.det(D))
    bad = ~(np.isfinite(wa) & np.isfinite(wb))
    if np.count_nonzero(bad):
        k = np.flatnonzero(bad)[0]
        raise PrecisionError(
            "the heralded Gaussian weights ({:.3g}, {:.3g}) overflow at eta = {:.3g}, n3 = {:.3g}"
            .format(*(np.broadcast_to(v, bad.shape).flat[k] for v in (wa, wb, p.eta, p.n3))))
    forms = np.linalg.inv(Vp), np.linalg.inv(D)[..., _ROWS, _COLS]
    for q in forms:
        q.setflags(write=False)
    return (wa, -wb), forms


@lru_cache(maxsize=256)
def two_gaussian_form(p: ConditionalParams
                      ) -> tuple[tuple[float, float], tuple[NDArray[np.float64], NDArray[np.float64]]]:
    """The heralded Wigner function as a signed pair of Gaussians,
    W(x) = sum_g w_g exp(-x.Q_g.x) at x = (x1, x2, y1, y2), returned as
    ``((w_a, -w_b), (Q_a, Q_b))`` and cached per params, so Q_a and Q_b are
    read-only: Q_a is the restricted-then-inverted form, Q_b the
    inverted-then-restricted one.
    ``bell_dp.e_dp`` evaluates it, W(x) = e_dp(p, (x + iy)/sqrt(2)) / pi^2.
    ``ConditioningError`` where V' or D is too ill-conditioned to invert, and
    ``PrecisionError`` where the broadening (2 - eta)/eta (at a subnormal eta)
    or a weight (pref / eta, at a tiny eta) overflows.
    Params of floats only: arrays, a batch, go through ``bell_dp.DpRates``."""
    return _heralded_forms(p)
