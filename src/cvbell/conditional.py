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
from .gaussian import TripartitePhotonNumbers, _check_condition, su21_state

_KEEP = (0, 1, 3, 4)  # x1, x2, y1, y2 of the 6x6 (x1 x2 x3 y1 y2 y3) ordering


@dataclass(frozen=True)
class ConditionalParams:
    """Source photon numbers, the mode-2 phase, and the ON/OFF detector efficiency."""

    n2: float
    n3: float
    phi2: float = 0.0
    eta: float = 1.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.n2, self.n3, self.phi2, self.eta])):
            raise InvalidParameterError("parameters must be finite")
        if self.n2 < 0 or self.n3 < 0:
            raise InvalidParameterError("photon numbers must be >= 0")
        if not 0.0 <= self.eta <= 1.0:
            raise InvalidParameterError("eta must lie in [0, 1]")

    def photons(self) -> TripartitePhotonNumbers:
        return TripartitePhotonNumbers(self.n2, self.n3, self.phi2)


def p_click(p: ConditionalParams) -> float:
    """Probability that the ON/OFF detector fires: eta N3 / (1 + eta N3)."""
    return p.eta * p.n3 / (1.0 + p.eta * p.n3)


def _check_click(p: ConditionalParams) -> None:
    """Raise ``UndefinedStateError`` where no click is possible (eta = 0 or
    n3 = 0), so the heralded state does not exist, and ``PrecisionError`` where
    eta n3, which the heralded prefactors divide by, is below the normal floats."""
    if p.eta == 0.0:
        raise UndefinedStateError("eta = 0 admits no click; the heralded state is undefined")
    if p.n3 == 0.0:
        raise UndefinedStateError("n3 = 0 admits no click; the heralded state is undefined")
    if p.eta * p.n3 < sys.float_info.min:
        raise PrecisionError(f"eta * n3 = {p.eta * p.n3:.3g} is below the smallest normal float"
                             f" {sys.float_info.min:.3g}; the heralded prefactors divide by it")


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
    ``PrecisionError`` where a weight overflows (pref / eta, at a tiny eta)."""
    _check_click(p)
    V = su21_state(p.photons()).cov
    broaden = (2.0 - p.eta) / p.eta
    D = V + np.diag([0.0, 0.0, broaden, 0.0, 0.0, broaden])
    Vp = V[np.ix_(_KEEP, _KEEP)]
    _check_condition(Vp)
    _check_condition(D)
    pref = (1.0 + p.eta * p.n3) / (4.0 * p.eta * p.n3)
    wa = pref * (2.0 / np.pi) ** 2 / np.sqrt(np.linalg.det(Vp))
    wb = pref * (1.0 / p.eta) * (2.0 / np.pi) ** 2 * 2.0 / np.sqrt(np.linalg.det(D))
    if not (math.isfinite(wa) and math.isfinite(wb)):
        raise PrecisionError(f"the heralded Gaussian weights ({wa:.3g}, {wb:.3g}) overflow"
                             f" at eta = {p.eta:.3g}, n3 = {p.n3:.3g}")
    forms = np.linalg.inv(Vp), np.linalg.inv(D)[np.ix_(_KEEP, _KEEP)]
    for q in forms:
        q.setflags(write=False)
    return (wa, -wb), forms
