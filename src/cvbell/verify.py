"""The ``verify`` suite: each closed form against an independent oracle, and the Bell bounds.

A row is (name, bound, fn) and passes iff fn() <= bound.  The Fock rows share the su21,
twin-beam and heralded states of one cutoff; the point-operator row's oracle is
``_pi_coeffs_quadrature``, run only here.  The library is called through its module
attributes, so a patched or wrapped function is the one called.
"""
from __future__ import annotations

import math
from functools import cache
from typing import Callable

import numpy as np

from . import bell_dp, bell_ps, conditional, fock, gaussian, homodyne
from .errors import CvBellError


def _max_diff(pairs) -> float:
    """max |a - b| over (a, b) pairs: every oracle-vs-closed-form row's value."""
    return max(abs(float(a) - float(b)) for a, b in pairs)


def _pi_coeffs_quadrature(state: gaussian.GaussianState) -> bell_ps.PsCoefficients:
    """Phase-space quadrature oracle for a three-mode state's point-operator coefficients.

    Correlator pattern: a point operator (delta kernel) on one mode against
    sign-of-quadrature kernels on the other two.  The delta slices the Wigner
    exponent (restrict the inverse covariance), the untested quadratures are
    marginalized (Schur complement), and the remaining two-variable sign-sign
    average is the bivariate-normal orthant arcsine.  The sign kernel is taken
    along the y quadrature, which gives the GHZ closed form and the negative of
    the trilinear one.
    """
    vi, det_v, out = np.linalg.inv(state.cov), state.factors[1], []
    for z in range(3):
        keep = [i for i in range(6) if i not in (z, z + 3)]
        m = vi[np.ix_(keep, keep)]
        # keep-order: the two x's, marginalized, then the two y's, where the sign kernels act
        msm = m[2:, :2]
        sinv = np.linalg.inv(m[2:, 2:] - msm @ np.linalg.inv(m[:2, :2]) @ msm.T)
        rho = sinv[0, 1] / math.sqrt(sinv[0, 0] * sinv[1, 1])
        val = -(2.0 / math.pi) * det_v**-0.5 * np.linalg.det(m) ** -0.5 * math.asin(rho)
        out.append(float(val))
    return bell_ps.PsCoefficients(*out)


def _verify_checks(cutoff: int) -> tuple[list[tuple[str, float, Callable[[], float]]],
                                         Callable[[], str]]:
    """The rows of ``verify`` at a Fock ``cutoff``, and its one note."""
    phot = gaussian.TripartitePhotonNumbers(0.3, 0.3)
    params = conditional.ConditionalParams(0.3, 0.3, eta=0.8)
    X, Z = (math.pi / 2, 0.0), (0.0, 0.0)
    ghz_al = (0.3 + 0.2j, -0.25 + 0.1j, 0.15 - 0.3j)
    # Work that rows share, done on first use.  A Fock build that raises caches nothing,
    # so each row that needs it fails with its message, naming the first state it asks for.
    su21_st = cache(lambda: fock.su21_fock(phot, cutoff))
    twb_st = cache(lambda: fock.twb_fock(math.tanh(math.asinh(math.sqrt(0.5))), cutoff))
    heralded_st = cache(lambda: fock.onoff_condition(su21_st(), 2, 0.8))

    def dp_oracle():
        su21, twb = gaussian.su21_state(phot), gaussian.twb_state(1.0)
        return _max_diff([(fock.displaced_parity_expect(su21_st(), al), bell_dp.e_dp(su21, al))
                          for al in [(0.1, 0.1j, 0.0), (0.2, -0.1 + 0.05j, 0.1j)]]
                         + [(fock.displaced_parity_expect(twb_st(), al), bell_dp.e_dp(twb, al))
                            for al in [(0.2, 0.1), (0.3j, -0.2j)]])

    def click():
        # total photons <= 0.8: the cutoff-30 truncation tail (~3e-11) is well inside 1e-9
        states = {n3: su21_st() if n3 == phot.n3 else fock.su21_fock(
            gaussian.TripartitePhotonNumbers(0.3, n3), cutoff) for n3 in (0.1, 0.3, 0.5)}
        return _max_diff((fock.click_probability(st, 2, eta),
                          conditional.p_click(conditional.ConditionalParams(0.3, n3, eta=eta)))
                         for n3, st in states.items() for eta in (0.2, 0.6, 1.0))

    def wigner(p: conditional.ConditionalParams, pts: np.ndarray):
        # W(x1, x2, y1, y2) = e_dp(p, (x + iy)/sqrt 2) / pi^2, the heralded dp2 values' path
        return bell_dp.e_dp(p, (pts[..., :2] + 1j * pts[..., 2:]) / math.sqrt(2.0)) / np.pi**2

    def wigner_min():
        grid = np.meshgrid(np.linspace(-1, 1, 21), np.linspace(-1, 1, 21), [0.0], [0.0],
                           indexing="ij")
        return np.min(wigner(conditional.ConditionalParams(1.0, 0.5, eta=1.0),
                             np.stack(grid, axis=-1).reshape(-1, 4)))

    def ps_series():
        # the ladder oracle (odd number states +1) gives -c_k of the closed
        # forms, whose all-z correlator is +1, and an all-z correlator of -1
        c = bell_ps.su21_ps_coeffs(0.3, 0.3)
        return _max_diff(zip([fock.pseudospin_expect(su21_st(), s)
                              for s in ([Z, X, X], [X, Z, X], [X, X, Z], [Z, Z, Z])],
                             [-c.c1, -c.c2, -c.c3, -1.0]))

    def pi_coeffs():
        # the y-sign quadrature gives -closed on the trilinear state, +closed on GHZ
        sq = _pi_coeffs_quadrature(bell_dp.su21_sym_state(1.0))
        sc = bell_ps.su21_pi_coeffs(1.0)
        gq = _pi_coeffs_quadrature(gaussian.ghz_state(0.42))
        gc = bell_ps.ghz_pi_coeffs(0.42)
        return _max_diff([(sq.c1, -sc.c1), (sq.c2, -sc.c2), (sq.c3, -sc.c3),
                          (gq.c1, gc.c1), (gq.c2, gc.c2), (gq.c3, gc.c3)])

    @cache
    def sweep():
        rng = np.random.default_rng(7)
        z, pick = np.empty((400, 12)), np.empty(400, dtype=int)
        for i in range(400):    # the stream interleaves each row's normals and pick
            z[i] = rng.normal(0, 0.5, 12)
            pick[i] = rng.integers(0, 2)
        return z[:, 0:3] + 1j * z[:, 3:6], z[:, 6:9] + 1j * z[:, 9:12], pick

    def b2_max():
        a, ap, _ = sweep()
        two = bell_dp.DpSettings(a[:, :2], ap[:, :2])
        return max(np.max(bell_dp.DpRates(t, two).bell())
                   for t in (gaussian.twb_state(2.0), params))

    def b3_max():
        a, ap, pick = sweep()
        return max(np.max(bell_dp.DpRates(st, bell_dp.DpSettings(a[pick == i], ap[pick == i]))
                          .bell())
                   for i, st in enumerate([gaussian.ghz_state(1.2), gaussian.su21_state(phot)]))

    @cache
    def sawtooth():
        psis = np.linspace(-math.pi, math.pi, 200)
        return np.array([homodyne.classical_reference(psi) for psi in psis]), np.array(
            [homodyne.e_h(conditional.ConditionalParams(n2=n2, n3=0.5, eta=1.0), psis, 0.0)
             for n2 in (0.5, 1.0, 5.0)])

    def homodyne_chsh():
        angles = np.random.default_rng(11).uniform(-math.pi, math.pi, (10000, 4))
        return max(np.max(homodyne.chsh_h(t, angles)) for t in (
            conditional.ConditionalParams(n2=1.0, n3=0.5, eta=1.0), gaussian.twb_state(3.0)))

    def note():
        return ("documented finding: the heralded spin-flip coefficient f_conditional is "
                f"{bell_ps.f_conditional(params):.6f} at (n2, n3, eta) = (0.3, 0.3, 0.8), while "
                f"the oracle's <s_x s_x> on the heralded state is "
                f"{fock.pseudospin_expect(heralded_st(), [X, X]):.6f}: the closed form sums "
                "every n3, the oracle only the even n3, so B2PS's f_1 and conditional ps2 are "
                "not oracle-checked.")

    return [
        ("pure-state determinants", 1e-9, lambda: max(abs(s.factors[1] - 1.0) for s in (
            gaussian.ghz_state(1.0), gaussian.su21_state(phot), gaussian.twb_state(2.0)))),
        ("displaced parity vs oracle", 1e-4, dp_oracle),
        # the tritter ket, from its A matrix alone, shares nothing with ghz_state's covariance
        ("GHZ displaced parity vs oracle", 1e-10, lambda: abs(fock.displaced_parity_expect(
            fock.ghz_fock(0.42, cutoff), ghz_al) - bell_dp.e_dp(gaussian.ghz_state(0.42), ghz_al))),
        ("click probability vs oracle", 1e-9, click),
        ("heralded Wigner vs oracle", 1e-4, lambda: _max_diff(
            (wigner(params, pt), fock.wigner_reconstruct(heralded_st(), pt)) for pt in np.array(
                [[0.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.1, 0.4], [0.5, 0.5, -0.3, 0.2]]))),
        # each Gaussian w exp(-x.Q.x) integrates to w pi^2 / sqrt(det Q)
        ("heralded Wigner normalization", 1e-3, lambda: abs(np.pi**2 * sum(
            w / np.sqrt(np.linalg.det(q)) for w, q in zip(*conditional.two_gaussian_form(params)))
            - 1.0)),
        ("heralded Wigner minimum", -math.ulp(0.0), wigner_min),   # that is, min < 0
        ("pseudospin series vs oracle", 1e-4, ps_series),
        ("twin-beam spin-flip coefficient vs oracle", 1e-6, lambda: abs(fock.pseudospin_expect(
            fock.twb_fock(math.tanh(math.asinh(1.0)), max(cutoff, 40)), [X, X])
            - bell_ps.f_twb(2.0))),
        ("point-operator coefficients vs quadrature", 1e-4, pi_coeffs),
        ("twin-beam orthant correlator vs oracle", 1e-4, lambda: _max_diff(
            (fock.quadrature_orthant_expect(twb_st(), th, ph),
             homodyne.e_h(gaussian.twb_state(1.0), th, ph))
            for th, ph in ((0.0, 0.0), (0.4, 0.3), (1.1, -0.6)))),
        ("heralded orthant correlator vs oracle", 1e-3, lambda: _max_diff(
            (fock.quadrature_orthant_expect(heralded_st(), th, 0.0), homodyne.e_h(params, th, 0.0))
            for th in (0.0, 0.7, 1.9))),
        ("max B2 over random dp sweeps", 2 * math.sqrt(2) + 1e-9, b2_max),
        ("max B3 over random dp sweeps", 4 + 1e-9, b3_max),
        # |E_H| <= |sawtooth|, with the sawtooth's sign, each to rounding
        ("heralded homodyne below the classical sawtooth", 1e-12,
         lambda: np.max(np.abs(sawtooth()[1]) - np.abs(sawtooth()[0]))),
        ("heralded homodyne with the sawtooth's sign", 1e-12,
         lambda: np.max(-sawtooth()[1] * sawtooth()[0])),
        ("homodyne CHSH over 1e4 random settings", 2.0, homodyne_chsh),
    ], note


def run_verify(cutoff: int = 30) -> int:
    """Run the oracle-equivalence and invariant suite: one line per row, its
    value and bound, or the ``CvBellError`` that failed it; exit 1 on any failure."""
    rows, note = _verify_checks(cutoff)
    width = max(len(name) for name, _, _ in rows)
    failures = 0
    for name, bound, fn in rows:
        try:
            value = float(fn())
            passed, shown = value <= bound, f"{value:>13.6e}  bound {bound:.6e}"
        except CvBellError as exc:
            passed, shown = False, f"{type(exc).__name__}: {exc}"
        failures += not passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name:<{width}}  {shown}")
    try:
        print(f"[NOTE] {note()}")
    except CvBellError:
        pass    # the rows that need its states have failed with the message
    print(f"{len(rows) - failures}/{len(rows)} checks passed")
    return 1 if failures else 0
