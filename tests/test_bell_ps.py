import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell import (
    ConditionalParams,
    FockDensityOperator,
    InvalidParameterError,
    PrecisionError,
    PsCoefficients,
    TripartitePhotonNumbers,
    b2_ps_from_f,
    b3_ps_from_coeffs,
    f_conditional,
    f_traced,
    f_twb,
    ghz_pi_coeffs,
    ghz_state,
    klyshko_max,
    maximize_scalar,
    onoff_condition,
    pseudospin_expect,
    su21_fock,
    su21_pi_coeffs,
    su21_ps_coeffs,
    twb_fock,
)
from cvbell.bell_dp import su21_sym_state
from cvbell.verify import _pi_coeffs_quadrature
from reference import e_ps3

SQRT2 = math.sqrt(2.0)


class TestSeriesCoefficients:
    def test_vacuum_all_zero(self):
        c = su21_ps_coeffs(0.0, 0.0)
        assert (c.c1, c.c2, c.c3) == (0.0, 0.0, 0.0)

    def test_symmetric_large_energy_limit(self):
        c = su21_ps_coeffs(100.0, 100.0)  # total N = 400
        for v in c.magnitudes():
            assert v == pytest.approx(0.5, abs=0.02)

    def test_skewed_limit(self):
        c = su21_ps_coeffs(10.0, 1e-3)
        assert abs(c.c3) > 0.95
        assert abs(c.c1) < 0.05 and abs(c.c2) < 0.05

    def test_printed_sign_structure(self):
        c = su21_ps_coeffs(0.4, 0.8)
        assert c.c1 < 0 < c.c2 and c.c3 > 0

    @given(n2=st.floats(0.0, 1.5), n3=st.floats(0.0, 1.5))
    @settings(max_examples=40, deadline=None)
    def test_coefficients_bounded(self, n2, n3):
        c = su21_ps_coeffs(n2, n3)
        assert all(v <= 1.0 + 1e-9 for v in c.magnitudes())


SERIES_REF = json.loads((Path(__file__).parent / "data" / "ps_series_ref.json").read_text())


def _dense_su21(n2, n3, h=0.014):
    """(c1, c2, c3) from an independent 440-node exp-sinh product rule in (u, v),
    with each factor 1 -+ w of (1 + w^2)/(1 - w^2)^2 = [(1-w)^-2 + (1+w)^-2]/2
    formed from expm1 and eps = 1/(1 + n1)."""
    t = np.arange(-4.8, 1.35, h)
    u = np.exp(0.5 * np.pi * np.sinh(t))
    wt = h * np.cosh(t) * u * np.sqrt(np.pi) * np.exp(-u * u)   # (2/sqrt(pi)) e^{-u^2} du
    p, m = np.exp(-u * u), -np.expm1(-u * u)
    pu, mu, pv, mv = p[:, None], m[:, None], p[None, :], m[None, :]
    n1 = n2 + n3
    x, y, eps = n2 / (1 + n1), n3 / (1 + n1), 1 / (1 + n1)

    def spin_flip(a, b):        # F(a, b), w = (b + s a Q) P
        f = [mu + pu * (eps + a * mv), mu + pu * (a + eps + a * pv),
             1 + (b + a * pv) * pu, mu + pu * (2 * b + eps + a * mv)]
        return 0.25 * sum(wt @ (1 / g**2) @ wt for g in f)

    # z = x P + s y Q
    f1 = [x * mu + y * mv + eps, 1 + x * pu + y * pv,
          x * mu + y + eps + y * pv, x + eps + y * mv + x * pu]
    k1 = 0.25 * sum(wt @ (1 / g**2) @ wt for g in f1)
    return (-2 * math.sqrt(n2 * n3) / (1 + n1) ** 2 * k1,
            2 * math.sqrt(n3) / (1 + n1) ** 1.5 * spin_flip(y, x),
            2 * math.sqrt(n2) / (1 + n1) ** 1.5 * spin_flip(x, y))


class TestQuadrature:
    """The fixed 2-D quadrature behind ``su21_ps_coeffs``, ``f_traced`` and
    ``f_conditional``."""

    def test_matches_series_su21(self):
        for n2, n3, *ref in SERIES_REF["su21"]:
            c = su21_ps_coeffs(float(n2), float(n3))
            for got, want in zip((c.c1, c.c2, c.c3), map(float, ref)):
                assert abs(got - want) <= 1e-12, (n2, n3)

    def test_matches_series_conditional(self):
        for n2, n3, eta, ref in SERIES_REF["conditional"]:
            p = ConditionalParams(float(n2), float(n3), eta=float(eta))
            assert abs(f_conditional(p) - float(ref)) <= 1e-12, (n2, n3, eta)

    def test_matches_series_b2ps_grid(self):
        for n2, f1, ftr in SERIES_REF["b2ps"]:
            p = ConditionalParams(float(n2), 0.1, eta=0.8)
            assert abs(f_conditional(p) - float(f1)) <= 1e-12, n2
            assert abs(f_traced(p) - float(ftr)) <= 1e-12, n2

    @pytest.mark.parametrize("n1", [1e-2, 1.0, 1e2, 1e4, 1e6, 4e6])
    @pytest.mark.parametrize("split", [0.5, 0.99])
    def test_matches_dense_rule(self, n1, split):
        # the rule is checked to 1e-12 up to n2 + n3 = 4e6
        c = su21_ps_coeffs(split * n1, (1 - split) * n1)
        for got, want in zip((c.c1, c.c2, c.c3), _dense_su21(split * n1, (1 - split) * n1)):
            assert abs(got - want) <= 1e-12

    def test_symmetric_split_approaches_one_half(self):
        mags = np.array([su21_ps_coeffs(n1 / 2, n1 / 2).magnitudes()
                         for n1 in np.geomspace(1e2, 1e6, 17)])
        assert np.all(np.diff(mags[:, 0]) > 0) and np.all(mags[:, 0] < 0.5)
        # c2 = c3 cross 1/2 near n1 = 2e3 and return to it from below, so only
        # the largest distance from 1/2 (that of c1) falls monotonically
        assert np.array_equal(mags[:, 1], mags[:, 2])
        assert np.all(np.diff(np.max(np.abs(mags - 0.5), axis=1)) < 0)
        assert np.max(np.abs(mags[-1] - 0.5)) < 1e-5

    @pytest.mark.parametrize("n3", [0.1, 1.0])
    @pytest.mark.parametrize("eta", [0.2, 0.8, 1.0])
    def test_heralded_dominates_traced_at_large_n2(self, n3, eta):
        p = ConditionalParams(1e6, n3, eta=eta)
        assert f_traced(p) <= f_conditional(p) <= 1.0

    def test_large_n_is_fast(self):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            su21_ps_coeffs(5e5, 5e5)
            times.append(time.perf_counter() - t0)
        assert min(times) < 0.01

    def test_above_checked_range_raises(self):
        with pytest.raises(PrecisionError, match="is above 4e"):
            su21_ps_coeffs(2e6, 2e6 + 1.0)
        with pytest.raises(PrecisionError):
            su21_ps_coeffs(0.0, 4.1e6)
        with pytest.raises(PrecisionError):
            f_traced(ConditionalParams(4e6, 0.5))
        with pytest.raises(PrecisionError):
            f_conditional(ConditionalParams(4e6, 0.5, eta=0.8))
        # a zero prefactor returns before the range matters
        assert f_conditional(ConditionalParams(0.0, 5e6, eta=0.8)) == 0.0
        assert su21_ps_coeffs(2e6, 2e6).c1 < 0

    @pytest.mark.parametrize("call", [
        lambda: su21_ps_coeffs(5e199, 5e199),                    # (1 + n1)^2 overflows
        lambda: f_conditional(ConditionalParams(1e300, 1e300)),  # the prefactor underflows to 0
    ], ids=["su21", "conditional"])
    def test_far_above_checked_range_raises(self, call):
        with pytest.raises(PrecisionError, match="is above 4e"):
            call()


class TestCorrelationFunction:
    def test_all_z_axes(self):
        c = su21_ps_coeffs(0.5, 0.5)
        assert e_ps3(c, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)) == pytest.approx(1.0)

    def test_unit_coefficients_reach_the_algebraic_maximum(self):
        res = b3_ps_from_coeffs(PsCoefficients(-1.0, 1.0, 1.0))
        assert res == pytest.approx(4.0, abs=1e-6)

    def test_vanishing_coefficients_no_violation(self):
        res = b3_ps_from_coeffs(PsCoefficients(0.0, 0.0, 0.0))
        assert res == pytest.approx(2.0, abs=1e-8)

    def test_settings_snapshot_reproduces_value(self):
        c = su21_ps_coeffs(0.5, 0.5)
        bv = b3_ps_from_coeffs(c)
        arg = klyshko_max(c.magnitudes()).arg_max
        # the (0, pi, pi) azimuths turn the signed coefficients into the
        # all-negative canonical pattern the optimizer works in
        t, tp, phis = arg[:3], arg[3:], (0.0, math.pi, math.pi)
        val = (e_ps3(c, (t[0], t[1], tp[2]), phis)
               + e_ps3(c, (t[0], tp[1], t[2]), phis)
               + e_ps3(c, (tp[0], t[1], t[2]), phis)
               - e_ps3(c, (tp[0], tp[1], tp[2]), phis))
        assert abs(val) == pytest.approx(bv, abs=1e-7)


class TestBellCombination:
    def test_symmetric_asymptote(self):
        bv = b3_ps_from_coeffs(su21_ps_coeffs(100.0, 100.0))
        assert bv == pytest.approx(2.63, abs=0.02)

    def test_degenerate_limit_is_chsh_maximum(self):
        bv = b3_ps_from_coeffs(su21_ps_coeffs(10.0, 1e-3))
        assert bv == pytest.approx(2 * SQRT2, abs=0.01)

    def test_pi_representation_maximum(self):
        res = maximize_scalar(
            lambda lns: [b3_ps_from_coeffs(su21_pi_coeffs(math.exp(ln))) for ln in lns],
            math.log(0.05), math.log(20.0), tol=1e-6)
        assert res.max_value == pytest.approx(2.22, abs=0.02)
        assert math.exp(res.arg_max[0]) == pytest.approx(1.0, abs=0.25)


class TestPiCoefficients:
    def test_su21_vacuum(self):
        c = su21_pi_coeffs(0.0)
        assert (c.c1, c.c2, c.c3) == (0.0, 0.0, 0.0)

    def test_su21_unit_energy(self):
        c = su21_pi_coeffs(1.0)
        assert abs(c.c2) == pytest.approx(1.0 / 3.0)

    def test_su21_quadrature_oracle(self):
        cq = _pi_coeffs_quadrature(su21_sym_state(1.0))
        cc = su21_pi_coeffs(1.0)
        for a, b in zip(cq.magnitudes(), cc.magnitudes()):
            assert a == pytest.approx(b, abs=1e-4)

    def test_ghz_vacuum(self):
        c = ghz_pi_coeffs(0.0)
        assert c.c1 == pytest.approx(0.0)

    def test_ghz_quadrature_oracle(self):
        for r in (0.3, 0.42, 0.8):
            cq = _pi_coeffs_quadrature(ghz_state(r))
            cc = ghz_pi_coeffs(r)
            assert cq.c1 == pytest.approx(cc.c1, abs=1e-10)
            assert cq.c2 == pytest.approx(cc.c2, abs=1e-10)

    @pytest.mark.parametrize("r", [178.0, 400.0])
    def test_ghz_finite_at_huge_squeezing(self, r):
        # e^{4r} overflows a float above r ~ 177; the coefficient decays like e^{-2r}
        c = ghz_pi_coeffs(r)
        for v in (c.c1, c.c2, c.c3):
            assert math.isfinite(v) and abs(v) <= 1.0

    def test_ghz_coefficient_peaks_near_042(self):
        rs = np.linspace(0.1, 1.2, 111)
        mags = [abs(ghz_pi_coeffs(r).c1) for r in rs]
        assert rs[int(np.argmax(mags))] == pytest.approx(0.42, abs=0.03)

    def test_ghz_maximum_violation(self):
        res = maximize_scalar(
            lambda rs: [b3_ps_from_coeffs(ghz_pi_coeffs(r)) for r in rs],
            0.05, 2.0, tol=1e-6)
        assert res.max_value == pytest.approx(2.09, abs=0.02)
        assert res.arg_max[0] == pytest.approx(0.42, abs=0.03)


class TestFFunctions:
    def test_f_twb_values(self):
        assert f_twb(0.0) == 0.0
        assert f_twb(3.0) == pytest.approx(math.sqrt(15.0) / 4.0)

    def test_f_twb_monotone_to_one(self):
        ns = np.linspace(0.0, 50.0, 200)
        vals = np.array([f_twb(n) for n in ns])
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] < 1.0
        assert f_twb(1e6) == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("n", [1e154, 1.3e154, 1e155, 1e300, 1.7976931348623157e308])
    def test_f_twb_is_one_where_the_square_overflows(self, n):
        # N (N + 2) overflows above N = 1.3e154; f rounds to 1 there, and its two
        # square roots leave it at most one float below
        assert 1.0 - 2.0**-53 <= f_twb(n) <= 1.0

    def test_f_twb_never_passes_one(self):
        ns = np.logspace(-3, 308, 3000)
        assert all(0.0 < f_twb(n) <= 1.0 for n in ns)

    @pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, -1.0])
    def test_f_twb_rejects_bad_photon_number(self, n):
        with pytest.raises(InvalidParameterError, match="photon number"):
            f_twb(n)

    def test_f_twb_oracle(self):
        st = twb_fock(math.tanh(math.asinh(1.0)), 40)
        x_axis = (math.pi / 2, 0.0)
        assert pseudospin_expect(st, [x_axis, x_axis]) == pytest.approx(
            f_twb(2.0), abs=1e-6)

    def test_zero_bright_mode(self):
        assert f_conditional(ConditionalParams(0.0, 0.2, eta=0.8)) == 0.0
        assert f_traced(ConditionalParams(0.0, 0.2)) == 0.0

    @pytest.mark.parametrize("n2,n3", [(0.3, 0.3), (1.0, 0.5), (0.2, 2.0), (4.0, 1.0)])
    def test_traced_equals_su21_c3(self, n2, n3):
        # both are the same spin-flip integral with the same prefactor
        assert f_traced(ConditionalParams(n2, n3)) == su21_ps_coeffs(n2, n3).c3

    def test_traced_is_c3_on_a_log_grid(self):
        # f_traced builds c3's four kernels alone; the values are su21_ps_coeffs' c3 bit for bit
        for n2 in np.logspace(-6, math.log10(3.9e6), 40):
            for n3 in np.logspace(-6, math.log10(3.99e6 - n2), 12):
                p = ConditionalParams(float(n2), float(n3))
                assert f_traced(p) == su21_ps_coeffs(p.n2, p.n3).c3, (n2, n3)

    def test_heralded_dominates_traced(self):
        for n in np.geomspace(0.1, 10.0, 12):
            p = ConditionalParams(n, 0.1, eta=0.8)
            assert f_conditional(p) >= f_traced(p)

    def test_small_n3_limits(self):
        p = ConditionalParams(10.0, 1e-8, eta=0.8)
        x = 10.0 / 11.0
        matched = 2 * math.sqrt(x) / (1 + x)  # twin beam with the same pair weight
        assert f_conditional(p) == pytest.approx(matched, abs=0.01)
        assert f_traced(p) == pytest.approx(matched, abs=0.01)

    def test_monotone_in_energy(self):
        vals = [f_conditional(ConditionalParams(n, 0.1, eta=0.8))
                for n in np.linspace(0.2, 8.0, 10)]
        assert np.all(np.diff(vals) > 0)


def _spin_flip_sum(n2, n3, eta, y_sign=1.0, even_only=False, top=160):
    """The heralded spin-flip sum over number amplitudes, with no cvbell code.

    The source is sum_pq A_pq |p+q, p, q> with A_pq = (1+n1)^-1/2 x^(p/2)
    y^(q/2) sqrt(C(p+q, p)), x = n2/(1+n1) and y = n3/(1+n1); a click weighs the
    slice q by 1 - (1-eta)^q, over P = eta n3/(1 + eta n3).  Each term is
    2 A_pq A_(p+1)q for even p (s_x on mode 2 pairs {2k, 2k+1}).  Over every q
    this is S(y); ``y_sign`` = -1 puts -y for y.  The oracle's s_x on mode 1
    also needs p + q even, so it keeps only even q (``even_only``).
    """
    n1 = n2 + n3
    x, y = n2 / (1 + n1), y_sign * n3 / (1 + n1)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, 2 * top + 2)))])
    p = np.arange(0, top, 2)[:, None]
    q = np.arange(0, top, 2 if even_only else 1)[None, :]
    log_binom = (0.5 * (log_fact[p + q] - log_fact[p] + log_fact[p + q + 1] - log_fact[p + 1])
                 - log_fact[q])
    terms = (1 - (1 - eta) ** q) * y**q * x ** (p + 0.5) * np.exp(log_binom)
    return 2 * terms.sum() * (1 + eta * n3) / ((1 + n1) * eta * n3)


class TestHeraldedPseudospinGap:
    """``f_conditional`` is not the heralded state's <s_x s_x>: the closed form
    sums every n3, the Fock oracle only the even n3.  These tests pin the gap as
    it stands; no printed value depends on them."""

    X, Z = (math.pi / 2, 0.0), (0.0, 0.0)
    POINTS = [(0.3, 0.3, 0.8), (1.0, 0.1, 0.8), (0.5, 0.2, 1.0), (0.2, 0.5, 0.4)]

    @staticmethod
    def _heralded(n2, n3, eta):
        return onoff_condition(su21_fock(TripartitePhotonNumbers(n2, n3), 40), 2, eta)

    @pytest.mark.parametrize("n2,n3,eta,closed,oracle,e_zz", [
        (0.3, 0.3, 0.8, 0.899670, 0.202942, -0.569853),
        (1.0, 0.1, 0.8, 0.985584, 0.096715, -0.803571),
    ])
    def test_closed_form_against_the_oracle(self, n2, n3, eta, closed, oracle, e_zz):
        rho = self._heralded(n2, n3, eta)
        p = ConditionalParams(n2, n3, eta=eta)
        assert f_conditional(p) == pytest.approx(closed, abs=5e-7)
        assert pseudospin_expect(rho, [self.X, self.X]) == pytest.approx(oracle, abs=5e-7)
        # E_zz = <(-1)^n3>_on, not the +1 that b2_ps_from_f assumes
        want = (1 / (1 + 2 * n3) - 1 / (1 + (2 - eta) * n3)) * (1 + eta * n3) / (eta * n3)
        assert want == pytest.approx(e_zz, abs=5e-7)
        assert pseudospin_expect(rho, [self.Z, self.Z]) == pytest.approx(want, abs=1e-9)

    def test_traced_matches_the_oracle(self):
        # the traced state as weighted kets: every number slice of mode 3, weight 1
        st = su21_fock(TripartitePhotonNumbers(0.3, 0.3), 40)
        traced = FockDensityOperator(2, 40, np.moveaxis(st.kets, 3, 1).reshape(-1, 40, 40),
                                     np.repeat(st.weights, 40))
        f = f_traced(ConditionalParams(0.3, 0.3))
        assert f == pytest.approx(0.601814, abs=5e-7)
        assert pseudospin_expect(traced, [self.X, self.X]) == pytest.approx(f, abs=1e-9)

    @pytest.mark.parametrize("n2,n3,eta", POINTS)
    def test_oracle_is_the_even_n3_part(self, n2, n3, eta):
        """f_conditional is S(y); the oracle is 1/2 [S(y) + S(-y)], the even-n3 sum."""
        s_plus = _spin_flip_sum(n2, n3, eta)
        s_minus = _spin_flip_sum(n2, n3, eta, y_sign=-1.0)
        even = 0.5 * (s_plus + s_minus)
        assert s_plus == pytest.approx(f_conditional(ConditionalParams(n2, n3, eta=eta)),
                                       abs=1e-14)
        assert even == pytest.approx(_spin_flip_sum(n2, n3, eta, even_only=True), abs=1e-14)
        assert even == pytest.approx(
            pseudospin_expect(self._heralded(n2, n3, eta), [self.X, self.X]), abs=1e-9)


class TestChshFromF:
    def test_endpoints(self):
        assert b2_ps_from_f(0.0) == 2.0
        assert b2_ps_from_f(1.0) == 2 * SQRT2

    def test_monotone(self):
        fs = np.linspace(0, 1, 30)
        vals = [b2_ps_from_f(f) for f in fs]
        assert np.all(np.diff(vals) > 0)

    def test_matches_brute_force_angle_grid(self):
        f = 0.7
        th = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        E = (np.cos(th)[:, None] * np.cos(th)[None, :]
             + f * np.sin(th)[:, None] * np.sin(th)[None, :])
        U = np.full((720, 720), -np.inf)
        V = np.full((720, 720), -np.inf)
        for k in range(720):
            col = E[:, k]
            np.maximum(U, col[:, None] + col[None, :], out=U)
            np.maximum(V, col[:, None] - col[None, :], out=V)
        grid_max = float((U + V).max())
        assert b2_ps_from_f(f) == pytest.approx(grid_max, abs=1e-4)
        assert b2_ps_from_f(f) == pytest.approx(2 * math.sqrt(1 + f * f), abs=1e-12)

    def test_maximizing_angles_reproduce_value(self):
        f = 0.6
        bv = b2_ps_from_f(f)
        # party 1 at (0, pi/2), party 2 at (chi, -chi) with tan(chi) = f
        chi = math.atan2(f, 1.0)
        a, ap, b, bp = 0.0, math.pi / 2.0, chi, -chi

        def corr(a, b):
            return math.cos(a) * math.cos(b) + f * math.sin(a) * math.sin(b)

        val = abs(corr(a, b) + corr(a, bp) + corr(ap, b) - corr(ap, bp))
        assert val == pytest.approx(bv, abs=1e-12)

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            b2_ps_from_f(1.2)
