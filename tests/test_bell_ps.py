import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell import (
    ConditionalParams,
    InvalidParameterError,
    PsCoefficients,
    b2_ps_from_f,
    b3_ps,
    b3_ps_from_coeffs,
    e_ps3,
    f_conditional,
    f_traced,
    f_twb,
    ghz_pi_coeffs,
    ghz_state,
    maximize_scalar,
    pi_coeffs_quadrature,
    pseudospin_expect,
    su21_pi_coeffs,
    su21_ps_coeffs,
    twb_fock,
)
from cvbell.bell_dp import su21_sym_state

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

    def test_tolerance_halving_stability(self):
        a = su21_ps_coeffs(1.0, 0.7, tol=1e-6)
        b = su21_ps_coeffs(1.0, 0.7, tol=5e-7)
        for x, y in zip((a.c1, a.c2, a.c3), (b.c1, b.c2, b.c3)):
            assert abs(x - y) < 1e-6

    @given(n2=st.floats(0.0, 1.5), n3=st.floats(0.0, 1.5))
    @settings(max_examples=40, deadline=None)
    def test_coefficients_bounded(self, n2, n3):
        c = su21_ps_coeffs(n2, n3, tol=1e-6)
        assert all(v <= 1.0 + 1e-9 for v in c.magnitudes())


class TestCorrelationFunction:
    def test_all_z_axes(self):
        c = su21_ps_coeffs(0.5, 0.5)
        assert e_ps3(c, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)) == pytest.approx(1.0)

    def test_unit_coefficients_reach_the_algebraic_maximum(self):
        res = b3_ps_from_coeffs(PsCoefficients(-1.0, 1.0, 1.0))
        assert res.value == pytest.approx(4.0, abs=1e-6)

    def test_vanishing_coefficients_no_violation(self):
        res = b3_ps_from_coeffs(PsCoefficients(0.0, 0.0, 0.0))
        assert res.value == pytest.approx(2.0, abs=1e-8)

    def test_settings_snapshot_reproduces_value(self):
        c = su21_ps_coeffs(0.5, 0.5)
        bv = b3_ps_from_coeffs(c)
        s = bv.settings
        # the azimuthal preset turns the signed coefficients into the
        # all-negative canonical pattern the optimizer works in
        t, tp = s.thetas, s.thetas_primed
        val = (e_ps3(c, (t[0], t[1], tp[2]), s.phis)
               + e_ps3(c, (t[0], tp[1], t[2]), s.phis)
               + e_ps3(c, (tp[0], t[1], t[2]), s.phis)
               - e_ps3(c, (tp[0], tp[1], tp[2]), s.phis))
        assert abs(val) == pytest.approx(bv.value, abs=1e-7)


class TestBellCombination:
    def test_symmetric_asymptote(self):
        bv = b3_ps(100.0, 100.0)
        assert bv.value == pytest.approx(2.63, abs=0.02)

    def test_degenerate_limit_is_chsh_maximum(self):
        bv = b3_ps(10.0, 1e-3, tol=1e-10)
        assert bv.value == pytest.approx(2 * SQRT2, abs=0.01)

    def test_pi_representation_maximum(self):
        res = maximize_scalar(
            lambda ln: b3_ps_from_coeffs(su21_pi_coeffs(math.exp(ln))).value,
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
        cq = pi_coeffs_quadrature(su21_sym_state(1.0))
        cc = su21_pi_coeffs(1.0)
        for a, b in zip(cq.magnitudes(), cc.magnitudes()):
            assert a == pytest.approx(b, abs=1e-4)

    def test_ghz_vacuum(self):
        c = ghz_pi_coeffs(0.0)
        assert c.c1 == pytest.approx(0.0)

    def test_ghz_quadrature_oracle(self):
        for r in (0.3, 0.42, 0.8):
            cq = pi_coeffs_quadrature(ghz_state(r))
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
            lambda r: b3_ps_from_coeffs(ghz_pi_coeffs(r)).value,
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
        # both sum the same spin-flip series over (x, y^2)
        assert f_traced(ConditionalParams(n2, n3)) == pytest.approx(
            su21_ps_coeffs(n2, n3).c3, rel=1e-14)

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


class TestChshFromF:
    def test_endpoints(self):
        assert b2_ps_from_f(0.0).value == 2.0
        assert b2_ps_from_f(1.0).value == 2 * SQRT2

    def test_monotone(self):
        fs = np.linspace(0, 1, 30)
        vals = [b2_ps_from_f(f).value for f in fs]
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
        assert b2_ps_from_f(f).value == pytest.approx(grid_max, abs=1e-4)
        assert b2_ps_from_f(f).value == pytest.approx(2 * math.sqrt(1 + f * f), abs=1e-12)

    def test_maximizing_angles_reproduce_value(self):
        f = 0.6
        bv = b2_ps_from_f(f)
        t = bv.settings

        def corr(a, b):
            return math.cos(a) * math.cos(b) + f * math.sin(a) * math.sin(b)

        val = abs(corr(t.thetas[0], t.thetas[1]) + corr(t.thetas[0], t.thetas_primed[1])
                  + corr(t.thetas_primed[0], t.thetas[1])
                  - corr(t.thetas_primed[0], t.thetas_primed[1]))
        assert val == pytest.approx(bv.value, abs=1e-12)

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            b2_ps_from_f(1.2)
