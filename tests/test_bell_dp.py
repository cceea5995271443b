import math

import numpy as np
import pytest

from cvbell import (
    ConditionalParams,
    ConditioningError,
    DpSettings,
    GaussianState,
    InvalidParameterError,
    b2_conditional_dp,
    b2_dp,
    b2_twb_bw_dp,
    b2_twb_dp,
    b3_dp_general,
    b3_ghz_closed,
    b3_ghz_dp,
    b3_su21_closed,
    b3_su21_opt_dp,
    b3_su21_sym_dp,
    conditional_dp_settings,
    displaced_parity_expect,
    e_dp_conditional,
    e_dp_gaussian,
    e_dp_ghz_closed,
    ghz_dp_settings,
    ghz_state,
    large_squeezing_residual,
    log_j_maximize,
    onoff_condition,
    su21_fock,
    su21_opt_dp_settings,
    su21_state,
    su21_sym_dp_settings,
    twb_bw_dp_settings,
    twb_dp_settings,
    twb_state,
    TripartitePhotonNumbers,
)

SQRT2 = math.sqrt(2.0)


class TestCorrelators:
    def test_zero_displacement_pure_states(self):
        for s in (ghz_state(1.0), twb_state(2.0),
                  su21_state(TripartitePhotonNumbers(0.5, 0.7))):
            assert e_dp_gaussian(s, [0.0] * s.n_modes) == pytest.approx(1.0, abs=1e-9)

    def test_ghz_explicit_form_matches_covariance_path(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            r = rng.uniform(0.0, 3.0)
            al = rng.normal(0, 0.5, 3) + 1j * rng.normal(0, 0.5, 3)
            assert e_dp_gaussian(ghz_state(r), al) == pytest.approx(
                e_dp_ghz_closed(r, al), abs=1e-10)

    def test_matches_fock_oracle(self, photons_03, su21_fock_03):
        gs = su21_state(photons_03)
        for al in [(0.1, 0.1j, 0.0), (0.2, -0.1 + 0.05j, 0.1j)]:
            assert e_dp_gaussian(gs, al) == pytest.approx(
                displaced_parity_expect(su21_fock_03, al), abs=1e-5)

    def test_conditional_correlator_matches_oracle(self, photons_03, su21_fock_03):
        p = ConditionalParams(0.3, 0.3, eta=0.8)
        _, rho = onoff_condition(su21_fock_03, 2, 0.8)
        for al in [(0.0, 0.0), (0.2, -0.1 + 0.2j)]:
            assert e_dp_conditional(p, al) == pytest.approx(
                displaced_parity_expect(rho, al), abs=1e-5)


class TestGhzClosedForm:
    def test_zero_displacement_is_two(self):
        assert b3_ghz_closed(1.3, 0.0).value == 2.0

    def test_large_squeezing_approaches_three(self):
        res = log_j_maximize(lambda j: b3_ghz_closed(5.0, j).value, 1e-8, 1.0)
        assert res.max_value >= 2.99

    def test_matches_four_correlator_assembly(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            r = rng.uniform(0.0, 3.0)
            j = rng.uniform(0.0, 0.5)
            assert b3_ghz_closed(r, j).value == pytest.approx(
                b3_ghz_dp(r, j).value, abs=1e-10)

    @pytest.mark.parametrize("j", [0.0, 1e-3, 0.1])
    def test_finite_at_huge_squeezing(self, j):
        """e^{2r} alone overflows a float at r = 400; the value does not."""
        value = b3_ghz_closed(400.0, j).value
        assert math.isfinite(value) and 2.0 <= value <= 3.0

    @pytest.mark.parametrize("j", [1e-3, 1e-2, 0.1])
    def test_monotone_in_squeezing(self, j):
        rs = np.linspace(1.0, 4.0, 13)
        vals = [b3_ghz_closed(r, j).value for r in rs]
        assert np.all(np.diff(vals) > 0)


class TestSu21ClosedForm:
    def test_zero_displacement_is_two(self):
        assert b3_su21_closed(7.0, 0.0).value == 2.0

    def test_matches_assembly(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = rng.uniform(0.1, 20.0)
            j = rng.uniform(0.0, 0.3)
            assert b3_su21_closed(n, j).value == pytest.approx(
                b3_su21_sym_dp(n, j).value, abs=1e-10)

    def test_optimum_at_large_energy(self):
        res = log_j_maximize(lambda j: b3_su21_closed(1e4, j).value, 1e-9, 1e-2)
        assert res.max_value == pytest.approx(2.89, abs=0.01)
        # the scaled optimum J*N approaches ~0.165
        assert res.arg_max[0] * 1e4 == pytest.approx(0.165, abs=0.005)

    def test_scaled_reduction_optimum(self):
        """Independent route: optimize the explicit large-N reduction in u = J*N."""
        a = 1.5 - SQRT2
        b = 2 * (3 - 2 * SQRT2)
        c = 4 * (3 + 2 * SQRT2)
        us = np.linspace(0.01, 1.0, 100000)
        vals = 2 * np.exp(-a * us) + np.exp(-b * us) - np.exp(-c * us)
        i = int(np.argmax(vals))
        assert us[i] == pytest.approx(0.165, abs=0.002)
        assert vals[i] == pytest.approx(2.8955, abs=5e-4)


class TestOptimizedFamily:
    def test_asymptotic_value_and_scaling(self):
        res = log_j_maximize(lambda j: b3_su21_opt_dp(1e5, j).value, 1e-8, 1e-1)
        assert res.max_value == pytest.approx(2.99, abs=0.01)
        assert res.arg_max[0] * 1e5 == pytest.approx(3.21, rel=0.15)


class TestGeneralAssembly:
    def test_zero_settings_give_two(self):
        s = su21_state(TripartitePhotonNumbers(0.4, 0.9))
        settings = DpSettings((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        assert b3_dp_general(s, settings).value == pytest.approx(2.0)

    def test_bounded_over_random_sweeps(self):
        rng = np.random.default_rng(8)
        s3 = ghz_state(1.5)
        s2 = twb_state(3.0)
        for _ in range(300):
            a = rng.normal(0, 0.6, 3) + 1j * rng.normal(0, 0.6, 3)
            ap = rng.normal(0, 0.6, 3) + 1j * rng.normal(0, 0.6, 3)
            assert b3_dp_general(s3, DpSettings(tuple(a), tuple(ap))).value <= 4 + 1e-9
            assert b2_dp(s2, DpSettings(tuple(a[:2]), tuple(ap[:2]))).value <= 2 * SQRT2 + 1e-9

    def test_mode_count_mismatch(self):
        with pytest.raises(InvalidParameterError):
            b3_dp_general(twb_state(1.0), DpSettings((0, 0, 0), (0, 0, 0)))


class TestResidual:
    def test_imaginary_family_solves_the_system(self):
        for j in (0.01, 0.3, 2.0):
            w = 1j * math.sqrt(j)
            settings = DpSettings((w, w, w), (-2 * w, -2 * w, -2 * w))
            assert large_squeezing_residual(settings) == pytest.approx(0.0, abs=1e-14)

    def test_package_family_rotated_in(self):
        settings = ghz_dp_settings(0.2)
        rotated = DpSettings(tuple(1j * a for a in settings.unprimed),
                             tuple(1j * a for a in settings.primed))
        assert large_squeezing_residual(rotated) == pytest.approx(0.0, abs=1e-14)

    def test_zero_settings(self):
        assert large_squeezing_residual(DpSettings((0, 0, 0), (0, 0, 0))) == 0.0

    def test_real_offsets_leave_positive_residual(self):
        settings = DpSettings((0.3, 0.1, -0.2), (0.05, 0.4, 0.2))
        assert large_squeezing_residual(settings) > 0.0


class TestTwbFamilies:
    def test_improved_asymptote_and_scaling(self):
        r = 5.0
        n = 2 * math.sinh(r) ** 2
        res = log_j_maximize(lambda j: b2_twb_dp(n, j).value, 1e-10, 1e-1)
        assert res.max_value == pytest.approx(2.32, abs=0.01)
        assert math.exp(2 * r) * res.arg_max[0] == pytest.approx(
            math.log(3.0) / 32.0, rel=0.10)

    def test_bw_asymptote(self):
        n = 2 * math.sinh(5.0) ** 2
        res = log_j_maximize(lambda j: b2_twb_bw_dp(n, j).value, 1e-10, 1e-1)
        assert res.max_value == pytest.approx(2.19, abs=0.01)


class TestConditionalFamily:
    def test_asymptote_and_scaling(self):
        n2 = 1e3
        p = ConditionalParams(n2=n2, n3=1e-2 / n2, eta=1.0)
        res = log_j_maximize(lambda j: b2_conditional_dp(p, j).value, 1e-9, 1e-2)
        assert res.max_value == pytest.approx(2.41, abs=0.01)
        assert res.arg_max[0] * n2 == pytest.approx(0.042, rel=0.15)


def _random_spd(rng, d):
    """A random symmetric positive-definite matrix with every entry nonzero."""
    a = rng.normal(size=(d, d))
    cov = a @ a.T + d * np.eye(d)
    assert np.all(cov != 0.0)
    return cov


def _random_alphas(rng, m, n_modes):
    return rng.normal(0, 0.6, (m, n_modes)) + 1j * rng.normal(0, 0.6, (m, n_modes))


class TestBatchedCorrelators:
    @pytest.mark.parametrize("make", [
        lambda: ghz_state(1.2),
        lambda: su21_state(TripartitePhotonNumbers(0.4, 1.3, 0.7, -1.9)),
        lambda: twb_state(3.0),
        lambda: GaussianState(3, _random_spd(np.random.default_rng(5), 6)),
    ], ids=["ghz", "su21", "twb", "random-spd"])
    def test_gaussian_batch_matches_rows(self, make):
        s = make()
        al = _random_alphas(np.random.default_rng(17), 1000, s.n_modes)
        batch = e_dp_gaussian(s, al)
        rows = np.array([e_dp_gaussian(s, row) for row in al])
        assert batch.shape == (1000,)
        assert all(isinstance(e_dp_gaussian(s, row), float) for row in al[:3])
        assert np.max(np.abs(batch - rows) / np.abs(rows)) <= 1e-15

    def test_conditional_batch_matches_rows(self):
        p = ConditionalParams(0.8, 0.4, phi2=0.9, eta=0.7)
        al = _random_alphas(np.random.default_rng(23), 1000, 2)
        batch = e_dp_conditional(p, al)
        rows = np.array([e_dp_conditional(p, row) for row in al])
        assert isinstance(e_dp_conditional(p, al[0]), float)
        assert np.max(np.abs(batch - rows) / np.abs(rows)) <= 1e-15

    def test_leading_axes_broadcast(self):
        s = ghz_state(0.7)
        al = _random_alphas(np.random.default_rng(3), 6, 3).reshape(2, 3, 3)
        out = e_dp_gaussian(s, al)
        assert out.shape == (2, 3)
        assert out[1, 2] == e_dp_gaussian(s, al[1, 2])

    @pytest.mark.parametrize("alphas", [0.1, [0.1, 0.2, 0.3], np.zeros((4, 3))])
    def test_wrong_mode_count(self, alphas):
        with pytest.raises(InvalidParameterError):
            e_dp_gaussian(twb_state(1.0), alphas)
        with pytest.raises(InvalidParameterError):
            e_dp_conditional(ConditionalParams(1.0, 0.5), alphas)

    def test_assembly_is_the_four_term_sum(self):
        rng = np.random.default_rng(8)
        s3, s2 = su21_state(TripartitePhotonNumbers(0.5, 0.2, 0.3, 1.0)), twb_state(1.5)
        for _ in range(20):
            a, ap = _random_alphas(rng, 2, 3)
            e = lambda *al: e_dp_gaussian(s3, list(al))
            want = abs(e(a[0], a[1], ap[2]) + e(a[0], ap[1], a[2])
                       + e(ap[0], a[1], a[2]) - e(ap[0], ap[1], ap[2]))
            assert b3_dp_general(s3, DpSettings(tuple(a), tuple(ap))).value == want
            e = lambda *al: e_dp_gaussian(s2, list(al))
            want = abs(e(a[0], a[1]) + e(a[0], ap[1]) + e(ap[0], a[1]) - e(ap[0], ap[1]))
            assert b2_dp(s2, DpSettings(tuple(a[:2]), tuple(ap[:2]))).value == want


class TestFactorization:
    def test_factored_once(self, monkeypatch):
        s = twb_state(2.0)
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(1) or cholesky(m))
        first = e_dp_gaussian(s, [0.1, -0.2j])
        assert len(calls) == 1
        b2_twb = b2_dp(s, twb_dp_settings(0.01)).value
        assert e_dp_gaussian(s, [0.1, -0.2j]) == first
        assert s.det() == pytest.approx(1.0, abs=1e-9)
        assert len(calls) == 1
        assert b2_twb == b2_twb_dp(2.0, 0.01).value

    def test_ill_conditioned_state_raises_at_first_correlator(self):
        s = twb_state(1e6)
        with pytest.raises(ConditioningError, match="exceeds guard 1e\\+12"):
            e_dp_gaussian(s, [0.0, 0.0])
        with pytest.raises(ConditioningError):
            b2_dp(s, twb_dp_settings(1e-7))


class TestJDomain:
    BAD = [-1.0, math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("j", BAD)
    @pytest.mark.parametrize("family", [
        ghz_dp_settings, su21_sym_dp_settings, su21_opt_dp_settings,
        twb_dp_settings, twb_bw_dp_settings, conditional_dp_settings,
        lambda j: b3_ghz_closed(1.0, j), lambda j: b3_su21_closed(2.0, j),
        lambda j: DpSettings((0.1, 0.2), (0.3, 0.4), j),
    ])
    def test_rejected(self, family, j):
        with pytest.raises(InvalidParameterError, match="J must be finite"):
            family(j)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_closed_forms_reject_bad_state_parameter(self, bad):
        with pytest.raises(InvalidParameterError):
            b3_ghz_closed(bad, 0.1)
        with pytest.raises(InvalidParameterError):
            b3_su21_closed(bad, 0.1)
