import math

import numpy as np
import pytest

from cvbell import (
    ConditionalParams,
    ConditioningError,
    DpRates,
    DpSettings,
    GaussianState,
    InvalidParameterError,
    b3_ghz_closed,
    b3_su21_closed,
    conditional_dp_settings,
    displaced_parity_expect,
    e_dp,
    e_h,
    ghz_r_from_photons,
    ghz_state,
    log_j_maximize,
    onoff_condition,
    su21_opt_dp_settings,
    su21_opt_state,
    su21_state,
    su21_sym_state,
    twb_dp_settings,
    twb_state,
    TripartitePhotonNumbers,
    UndefinedStateError,
)
from cvbell.bell_dp import _bell
from reference import (e_dp_ghz_closed, ghz_dp_settings, large_squeezing_residual,
                       su21_sym_dp_settings, twb_bw_dp_settings)

SQRT2 = math.sqrt(2.0)


class TestCorrelators:
    def test_zero_displacement_pure_states(self):
        for s in (ghz_state(1.0), twb_state(2.0),
                  su21_state(TripartitePhotonNumbers(0.5, 0.7))):
            assert e_dp(s, [0.0] * s.n_modes) == pytest.approx(1.0, abs=1e-9)

    def test_ghz_explicit_form_matches_covariance_path(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            r = rng.uniform(0.0, 3.0)
            al = rng.normal(0, 0.5, 3) + 1j * rng.normal(0, 0.5, 3)
            assert e_dp(ghz_state(r), al) == pytest.approx(
                e_dp_ghz_closed(r, al), abs=1e-10)

    def test_matches_fock_oracle(self, photons_03, su21_fock_03):
        gs = su21_state(photons_03)
        for al in [(0.1, 0.1j, 0.0), (0.2, -0.1 + 0.05j, 0.1j)]:
            assert e_dp(gs, al) == pytest.approx(
                displaced_parity_expect(su21_fock_03, al), abs=1e-5)

    def test_conditional_correlator_matches_oracle(self, photons_03, su21_fock_03):
        p = ConditionalParams(0.3, 0.3, eta=0.8)
        rho = onoff_condition(su21_fock_03, 2, 0.8)
        for al in [(0.0, 0.0), (0.2, -0.1 + 0.2j)]:
            assert e_dp(p, al) == pytest.approx(
                displaced_parity_expect(rho, al), abs=1e-5)


class TestGhzClosedForm:
    def test_zero_displacement_is_two(self):
        assert b3_ghz_closed(1.3, 0.0) == 2.0

    def test_large_squeezing_approaches_three(self):
        res = log_j_maximize(lambda j: b3_ghz_closed(5.0, j), 1e-8, 1.0)
        assert res.max_value >= 2.99

    def test_matches_four_correlator_assembly(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            r = rng.uniform(0.0, 3.0)
            j = rng.uniform(0.0, 0.5)
            assert b3_ghz_closed(r, j) == pytest.approx(
                DpRates(ghz_state(r), ghz_dp_settings(j)).bell(), abs=1e-10)

    @pytest.mark.parametrize("j", [0.0, 1e-3, 0.1])
    def test_finite_at_huge_squeezing(self, j):
        """e^{2r} alone overflows a float at r = 400; the value does not."""
        value = b3_ghz_closed(400.0, j)
        assert math.isfinite(value) and 2.0 <= value <= 3.0

    @pytest.mark.parametrize("j", [1e-3, 1e-2, 0.1])
    def test_monotone_in_squeezing(self, j):
        rs = np.linspace(1.0, 4.0, 13)
        vals = [b3_ghz_closed(r, j) for r in rs]
        assert np.all(np.diff(vals) > 0)


class TestSu21ClosedForm:
    def test_zero_displacement_is_two(self):
        assert b3_su21_closed(7.0, 0.0) == 2.0

    def test_matches_assembly(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = rng.uniform(0.1, 20.0)
            j = rng.uniform(0.0, 0.3)
            assert b3_su21_closed(n, j) == pytest.approx(
                DpRates(su21_sym_state(n), su21_sym_dp_settings(j)).bell(), abs=1e-10)

    def test_scaled_exponents_are_the_direct_form(self):
        """Forming the exponents at N/16 is exact: wherever the direct form
        does not overflow, the value is bit for bit the direct form's."""
        ns = np.concatenate([[0.0, 1e-3, 1.0], np.logspace(-2, 150, 400)])[:, None]
        js = np.concatenate([[0.0], np.logspace(-12, 1, 60)])
        q = np.sqrt(ns) * np.sqrt(2.0 + ns)
        direct = np.abs(2.0 * np.exp(-js * (6.0 + 1.5 * ns - SQRT2 * q))
                        + np.exp(-2.0 * js * (3.0 + 3.0 * ns - 2.0 * SQRT2 * q))
                        - np.exp(-4.0 * js * (3.0 + 3.0 * ns + 2.0 * SQRT2 * q)))
        assert np.array_equal(b3_su21_closed(ns, js), direct)

    @pytest.mark.parametrize("n", [1e307, 1.7e308, np.finfo(float).max])
    def test_finite_at_the_top_of_the_float_range(self, n):
        """3N overflows above N = 6e307, and 4J(3 + 3N + 2 sqrt2 q) at J = 10
        above N = 8e305; no value is NaN and no RuntimeWarning (an error in
        this suite) is raised, from J = 1e-4/N, below float's normal range,
        up to J = 1e308."""
        js = np.concatenate([np.logspace(math.log10(1e-4 / n), 1, 64), [1e308]])
        value = b3_su21_closed(n, js)
        assert np.all(np.isfinite(value)) and value[-1] == 0.0
        res = log_j_maximize(lambda j: b3_su21_closed(n, j), 1e-4 / n, 10.0)
        assert res.max_value >= 2.8954959

    def test_optimum_at_large_energy(self):
        res = log_j_maximize(lambda j: b3_su21_closed(1e4, j), 1e-9, 1e-2)
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
        s = su21_opt_state(1e5)
        res = log_j_maximize(lambda j: DpRates(s, su21_opt_dp_settings(j)).bell(),
                             1e-8, 1e-1)
        assert res.max_value == pytest.approx(2.99, abs=0.01)
        assert res.arg_max[0] * 1e5 == pytest.approx(3.21, rel=0.15)


class TestGeneralAssembly:
    def test_zero_settings_give_two(self):
        s = su21_state(TripartitePhotonNumbers(0.4, 0.9))
        settings = DpSettings((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        assert DpRates(s, settings).bell() == pytest.approx(2.0)

    def test_bounded_over_random_sweeps(self):
        rng = np.random.default_rng(8)
        s3 = ghz_state(1.5)
        s2 = twb_state(3.0)
        for _ in range(300):
            a = rng.normal(0, 0.6, 3) + 1j * rng.normal(0, 0.6, 3)
            ap = rng.normal(0, 0.6, 3) + 1j * rng.normal(0, 0.6, 3)
            assert DpRates(s3, DpSettings(tuple(a), tuple(ap))).bell() <= 4 + 1e-9
            assert (DpRates(s2, DpSettings(tuple(a[:2]), tuple(ap[:2]))).bell()
                    <= 2 * SQRT2 + 1e-9)

    def test_mode_count_mismatch(self):
        with pytest.raises(InvalidParameterError):
            DpRates(twb_state(1.0), DpSettings((0, 0, 0), (0, 0, 0))).bell()


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
        s = twb_state(n)
        res = log_j_maximize(lambda j: DpRates(s, twb_dp_settings(j)).bell(), 1e-10, 1e-1)
        assert res.max_value == pytest.approx(2.32, abs=0.01)
        assert math.exp(2 * r) * res.arg_max[0] == pytest.approx(
            math.log(3.0) / 32.0, rel=0.10)

    def test_bw_asymptote(self):
        n = 2 * math.sinh(5.0) ** 2
        s = twb_state(n)
        res = log_j_maximize(lambda j: DpRates(s, twb_bw_dp_settings(j)).bell(),
                             1e-10, 1e-1)
        assert res.max_value == pytest.approx(2.19, abs=0.01)


class TestConditionalFamily:
    def test_asymptote_and_scaling(self):
        n2 = 1e3
        p = ConditionalParams(n2=n2, n3=1e-2 / n2, eta=1.0)
        res = log_j_maximize(lambda j: DpRates(p, conditional_dp_settings(j)).bell(),
                             1e-9, 1e-2)
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
        batch = e_dp(s, al)
        rows = np.array([e_dp(s, row) for row in al])
        assert batch.shape == (1000,)
        assert all(isinstance(e_dp(s, row), float) for row in al[:3])
        assert np.max(np.abs(batch - rows) / np.abs(rows)) <= 1e-15

    def test_conditional_batch_matches_rows(self):
        p = ConditionalParams(0.8, 0.4, phi2=0.9, eta=0.7)
        al = _random_alphas(np.random.default_rng(23), 1000, 2)
        batch = e_dp(p, al)
        rows = np.array([e_dp(p, row) for row in al])
        assert isinstance(e_dp(p, al[0]), float)
        assert np.max(np.abs(batch - rows) / np.abs(rows)) <= 1e-15

    def test_batch_in_any_memory_order_matches_rows(self):
        s = su21_state(TripartitePhotonNumbers(0.4, 1.3, 0.7, -1.9))
        al = _random_alphas(np.random.default_rng(29), 3, 500).T    # not C-ordered
        assert np.array_equal(e_dp(s, al), [e_dp(s, row) for row in al])

    def test_leading_axes_broadcast(self):
        s = ghz_state(0.7)
        al = _random_alphas(np.random.default_rng(3), 6, 3).reshape(2, 3, 3)
        out = e_dp(s, al)
        assert out.shape == (2, 3)
        assert out[1, 2] == e_dp(s, al[1, 2])

    @pytest.mark.parametrize("alphas", [0.1, [0.1, 0.2, 0.3], np.zeros((4, 3))])
    def test_wrong_mode_count(self, alphas):
        with pytest.raises(InvalidParameterError):
            e_dp(twb_state(1.0), alphas)
        with pytest.raises(InvalidParameterError):
            e_dp(ConditionalParams(1.0, 0.5), alphas)

    def test_assembly_is_the_four_term_sum(self):
        rng = np.random.default_rng(8)
        s3, s2 = su21_state(TripartitePhotonNumbers(0.5, 0.2, 0.3, 1.0)), twb_state(1.5)
        for _ in range(20):
            a, ap = _random_alphas(rng, 2, 3)
            e = lambda *al: e_dp(s3, list(al))
            want = abs(e(a[0], a[1], ap[2]) + e(a[0], ap[1], a[2])
                       + e(ap[0], a[1], a[2]) - e(ap[0], ap[1], ap[2]))
            assert DpRates(s3, DpSettings(tuple(a), tuple(ap))).bell() == want
            e = lambda *al: e_dp(s2, list(al))
            want = abs(e(a[0], a[1]) + e(a[0], ap[1]) + e(ap[0], a[1]) - e(ap[0], ap[1]))
            assert DpRates(s2, DpSettings(tuple(a[:2]), tuple(ap[:2]))).bell() == want


class TestFactorization:
    def test_factored_once(self, monkeypatch):
        s = twb_state(2.0)
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(1) or cholesky(m))
        first = e_dp(s, [0.1, -0.2j])
        assert len(calls) == 1
        b2_twb = DpRates(s, twb_dp_settings(0.01)).bell()
        assert e_dp(s, [0.1, -0.2j]) == first
        assert s.factors[1] == pytest.approx(1.0, abs=1e-9)
        assert len(calls) == 1
        assert b2_twb == DpRates(twb_state(2.0), twb_dp_settings(0.01)).bell()

    def test_ill_conditioned_state_raises_at_first_correlator(self):
        s = twb_state(1e6)
        with pytest.raises(ConditioningError, match="exceeds guard 1e\\+12"):
            e_dp(s, [0.0, 0.0])
        with pytest.raises(ConditioningError):
            DpRates(s, twb_dp_settings(1e-7)).bell()


class TestJDomain:
    BAD = [-1.0, math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("j", BAD)
    @pytest.mark.parametrize("family", [
        ghz_dp_settings, su21_sym_dp_settings, su21_opt_dp_settings,
        twb_dp_settings, twb_bw_dp_settings, conditional_dp_settings,
        lambda j: b3_ghz_closed(1.0, j), lambda j: b3_su21_closed(2.0, j),
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


class TestNonFiniteDisplacements:
    """A non-finite displacement is an error, not a NaN or a 0 correlator."""

    @pytest.mark.parametrize("call", [
        lambda: e_dp(twb_state(1.0), [math.nan, 0.0]),
        lambda: e_dp(ghz_state(1.0), [[0.1, 0.2, 0.3], [0.0, math.inf, 0.0]]),
        lambda: e_dp(ConditionalParams(1.0, 0.5), [1j * math.inf, 0.0]),
        lambda: DpRates(twb_state(1.0), DpSettings((math.nan, 0.0), (0.0, 0.0))).bell(),
        lambda: DpRates(ConditionalParams(1.0, 0.5),
                        DpSettings((1j * math.inf, 0.0), (0.0, 0.0))).bell(),
        lambda: DpRates(ghz_state(1.0), DpSettings((math.inf, 0.0, 0.0), (0.0, 0.0, 0.0))).bell(),
    ], ids=["gaussian", "gaussian-batch", "conditional", "b2-gaussian", "b2-conditional", "b3"])
    def test_rejected(self, call):
        with pytest.raises(InvalidParameterError, match="displacements must be finite"):
            call()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_bell_value_must_be_finite(self, value):
        with pytest.raises(InvalidParameterError, match="must be finite"):
            _bell(value, 2)


class TestTargetType:
    """A target that is neither a state nor heralded-state parameters is an
    error that names its type, in every correlator that reads a target."""

    @pytest.mark.parametrize("call", [
        lambda t: DpRates(t, twb_dp_settings(1.0)).bell(),
        lambda t: e_dp(t, [0, 0]),
        lambda t: e_h(t, 0, 0),
    ], ids=["DpRates", "e_dp", "e_h"])
    @pytest.mark.parametrize("target", [1.0, None, TripartitePhotonNumbers(0.3, 0.3)],
                             ids=["float", "None", "photon-numbers"])
    def test_rejected(self, call, target):
        with pytest.raises(InvalidParameterError, match=type(target).__name__):
            call(target)


# each displacement family with a state it suits, and the two closed forms, as
# functions of J alone
J_VALUES = [
    pytest.param(lambda j: DpRates(ghz_state(1.1), ghz_dp_settings(j)).bell(), id="ghz"),
    pytest.param(lambda j: DpRates(su21_sym_state(2.0), su21_sym_dp_settings(j)).bell(),
                 id="su21-sym"),
    pytest.param(lambda j: DpRates(su21_opt_state(2.0), su21_opt_dp_settings(j)).bell(),
                 id="su21-opt"),
    pytest.param(lambda j: DpRates(twb_state(2.0), twb_dp_settings(j)).bell(), id="twb"),
    pytest.param(lambda j: DpRates(twb_state(2.0), twb_bw_dp_settings(j)).bell(),
                 id="twb-bw"),
    pytest.param(lambda j: DpRates(ConditionalParams(1.0, 0.5, eta=0.8),
                                   conditional_dp_settings(j)).bell(), id="conditional"),
    pytest.param(lambda j: b3_ghz_closed(1.2, j), id="ghz-closed"),
    pytest.param(lambda j: b3_su21_closed(3.0, j), id="su21-closed"),
]


class TestBatchedJ:
    JS = np.concatenate([[0.0], np.logspace(-5, 0, 63)])

    @pytest.mark.parametrize("value", J_VALUES)
    def test_batch_matches_scalar_calls(self, value):
        batch = value(self.JS)
        assert batch.shape == self.JS.shape
        for k, j in enumerate(self.JS.tolist()):
            one = value(j)
            assert isinstance(one, float)
            assert batch[k] == one

    @pytest.mark.parametrize("value", J_VALUES)
    def test_two_dimensional_j_keeps_its_shape(self, value):
        out = value(self.JS.reshape(8, 8))
        assert out.shape == (8, 8)
        assert np.array_equal(out, value(self.JS).reshape(8, 8))

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("value", J_VALUES)
    def test_one_bad_j_rejects_the_batch(self, value, bad):
        js = self.JS.copy()
        js[17] = bad
        with pytest.raises(InvalidParameterError, match="J must be finite"):
            value(js)

    def test_ghz_closed_is_exactly_two_at_zero(self):
        # the log of 24 e^{2r} J is skipped at J = 0, so no RuntimeWarning
        assert np.all(b3_ghz_closed(0.8, np.zeros((2, 3))) == 2.0)


class TestArrayStateParameter:
    """The closed forms take an array of r or N: each entry is its own call."""

    RS = np.array([0.0, 1e-3, 0.4, 1.1, 2.5, 7.0, 400.0])
    NS = np.array([0.0, 1e-3, 0.7, 12.0, 3.4e4, 1e12, 1.3e154, 1e300])
    JS = np.concatenate([[0.0], np.logspace(-9, 0, 19)])

    @pytest.mark.parametrize("closed,params", [
        (b3_ghz_closed, RS), (b3_su21_closed, NS)], ids=["ghz", "su21"])
    def test_entries_are_their_own_calls(self, closed, params):
        grid = closed(params[:, None], self.JS)
        assert grid.shape == (params.size, self.JS.size)
        for k, x in enumerate(params.tolist()):
            assert grid[k].tolist() == [closed(x, j) for j in self.JS.tolist()]
        rows = closed(params[:, None], np.broadcast_to(self.JS, (params.size, self.JS.size)))
        assert np.array_equal(rows, grid)

    def test_photon_numbers_to_squeezing(self):
        ns = np.concatenate([[0.0], np.logspace(-3, 8, 23)])
        rs = ghz_r_from_photons(ns)
        assert rs.shape == ns.shape
        assert rs.tolist() == [ghz_r_from_photons(n) for n in ns.tolist()]
        assert isinstance(ghz_r_from_photons(3.0), float)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("call,name", [
        (lambda x: b3_ghz_closed(x, 0.1), "r"),
        (lambda x: b3_su21_closed(x, 0.1), "N"),
        (ghz_r_from_photons, "photon number"),
    ], ids=["ghz", "su21", "photons"])
    def test_one_bad_entry_rejects_the_array(self, call, name, bad):
        xs = np.linspace(0.1, 3.0, 9)
        xs[5] = bad
        with pytest.raises(InvalidParameterError, match=f"{name} must be finite and >= 0, got {bad}"):
            call(xs[:, None])


class TestBellValueMessages:
    @pytest.mark.parametrize("value,first,count", [
        (np.full(256, np.inf), "inf", "256 of 256"),
        (np.array([1.0, np.nan, -np.inf, 2.0]), "nan", "2 of 4"),
    ], ids=["all-inf", "mixed"])
    def test_non_finite_names_the_first_value(self, value, first, count):
        with pytest.raises(InvalidParameterError) as info:
            _bell(value, 3)
        message = str(info.value)
        assert "\n" not in message and len(message) < 200
        assert f"got {first} ({count} values)" in message

    def test_above_the_bound_names_the_largest(self):
        with pytest.raises(InvalidParameterError) as info:
            _bell(np.linspace(0.0, 6.0, 300), 2)
        message = str(info.value)
        assert "\n" not in message and len(message) < 200
        assert message.startswith("|B| = 6.0 exceeds the 2-party quantum bound (159 of 300")

    def test_a_producer_checks_its_value(self):
        # the check runs where a value is made: a covariance below the vacuum's
        # gives a CHSH value past 2 sqrt 2 at J = 1
        rates = DpRates(GaussianState(2, 0.1 * np.eye(4)), twb_dp_settings(np.array([1.0, 1e-3])))
        with pytest.raises(InvalidParameterError) as info:
            rates.bell()
        message = str(info.value)
        assert message.startswith("|B| = 190.057")
        assert message.endswith(" exceeds the 2-party quantum bound (1 of 2 values)")


class TestRateForm:
    """``DpRates(target, family(1.0)).bell(J)`` is the value at the settings
    ``family(J)``, from exponents read off once at J = 1, for families that
    scale as sqrt(J)."""

    JS = np.logspace(-9, 1, 41)
    TARGETS = [
        *(pytest.param(twb_state(n), twb_dp_settings, id=f"twb-{n:g}")
          for n in (1e-3, 1.0, 2.0, 1e3, 1e5)),
        *(pytest.param(ConditionalParams(*p), conditional_dp_settings,
                       id="conditional-{:g}-{:g}-{:g}-{:g}".format(*p))
          for p in ((1.0, 0.5, 0.0, 1.0), (0.05, 2.0, 0.9, 0.6), (30.0, 0.1, -1.3, 0.3),
                    (1e3, 0.05, 2.0, 0.95))),
    ]

    @pytest.mark.parametrize("target,family", TARGETS)
    def test_matches_explicit_settings(self, target, family):
        rates = DpRates(target, family(1.0)).bell(self.JS)
        explicit = DpRates(target, family(self.JS)).bell()
        assert np.max(np.abs(rates - explicit)) <= 1e-12

    @pytest.mark.parametrize("family", [
        twb_dp_settings, conditional_dp_settings, su21_opt_dp_settings])
    def test_families_scale_as_sqrt_j(self, family):
        one = family(1.0)
        for j in np.concatenate([[0.0], np.logspace(-12, 3, 31)]):
            s = family(j)
            for got, unit in ((s.unprimed, one.unprimed), (s.primed, one.primed)):
                want = math.sqrt(j) * unit
                assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want))), j

    @pytest.mark.parametrize("target,family", [
        (twb_state(2.0), twb_dp_settings),
        (ConditionalParams(1.0, 0.5, eta=0.8), conditional_dp_settings),
    ], ids=["twb", "conditional"])
    def test_scalar_and_batched_j(self, target, family):
        rates = DpRates(target, family(1.0))
        assert isinstance(rates.bell(0.01), float)
        batch = rates.bell(self.JS)
        assert batch.shape == self.JS.shape
        assert [rates.bell(j) for j in self.JS.tolist()] == batch.tolist()
        grid = rates.bell(self.JS[:40].reshape(5, 8))
        assert grid.shape == (5, 8)
        assert np.array_equal(grid, batch[:40].reshape(5, 8))

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("target,family", [
        (twb_state(2.0), twb_dp_settings),
        (ConditionalParams(1.0, 0.5), conditional_dp_settings),
        # J is checked before the state is factored or heralded, as on the
        # explicit path
        (twb_state(1e6), twb_dp_settings),
        (ConditionalParams(1.0, 0.0), conditional_dp_settings),
    ], ids=["twb", "conditional", "ill-conditioned", "clickless"])
    def test_bad_j_rejected(self, target, family, bad):
        with pytest.raises(InvalidParameterError, match="J must be finite"):
            DpRates(target, family(1.0)).bell(bad)
        with pytest.raises(InvalidParameterError, match="J must be finite"):
            DpRates(target, family(1.0)).bell([0.1, bad])

    @pytest.mark.parametrize("target,family", [
        (twb_state(1e6), twb_dp_settings),
        (ConditionalParams(1e8, 0.5), conditional_dp_settings),
    ], ids=["twb", "conditional"])
    def test_ill_conditioned_state_raises_like_the_explicit_path(self, target, family):
        with pytest.raises(ConditioningError) as explicit:
            DpRates(target, family(1e-7)).bell()
        with pytest.raises(ConditioningError) as rates:
            DpRates(target, family(1.0)).bell(1e-7)
        assert str(rates.value) == str(explicit.value)

    def test_clickless_heralded_state_is_undefined(self):
        with pytest.raises(UndefinedStateError):
            DpRates(ConditionalParams(1.0, 0.5, eta=0.0), conditional_dp_settings(1.0)).bell(0.1)

    def test_needs_two_modes(self):
        """Settings whose party count is not the target's mode count (two for
        the heralded target) are an ``InvalidParameterError``, never an
        ``AttributeError``, for one row and for a batch: two- or three-party
        settings at the first ``bell``, any other party count at construction."""
        for target, modes in ((twb_state(1.0), 2), (ghz_state(1.0), 3),
                              (ConditionalParams(1.0, 0.5, eta=0.8), 2)):
            for parties in (1, 2, 3, 4):
                for shape in ((parties,), (4, parties)):
                    settings = DpSettings(np.zeros(shape), np.full(shape, 0.1))
                    if parties not in (2, 3):
                        with pytest.raises(InvalidParameterError, match="two- or three-party"):
                            DpRates(target, settings)
                    elif parties != modes:
                        rates = DpRates(target, settings)
                        with pytest.raises(InvalidParameterError,
                                           match="one displacement per mode"):
                            rates.bell()

    def test_factored_once(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky
        s = twb_state(2.0)
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(1) or cholesky(m))
        rates = DpRates(s, twb_dp_settings(1.0))
        assert calls == []
        first = rates.bell(self.JS)
        assert rates.bell(self.JS).tolist() == first.tolist()
        assert len(calls) == 1

    @pytest.mark.parametrize("state,family", [
        *(pytest.param(su21_opt_state(n), su21_opt_dp_settings, id=f"su21-opt-{n:g}")
          for n in (0.1, 10.0, 1e3)),
        *(pytest.param(ghz_state(r), ghz_dp_settings, id=f"ghz-{r:g}") for r in (0.5, 1.5)),
    ])
    def test_three_party_matches_explicit_settings(self, state, family):
        rates = DpRates(state, family(1.0)).bell(self.JS)
        explicit = DpRates(state, family(self.JS)).bell()
        assert np.max(np.abs(rates - explicit)) <= 1e-12

    def test_j_broadcasts_against_batched_settings(self):
        s = twb_state(2.0)
        batch = twb_dp_settings([0.01, 0.02, 0.03])
        rates = DpRates(s, batch)
        rows = [DpRates(s, DpSettings(a, b)) for a, b in zip(batch.unprimed, batch.primed)]
        # a scalar J keeps the batch shape
        assert rates.bell(2.0).tolist() == [r.bell(2.0) for r in rows]
        # a J per setting pairs with it, and a (2, 1) J spans the batch
        js = [1.0, 2.0, 3.0]
        assert rates.bell(js).tolist() == [r.bell(j) for r, j in zip(rows, js)]
        grid = rates.bell([[1.0], [2.0]])
        assert grid.shape == (2, 3)
        assert grid[1].tolist() == rates.bell(2.0).tolist()

    @pytest.mark.parametrize("j", [[0.1, 0.2], np.ones((2, 2))])
    def test_unbroadcastable_j_rejected(self, j):
        rates = DpRates(twb_state(2.0), twb_dp_settings([0.01, 0.02, 0.03]))
        with pytest.raises(InvalidParameterError, match="does not broadcast"):
            rates.bell(j)
