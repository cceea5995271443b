import math

import numpy as np
import pytest

from types import SimpleNamespace

from cvbell import (
    ConditionalParams,
    GaussianState,
    InvalidParameterError,
    PrecisionError,
    UndefinedStateError,
    TripartitePhotonNumbers,
    chsh_h,
    classical_reference,
    e_h,
    ghz_state,
    maximize_scalar,
    onoff_condition,
    quadrature_orthant_expect,
    su21_fock,
    su21_state,
    twb_state,
)
from cvbell.bell_dp import _bell_sum
from cvbell.homodyne import _PHI_COLS, _ROWS, _THETA_COLS, _correlator
from reference import reduce_state


def su21_cov(n2, n3, phi2, phi3):
    """The su21 covariance matrix without ``GaussianState``'s checks, which
    reject it as numerically singular near n2 = 1e8."""
    n1 = n2 + n3
    a, d = 2 * math.sqrt(n2 * (1 + n1)) * np.array([math.cos(phi2), math.sin(phi2)])
    b, e = 2 * math.sqrt(n3 * (1 + n1)) * np.array([math.cos(phi3), math.sin(phi3)])
    c, l = 2 * math.sqrt(n2 * n3) * np.array([math.cos(phi2 - phi3), math.sin(phi2 - phi3)])
    f, g, h = 2 * n1 + 1, 2 * n2 + 1, 2 * n3 + 1
    return np.array([[f, a, b, 0, -d, -e], [a, g, c, -d, 0, l], [b, c, h, -e, -l, 0],
                     [0, -d, -e, f, -a, -b], [-d, 0, -l, -a, g, c], [-e, l, 0, -b, c, h]])


def scalar_e_h(target, theta, phi):
    """One ``e_h`` call at scalar phases, as a float."""
    return float(e_h(target, theta, phi))


class TestClassicalReference:
    @pytest.mark.parametrize("psi,expected", [(0.0, 1.0), (math.pi, -1.0),
                                              (-math.pi, -1.0), (math.pi / 2, 0.0)])
    def test_sawtooth_values(self, psi, expected):
        assert classical_reference(psi) == pytest.approx(expected)

    def test_periodic_continuation(self):
        assert classical_reference(2 * math.pi + 0.3) == pytest.approx(
            classical_reference(0.3))


class TestGaussianCorrelator:
    def test_vacuum_uncorrelated(self):
        vac = GaussianState(2, np.eye(4))
        for th, ph in ((0.0, 0.0), (0.7, 1.9), (-0.4, 0.2)):
            assert scalar_e_h(vac, th, ph) == 0.0

    def test_twb_arcsine_value(self):
        # n = 2: sinh^2 r = 1, correlation sinh2r/cosh2r at aligned phases
        r = math.asinh(1.0)
        expected = (2 / math.pi) * math.asin(math.sinh(2 * r) / math.cosh(2 * r))
        assert scalar_e_h(twb_state(2.0), 0.0, 0.0) == pytest.approx(expected)

    def test_twb_phase_dependence_is_cosine(self):
        s = twb_state(3.0)
        r = math.asinh(math.sqrt(1.5))
        for th, ph in ((0.4, 0.9), (1.0, -0.3)):
            rho = math.tanh(2 * r) * math.cos(th + ph)
            assert scalar_e_h(s, th, ph) == pytest.approx(
                (2 / math.pi) * math.asin(rho), abs=1e-12)

    def test_monte_carlo_cross_check(self):
        s = twb_state(2.0)
        rng = np.random.default_rng(17)
        samples = rng.multivariate_normal(np.zeros(4), s.cov / 2.0, size=400000)
        th, ph = 0.3, -0.5
        q1 = samples[:, 0] * math.cos(th) + samples[:, 2] * math.sin(th)
        q2 = samples[:, 1] * math.cos(ph) + samples[:, 3] * math.sin(ph)
        mc = float(np.mean(np.sign(q1) * np.sign(q2)))
        assert scalar_e_h(s, th, ph) == pytest.approx(mc, abs=5e-3)

    def test_chsh_bounded_for_gaussian(self):
        s = twb_state(5.0)
        angles = np.random.default_rng(23).uniform(-math.pi, math.pi, (2000, 4))
        assert np.max(chsh_h(s, angles)) <= 2.0 + 1e-9


class TestHeraldedCorrelator:
    params = ConditionalParams(0.3, 0.3, eta=0.8)

    def test_quarter_turn_vanishes(self):
        for p in (self.params, ConditionalParams(1.0, 0.5, eta=1.0)):
            assert scalar_e_h(p, math.pi / 2, 0.0) == pytest.approx(
                0.0, abs=1e-14)

    def test_matches_orthant_oracle(self):
        rho = onoff_condition(su21_fock(TripartitePhotonNumbers(0.3, 0.3), 26), 2, 0.8)
        for th in (0.0, 0.7, 1.9, -1.1):
            oracle = quadrature_orthant_expect(rho, th, 0.0)
            assert scalar_e_h(self.params, th, 0.0) == pytest.approx(
                oracle, abs=1e-3)

    def test_combined_angle_only(self):
        a = scalar_e_h(self.params, 0.9, 0.4)
        b = scalar_e_h(self.params, 0.1, 1.2)
        assert a == pytest.approx(b, abs=1e-14)

    def test_phase_offset_enters_psi(self):
        p = ConditionalParams(0.3, 0.3, phi2=0.5, eta=0.8)
        base = ConditionalParams(0.3, 0.3, eta=0.8)
        assert scalar_e_h(p, 0.2, 0.0) == pytest.approx(
            scalar_e_h(base, 0.7, 0.0), abs=1e-14)

    @pytest.mark.parametrize("n2", [0.5, 1.0, 5.0])
    def test_never_exceeds_the_sawtooth(self, n2):
        p = ConditionalParams(n2=n2, n3=0.5, eta=1.0)
        for psi in np.linspace(-math.pi, math.pi, 200):
            eh = scalar_e_h(p, psi, 0.0)
            cl = classical_reference(psi)
            assert abs(eh) <= abs(cl) + 1e-12
            assert eh * cl >= -1e-12  # same sign region

    def test_bounded(self):
        for psi in np.linspace(-math.pi, math.pi, 50):
            assert abs(scalar_e_h(self.params, psi, 0.0)) <= 1.0

    @pytest.mark.parametrize("n2", [0.3, 1e4, 1e6, 1e8])
    @pytest.mark.parametrize("n3,phi2,phi3,eta", [(0.4, 0.7, -1.1, 0.6), (2.0, -0.3, 0.5, 0.9)])
    def test_is_the_on_heralded_mixture(self, n2, n3, phi2, phi3, eta):
        """ON-heralded = (traced - P_off * OFF-heralded) / P_on, each a two-mode
        Gaussian evaluated by the orthant branch.  OFF heralding conditions
        on mode 3 through a Gaussian of variance (2 - eta)/eta per quadrature.
        psi = theta + phi + phi2 keeps |cos psi| <= 0.98: closer to 1 the
        reference's arcsin of a rounded correlation loses accuracy as n2 grows.
        The reference's source carries a mode-3 phase phi3; the heralded state
        has none, so this also checks that the click does not see it."""
        p = ConditionalParams(n2, n3, phi2, eta)
        V = su21_cov(n2, n3, phi2, phi3)
        keep = [0, 1, 3, 4]
        vp = V[np.ix_(keep, keep)]
        c = V[np.ix_(keep, [2, 5])]
        h = V[2, 2] + (2.0 - eta) / eta
        theta, phi = np.linspace(-3.0, 3.0, 13), 0.85 - phi2    # psi = theta + 0.85
        e_tr = e_h(SimpleNamespace(n_modes=2, cov=vp), theta, phi)
        e_off = e_h(SimpleNamespace(n_modes=2, cov=vp - c @ c.T / h), theta, phi)
        expected = ((1.0 + eta * n3) * e_tr - e_off) / (eta * n3)
        assert np.max(np.abs(e_h(p, theta, phi) - expected)) <= 1e-12

    @pytest.mark.parametrize("n2", [1e4, 1e8, 1e12])
    def test_aligned_phases_at_large_n2(self, n2):
        """At psi = 0 each arcsine is pi/2 - arcsin(sqrt(1 - r^2)), with 1 - r^2
        in closed form; r itself rounds to 1 near n2 = 1e8.  Combining the two
        arcsines scales their rounding by (2 + eta n3)/(eta n3), about 9 here."""
        n3, eta = 0.4, 0.6
        e, n1 = eta * n3, n2 + n3
        q_tr = (1 + 2 * n3) / ((1 + 2 * n1) * (1 + 2 * n2))
        q_off = (1 + 2 * n3 + (2 - eta) * eta * n3**2) / ((1 + 2 * n1 - e) * (1 + 2 * n2 + e))
        expected = 1 - (2 / math.pi) * (
            (1 + e) * math.asin(math.sqrt(q_tr)) - math.asin(math.sqrt(q_off))) / e
        value = scalar_e_h(ConditionalParams(n2, n3, eta=eta), 0.0, 0.0)
        assert value == pytest.approx(expected, abs=5e-15)
        assert value <= 1.0

    @pytest.mark.parametrize("n2", [1e16, 1e20, 1e100])
    @pytest.mark.parametrize("psi", [0.0, math.pi])
    def test_aligned_phases_stay_in_range_at_huge_n2(self, n2, psi):
        """(4/pi)(arcsin y + arcsin(w)/(eta n3)) rounds one step past 1 here."""
        assert abs(scalar_e_h(ConditionalParams(n2, 0.5, eta=0.7), psi, 0.0)) <= 1.0

    # (n2, n3, eta, psi, value): (2/pi) [(1 + eta n3) arcsin(r_tr cos psi)
    # - arcsin(r_off cos psi)] / (eta n3) evaluated with 50-digit mpmath
    @pytest.mark.parametrize("n2,n3,eta,psi,value", [
        (1.0, 1e-05, 0.1, 0.0, "0.78365350418925367"),
        (1.0, 1e-05, 0.1, 1.1, "0.28132009147063019"),
        (100000.0, 1e-06, 1.0, 0.0, "0.99999681691546204"),
        (100000.0, 1e-06, 1.0, 2.5, "-0.59154943090830083"),
        (10000.0, 2e-06, 0.5, 0.3, "0.80901406571745696"),
        (5.0, 0.0001, 0.2, -0.7, "0.55124550755336825"),
        (0.01, 1e-06, 1.0, 0.0, "0.126276410135912"),
        (100000.0, 0.001, 0.01, 1.4, "0.10873231868401365"),
        (50.0, 0.01, 0.7, 0.9, "0.42701727440800689"),
        (0.5, 0.5, 1.0, 0.471238898038469, "0.54561518979908502"),
    ])
    def test_small_eta_n3_has_no_cancellation(self, n2, n3, eta, psi, value):
        """Subtracting the two arcsines and dividing by eta n3 would scale their
        rounding by about 1/(eta n3): 1e-10 at eta n3 = 1e-6."""
        assert scalar_e_h(ConditionalParams(n2, n3, eta=eta), psi, 0.0) == pytest.approx(
            float(value), abs=1e-15)

    def test_reference_covariance_is_su21(self):
        for n2 in (0.3, 1e4):
            np.testing.assert_array_equal(
                su21_cov(n2, 0.4, 0.7, -1.1),
                su21_state(TripartitePhotonNumbers(n2, 0.4, 0.7, -1.1)).cov)


class TestChsh:
    def test_heralded_state_never_violates(self):
        p = ConditionalParams(1.0, 0.5, eta=1.0)
        angles = np.random.default_rng(31).uniform(-math.pi, math.pi, (10000, 4))
        assert np.max(chsh_h(p, angles)) <= 2.0

    def test_vacuum_trivial(self):
        vac = GaussianState(2, np.eye(4))
        assert chsh_h(vac, [[0.1, 0.5, 0.2, 0.9]])[0] == 0.0


# the twin beam, a two-mode Gaussian with unequal modes and x1-y2 / y1-x2
# correlations, and a heralded state with a phase offset
ASYMMETRIC = reduce_state(su21_state(TripartitePhotonNumbers(0.8, 0.3, 0.7, -0.4)), [0, 1])
HERALDED = ConditionalParams(0.6, 0.4, phi2=0.9, eta=0.7)
TARGETS = [twb_state(3.0), ASYMMETRIC, HERALDED]




class TestBatchedKernel:
    @pytest.mark.parametrize("target", TARGETS, ids=["twb", "su21_reduced", "heralded"])
    def test_matches_scalar_wrappers(self, target):
        """The batch equals elementwise scalar ``e_h`` calls."""
        rng = np.random.default_rng(5)
        th, ph = rng.uniform(-math.pi, math.pi, (2, 1000))
        batch = e_h(target, th, ph)
        assert batch.shape == (1000,)
        scalar = np.array([scalar_e_h(target, t, p) for t, p in zip(th, ph)])
        assert np.max(np.abs(batch - scalar)) <= 1e-15

    def test_broadcasts_over_angle_grids(self):
        th = np.linspace(-3.0, 3.0, 7)[:, None]
        ph = np.linspace(-1.0, 1.0, 5)[None, :]
        grid = e_h(ASYMMETRIC, th, ph)
        assert grid.shape == (7, 5)
        assert grid[2, 3] == pytest.approx(scalar_e_h(ASYMMETRIC, th[2, 0], ph[0, 3]),
                                           abs=1e-15)

    def test_gaussian_matches_matrix_quadratic_forms(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(4, 4))
        general = GaussianState(2, m @ m.T + np.eye(4))   # every entry nonzero
        for s in (ASYMMETRIC, general):
            for th, ph in rng.uniform(-math.pi, math.pi, (50, 2)):
                v1 = np.array([math.cos(th), 0.0, math.sin(th), 0.0])
                v2 = np.array([0.0, math.cos(ph), 0.0, math.sin(ph)])
                rho = (v1 @ s.cov @ v2) / math.sqrt((v1 @ s.cov @ v1) * (v2 @ s.cov @ v2))
                assert scalar_e_h(s, th, ph) == pytest.approx(
                    (2 / math.pi) * math.asin(rho), abs=1e-13)

    @pytest.mark.parametrize("target", TARGETS, ids=["twb", "su21_reduced", "heralded"])
    def test_chsh_matches_b2_row_by_row(self, target):
        angles = np.random.default_rng(9).uniform(-math.pi, math.pi, (300, 4))
        values = chsh_h(target, angles)
        assert values.shape == (300,)
        for row, value in zip(angles, values):
            assert value == pytest.approx(chsh_h(target, [row])[0], abs=1e-15)

    @pytest.mark.parametrize("target", TARGETS, ids=["twb", "su21_reduced", "heralded"])
    @pytest.mark.parametrize("m", [1, _ROWS, _ROWS + 1, 10_000])
    def test_blocked_chsh_is_the_whole_array_sum(self, target, m):
        # the row blocks change only where the temporaries live, not a bit of any row
        angles = np.random.default_rng(m).uniform(-math.pi, math.pi, (m, 4))
        whole = _bell_sum(e_h(target, angles.take(_THETA_COLS, axis=1),
                              angles.take(_PHI_COLS, axis=1)))
        assert np.array_equal(chsh_h(target, angles), whole)

    def test_chsh_rejects_bad_shape(self):
        with pytest.raises(InvalidParameterError):
            chsh_h(HERALDED, np.zeros((3, 3)))

    @pytest.mark.parametrize("target", TARGETS, ids=["twb", "su21_reduced", "heralded"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_one_non_finite_phase_fails_the_batch(self, target, bad):
        theta = np.array([0.1, 0.4, bad, -0.2])
        with pytest.raises(InvalidParameterError):
            e_h(target, theta, 0.3)
        with pytest.raises(InvalidParameterError):
            scalar_e_h(target, bad, 0.3)
        with pytest.raises(InvalidParameterError):
            chsh_h(target, [[0.1, 0.2, 0.3, 0.4], [0.1, 0.2, bad, 0.4]])

    def test_one_element_outside_the_arcsine_domain_fails_the_batch(self):
        # not positive definite: the x quadratures correlate beyond 1
        bad = SimpleNamespace(n_modes=2, cov=np.array(
            [[1.0, 2.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))
        assert abs(e_h(bad, math.pi / 2, 0.0)) < 1e-15
        with pytest.raises(PrecisionError):
            e_h(bad, np.array([math.pi / 2, math.pi / 2, 0.0]), 0.0)
        with pytest.raises(PrecisionError):
            scalar_e_h(bad, 0.0, 0.0)

    def test_heralded_domain_errors_match_the_scalar_call(self):
        # no click is possible, so the heralded state does not exist
        for clickless in (ConditionalParams(1.0, 0.0), ConditionalParams(1.0, 0.5, eta=0.0)):
            with pytest.raises(UndefinedStateError):
                e_h(clickless, np.zeros(5), 0.0)
            with pytest.raises(UndefinedStateError):
                scalar_e_h(clickless, 0.0, 0.0)
        # n2 = 0 leaves mode 2 in vacuum, so the correlator is exactly 0
        assert np.all(e_h(ConditionalParams(0.0, 0.5, eta=0.7), np.linspace(-3, 3, 5), 0.2) == 0.0)

    def test_three_mode_state_rejected(self):
        with pytest.raises(InvalidParameterError):
            e_h(su21_state(TripartitePhotonNumbers(0.3, 0.3)), np.zeros(2), 0.0)


class TestCorrelatorDispatch:
    """``_correlator`` checks a target once and returns its bare correlator,
    which a scan over its own finite phases calls directly."""

    @pytest.mark.parametrize("target", [twb_state(1.5), ConditionalParams(1.0, 0.5, 0.7, 0.8)],
                             ids=["twb", "heralded"])
    def test_scan_matches_e_h(self, target):
        """The CLI's CHSH scan over the bare correlator gives every
        ``ScanResult`` field of the scan over ``e_h``, bit for bit."""
        phi2 = getattr(target, "phi2", 0.0)

        def scan(correlator):
            def value(d):
                e = correlator(0.0, np.stack([d, 3 * d]) - phi2)
                return np.abs(3 * e[0] - e[1])
            return maximize_scalar(value, 0.0, math.pi / 2)

        bare = scan(_correlator(target))
        checked = scan(lambda theta, phi: e_h(target, theta, phi))
        for name in ("arg_max", "max_value", "evaluations", "converged"):
            got, want = getattr(bare, name), getattr(checked, name)
            assert type(got) is type(want), name
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name

    def test_target_is_checked_at_dispatch(self):
        with pytest.raises(UndefinedStateError, match="n3 = 0"):
            _correlator(ConditionalParams(1.0, 0.0))
        with pytest.raises(PrecisionError, match="eta \\* n3"):
            _correlator(ConditionalParams(1.0, 5e-324, eta=1e-10))
        with pytest.raises(InvalidParameterError, match="two-mode Gaussian state required"):
            _correlator(ghz_state(0.5))
        with pytest.raises(InvalidParameterError, match="got SimpleNamespace with n_modes = None"):
            _correlator(SimpleNamespace())
