import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell import (
    ConditioningError,
    GaussianState,
    InvalidParameterError,
    TripartitePhotonNumbers,
    ghz_r_from_photons,
    ghz_state,
    su21_state,
    twb_state,
    wigner_reconstruct,
    twb_fock,
)
from reference import CouplingParams, coupling_to_photons, reduce_state, wigner_eval


class TestGhzState:
    def test_vacuum_is_identity(self):
        np.testing.assert_allclose(ghz_state(0.0).cov, np.eye(6), atol=1e-14)

    def test_entries_at_r_one(self):
        cov = ghz_state(1.0).cov
        R = math.cosh(2.0) + math.sinh(2.0) / 3.0
        S = -4.0 / 3.0 * math.cosh(1.0) * math.sinh(1.0)
        T = math.cosh(2.0) - math.sinh(2.0) / 3.0
        assert cov[0, 0] == pytest.approx(R, abs=1e-14)
        assert cov[0, 1] == pytest.approx(S, abs=1e-14)
        assert cov[3, 3] == pytest.approx(T, abs=1e-14)
        assert cov[3, 4] == pytest.approx(-S, abs=1e-14)
        assert np.all(cov[:3, 3:] == 0.0)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_pure_determinant(self, r):
        assert ghz_state(r).factors[1] == pytest.approx(1.0, abs=1e-9)

    def test_total_photons(self):
        # sum over modes of (C_xx + C_yy)/4 - 1/2, vacuum covariance = identity
        assert np.trace(ghz_state(1.0).cov) / 4 - 1.5 == pytest.approx(3 * math.sinh(1.0) ** 2)
        assert ghz_r_from_photons(3 * math.sinh(0.7) ** 2) == pytest.approx(0.7)

    @pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, -1.0])
    def test_photons_must_be_finite_and_non_negative(self, n):
        with pytest.raises(InvalidParameterError, match="photon number"):
            ghz_r_from_photons(n)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            ghz_state(float("nan"))
        with pytest.raises(InvalidParameterError):
            ghz_state(-0.1)


class TestSu21State:
    def test_vacuum_is_identity(self):
        s = su21_state(TripartitePhotonNumbers(0.0, 0.0))
        np.testing.assert_allclose(s.cov, np.eye(6), atol=1e-14)

    def test_entries_at_unit_photons(self):
        cov = su21_state(TripartitePhotonNumbers(1.0, 1.0)).cov
        s3 = 2.0 * math.sqrt(3.0)
        assert cov[0, 0] == pytest.approx(5.0)   # 2 N1 + 1
        assert cov[1, 1] == pytest.approx(3.0)
        assert cov[2, 2] == pytest.approx(3.0)
        assert cov[0, 1] == pytest.approx(s3)
        assert cov[0, 2] == pytest.approx(s3)
        assert cov[1, 2] == pytest.approx(2.0)
        # zero phases kill every x-y cross entry
        assert np.max(np.abs(cov[:3, 3:])) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n2,n3", [(0.2, 0.7), (1.0, 1.0), (2.5, 0.1)])
    @pytest.mark.parametrize("phi2,phi3", [(0.0, 0.0), (0.4, -1.1)])
    def test_pure_determinant(self, n2, n3, phi2, phi3):
        s = su21_state(TripartitePhotonNumbers(n2, n3, phi2, phi3))
        assert s.factors[1] == pytest.approx(1.0, abs=1e-9)

    def test_covariance_matches_fock_moments(self, photons_03, su21_fock_03):
        """Symmetrized quadrature moments of the amplitude tensor reproduce cov."""
        amps = su21_fock_03.kets[0] * math.sqrt(su21_fock_03.weights[0])
        cutoff = su21_fock_03.cutoff
        a = np.zeros((cutoff, cutoff))
        a[np.arange(cutoff - 1), np.arange(1, cutoff)] = np.sqrt(np.arange(1, cutoff))
        x_op = (a + a.T) / math.sqrt(2.0)
        y_op = 1j * (a.T - a) / math.sqrt(2.0)
        ops = [x_op, x_op, x_op, y_op, y_op, y_op]
        modes = [0, 1, 2, 0, 1, 2]
        cov_fock = np.zeros((6, 6))
        for i in range(6):
            for j in range(i, 6):
                oi = np.tensordot(ops[i], amps, axes=(1, modes[i]))
                oi = np.moveaxis(oi, 0, modes[i])
                oj = np.tensordot(ops[j], amps, axes=(1, modes[j]))
                oj = np.moveaxis(oj, 0, modes[j])
                oij = np.tensordot(ops[j], oi, axes=(1, modes[j]))
                oij = np.moveaxis(oij, 0, modes[j])
                oji = np.tensordot(ops[i], oj, axes=(1, modes[i]))
                oji = np.moveaxis(oji, 0, modes[i])
                sym = np.real(np.sum(amps.conj() * (oij + oji)))
                cov_fock[i, j] = cov_fock[j, i] = sym
        np.testing.assert_allclose(cov_fock, su21_state(photons_03).cov, atol=1e-8)

    def test_negative_photons_rejected(self):
        with pytest.raises(InvalidParameterError):
            su21_state(TripartitePhotonNumbers(-0.5, 0.2))


class TestTwbState:
    def test_vacuum_is_identity(self):
        np.testing.assert_allclose(twb_state(0.0).cov, np.eye(4), atol=1e-14)

    def test_diagonal_at_n_two(self):
        # n = 2 means sinh^2 r = 1, so cosh 2r = 3
        cov = twb_state(2.0).cov
        assert cov[0, 0] == pytest.approx(3.0)
        assert cov[0, 1] == pytest.approx(math.sinh(2 * math.asinh(1.0)))
        assert cov[2, 3] == pytest.approx(-cov[0, 1])

    def test_matches_fock_wigner_on_grid(self):
        r = math.asinh(1.0)
        st = twb_fock(math.tanh(r), 40)
        gs = twb_state(2.0)
        pts = np.linspace(-1.0, 1.0, 5)
        for x1 in pts:
            for y2 in pts:
                v = np.array([x1, 0.4, -0.2, y2])
                assert wigner_reconstruct(st, v) == pytest.approx(
                    wigner_eval(gs, v), abs=1e-6)

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            twb_state(-1.0)


class TestCoupling:
    def test_zero_time(self):
        p = coupling_to_photons(CouplingParams(1.0, math.sqrt(2.0), 0.0))
        assert p.n2 == pytest.approx(0.0, abs=1e-15)
        assert p.n3 == pytest.approx(0.0, abs=1e-15)

    def test_periodic_revival(self):
        # omega = 1, so t = 2 pi returns to vacuum
        p = coupling_to_photons(CouplingParams(1.0, math.sqrt(2.0), 2 * math.pi))
        assert p.n2 == pytest.approx(0.0, abs=1e-12)
        assert p.n3 == pytest.approx(0.0, abs=1e-12)

    def test_quarter_period_values(self):
        p = coupling_to_photons(CouplingParams(1.0, math.sqrt(2.0), math.pi / 2))
        assert p.n3 == pytest.approx(1.0)
        assert p.n2 == pytest.approx(2.0)

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.7])
    def test_mode_one_carries_the_sum(self, t):
        p = coupling_to_photons(CouplingParams(0.8, 1.5, t))
        assert p.n1 == pytest.approx(p.n2 + p.n3)

    def test_degenerate_couplings_rejected(self):
        with pytest.raises(ValueError, match="oscillatory regime"):
            CouplingParams(1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="oscillatory regime"):
            CouplingParams(2.0, 1.0, 0.5)


class TestWigner:
    def test_vacuum_at_origin(self):
        s = GaussianState(1, np.eye(2))
        assert wigner_eval(s, [0.0, 0.0]) == pytest.approx(1.0 / math.pi)

    def test_ghz_at_origin(self):
        assert wigner_eval(ghz_state(1.0), np.zeros(6)) == pytest.approx(
            math.pi**-3, rel=1e-9)

    def test_positive_everywhere_sampled(self):
        rng = np.random.default_rng(3)
        s = su21_state(TripartitePhotonNumbers(0.5, 0.8, 0.3, -0.2))
        pts = rng.normal(0, 2, size=(200, 6))
        assert np.all(wigner_eval(s, pts) > 0)

    def test_normalization_two_mode(self):
        from numpy.polynomial.legendre import leggauss
        s = twb_state(1.0)
        xg, wg = leggauss(40)
        L = 6.0
        xs, ws = xg * L, wg * L
        grid = np.stack(np.meshgrid(xs, xs, xs, xs, indexing="ij"), axis=-1)
        vals = wigner_eval(s, grid.reshape(-1, 4)).reshape(grid.shape[:-1])
        w4 = np.einsum("i,j,k,l->ijkl", ws, ws, ws, ws)
        assert float(np.sum(vals * w4)) == pytest.approx(1.0, abs=1e-3)

    def test_normalization_three_mode(self):
        from numpy.polynomial.legendre import leggauss
        s = ghz_state(0.4)
        xg, wg = leggauss(16)
        L = 4.5
        xs, ws = xg * L, wg * L
        w5 = ws
        for _ in range(4):
            w5 = np.multiply.outer(w5, ws)
        grid5 = np.stack(np.meshgrid(*([xs] * 5), indexing="ij"), axis=-1).reshape(-1, 5)
        total = 0.0
        for x0, w0 in zip(xs, ws):  # chunk the 6-D tensor over the first axis
            pts = np.concatenate([np.full((grid5.shape[0], 1), x0), grid5], axis=1)
            total += w0 * float(np.dot(wigner_eval(s, pts), w5.ravel()))
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_oracle_agreement(self, photons_03, su21_fock_03):
        gs = su21_state(photons_03)
        pts = [np.zeros(6), np.array([0.3, -0.2, 0.1, 0.4, 0.0, -0.5])]
        for v in pts:
            assert wigner_reconstruct(su21_fock_03, v) == pytest.approx(
                wigner_eval(gs, v), abs=1e-5)

    def test_conditioning_guard(self):
        bad = np.diag([1e13, 1e-1])
        s = GaussianState(1, bad)
        with pytest.raises(ConditioningError):
            wigner_eval(s, [0.0, 0.0])


class TestReduceState:
    def test_vacuum_reduction(self):
        s = GaussianState(3, np.eye(6))
        np.testing.assert_allclose(reduce_state(s, (0, 1)).cov, np.eye(4))

    def test_submatrix_rule(self):
        s = su21_state(TripartitePhotonNumbers(1.0, 1.0))
        red = reduce_state(s, (0, 1))
        idx = [0, 1, 3, 4]
        np.testing.assert_allclose(red.cov, s.cov[np.ix_(idx, idx)])

    def test_reduction_of_entangled_pure_state_is_mixed(self):
        red = reduce_state(su21_state(TripartitePhotonNumbers(1.0, 1.0)), (0, 1))
        assert red.factors[1] > 1.0

    def test_empty_keep_rejected(self):
        with pytest.raises(InvalidParameterError):
            reduce_state(ghz_state(1.0), ())
        with pytest.raises(InvalidParameterError):
            reduce_state(ghz_state(1.0), (5,))


class TestStateValidation:
    def test_asymmetric_rejected(self):
        m = np.eye(2)
        m[0, 1] = 0.5
        with pytest.raises(InvalidParameterError):
            GaussianState(1, m)

    def test_indefinite_rejected(self):
        with pytest.raises(InvalidParameterError):
            GaussianState(1, np.diag([1.0, -1.0]))

    @given(r=st.floats(0.0, 2.5), n2=st.floats(0.0, 3.0), n3=st.floats(0.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_constructors_positive_definite(self, r, n2, n3):
        for s in (ghz_state(r), su21_state(TripartitePhotonNumbers(n2, n3)),
                  twb_state(n2)):
            np.linalg.cholesky(s.cov)  # raises if not PD
            assert s.factors[1] == pytest.approx(1.0, abs=1e-8)


class TestTopOfTheFloatRange:
    """Covariances near the top of the float range: a documented
    ``InvalidParameterError``, with no warning and no LAPACK message."""

    def test_exactly_symmetric_is_stored_as_given(self):
        # the symmetrizing sum is skipped: it is a no-op that overflows here
        m = np.array([[1.5e308, 1e307], [1e307, 1.5e308]])
        assert GaussianState(1, m).cov.tobytes() == m.tobytes()

    def test_nearly_symmetric_is_symmetrized(self):
        m = np.array([[2.0, 0.5], [0.5 + 1e-12, 2.0]])
        assert GaussianState(1, m).cov.tolist() == (0.5 * (m + m.T)).tolist()

    def test_twin_beam_past_the_range(self, capfd):
        # its entries are about 1e308, so their sum overflowed before any check
        with pytest.raises(InvalidParameterError, match="positive definite"):
            twb_state(1e308)
        assert capfd.readouterr() == ("", "")

    def test_nearly_symmetric_sum_that_overflows(self, capfd):
        m = np.array([[1.7e308, 1.0], [1.0 + 1e-9, 1.7e308]])
        with pytest.raises(InvalidParameterError, match="overflows when symmetrized"):
            GaussianState(1, m)
        assert capfd.readouterr() == ("", "")

    def test_su21_entries_past_the_range(self):
        # sqrt(n2 (1 + n1)) is inf, and inf sin 0 was NaN with a RuntimeWarning
        with pytest.raises(InvalidParameterError, match="non-finite entries"):
            su21_state(TripartitePhotonNumbers(1e200, 0.5))


class TestBatchedStates:
    """``su21_state`` of array parameters is one state of stacked covariances,
    each row bit for bit the state of its own parameters."""

    @staticmethod
    def _params(seed):
        rng = np.random.default_rng(seed)
        n2 = 10.0 ** rng.uniform(-3.0, 3.0, (6, 1))
        n3 = 10.0 ** rng.uniform(-3.0, 3.0, (6, 1))
        return n2, n3, rng.uniform(-4.0, 4.0, (1, 5)), rng.uniform(-4.0, 4.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_are_their_own_states(self, seed):
        n2, n3, phi2, phi3 = self._params(seed)
        batch = su21_state(TripartitePhotonNumbers(n2, n3, phi2, phi3))
        assert batch.cov.shape == (6, 5, 6, 6)
        inv, det = batch.factors
        for i, k in np.ndindex(6, 5):
            one = su21_state(TripartitePhotonNumbers(float(n2[i, 0]), float(n3[i, 0]),
                                                     float(phi2[0, k]), phi3))
            one_inv, one_det = one.factors
            assert batch.cov[i, k].tobytes() == one.cov.tobytes()
            assert inv[i, k].tobytes() == one_inv.tobytes()
            assert det[i, k] == one_det

    def test_one_bad_row_rejects_the_batch(self):
        n2, n3, phi2, phi3 = self._params(0)
        n2[3, 0] = -1.0
        with pytest.raises(InvalidParameterError, match=">= 0"):
            TripartitePhotonNumbers(n2, n3, phi2, phi3)
        phi2[0, 2] = math.nan
        with pytest.raises(InvalidParameterError, match="finite"):
            TripartitePhotonNumbers(n3, n3, phi2, phi3)
        with pytest.raises(InvalidParameterError, match="broadcast"):
            su21_state(TripartitePhotonNumbers(np.ones(3), np.ones(4)))

    def test_condition_guard_names_the_bad_matrix(self):
        stack = np.stack([np.eye(2), np.diag([1e7, 1e-7]), np.eye(2)])
        with pytest.raises(ConditioningError, match="1.000e\\+14"):
            GaussianState(1, stack).factors
