import math

import numpy as np
import pytest

from cvbell import (
    ConditionalParams,
    InvalidParameterError,
    PrecisionError,
    TripartitePhotonNumbers,
    UndefinedStateError,
    click_probability,
    e_dp,
    e_h,
    f_conditional,
    onoff_condition,
    p_click,
    su21_fock,
    su21_state,
    wigner_reconstruct,
)
from cvbell import conditional
from cvbell.conditional import _heralded_forms, two_gaussian_form
from reference import heralded_wigner, reduce_state, wigner_eval


def _closed_form_integral(p: ConditionalParams) -> float:
    """Integral of w_a exp(-x.Q_a.x) - w_b exp(-x.Q_b.x) over R^4, each term w pi^2/sqrt(det Q)."""
    (wa, wb), (qa, qb) = two_gaussian_form(p)
    return math.pi**2 * (wa / math.sqrt(np.linalg.det(qa)) + wb / math.sqrt(np.linalg.det(qb)))


class TestClickProbability:
    def test_eta_zero(self):
        assert p_click(ConditionalParams(1.0, 1.0, eta=0.0)) == 0.0

    def test_unit_efficiency_single_photon(self):
        assert p_click(ConditionalParams(0.0, 1.0, eta=1.0)) == pytest.approx(0.5)

    @pytest.mark.parametrize("n3", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("eta", [0.25, 0.6, 1.0])
    def test_matches_oracle(self, n3, eta):
        st = su21_fock(TripartitePhotonNumbers(0.3, n3), 32)
        prob = click_probability(st, 2, eta)
        assert prob == pytest.approx(p_click(ConditionalParams(0.3, n3, eta=eta)),
                                     abs=1e-9)


class TestClickCheck:
    """Every heralded evaluator divides by eta n3, so a product below the
    smallest normal float is a precision error, not a division by zero or an
    infinite prefactor."""

    EVALUATORS = {"two_gaussian_form": two_gaussian_form, "f_conditional": f_conditional,
                  "e_h": lambda p: e_h(p, 0.0, 0.0)}

    @pytest.mark.parametrize("n3", [5e-324, 1e-300])
    @pytest.mark.parametrize("fn", EVALUATORS.values(), ids=EVALUATORS.keys())
    def test_product_below_the_normal_range(self, fn, n3):
        with pytest.raises(PrecisionError, match=r"eta \* n3 = .* below the smallest normal"):
            fn(ConditionalParams(1.0, n3, eta=1e-10))

    @pytest.mark.parametrize("n3,eta", [(1e-300, 1e-7), (1e-299, 1e-8)])
    def test_weight_overflow_is_a_precision_error(self, n3, eta):
        # eta n3 passes the click check, but w_b carries a separate 1/eta and overflows
        with pytest.raises(PrecisionError, match=r"heralded Gaussian weights .* overflow"):
            two_gaussian_form(ConditionalParams(1.0, n3, eta=eta))
        with pytest.raises(PrecisionError, match="overflow"):
            e_dp(ConditionalParams(1.0, n3, eta=eta), (0.1, 0.2j))

    def test_product_just_inside_the_normal_range(self):
        p = ConditionalParams(1.0, 1e-300, eta=1e-7)
        assert math.isfinite(f_conditional(p))
        assert math.isfinite(float(e_h(p, 0.3, 0.1)))


class TestHeraldedWigner:
    params = ConditionalParams(0.3, 0.3, eta=0.8)

    def test_forms_are_read_only(self):
        # the forms are cached per params, so a write would move every later
        # correlator of equal params
        p = ConditionalParams(1.0, 0.5)
        before = e_dp(p, [0.1, 0.2])
        for q in two_gaussian_form(p)[1]:
            with pytest.raises(ValueError, match="read-only"):
                q[0, 0] += 1
        assert e_dp(ConditionalParams(1.0, 0.5), [0.1, 0.2]) == before

    def test_eta_zero_undefined(self):
        with pytest.raises(UndefinedStateError):
            heralded_wigner(ConditionalParams(0.3, 0.3, eta=0.0), np.zeros(4))

    def test_matches_oracle_reconstruction(self):
        rho = onoff_condition(su21_fock(TripartitePhotonNumbers(0.3, 0.3), 30), 2, 0.8)
        for pt in ([0.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.1, 0.4], [0.8, 0.1, -0.5, 0.2]):
            assert heralded_wigner(self.params, pt) == pytest.approx(
                wigner_reconstruct(rho, np.asarray(pt)), abs=1e-4)

    def test_normalization_by_quadrature(self):
        from numpy.polynomial.legendre import leggauss
        xg, wg = leggauss(28)
        xs, ws = xg * 6.0, wg * 6.0
        g2 = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        w2 = np.outer(ws, ws).ravel()
        total = 0.0
        for (x1, x2), w in zip(g2, w2):
            pts = np.concatenate(
                [np.broadcast_to([x1, x2], (g2.shape[0], 2)), g2], axis=1)
            total += w * float(np.dot(heralded_wigner(self.params, pts), w2))
        assert total == pytest.approx(1.0, abs=1e-3)
        assert abs(total - _closed_form_integral(self.params)) < 1e-6
        # states whose Gaussians spread past [-6, 6]^4, where the grid reads as low as 0.993
        for n2, n3, eta in ((1.0, 0.5, 1.0), (0.5, 0.1, 0.5), (2.0, 1.0, 0.9), (0.3, 1e-3, 1.0)):
            assert abs(_closed_form_integral(ConditionalParams(n2, n3, eta=eta)) - 1.0) < 1e-12

    def test_negative_minimum(self):
        p = ConditionalParams(1.0, 0.5, eta=1.0)
        xs = np.linspace(-1.5, 1.5, 31)
        grid = np.stack(np.meshgrid(xs, xs, [0.0], [0.0], indexing="ij"),
                        axis=-1).reshape(-1, 4)
        assert float(np.min(heralded_wigner(p, grid))) < 0.0

    def test_first_gaussian_term_positive(self):
        (wa, _), (qa, _) = two_gaussian_form(self.params)
        rng = np.random.default_rng(5)
        pts = rng.normal(0, 1.5, size=(100, 4))
        assert np.all(wa * np.exp(-np.einsum("...i,ij,...j->...", pts, qa, pts)) > 0)

    def test_restrict_invert_asymmetry(self):
        """The two quadratic forms genuinely differ: one is the inverse of the
        restriction, the other the restriction of the inverse."""
        _, (qa, qb) = two_gaussian_form(self.params)
        V = su21_state(TripartitePhotonNumbers(0.3, 0.3)).cov
        keep = [0, 1, 3, 4]
        np.testing.assert_allclose(qa, np.linalg.inv(V[np.ix_(keep, keep)]), atol=1e-12)
        broaden = (2 - 0.8) / 0.8
        D = V + np.diag([0, 0, broaden, 0, 0, broaden])
        np.testing.assert_allclose(qb, np.linalg.inv(D)[np.ix_(keep, keep)], atol=1e-12)
        assert not np.allclose(qa, qb)


def _traced(p: ConditionalParams):
    """The two-mode Gaussian state left after discarding mode 3."""
    return reduce_state(su21_state(p.photons()), (0, 1))


class TestTracedState:
    def test_vacuum(self):
        s = _traced(ConditionalParams(0.0, 0.0, eta=0.5))
        np.testing.assert_allclose(s.cov, np.eye(4), atol=1e-14)

    def test_equals_reduction(self):
        # the source with a mode-3 phase: discarding mode 3 discards it too
        p = ConditionalParams(1.0, 1.0, 0.2, 0.7)
        full = su21_state(TripartitePhotonNumbers(1.0, 1.0, 0.2, -0.4))
        np.testing.assert_allclose(_traced(p).cov,
                                   reduce_state(full, (0, 1)).cov, atol=1e-14)

    def test_wigner_positive(self):
        s = _traced(ConditionalParams(1.0, 0.5))
        rng = np.random.default_rng(9)
        pts = rng.normal(0, 2, size=(200, 4))
        assert np.all(wigner_eval(s, pts) > 0)


class TestBatchedForms:
    """The heralded form of ``ConditionalParams`` of arrays: one stacked
    computation whose rows are bit for bit the forms of their own params."""

    @staticmethod
    def _params(seed):
        rng = np.random.default_rng(seed)
        n2 = 10.0 ** rng.uniform(-2.0, 3.0, (7, 1))
        # eta < 1, and eta n3 down to 1e-6
        return n2, 10.0 ** rng.uniform(-4.0, 0.5, (7, 1)), rng.uniform(-3.0, 3.0, (1, 3)), \
            rng.uniform(0.01, 1.0, (7, 1))

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_are_their_own_forms(self, seed):
        n2, n3, phi2, eta = self._params(seed)
        n3[-1, 0], eta[-1, 0] = 1e-290, 1e-7     # eta n3 = 1e-297, near the click check's edge
        (wa, wb), (qa, qb) = _heralded_forms(ConditionalParams(n2, n3, phi2, eta))
        assert wa.shape == wb.shape == (7, 3) and qa.shape == qb.shape == (7, 3, 4, 4)
        for i, k in np.ndindex(7, 3):
            p = ConditionalParams(float(n2[i, 0]), float(n3[i, 0]), float(phi2[0, k]),
                                  float(eta[i, 0]))
            (one_wa, one_wb), (one_qa, one_qb) = two_gaussian_form(p)
            assert (wa[i, k], wb[i, k]) == (one_wa, one_wb)
            assert qa[i, k].tobytes() == one_qa.tobytes()
            assert qb[i, k].tobytes() == one_qb.tobytes()

    def test_cached_scalar_entry_is_a_wrapper_of_the_batched_core(self):
        # the benchmark harness reads cache_info and clears every cache_clear
        two_gaussian_form.cache_clear()
        p = ConditionalParams(1.0, 0.5, 0.3, 0.8)
        first = two_gaussian_form(p)
        assert two_gaussian_form(ConditionalParams(1.0, 0.5, 0.3, 0.8)) is first
        assert two_gaussian_form.cache_info().hits == 1
        assert conditional.two_gaussian_form is two_gaussian_form
        core = _heralded_forms(ConditionalParams(np.array([1.0]), 0.5, 0.3, 0.8))
        assert [w[0] for w in core[0]] == list(first[0])
        assert all(q[0].tobytes() == one.tobytes() for q, one in zip(core[1], first[1]))

    def test_one_bad_row_rejects_the_batch(self):
        n2, n3, phi2, eta = self._params(0)
        n3[4, 0] = 0.0
        with pytest.raises(UndefinedStateError, match="n3 = 0"):
            _heralded_forms(ConditionalParams(n2, n3, phi2, eta))
        n3[4, 0], eta[4, 0] = 1e-300, 1e-7
        with pytest.raises(PrecisionError, match="overflow at eta = 1e-07, n3 = 1e-300"):
            _heralded_forms(ConditionalParams(n2, n3, phi2, eta))
        eta[4, 0] = 1.5
        with pytest.raises(InvalidParameterError, match="eta must lie"):
            ConditionalParams(n2, n3, phi2, eta)
