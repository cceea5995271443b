import json
import math
from pathlib import Path

import numpy as np
import pytest

from cvbell import optim
from cvbell import (
    InvalidParameterError,
    asymptote_relations,
    b3_su21_closed,
    ghz_pi_coeffs,
    ghz_r_from_photons,
    klyshko_max,
    log_j_maximize,
    maximize_angles,
    maximize_scalar,
    su21_pi_coeffs,
)


def klyshko_sum(theta, g):
    """The Klyshko sum written out, independent of klyshko_max's derivatives."""
    def corr(a, b, c):
        return (np.cos(a) * np.cos(b) * np.cos(c)
                - g[0] * np.cos(a) * np.sin(b) * np.sin(c)
                - g[1] * np.sin(a) * np.cos(b) * np.sin(c)
                - g[2] * np.sin(a) * np.sin(b) * np.cos(c))

    t = theta
    return (corr(t[0], t[1], t[5]) + corr(t[0], t[4], t[2])
            + corr(t[3], t[1], t[2]) - corr(t[3], t[4], t[5]))


def bfgs_klyshko_max(g, starts=12, seed=0):
    """Best of BFGS runs on the Klyshko sum from seeded uniform starts."""
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    return max(-minimize(lambda t: -klyshko_sum(t, g), rng.uniform(0, 2 * np.pi, 6),
                         method="BFGS", options={"gtol": 1e-12}).fun
               for _ in range(starts))


# point-operator coefficient triples of the B3PS figure over N in [0.01, 100],
# including the GHZ (N >= 13.6) and su21 (N >= 46.4) cells whose grid start
# point is a saddle at B = 2
B3PS_TRIPLES = [
    pytest.param(coeffs(n).magnitudes(), id=f"{name}-N{n:g}")
    for n in (0.01, 0.1, 1.0, 5.0, 13.6, 46.4, 100.0)
    for name, coeffs in (("su21", su21_pi_coeffs),
                         ("ghz", lambda n: ghz_pi_coeffs(ghz_r_from_photons(n))))
]


# klyshko_max maxima recorded, as repr strings, from the pairwise max-tensor
# grid-32 start this package used before its 6^6 start grid: the 122 B3PS
# triples (N = 0.01..100, 61 per state, 20 of them grid saddles at B = 2), 40
# seeded uniform triples in [0, 1]^3 and 20 in [0.9, 1]^3
GRID32_SWEEP = [
    pytest.param(tuple(map(float, row["mags"])), float(row["max_value"]), id=row["id"])
    for row in json.loads((Path(__file__).parent / "data" / "klyshko_grid32.json").read_text())
]


class TestMaximizeScalar:
    def test_parabola(self):
        res = maximize_scalar(lambda x: -((x - 1.0) ** 2), 0.0, 2.0, tol=1e-10)
        assert res.arg_max[0] == pytest.approx(1.0, abs=1e-9)
        assert res.max_value == pytest.approx(0.0, abs=1e-10)

    def test_bell_objective(self):
        res = log_j_maximize(lambda j: b3_su21_closed(1e4, j).value, 1e-9, 1e-2)
        assert res.max_value == pytest.approx(2.89, abs=0.01)

    def test_reports_convergence(self):
        res = maximize_scalar(lambda x: -((x - 1.0) ** 2), 0.0, 2.0, tol=1e-10)
        assert res.converged

    def test_refinement_never_below_coarse(self):
        f = lambda x: math.sin(5 * x) + 0.3 * x
        coarse = max(f(x) for x in np.linspace(0, 3, 256))
        res = maximize_scalar(f, 0.0, 3.0, tol=1e-9)
        assert res.max_value >= coarse

    def test_deterministic(self):
        f = lambda x: -(x - 0.7) ** 4 + 0.2 * x
        a = maximize_scalar(f, 0.0, 2.0, tol=1e-9)
        b = maximize_scalar(f, 0.0, 2.0, tol=1e-9)
        assert a.arg_max[0] == b.arg_max[0]
        assert a.max_value == b.max_value
        assert a.evaluations == b.evaluations

    def test_invalid_bracket(self):
        with pytest.raises(InvalidParameterError):
            maximize_scalar(lambda x: x, 1.0, 1.0)

    def test_non_finite_objective(self):
        with pytest.raises(InvalidParameterError):
            maximize_scalar(lambda x: float("nan"), 0.0, 1.0)


class TestMaximizeAngles:
    def test_two_dimensional_product_cosine(self):
        def f(pts):
            return np.cos(pts[:, 0]) + np.cos(pts[:, 1] - 1.0)

        res = maximize_angles(f, dim=2, tol=1e-9)
        assert res.max_value == pytest.approx(2.0, abs=1e-8)

    def test_matches_dense_grid_three_dim(self):
        def f(pts):
            return (np.cos(pts[:, 0] + pts[:, 1]) * np.cos(pts[:, 2])
                    + 0.4 * np.sin(pts[:, 0]) * np.sin(pts[:, 2]))

        res = maximize_angles(f, dim=3, tol=1e-9)
        axis = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        dense = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                         axis=-1).reshape(-1, 3)
        assert res.max_value >= float(f(dense).max()) - 1e-4

    def test_convergence_flag(self):
        def f(pts):
            return (np.cos(pts[:, 0] + pts[:, 1]) * np.cos(pts[:, 2])
                    + 0.4 * np.sin(pts[:, 0]) * np.sin(pts[:, 2]))

        assert maximize_angles(f, dim=3, tol=1e-9).converged
        assert not maximize_angles(f, dim=3, tol=1e-9, max_passes=1).converged

    def test_dimension_guard(self):
        for dim in (0, 5, 7):
            with pytest.raises(InvalidParameterError):
                maximize_angles(lambda p: p[:, 0], dim=dim)


class TestKlyshko:
    def test_no_coefficients_bound_two(self):
        res = klyshko_max((0.0, 0.0, 0.0))
        assert res.max_value == pytest.approx(2.0, abs=1e-8)

    def test_unit_coefficients_bound_four(self):
        res = klyshko_max((1.0, 1.0, 1.0))
        assert res.max_value == pytest.approx(4.0, abs=1e-6)

    def test_angles_reproduce_value(self):
        g = (0.3, 0.55, 0.8)
        res = klyshko_max(g)
        t = res.arg_max

        def corr(a, b, c):
            return (math.cos(a) * math.cos(b) * math.cos(c)
                    - g[0] * math.cos(a) * math.sin(b) * math.sin(c)
                    - g[1] * math.sin(a) * math.cos(b) * math.sin(c)
                    - g[2] * math.sin(a) * math.sin(b) * math.cos(c))

        val = (corr(t[0], t[1], t[5]) + corr(t[0], t[4], t[2])
               + corr(t[3], t[1], t[2]) - corr(t[3], t[4], t[5]))
        assert val == pytest.approx(res.max_value, abs=1e-10)

    def test_matches_partial_dense_grid(self):
        """Pin one case against a dense 128^3 scan of the unprimed angles with
        the primed angles frozen at the refined optimum."""
        g = (0.5, 0.5, 0.5)
        res = klyshko_max(g)
        tp = res.arg_max[3:]
        axis = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        A, B, C = np.meshgrid(axis, axis, axis, indexing="ij")

        def corr(a, b, c):
            return (np.cos(a) * np.cos(b) * np.cos(c)
                    - g[0] * np.cos(a) * np.sin(b) * np.sin(c)
                    - g[1] * np.sin(a) * np.cos(b) * np.sin(c)
                    - g[2] * np.sin(a) * np.sin(b) * np.cos(c))

        bell = (corr(A, B, tp[2]) + corr(A, tp[1], C) + corr(tp[0], B, C)
                - corr(tp[0], tp[1], tp[2]))
        dense = float(bell.max())
        assert res.max_value >= dense - 1e-4
        assert res.max_value == pytest.approx(dense, abs=1e-3)

    def test_deterministic(self):
        a = klyshko_max((0.5, 0.5, 0.5))
        b = klyshko_max((0.5, 0.5, 0.5))
        assert np.array_equal(a.arg_max, b.arg_max)
        assert a.max_value == b.max_value

    @pytest.mark.parametrize("g", B3PS_TRIPLES)
    def test_matches_multistart_bfgs(self, g):
        res = klyshko_max(g)
        assert res.converged
        assert res.max_value == pytest.approx(bfgs_klyshko_max(g), abs=1e-10)
        assert klyshko_sum(res.arg_max, g) == pytest.approx(res.max_value, abs=1e-12)

    def test_escapes_saddle_at_two(self):
        """The 6^6 grid start point is a saddle at B = 2; the maximum is above it."""
        res = klyshko_max((0.03497065747255589,) * 3)
        assert res.converged
        assert res.max_value == pytest.approx(2.003592395997792, abs=1e-10)

    @pytest.mark.parametrize("g,reference", GRID32_SWEEP)
    def test_matches_grid32_sweep(self, g, reference):
        res = klyshko_max(g)
        assert res.converged
        assert res.max_value == pytest.approx(reference, abs=1e-12)

    def test_evaluations_count_scan_and_refinement(self, monkeypatch):
        calls = []
        derivatives = optim._klyshko_derivatives

        def counted(*args):
            calls.append(args)
            return derivatives(*args)

        monkeypatch.setattr(optim, "_klyshko_derivatives", counted)
        res = klyshko_max((0.4, 0.6, 0.2))
        assert calls
        assert res.evaluations == 6**3 + 6**6 + len(calls)


class TestAsymptoteRelations:
    def test_all_relations_within_tolerance(self):
        rows = asymptote_relations()
        by_name = {r["name"]: r for r in rows}
        assert abs(by_name["ghz_dp_j"]["ratio"] - 1.0) < 0.10
        assert abs(by_name["twb_dp_exp2r_j"]["ratio"] - 1.0) < 0.10
        assert abs(by_name["su21_opt_dp_jn"]["ratio"] - 1.0) < 0.15
        assert abs(by_name["conditional_dp_jn2"]["ratio"] - 1.0) < 0.15


class TestToleranceDomain:
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("run", [
        lambda tol: maximize_scalar(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, tol=tol),
        lambda tol: maximize_angles(lambda t: np.cos(t[:, 0]), dim=1, tol=tol),
        lambda tol: log_j_maximize(lambda j: -(math.log(j) + 2.0) ** 2, 1e-3, 1.0, tol=tol),
    ], ids=["maximize_scalar", "maximize_angles", "log_j_maximize"])
    def test_rejected(self, run, tol, deadline):
        with deadline(10), pytest.raises(InvalidParameterError, match="tol must be finite"):
            run(tol)

    def test_tolerance_below_rounding_stops(self, deadline):
        with deadline(10):
            res = maximize_scalar(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, tol=1e-300)
            angles = maximize_angles(lambda t: np.cos(t[:, 0] - 1.0), dim=1, tol=1e-300)
        assert res.arg_max[0] == pytest.approx(0.3, abs=1e-7)
        assert angles.arg_max[0] == pytest.approx(1.0, abs=1e-7)
        assert not res.converged and not angles.converged
