import json
import math
from pathlib import Path

import numpy as np
import pytest

from cvbell import cli, optim
from cvbell import (
    InvalidParameterError,
    b3_su21_closed,
    ghz_pi_coeffs,
    ghz_r_from_photons,
    klyshko_max,
    log_j_maximize,
    maximize_scalar,
    su21_pi_coeffs,
    twb_state,
)
from reference import asymptote_relations, scan_maximize


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
        res = log_j_maximize(lambda j: b3_su21_closed(1e4, j), 1e-9, 1e-2)
        assert res.max_value == pytest.approx(2.89, abs=0.01)

    def test_reports_convergence(self):
        res = maximize_scalar(lambda x: -((x - 1.0) ** 2), 0.0, 2.0, tol=1e-10)
        assert res.converged

    def test_refinement_never_below_coarse(self):
        f = lambda x: np.sin(5 * x) + 0.3 * x
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
            maximize_scalar(lambda x: np.full(x.shape, np.nan), 0.0, 1.0)

    def test_every_call_is_one_scan(self):
        sizes = []

        def f(x):
            sizes.append(x.shape)
            return -(x - 0.3) ** 2

        res = maximize_scalar(f, 0.0, 1.0, tol=1e-9)
        assert len(sizes) > 1
        assert set(sizes) == {(256,)}
        assert res.evaluations == 256 * len(sizes)
        assert res.converged

    def test_scans_once_when_tol_covers_the_bracket(self):
        f = lambda x: np.sin(5 * x)
        res = maximize_scalar(f, 0.0, 1.0, tol=2.0)
        xs = np.linspace(0.0, 1.0, 256)
        assert res.evaluations == 256
        assert res.converged
        assert res.max_value == np.max(f(xs))
        assert res.arg_max[0] == xs[np.argmax(f(xs))]

    def test_log_j_objective_takes_an_array(self):
        shapes = []

        def f(j):
            shapes.append(j.shape)
            return -(np.log(j) + 2.0) ** 2

        res = log_j_maximize(f, 1e-3, 1.0)
        assert set(shapes) == {(256,)}
        assert res.evaluations == 256 * len(shapes)
        assert res.arg_max[0] == pytest.approx(math.exp(-2.0), rel=1e-8)

    @pytest.mark.parametrize("objective", [
        lambda x: 0.5,
        lambda x: np.zeros(len(x) - 1),
        lambda x: np.zeros((len(x), 1)),
    ], ids=["scalar", "short", "column"])
    def test_one_value_per_point(self, objective):
        with pytest.raises(InvalidParameterError, match="one value per point"):
            maximize_scalar(objective, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_in_a_golden_step(self, bad):
        # finite on the first scan, not on the second: the later scans that
        # replaced golden-section steps are checked like the first
        calls = []

        def f(x):
            calls.append(x)
            vals = -(x - 0.3) ** 2
            if len(calls) > 1:
                vals[100] = bad
            return vals

        with pytest.raises(InvalidParameterError, match="non-finite"):
            maximize_scalar(f, 0.0, 1.0)
        assert len(calls) == 2

    def test_log_j_rejects_zero_lower_bound(self):
        with pytest.raises(InvalidParameterError, match="0 < j_lo < j_hi"):
            log_j_maximize(lambda j: -(math.log(j) + 2.0) ** 2, 0.0, 1.0)


def _brackets(seed, m):
    """m random brackets in [-3, 3], some tiny, with a tol per test below."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-3.0, 3.0, m)
    width = 10.0 ** rng.uniform(-13.0, 0.7, m)
    return lo, lo + width


def _bumpy(x, centres):
    """A different multi-peaked objective per row: centres[k] shifts row k."""
    return np.sin(7.0 * (x - centres)) - 0.2 * (x - centres) ** 2


class TestLockstepBrackets:
    """m brackets scanned in lockstep give each bracket's own result."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-13, 1e-300], ids=["default", "tiny", "below-spacing"])
    def test_each_row_is_its_own_call(self, tol):
        lo, hi = _brackets(3, 60)
        centres = np.random.default_rng(4).uniform(-3.0, 3.0, 60)
        calls = []

        def batched(x, rows):
            calls.append(rows.copy())
            return _bumpy(x, centres[rows, None])

        res = maximize_scalar(batched, lo, hi, tol=tol)
        singles = [maximize_scalar(lambda x, c=c: _bumpy(x, c), a, b, tol=tol)
                   for a, b, c in zip(lo.tolist(), hi.tolist(), centres.tolist())]
        assert res.arg_max.shape == res.max_value.shape == res.converged.shape == (60,)
        assert [float(x) for x in res.arg_max] == [one.arg_max[0] for one in singles]
        assert res.max_value.tolist() == [one.max_value for one in singles]
        assert res.converged.tolist() == [one.converged for one in singles]
        assert type(res.evaluations) is int
        assert res.evaluations == sum(one.evaluations for one in singles)
        # rows stop after different numbers of scans, and a stopped row is not evaluated again
        scans = {one.evaluations // 256 for one in singles}
        assert len(scans) > 1
        assert len(calls) == max(scans)
        assert [len(rows) for rows in calls] == [
            sum(one.evaluations > 256 * k for one in singles) for k in range(len(calls))]

    @pytest.mark.parametrize("tol", [1e-8, 1e-300], ids=["default", "below-spacing"])
    def test_rows_match_the_float_reference(self, tol):
        """Each bracket of one lockstep run, and each run of one bracket, is
        the plain-float scan of its own bracket in all four fields, with
        brackets of subnormal width and brackets that stop by rounding."""
        lo, hi = _brackets(5, 40)
        lo = np.concatenate([lo, [0.0, -1e-310, 1.0, 0.0]])
        hi = np.concatenate([hi, [5e-324, 1e-310, 1.0 + 2.0**-40, 1e-320]])
        centres = np.random.default_rng(6).uniform(-3.0, 3.0, lo.size)
        res = maximize_scalar(lambda x, rows: _bumpy(x, centres[rows, None]), lo, hi, tol=tol)
        refs = [scan_maximize(lambda x, c=c: _bumpy(x, c), a, b, tol)
                for a, b, c in zip(lo.tolist(), hi.tolist(), centres.tolist())]
        assert res.arg_max.tolist() == [r[0] for r in refs]
        assert res.max_value.tolist() == [r[1] for r in refs]
        assert res.evaluations == sum(r[2] for r in refs)
        assert type(res.evaluations) is int
        assert res.converged.tolist() == [r[3] for r in refs]
        if tol == 1e-300:   # the brackets of normal width stop by rounding
            assert not res.converged[:40].any() and res.converged[43]
        for k in (0, 40, 41, 43):       # one bracket, a float or an array of one
            ref = refs[k]
            f = lambda x, c=centres[k]: _bumpy(x, c)
            one = maximize_scalar(f, lo[k], hi[k], tol=tol)
            assert (one.arg_max.tolist(), one.max_value, one.evaluations, one.converged) == (
                [ref[0]], ref[1], ref[2], ref[3])
            assert type(one.max_value) is float and type(one.converged) is bool
            row = maximize_scalar(lambda x, rows: f(x), lo[k:k + 1], hi[k:k + 1], tol=tol)
            assert (row.arg_max.tolist(), row.max_value.tolist(), row.evaluations,
                    row.converged.tolist()) == ([ref[0]], [ref[1]], ref[2], [ref[3]])

    def test_log_j_rows_are_their_own_calls(self):
        j_lo = np.logspace(-9, -3, 8)
        centres = np.linspace(-8.0, -1.0, 8)
        res = log_j_maximize(lambda j, rows: -(np.log(j) - centres[rows, None]) ** 2, j_lo, 10.0)
        for k in range(8):
            one = log_j_maximize(lambda j: -(np.log(j) - centres[k]) ** 2, j_lo[k], 10.0)
            assert res.arg_max[k] == one.arg_max[0]
            assert res.max_value[k] == one.max_value
            assert res.converged[k] == one.converged

    def test_one_bracket_in_an_array(self):
        f = lambda x: -(x - 0.3) ** 2
        res = maximize_scalar(lambda x, rows: f(x), np.array([0.0]), np.array([1.0]))
        one = maximize_scalar(f, 0.0, 1.0)
        assert res.arg_max.tolist() == one.arg_max.tolist()
        assert res.max_value.tolist() == [one.max_value]
        assert res.evaluations == one.evaluations

    @pytest.mark.parametrize("seed", range(4))
    def test_scan_points_are_linspace(self, seed):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-1e3, 1e3, 50) * 10.0 ** rng.integers(-300, 300, 50)
        hi = lo + np.abs(lo) * 10.0 ** rng.uniform(-15.0, 1.0, 50) + 5e-324
        brackets = [*zip(lo.tolist(), hi.tolist()), (0.0, 5e-324), (0.0, 1e-320),
                    (-1e-310, 1e-310), (1.0, 1.0 + 2.0**-52)]
        # one call scans every bracket, normal and subnormal widths mixed
        rows = optim._scan_points(*map(np.array, zip(*brackets)), [b - a for a, b in brackets])
        for (a, b), xs in zip(brackets, rows):
            assert np.array_equal(xs, np.linspace(a, b, 256)), (a, b)

    @pytest.mark.parametrize("objective", [
        lambda x, rows: np.zeros((len(rows), 255)),
        lambda x, rows: np.zeros(x.shape[::-1]),
        lambda x, rows: x[0],
    ], ids=["short", "transposed", "one-row"])
    def test_wrong_shape_in_a_batch(self, objective):
        with pytest.raises(InvalidParameterError, match="one value per point"):
            maximize_scalar(objective, np.zeros(3), np.ones(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_in_any_row(self, bad):
        calls = []

        def f(x, rows):
            calls.append(rows)
            vals = -(x - 0.3) ** 2
            if len(calls) > 1:
                vals[-1, 100] = bad     # the last live row, on the second scan
            return vals

        with pytest.raises(InvalidParameterError, match="non-finite"):
            maximize_scalar(f, np.zeros(4), np.ones(4))
        assert len(calls) == 2

    @pytest.mark.parametrize("lo,hi", [
        (np.zeros(3), np.array([1.0, 0.0, 1.0])),
        (np.zeros(2), np.ones(3)),
        (np.zeros((2, 2)), np.ones((2, 2))),
        (np.zeros(0), np.zeros(0)),
    ], ids=["one-empty", "shapes", "two-d", "none"])
    def test_bad_brackets(self, lo, hi):
        with pytest.raises(InvalidParameterError, match="need lo"):
            maximize_scalar(lambda x, rows: x, lo, hi)

    def test_log_j_names_the_bad_bracket(self):
        with pytest.raises(InvalidParameterError, match=r"0 < j_lo < j_hi < inf, got 0\.0, 10\.0"):
            log_j_maximize(lambda j, rows: -j, np.array([1e-3, 0.0]), 10.0)
        with pytest.raises(InvalidParameterError, match="1-D arrays"):
            log_j_maximize(lambda j, rows: -j, np.full((2, 2), 1e-3), 10.0)


class TestKlyshko:
    @pytest.mark.parametrize("mags", [(math.nan, 0.0, 0.0), (0.5, 0.5)], ids=["nan", "two"])
    def test_bad_magnitudes(self, mags):
        with pytest.raises(InvalidParameterError, match="three finite magnitudes"):
            klyshko_max(mags)

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
        lambda tol: log_j_maximize(lambda j: -(math.log(j) + 2.0) ** 2, 1e-3, 1.0, tol=tol),
        lambda tol: cli._homodyne(twb_state(1.0), 0.0, tol),
    ], ids=["maximize_scalar", "log_j_maximize", "homodyne"])
    def test_rejected(self, run, tol, deadline):
        with deadline(10), pytest.raises(InvalidParameterError, match="tol must be finite"):
            run(tol)

    def test_tolerance_below_rounding_stops(self, deadline):
        with deadline(10):
            res = maximize_scalar(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, tol=1e-300)
            homodyne = cli._homodyne(twb_state(1.0), 0.0, 1e-300)
        assert res.arg_max[0] == pytest.approx(0.3, abs=1e-7)
        assert not res.converged
        assert homodyne["value"] == pytest.approx(
            cli._homodyne(twb_state(1.0), 0.0, 1e-8)["value"], abs=1e-12)
