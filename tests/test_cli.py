import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cvbell import (ConditionalParams, DpRates, DpSettings, TripartitePhotonNumbers,
                    b3_su21_closed, chsh_h, conditional_dp_settings, ghz_state, log_j_maximize,
                    su21_state, twb_dp_settings, twb_state)
from cvbell import bell_ps, cli, gaussian
from cvbell.cli import FIGURE_IDS, UsageError, _PAIRS, main, run_figure, run_point, validate

ROOT = Path(__file__).resolve().parents[1]

# Four-angle homodyne CHSH maxima, as repr strings: the 56 homodyne queries of
# perfbench/ref/points.json and 19 corner states, maximized by the 12^4-grid
# plus coordinate golden-section search this package used before its
# one-angle reduction, run on the cancellation-free heralded correlator
HOMODYNE_4D = [
    pytest.param(row["argv"], row["eta_n3"], float(row["max_value"]), id=row["id"])
    for row in json.loads((ROOT / "tests" / "data" / "homodyne_4d.json").read_text())
]
# the argv of each query in the benchmark's pool
POOL = [e["argv"] for e in json.loads((ROOT / "perfbench" / "ref" / "points.json").read_text())]


class TestFigures:
    @pytest.mark.parametrize("figure_id", ["B3DPN", "B2PS", "E2H"])
    def test_writes_table_with_headers(self, figure_id, tmp_path):
        out = tmp_path / f"{figure_id}.csv"
        assert run_figure(figure_id, str(out)) == 0
        lines = out.read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        data = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(data) > 10
        if figure_id == "B2PS":
            assert header == "n,f_twb,f_1,f_tr"
        if figure_id == "E2H":
            assert header == "psi,e_classical,e_n2_0.5,e_n2_1,e_n2_5"
        if figure_id == "B3DPN":
            assert header.startswith("n,b3_dp_ghz_opt,b3_dp_su21_opt")

    def test_byte_stable(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_figure("E2H", str(a))
        run_figure("E2H", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "t.json"
        assert run_figure("B2PS", str(out), fmt="json") == 0
        rec = json.loads(out.read_text().splitlines()[0])
        assert set(rec) == {"n", "f_twb", "f_1", "f_tr"}

    def test_unknown_id_is_usage_error(self, tmp_path):
        assert main(["figure", "NOPE"]) == 2

    def test_unwritable_path_is_io_error(self):
        assert run_figure("B2PS", "/nonexistent-dir/x.csv") == 3

    def test_b3dpn_rows_are_point_maxima(self, capsys, monkeypatch):
        """One lockstep maximization per state gives each row the value
        ``point --test dp3 --optimize`` prints at its N."""
        calls = []
        maximize = cli.optim.log_j_maximize
        monkeypatch.setattr(cli.optim, "log_j_maximize",
                            lambda *args, **kw: calls.append(args[1]) or maximize(*args, **kw))
        _, _, rows = cli._FIGURES["B3DPN"]()
        assert [np.shape(j_lo) for j_lo in calls] == [(71,), (71,)]
        monkeypatch.undo()
        checked = [rows[k] for k in (0, 9, 28, 47, 61, 70)]
        assert checked[0][0] == pytest.approx(1e-2) and checked[-1][0] == pytest.approx(1e5)
        for n, *values in checked:
            for state, value in zip(("ghz", "su21"), values):
                argv = ["point", "--state", state, "--test", "dp3", "--n", repr(float(n)),
                        "--optimize"]
                assert main(argv) == 0
                assert json.loads(capsys.readouterr().out)["value"] == value, (state, n)

    @pytest.mark.parametrize("figure_id,rows,shapes", [
        ("B3DPT", 33, {"inv": [(33, 1, 6, 6)], "cholesky": [(33, 1, 6, 6)],
                       "det": [(33, 1, 6, 6)], "svd": [(33, 1, 6, 6)], "cond": []}),
        ("B2DPTWBA", 25, {"inv": [(25, 1, 4, 4), (25, 1, 6, 6)], "cholesky": [(25, 1, 6, 6)],
                          "det": [(25, 1, 4, 4), (25, 1, 6, 6)],
                          "svd": [(25, 1, 4, 4), (25, 1, 6, 6)], "cond": []}),
    ])
    def test_dp_rows_factor_every_state_in_one_stacked_call(self, figure_id, rows, shapes,
                                                            monkeypatch):
        """Each state of the column is one row of one stacked LAPACK call per
        check, determinant and inverse, not one call per state: one Cholesky,
        at construction, and one SVD per condition check."""
        calls = {name: [] for name in shapes}
        for name in shapes:
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda m, fn=fn, name=name, **kw: (
                calls[name].append(np.shape(m)) or fn(m, **kw)))
        cli.conditional.two_gaussian_form.cache_clear()
        _, _, table = cli._FIGURES[figure_id]()
        assert calls == shapes
        assert isinstance(table, np.ndarray) and table.shape == (rows * 33, 3)

    def test_b3dpn_scans_each_state_in_one_call_per_scan(self, monkeypatch):
        """Each state's 71 brackets share one objective call per scan."""
        runs = []
        maximize = cli.optim.maximize_scalar

        def counted(f, lo, hi, tol):
            rows = []
            res = maximize(lambda x, live: rows.append(len(live)) or f(x, live), lo, hi, tol)
            runs.append((rows, res.evaluations))
            return res

        monkeypatch.setattr(cli.optim, "maximize_scalar", counted)
        cli._FIGURES["B3DPN"]()
        assert len(runs) == 2
        for rows, evaluations in runs:
            assert rows[0] == 71 and len(rows) <= 8
            assert rows == sorted(rows, reverse=True)
            assert 256 * sum(rows) == evaluations

    def test_b2ps_curve_ordering(self, tmp_path):
        out = tmp_path / "B2PS.csv"
        run_figure("B2PS", str(out))
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        for _, f_twb, f_1, f_tr in rows:
            assert float(f_1) >= float(f_tr) - 1e-12


class TestTopOfTheFloatRange:
    """Queries at the top of the float range, with every RuntimeWarning an
    error: a huge finite J prints the limit value, and a state past the range
    is a library error (exit 4) that prints nothing to stdout, where LAPACK
    once printed its DLASCL message."""

    @pytest.mark.parametrize("argv", [
        ["--state", "twb", "--test", "dp2", "--n", "1", "--j", "1e308"],
        ["--state", "conditional", "--test", "dp2", "--n2", "1", "--n3", "0.5", "--j", "1e308"],
        ["--state", "ghz", "--test", "dp3", "--r", "1", "--j", "1e308"],
        ["--state", "ghz", "--test", "dp3", "--r", "0", "--j", "1.7e308"],
    ], ids=" ".join)
    def test_huge_j_is_the_limit(self, argv, capfd):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["point", *argv]) == 0
        assert json.loads(capfd.readouterr().out)["value"] == 0.0

    @pytest.mark.parametrize("argv,message", [
        (["--state", "twb", "--test", "dp2", "--n", "1e308", "--j", "0.1"], "positive definite"),
        (["--state", "twb", "--test", "homodyne", "--n", "1e308"], "positive definite"),
        (["--state", "conditional", "--test", "dp2", "--n2", "1e200", "--n3", "0.5",
          "--j", "0.1"], "non-finite entries"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_state_past_the_range_is_a_library_error(self, argv, message, capfd):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["point", *argv]) == 4
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("error: InvalidParameterError: covariance") and message in err


class TestPoint:
    def test_su21_dp3_optimized(self, capsys):
        assert run_point("su21", "dp3", n=10000.0, optimize=True) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["value"] == pytest.approx(2.89, abs=0.01)

    @pytest.mark.parametrize("n", ["1e10", "1e12", "1e200", "1e300", "1e307", "1.7e308"])
    def test_su21_dp3_optimum_below_1e_minus_9(self, n, capsys):
        """The optimum J = 0.1654/N lies below 1e-9 here; a scan from a fixed
        1e-9 printed 0.8805 at N = 1e10 and 1.1e-37 at N = 1e12.  Above
        N = 1.3e154, N (2 + N) overflowed and every J's value was non-finite;
        at N = 1e307 the J = 10 exponent overflowed (a RuntimeWarning, an error
        in this suite), and at N = 1.7e308 3N did, making the value NaN."""
        assert main(["point", "--state", "su21", "--test", "dp3", "--n", n, "--optimize"]) == 0
        rec = json.loads(capsys.readouterr().out)
        dense = np.max(b3_su21_closed(float(n), np.logspace(-3, 0, 3001) / float(n)))
        assert rec["value"] >= max(dense - 1e-12, 2.89549591)
        assert rec["j_opt"] * float(n) == pytest.approx(0.1654, rel=1e-3)

    def test_twb_ps2_vacuum(self, capsys):
        assert run_point("twb", "ps2", n=0.0) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["value"] == pytest.approx(2.0)

    @pytest.mark.parametrize("argv", [["--n", "1e155"], ["--n", "1.7e308"],
                                      ["--grid", "0:1e308:2"]], ids=" ".join)
    def test_twb_ps2_past_the_square_overflow(self, argv, capsys):
        # N (N + 2) overflows above N = 1.3e154; f is 1 there, to a float
        assert main(["point", "--state", "twb", "--test", "ps2", *argv]) == 0
        rec = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert 1.0 - 2.0**-53 <= rec["f"] <= 1.0
        assert rec["value"] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)

    def test_conditional_homodyne_below_two(self, capsys):
        assert run_point("conditional", "homodyne", n2=1.0, n3=0.5, eta=1.0) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["value"] <= 2.0

    def test_sweep_emits_one_record_per_point(self, capsys):
        assert run_point("twb", "ps2", n=1.0, grid=(0.0, 4.0, 5)) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert json.loads(lines[0])["value"] == pytest.approx(2.0)

    def test_invalid_combination(self):
        with pytest.raises(UsageError):
            validate("twb", "dp3", {"n": 1.0, "j": 0.1})

    def test_unread_flags_are_named_in_flag_order(self, capsys):
        """The namespace holds only the given flags, in command-line order; the
        message lists the unread ones in flag order, then any keyword that
        names no flag."""
        assert main(["point", "--state", "twb", "--test", "ps2", "--tol", "0.1", "--j", "0.1",
                     "--n", "1"]) == 2
        assert capsys.readouterr().err == "usage error: twb ps2 does not read --j, --tol\n"
        with pytest.raises(UsageError, match="does not read --j, --bogus$"):
            validate("twb", "ps2", {"bogus": 1.0, "j": 0.1, "n": 1.0})

    def test_main_maps_usage_error_to_exit_2(self):
        assert main(["point", "--state", "twb", "--test", "dp3", "--n", "1"]) == 2

    def test_missing_j_for_dp(self):
        with pytest.raises(UsageError):
            validate("twb", "dp2", {"n": 1.0})

    # values printed by the per-correlator scalar loop this batched path replaced
    @pytest.mark.parametrize("argv,value", [
        (["--state", "twb", "--n", "2"], 1.8582362175901606),
        (["--state", "conditional", "--n2", "1", "--n3", "0.5", "--eta", "1"],
         1.8307866780542155),
        (["--state", "conditional", "--n2", "0.7", "--n3", "0.2", "--eta", "0.6",
          "--phi2", "0.3"], 1.7755307279500596),
    ])
    def test_homodyne_values_pinned(self, argv, value, capsys):
        assert main(["point", "--test", "homodyne", *argv]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["value"] == pytest.approx(value, abs=1e-12)
        assert len(rec["settings"]) == 4

    @pytest.mark.parametrize("argv,eta_n3,reference", HOMODYNE_4D)
    def test_homodyne_matches_four_angle_search(self, argv, eta_n3, reference, capsys):
        assert main(["point", "--test", "homodyne", *argv]) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        tol = 1e-10 if eta_n3 is not None and eta_n3 < 1e-5 else 1e-12
        assert value == pytest.approx(reference, abs=tol)
        assert value <= 2.0 + 1e-12

    @pytest.mark.parametrize("argv,target", [
        (["--state", "twb", "--n", "2"], twb_state(2.0)),
        (["--state", "conditional", "--n2", "0.7", "--n3", "0.2", "--eta", "0.6", "--phi2", "0.3"],
         ConditionalParams(0.7, 0.2, phi2=0.3, eta=0.6)),
    ], ids=["twb", "conditional"])
    def test_homodyne_settings_reproduce_value(self, argv, target, capsys):
        assert main(["point", "--test", "homodyne", *argv]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert chsh_h(target, [rec["settings"]])[0] == pytest.approx(rec["value"], abs=1e-15)

    @pytest.mark.parametrize("argv", [a for a in POOL if "homodyne" in a], ids=" ".join)
    def test_pool_homodyne_settings_in_the_half_range(self, argv, capsys):
        # E(pi - psi) = -E(psi): the scan over d in [0, pi/2] holds each peak once
        assert main(argv) == 0
        rec = json.loads(capsys.readouterr().out)
        p = rec["params"]
        target = (twb_state(p["n"]) if rec["state"] == "twb"
                  else ConditionalParams(p["n2"], p["n3"], phi2=p["phi2"], eta=p["eta"]))
        assert 0.0 <= rec["settings"][1] / 2 <= math.pi / 2
        assert chsh_h(target, [rec["settings"]])[0] == pytest.approx(rec["value"], abs=1e-15)

    # values printed by the per-correlator loop this stacked path replaced
    @pytest.mark.parametrize("argv,value", [
        (["--state", "twb", "--n", "2"], 2.297248665435837),
        (["--state", "conditional", "--n2", "1", "--n3", "0.5"], 1.1465409549315868),
        (["--state", "conditional", "--n2", "1", "--n3", "0.5", "--phi2", "0.9"],
         1.0000583085679176),
    ])
    def test_dp2_optimized_values_pinned(self, argv, value, capsys):
        assert main(["point", "--test", "dp2", "--optimize", *argv]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["value"] == pytest.approx(value, abs=1e-12)
        assert rec["evaluations"] == 1280     # five 256-point scans

    def test_twb_needs_n(self, capsys):
        with pytest.raises(UsageError, match="--n"):
            validate("twb", "dp2", {"n2": 1.0, "j": 0.1})
        assert main(["point", "--state", "twb", "--test", "dp2", "--n2", "1", "--j", "0.1"]) == 2
        assert "usage error" in capsys.readouterr().err


class TestGridSweep:
    """``--grid`` builds its sweep one step at a time, each step as np.linspace."""

    @pytest.mark.parametrize("argv", [a for a in POOL if "--grid" in a], ids=" ".join)
    def test_pool_sweep_is_its_steps_one_by_one(self, argv, capsys):
        i = argv.index("--grid")
        lo, hi, steps = argv[i + 1].split(":")
        sweep = _PAIRS[argv[argv.index("--state") + 1], argv[argv.index("--test") + 1]]
        flag = sweep.groups[0][0][0]
        assert main(argv) == 0
        swept = capsys.readouterr().out
        for v in np.linspace(float(lo), float(hi), int(steps)).tolist():
            assert main([*argv[:i], *argv[i + 2:], f"--{flag}", repr(v)]) == 0
        assert swept == capsys.readouterr().out

    @pytest.mark.parametrize("lo,hi,steps", [
        (0.1, 1.0, 1), (0.1, 1.0, 2), (2.0, -3.0, 2), (-0.0, 0.0, 1), (-0.0, -0.0, 3),
        (0.0, 5e-324, 3), (0.0, 2e-323, 101), (1e-310, 1e-310 + 2e-323, 7),  # subnormal widths
    ])
    def test_steps_are_linspace_bit_for_bit(self, lo, hi, steps):
        assert (np.array(list(cli._linspace(lo, hi, steps))).tobytes()
                == np.linspace(lo, hi, steps).tobytes())

    def test_random_grids_are_linspace_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for lo, hi, steps in zip(rng.uniform(-10, 10, 500), rng.uniform(-10, 10, 500),
                                 rng.integers(1, 100, 500).tolist()):
            assert (np.array(list(cli._linspace(lo, hi, steps))).tobytes()
                    == np.linspace(lo, hi, steps).tobytes()), (lo, hi, steps)

    def test_huge_step_count_streams_without_an_array(self, monkeypatch):
        class Enough(Exception):
            pass

        class ThreeRecords(io.StringIO):
            def write(self, text):
                n = super().write(text)
                if self.getvalue().count("\n") == 3:
                    raise Enough
                return n

        def no_array(*args, **kwargs):
            raise AssertionError("the sweep built an array")

        out = ThreeRecords()
        monkeypatch.setattr(np, "linspace", no_array)
        monkeypatch.setattr(sys, "stdout", out)
        with pytest.raises(Enough):
            main(["point", "--state", "twb", "--test", "ps2", "--grid", "0.1:1:1000000000000"])
        step = 0.9 / (10**12 - 1)
        assert [json.loads(line)["params"]["n"] for line in out.getvalue().splitlines()] == [
            k * step + 0.1 for k in range(3)]


class TestDp2RateForm:
    """``twb dp2`` and ``conditional dp2`` evaluate every J through the state's
    rate form; ``--j`` and ``--optimize`` share that one value function."""

    # pool-like states: twin beams across six decades, heralded states of every
    # regime in perfbench/ref/points.json, and one with a mode-2 phase
    CASES = [
        pytest.param(["--state", "twb", "--n", n], twb_state(float(n)), twb_dp_settings,
                     id=f"twb-{n}") for n in ("0.00148892", "0.978597", "207.212", "6631.85")
    ] + [
        pytest.param(["--state", "conditional", "--n2", n2, "--n3", n3, "--phi2", phi2,
                      "--eta", eta],
                     ConditionalParams(float(n2), float(n3), float(phi2), float(eta)),
                     conditional_dp_settings, id=f"conditional-{n2}-{n3}")
        for n2, n3, phi2, eta in (("0.0126824", "0.0152597", "0", "0.936991"),
                                  ("0.829307", "1.31223", "0", "0.85117"),
                                  ("806.355", "0.134486", "0", "0.534644"),
                                  ("1", "0.5", "0.9", "1"))
    ]

    @staticmethod
    def _record(argv, capsys) -> dict:
        assert main(["point", "--test", "dp2", *argv]) == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("argv,target,family", CASES)
    def test_j_reproduces_the_optimized_value(self, argv, target, family, capsys):
        best = self._record([*argv, "--optimize"], capsys)
        at = self._record([*argv, "--j", repr(best["j_opt"])], capsys)
        assert at["value"] == best["value"]

    @pytest.mark.parametrize("argv,target,family", CASES)
    def test_matches_the_explicit_settings_scan(self, argv, target, family, capsys):
        best = self._record([*argv, "--optimize"], capsys)
        old = log_j_maximize(lambda j: DpRates(target, family(j)).bell(), 1e-9, 10.0)
        assert best["value"] == pytest.approx(old.max_value, abs=1e-12)
        assert best["evaluations"] == old.evaluations


class TestCheckedOnce:
    """A dp2 or homodyne point query checks its input and its value once, at
    its boundary, while its scans evaluate bare cores; each covariance is
    factored once."""

    DP2 = [["--state", "twb", "--n", "1"],
           ["--state", "conditional", "--n2", "1", "--n3", "0.5", "--phi2", "0.7", "--eta", "0.8"]]

    @pytest.mark.parametrize("argv", DP2, ids=" ".join)
    def test_the_maximum_is_checked_against_the_bound(self, argv, monkeypatch, capsys):
        gaussians = cli.bell_dp._gaussians
        # a rate form four times too large: its maximum is past 2 sqrt 2
        monkeypatch.setattr(cli.bell_dp, "_gaussians", lambda target, alphas: (
            lambda scale, weights, exponents: (4.0 * scale, weights, exponents))(
                *gaussians(target, alphas)))
        assert main(["point", "--test", "dp2", *argv, "--optimize"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: InvalidParameterError: |B| = ")
        assert "exceeds the 2-party quantum bound" in captured.err

    @pytest.mark.parametrize("j", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("argv", DP2, ids=" ".join)
    def test_j_is_checked_at_the_boundary(self, argv, j, capsys):
        assert main(["point", "--test", "dp2", *argv, "--j", j]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: InvalidParameterError: J must be finite and >= 0")

    @pytest.mark.parametrize("mode", [["--j", "0.1"], ["--optimize"]], ids=" ".join)
    @pytest.mark.parametrize("n3,eta", [("1", "1e-200"), ("1e10", "1e-310")], ids=" ".join)
    def test_condition_guard_when_a_singular_value_underflows(self, n3, eta, mode, capfd):
        """D's smallest singular value is 0 at eta = 1e-200: the ratio is inf,
        formed with no divide warning, and the guard names it.  At a subnormal
        eta the broadening is inf and every singular value NaN, a NaN ratio
        that the guard names inf, as ``np.linalg.cond`` does."""
        argv = ["point", "--state", "conditional", "--test", "dp2", "--n2", "1", "--n3", n3,
                "--eta", eta, *mode]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 4
        out, err = capfd.readouterr()
        assert out == ""
        assert err == "error: ConditioningError: covariance condition number inf exceeds guard 1e+12\n"

    @pytest.mark.parametrize("argv,counts", [
        (DP2[0], {"cholesky": 1, "svd": 1, "cond": 0}),
        (DP2[1], {"cholesky": 1, "svd": 2, "cond": 0}),
    ], ids=["twb", "conditional"])
    def test_factorizations_per_query(self, argv, counts, monkeypatch, capsys):
        """One ``--optimize`` query: one Cholesky, of the state's construction,
        and one SVD per condition check (the heralded form checks V' and D)."""
        calls = dict.fromkeys(counts, 0)
        for name in counts:
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda m, fn=fn, name=name, **kw: (
                calls.__setitem__(name, calls[name] + 1) or fn(m, **kw)))
        cli.conditional.two_gaussian_form.cache_clear()
        assert main(["point", "--test", "dp2", *argv, "--optimize"]) == 0
        assert json.loads(capsys.readouterr().out)["evaluations"] > 0
        assert calls == counts


class TestLibraryErrors:
    @pytest.mark.parametrize("argv,kind", [
        (["--state", "twb", "--test", "ps2", "--n", "-1"], "InvalidParameterError"),
        (["--state", "conditional", "--test", "ps2", "--n2", "1"], "UsageError"),
        (["--state", "conditional", "--test", "homodyne", "--n2", "1", "--n3", "0"],
         "UndefinedStateError"),
        (["--state", "twb", "--test", "homodyne", "--n", "1e8"], "InvalidParameterError"),
    ])
    def test_maps_to_exit_4(self, argv, kind, capsys):
        # the heralded state has no default --n3, so leaving it out is a usage
        # error (exit 2) before any library call
        usage = kind == "UsageError"
        assert main(["point", *argv]) == (2 if usage else 4)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "usage error: conditional ps2 needs --n3" if usage else f"error: {kind}: ")

    @pytest.mark.parametrize("argv", [
        ["--state", "twb", "--test", "ps2", "--n", "nan"],
        ["--state", "twb", "--test", "ps2", "--n", "inf"],
        ["--state", "ghz", "--test", "ps3", "--n", "nan"],
        ["--state", "ghz", "--test", "dp3", "--n", "inf", "--j", "0.1"],
    ], ids=" ".join)
    def test_non_finite_photon_number_is_named(self, argv, capsys):
        assert main(["point", *argv]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: InvalidParameterError: photon number must be finite")

    @pytest.mark.parametrize("clickless", [["--n3", "0"], ["--eta", "0"]], ids=" ".join)
    @pytest.mark.parametrize("test", [["dp2", "--j", "0.1"], ["ps2"], ["homodyne"]], ids=" ".join)
    def test_clickless_heralded_state_is_undefined(self, test, clickless, capsys):
        """Every test of the heralded state reports a detector that cannot click
        the same way."""
        n3 = [] if "--n3" in clickless else ["--n3", "0.5"]
        argv = ["point", "--state", "conditional", "--test", *test, "--n2", "1", *n3, *clickless]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: UndefinedStateError: ")

    @pytest.mark.parametrize("argv", [
        ["--state", "twb", "--test", "dp2", "--n", "1", "--optimize", "--tol", "0"],
        ["--state", "twb", "--test", "homodyne", "--n", "1", "--tol", "-1"],
        ["--state", "twb", "--test", "dp2", "--n", "1", "--optimize", "--tol", "nan"],
        ["--state", "conditional", "--test", "dp2", "--n2", "1", "--n3", "0.1", "--j", "-1"],
        ["--state", "twb", "--test", "dp2", "--n", "1", "--j", "-1"],
        ["--state", "twb", "--test", "dp2", "--n", "1", "--j", "nan"],
        ["--state", "ghz", "--test", "dp3", "--r", "1", "--j", "nan"],
        ["--state", "ghz", "--test", "dp3", "--r", "1", "--j", "inf"],
        ["--state", "ghz", "--test", "dp3", "--r", "nan", "--j", "0.1"],
        ["--state", "su21", "--test", "dp3", "--n", "inf", "--j", "0.1"],
        ["--state", "su21", "--test", "ps3", "--n", "inf"],
        ["--state", "su21", "--test", "ps3", "--n", "nan"],
        ["--state", "su21", "--test", "ps3", "--n2", "inf", "--n3", "1"],
        ["--state", "ghz", "--test", "ps3", "--r", "inf"],
    ], ids=" ".join)
    def test_bad_tol_or_j_exits_4(self, argv, deadline, capsys):
        with deadline(30):
            assert main(["point", *argv]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: InvalidParameterError: ")

    @pytest.mark.parametrize("argv", [
        ["--r", "400", "--j", "0.1"], ["--r", "400", "--optimize"], ["--r", "355", "--j", "0"],
    ], ids=" ".join)
    def test_ghz_dp3_huge_squeezing_exits_0(self, argv, capsys):
        assert main(["point", "--state", "ghz", "--test", "dp3", *argv]) == 0
        assert 2.0 <= json.loads(capsys.readouterr().out)["value"] <= 3.0

    @pytest.mark.parametrize("argv", [["--r", "178"], ["--n", "1e300"]], ids=" ".join)
    def test_ghz_ps3_huge_squeezing_exits_0(self, argv, capsys):
        assert main(["point", "--state", "ghz", "--test", "ps3", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 2.0

    def test_ill_conditioned_twb_dp2(self, capsys):
        assert main(["point", "--state", "twb", "--test", "dp2", "--n", "1e6", "--optimize"]) == 4
        assert capsys.readouterr().err == (
            "error: ConditioningError: covariance condition number 3.999e+12 "
            "exceeds guard 1e+12\n")

    @pytest.mark.parametrize("n2", ["1e8", "1e10"])
    def test_ill_conditioned_conditional_dp2(self, n2, capsys):
        argv = ["point", "--state", "conditional", "--test", "dp2", "--n2", n2, "--n3", "0.5"]
        assert main([*argv, "--optimize"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ConditioningError: covariance condition number ")

    @pytest.mark.parametrize("n2", ["0", "1e8"])
    def test_conditional_homodyne_at_any_n2_exits_0(self, n2, capsys):
        argv = ["point", "--state", "conditional", "--test", "homodyne", "--n2", n2, "--n3", "0.5"]
        assert main(argv) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        # mode 2 is vacuum at n2 = 0; at large n2 the correlator nears the
        # classical sawtooth, whose CHSH maximum is 2
        assert value == 0.0 if n2 == "0" else 2.0 - 1e-6 < value <= 2.0 + 1e-12

    @pytest.mark.parametrize("argv", [
        ["--state", "su21", "--test", "ps3", "--n2", "250", "--n3", "250"],
        ["--state", "su21", "--test", "ps3", "--n2", "500", "--n3", "500"],
        ["--state", "su21", "--test", "ps3", "--n", "8e6"],
        ["--state", "su21", "--test", "ps3", "--n2", "1", "--n3", "0"],
        ["--state", "conditional", "--test", "ps2", "--n2", "1e6", "--n3", "0.1"],
    ], ids=" ".join)
    def test_pseudospin_inside_checked_range_exits_0(self, argv, capsys):
        assert main(["point", *argv]) == 0
        assert 2.0 <= json.loads(capsys.readouterr().out)["value"] <= 2 * math.sqrt(2) + 1e-9

    @pytest.mark.parametrize("argv", [
        ["--state", "su21", "--test", "ps3", "--n2", "2e6", "--n3", "2.000001e6"],
        ["--state", "su21", "--test", "ps3", "--n", "8.000004e6"],
        ["--state", "conditional", "--test", "ps2", "--n2", "4e6", "--n3", "0.1"],
    ], ids=" ".join)
    def test_pseudospin_above_checked_range_exits_4(self, argv, capsys):
        assert main(["point", *argv]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: PrecisionError: n2 + n3 = 400000")
        assert "is above 4e+06" in captured.err

    @pytest.mark.parametrize("argv", [
        ["--state", "su21", "--test", "ps3", "--n", "1e200"],
        ["--state", "conditional", "--test", "ps2", "--n2", "1e300", "--n3", "1e300"],
    ], ids=" ".join)
    def test_pseudospin_far_above_checked_range_exits_4(self, argv, capsys):
        # the range is checked before any prefactor, which overflows or underflows here
        assert main(["point", *argv]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: PrecisionError: n2 + n3 = ")
        assert "is above 4e+06" in captured.err

    @pytest.mark.parametrize("argv", [
        ["--test", "ps2", "--n3", "5e-324"],
        ["--test", "dp2", "--j", "0.1", "--n3", "5e-324"],
        ["--test", "ps2", "--n3", "1e-300"],
        ["--test", "homodyne", "--n3", "5e-324"],
    ], ids=" ".join)
    def test_click_product_below_the_normal_range_exits_4(self, argv, capsys):
        # eta n3 underflows to 0 or a subnormal, which the heralded prefactors divide by
        assert main(["point", "--state", "conditional", "--n2", "1", "--eta", "1e-10", *argv]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: PrecisionError: eta * n3 = ")

    @pytest.mark.parametrize("argv", [["--j", "0.1"], ["--optimize"]], ids=" ".join)
    def test_heralded_weight_overflow_exits_4(self, argv, capsys):
        # eta n3 = 1e-307 is a normal float, but w_b = pref / eta is past the largest
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["point", "--state", "conditional", "--test", "dp2", "--n2", "1",
                         "--n3", "1e-300", "--eta", "1e-7", *argv]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: PrecisionError: the heralded Gaussian weights")
        assert "overflow" in captured.err

    @pytest.mark.parametrize("argv", [
        ["--state", "conditional", "--test", "dp2", "--n2", "1", "--j", "0.1"],
        ["--state", "conditional", "--test", "ps2", "--n2", "1", "--eta", "0.5"],
        ["--state", "conditional", "--test", "homodyne", "--n2", "1"],
        ["--state", "su21", "--test", "ps3", "--n2", "1"],
    ], ids=" ".join)
    def test_missing_n3_is_usage_error(self, argv, capsys):
        # --n3 has no default: at n3 = 0 the heralded state does not exist
        assert main(["point", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ") and "needs --n3" in captured.err


def _verify_rows(out: str) -> dict:
    """name -> (status, value, bound) of each row of ``verify`` stdout; a row that
    failed with a library error has its message as the value and no bound."""
    rows = {}
    for line in out.splitlines():
        m = re.fullmatch(r"\[(PASS|FAIL)\] (.+?)  +(\S+)  bound (\S+)", line) or re.fullmatch(
            r"\[(FAIL)\] (.+?)  +(\w+Error: .*)()", line)
        if m:
            rows[m[2]] = (m[1], m[3], m[4])
    return rows


class TestVerify:
    def test_fresh_run_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        rows = _verify_rows(out)
        assert len(rows) == 17 and {status for status, _, _ in rows.values()} == {"PASS"}
        assert rows["homodyne CHSH over 1e4 random settings"][1:] == ("1.919982e+00",
                                                                      "2.000000e+00")
        # the ladder oracle's all-z correlator of -1 is a compared value, not a note
        assert "all-z" not in out

    @pytest.mark.parametrize("cutoff", ["30", "41"])
    def test_heralded_pseudospin_gap_is_a_note(self, cutoff, capsys):
        # the gap is reported with both numbers, at an odd cutoff from the even one above it
        assert main(["verify", "--cutoff", cutoff]) == 0
        notes = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("[NOTE] documented finding: ")]
        assert len(notes) == 1
        assert ("f_conditional is 0.899670 at (n2, n3, eta) = (0.3, 0.3, 0.8), while the "
                "oracle's <s_x s_x> on the heralded state is 0.202942") in notes[0]

    def test_small_cutoff_fails(self, capsys):
        assert main(["verify", "--cutoff", "4"]) == 1
        out = capsys.readouterr().out
        failed = {name: value for name, (status, value, _) in _verify_rows(out).items()
                  if status == "FAIL"}
        # each Fock row fails with the error that its first state raised
        assert len(failed) == 7
        assert failed["displaced parity vs oracle"].startswith("CutoffTooSmallError: ")
        assert failed["GHZ displaced parity vs oracle"].startswith("CutoffTooSmallError: ")
        assert out.endswith("10/17 checks passed\n")

    def test_odd_cutoff_passes(self, capsys):
        # the spin-flip check rounds an odd cutoff up to even for the pseudospin
        assert main(["verify", "--cutoff", "41"]) == 0
        out = capsys.readouterr().out
        assert {status for status, _, _ in _verify_rows(out).values()} == {"PASS"}
        assert out.endswith("17/17 checks passed\n")

    @pytest.mark.parametrize("name,coeffs,field", [
        ("pseudospin series vs oracle", "su21_ps_coeffs", "c2"),
        ("point-operator coefficients vs quadrature", "su21_pi_coeffs", "c3"),
    ])
    def test_flipped_coefficient_sign_fails(self, name, coeffs, field, monkeypatch, capsys):
        """Coefficients are compared with their signs: one flipped sign fails its row."""
        closed = getattr(bell_ps, coeffs)

        def flipped(*args):
            c = closed(*args)
            return dataclasses.replace(c, **{field: -getattr(c, field)})

        monkeypatch.setattr(bell_ps, coeffs, flipped)
        assert main(["verify"]) == 1
        failed = [n for n, (status, _, _) in _verify_rows(capsys.readouterr().out).items()
                  if status == "FAIL"]
        assert failed == [name]

    @pytest.mark.parametrize("mutation", ["S flipped", "x and y blocks swapped"])
    def test_wrong_ghz_covariance_fails(self, mutation, monkeypatch, capsys):
        """The GHZ row's oracle is built from the tritter's A matrix, not from
        ``ghz_state``, so a wrong covariance fails the row: with S flipped it is
        not positive definite at r = 0.42, and with the blocks swapped it is -A's."""
        right = gaussian.ghz_state

        def wrong(r):
            cov = right(r).cov.copy()
            if mutation == "S flipped":
                cov[~np.eye(6, dtype=bool)] *= -1.0
            else:
                cov = cov[np.ix_(np.r_[3:6, 0:3], np.r_[3:6, 0:3])]
            return gaussian.GaussianState(3, cov)

        monkeypatch.setattr(gaussian, "ghz_state", wrong)
        assert main(["verify"]) == 1
        status, value, _ = _verify_rows(capsys.readouterr().out)["GHZ displaced parity vs oracle"]
        assert status == "FAIL"
        if mutation == "S flipped":
            assert value == "InvalidParameterError: covariance must be positive definite"
        else:
            assert float(value) > 1e-2

    def test_bounds_sweep_matches_the_scalar_loop(self, capsys):
        # the same 400 settings drawn in the same order, one Bell value per call
        rng = np.random.default_rng(7)
        phot = TripartitePhotonNumbers(0.3, 0.3)
        params = ConditionalParams(0.3, 0.3, eta=0.8)
        gs3 = [ghz_state(1.2), su21_state(phot)]
        b2max = b3max = 0.0
        for _ in range(400):
            a = rng.normal(0, 0.5, 3) + 1j * rng.normal(0, 0.5, 3)
            ap = rng.normal(0, 0.5, 3) + 1j * rng.normal(0, 0.5, 3)
            st = gs3[int(rng.integers(0, 2))]
            b3max = max(b3max, DpRates(st, DpSettings(tuple(a), tuple(ap))).bell())
            for t in (twb_state(2.0), params):
                two = DpSettings(tuple(a[:2]), tuple(ap[:2]))
                b2max = max(b2max, DpRates(t, two).bell())
        assert (f"{b2max:.6f}", f"{b3max:.6f}") == ("1.545497", "1.203400")
        assert main(["verify"]) == 0
        rows = _verify_rows(capsys.readouterr().out)
        assert rows["max B2 over random dp sweeps"][1] == f"{b2max:.6e}"
        assert rows["max B3 over random dp sweeps"][1] == f"{b3max:.6e}"


class TestFlagTable:
    # each input is one flag (or flag combination) the evaluator would not read,
    # or a --grid the CLI cannot sweep
    @pytest.mark.parametrize("argv", [
        ["point", "--state", "su21", "--test", "dp3", "--n2", "1", "--n3", "0", "--optimize"],
        ["point", "--state", "su21", "--test", "dp3", "--n2", ".5", "--n3", ".5", "--phi2", "1",
         "--optimize"],
        ["point", "--state", "ghz", "--test", "dp3", "--r", "1", "--grid", "1:3:3", "--optimize"],
        ["point", "--state", "su21", "--test", "ps3", "--n2", ".3", "--n3", ".3",
         "--grid", "0.1:1:2"],
        ["point", "--state", "twb", "--test", "dp2", "--n", "1", "--j", "3", "--optimize"],
        ["point", "--state", "twb", "--test", "ps2", "--n", "1", "--n2", "5", "--j", "3",
         "--optimize"],
        ["point", "--state", "twb", "--test", "ps2", "--n", "1", "--grid", "0:1:0"],
        ["point", "--state", "su21", "--test", "ps3", "--grid", "0:nan:2"],
        ["point", "--state", "twb", "--test", "ps2", "--grid", "0:inf:2"],
        ["point", "--state", "twb", "--test", "ps2", "--n", "1", "--cutoff", "7"],
        ["point", "--state", "twb", "--test", "ps2", "--n", "1", "--out", "x"],
        ["point", "--state", "twb", "--test", "ps2", "--n", "1", "--format", "csv"],
        ["verify", "--tol", "1e-3"],
        ["point", "--state", "su21", "--test", "ps3", "--n", "1", "--tol", "nan"],
        ["point", "--state", "conditional", "--test", "ps2", "--n2", "1", "--n3", "0.5",
         "--tol", "nan"],
        # the spin-flip coefficient reads no phase, and no test reads a mode-3 phase
        ["point", "--state", "conditional", "--test", "ps2", "--n2", "1", "--n3", "0.5",
         "--phi2", "1"],
        ["point", "--state", "conditional", "--test", "ps2", "--n2", "1", "--n3", "0.5",
         "--phi3", "1"],
        ["point", "--state", "conditional", "--test", "dp2", "--n2", "1", "--n3", "0.5",
         "--j", "0.1", "--phi3", "1"],
        ["point", "--state", "conditional", "--test", "homodyne", "--n2", "1", "--n3", "0.5",
         "--phi3", "1"],
    ], ids=" ".join)
    def test_unread_flag_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err

    MINIMAL = {
        ("ghz", "dp3"): ["--n", "1", "--j", "0.1"],
        ("su21", "dp3"): ["--n", "1", "--j", "0.1"],
        ("twb", "dp2"): ["--n", "1", "--j", "0.1"],
        ("conditional", "dp2"): ["--n2", "1", "--n3", "0.5", "--j", "0.1"],
        ("ghz", "ps3"): ["--n", "1"],
        ("su21", "ps3"): ["--n", "1"],
        ("twb", "ps2"): ["--n", "1"],
        ("conditional", "ps2"): ["--n2", "1", "--n3", "0.5"],
        ("twb", "homodyne"): ["--n", "1"],
        ("conditional", "homodyne"): ["--n2", "1", "--n3", "0.5"],
    }

    def test_minimal_covers_the_table(self):
        assert set(self.MINIMAL) == set(_PAIRS)

    @pytest.mark.parametrize("pair", list(_PAIRS), ids=" ".join)
    def test_pair_runs_with_minimal_flags(self, pair, capsys):
        state, test = pair
        assert main(["point", "--state", state, "--test", test, *self.MINIMAL[pair]]) == 0
        rec = json.loads(capsys.readouterr().out)
        consumed = {k for forms in _PAIRS[pair].groups for form in forms for k in form}
        assert set(rec["params"]) <= consumed
        assert math.isfinite(rec["value"])


class TestSharedParser:
    """``main`` parses with the one parser built when ``cvbell.cli`` is imported."""

    MIXED = [
        (["point", "--state", "twb", "--test", "ps2", "--n", "1"], 0),
        (["point", "--state", "ghz", "--test", "dp3", "--n", "1", "--j", "0.1"], 0),
        (["point", "--state", "su21", "--test", "dp3", "--n", "1", "--optimize"], 0),
        (["point", "--state", "twb", "--test", "dp2", "--n", "1", "--j", "0.1"], 0),
        (["point", "--state", "conditional", "--test", "dp2", "--n2", "1", "--n3", "0.5",
          "--j", "0.1"], 0),
        (["point", "--state", "conditional", "--test", "ps2", "--n2", "1", "--n3", "0.5"], 0),
        (["point", "--state", "su21", "--test", "ps3", "--n", "1"], 0),
        (["point", "--state", "twb", "--test", "homodyne", "--n", "1"], 0),
        (["point", "--state", "twb", "--test", "ps2", "--grid", "0:4:9"], 0),
        (["figure", "E2H", "--out", "e2h.csv"], 0),
        (["figure", "B2DPTWBA", "--out", "b2dptwba.json", "--format", "json"], 0),
        (["verify", "--cutoff", "1"], 1),
        (["point", "--state", "twb", "--test", "dp3", "--n", "1"], 2),
        (["point", "--state", "twb", "--test", "ps2", "--n", "1", "--bogus", "1"], 2),
        ([], 2),
        (["figure", "B9"], 2),
        (["point", "--state", "twb", "--test", "ps2", "--n", "1", "--grid", "0:1:0"], 2),
        (["point", "--state", "twb", "--test", "ps2", "--n", "nan"], 4),
        (["--help"], 0),
        (["point", "--help"], 0),
    ]

    def test_main_constructs_no_parser(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        built = []
        init = cli.argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting_init)
        assert [main(argv) for argv, _ in self.MIXED] == [rc for _, rc in self.MIXED]
        assert built == []

    @staticmethod
    def _env() -> dict:
        src = str(Path(cli.__file__).resolve().parents[1])
        return dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, monkeypatch, capsys):
        # help text wraps at the terminal width, so both sides get the same one
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        sequence = [
            ["point", "--state", "twb", "--test", "dp3", "--n", "1"],
            ["point", "--state", "twb", "--test", "ps2", "--n", "1", "--bogus", "1"],
            ["point", "--help"],
            ["point", "--state", "twb", "--test", "ps2", "--n", "1"],
            ["figure", "E2H"],
        ]
        in_process = []
        for argv in sequence:
            rc = main(argv)
            captured = capsys.readouterr()
            in_process.append((rc, captured.out, captured.err))
        assert [rc for rc, _, _ in in_process] == [2, 2, 0, 0, 0]
        for argv, seen in zip(sequence, in_process):
            fresh = subprocess.run([sys.executable, "-m", "cvbell.cli", *argv], env=self._env(),
                                   cwd=tmp_path, capture_output=True, text=True, timeout=300)
            assert seen == (fresh.returncode, fresh.stdout, fresh.stderr), argv

    def test_package_import_loads_no_parser(self):
        code = "import sys, cvbell; print(sorted({'argparse', 'cvbell.cli'} & set(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", code], env=self._env(),
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


def _load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


# the figure contract: first 16 hex digits of the sha256 of each CSV table.
# E2H was 953480b9d7e73127 before the heralded correlator took the difference
# of its two arcsines without cancellation: two n2 = 5 cells (psi = -2.67 and
# 0.471) moved from 0.69290894858 to the correctly rounded 0.692908948579
# (50-digit value 0.6929089485794995).
FIGURE_HASHES = {
    "B3DPVLBGen": "16351053a7866a97", "B3DPT": "a4d011751cc66e2c", "B3DPN": "e96d035520d317b3",
    "B3PS": "09f6edd1def2a5f9", "B2DPTWBA": "bd230c455934e4a6", "B2PS": "2e1f39f420b246e8",
    "E2H": "79e76928eaff1643",
}


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_figure_matches_stored_table(figure_id, tmp_path):
    out = tmp_path / f"{figure_id}.csv"
    assert run_figure(figure_id, str(out)) == 0
    ref = (ROOT / "perfbench" / "ref" / f"{figure_id}.csv").read_text()
    assert _load_checks().check_figure(figure_id, out.read_text(), ref) == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == FIGURE_HASHES[figure_id]


# the oracle contract: first 16 hex digits of the sha256 of ``verify`` stdout.
# A deliberate change to an oracle check updates a hash here and says why in
# CHANGES.md; a refactor of the oracle leaves both as they are.  They were
# 4251baa09b087c81 and e353220d94632330 before verify printed one row per
# bound, each value against its bound, with coefficients compared with their
# signs; every old value is still a row's value.  They were 108df7c2ccca1d86
# and 7d99099dc717c271 before the GHZ row compared the Fock oracle's tritter ket
# with the covariance path, in place of a closed form from the same covariance,
# and the su21 and twin-beam kets came from the one Bargmann-matrix recurrence.
VERIFY_HASHES = {30: "b4378d96f29c1267", 40: "013d97c292872549"}


@pytest.mark.parametrize("cutoff", VERIFY_HASHES)
def test_verify_stdout_matches_stored_hash(cutoff, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", "--cutoff", str(cutoff)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == VERIFY_HASHES[cutoff]


def test_point_pool_passes_the_benchmark_check(capsys):
    """Every ``point`` query of the benchmark's pool, run through ``main``,
    passes the benchmark's own check against its stored values."""
    check_point = _load_checks().check_point
    failed = []
    for entry in json.loads((ROOT / "perfbench" / "ref" / "points.json").read_text()):
        rc = main(entry["argv"])
        captured = capsys.readouterr()
        why = check_point(entry, captured.out) if rc == 0 else f"exit {rc}: {captured.err}"
        if why:
            failed.append((entry["argv"], why))
    assert failed == []


def _readme_commands():
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("cvbell ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_example_exit_code(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == (1 if argv == ["verify", "--cutoff", "4"] else 0)
