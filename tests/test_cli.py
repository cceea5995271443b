import hashlib
import importlib.util
import json
import math
import shlex
from pathlib import Path

import pytest

from cvbell.cli import FIGURE_IDS, RunConfig, UsageError, _PAIRS, main, run_figure, run_point

ROOT = Path(__file__).resolve().parents[1]


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

    def test_b2ps_curve_ordering(self, tmp_path):
        out = tmp_path / "B2PS.csv"
        run_figure("B2PS", str(out))
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        for _, f_twb, f_1, f_tr in rows:
            assert float(f_1) >= float(f_tr) - 1e-12


class TestPoint:
    def test_su21_dp3_optimized(self, capsys):
        cfg = RunConfig(state="su21", test="dp3", n=10000.0, optimize=True)
        assert run_point(cfg) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["value"] == pytest.approx(2.89, abs=0.01)

    def test_twb_ps2_vacuum(self, capsys):
        cfg = RunConfig(state="twb", test="ps2", n=0.0)
        assert run_point(cfg) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["value"] == pytest.approx(2.0)

    def test_conditional_homodyne_below_two(self, capsys):
        cfg = RunConfig(state="conditional", test="homodyne", n2=1.0, n3=0.5, eta=1.0)
        assert run_point(cfg) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["value"] <= 2.0

    def test_sweep_emits_one_record_per_point(self, capsys):
        cfg = RunConfig(state="twb", test="ps2", n=1.0, grid=(0.0, 4.0, 5))
        assert run_point(cfg) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert json.loads(lines[0])["value"] == pytest.approx(2.0)

    def test_invalid_combination(self):
        cfg = RunConfig(state="twb", test="dp3", n=1.0, j=0.1)
        with pytest.raises(UsageError):
            cfg.validate()

    def test_main_maps_usage_error_to_exit_2(self):
        assert main(["point", "--state", "twb", "--test", "dp3", "--n", "1"]) == 2

    def test_missing_j_for_dp(self):
        cfg = RunConfig(state="twb", test="dp2", n=1.0)
        with pytest.raises(UsageError):
            cfg.validate()

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
        assert rec["evaluations"] == 293

    def test_twb_needs_n(self, capsys):
        cfg = RunConfig(state="twb", test="dp2", n2=1.0, j=0.1)
        with pytest.raises(UsageError, match="--n"):
            cfg.validate()
        assert main(["point", "--state", "twb", "--test", "dp2", "--n2", "1", "--j", "0.1"]) == 2
        assert "usage error" in capsys.readouterr().err


class TestLibraryErrors:
    @pytest.mark.parametrize("argv,kind", [
        (["--state", "twb", "--test", "ps2", "--n", "-1"], "InvalidParameterError"),
        (["--state", "conditional", "--test", "ps2", "--n2", "1"], "InvalidParameterError"),
        (["--state", "conditional", "--test", "homodyne", "--n2", "1", "--n3", "0"],
         "PrecisionError"),
        (["--state", "twb", "--test", "homodyne", "--n", "1e8"], "InvalidParameterError"),
    ])
    def test_maps_to_exit_4(self, argv, kind, capsys):
        assert main(["point", *argv]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {kind}: ")


    @pytest.mark.parametrize("argv", [
        ["--state", "twb", "--test", "dp2", "--n", "1", "--optimize", "--tol", "0"],
        ["--state", "twb", "--test", "homodyne", "--n", "1", "--tol", "-1"],
        ["--state", "twb", "--test", "dp2", "--n", "1", "--optimize", "--tol", "nan"],
        ["--state", "su21", "--test", "ps3", "--n", "1", "--tol", "nan"],
        ["--state", "conditional", "--test", "ps2", "--n2", "1", "--n3", "0.5", "--tol", "nan"],
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

    def test_ill_conditioned_twb_dp2(self, capsys):
        assert main(["point", "--state", "twb", "--test", "dp2", "--n", "1e6", "--optimize"]) == 4
        assert capsys.readouterr().err == (
            "error: ConditioningError: covariance condition number 3.999e+12 "
            "exceeds guard 1e+12\n")


class TestVerify:
    def test_fresh_run_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        # the sign finding is reported, not failed
        assert "all-z pseudospin correlator" in out
        assert "max CHSH = 1.919982 over 1e4 random settings" in out

    def test_small_cutoff_fails(self, capsys):
        assert main(["verify", "--cutoff", "4"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out


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


def _load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


# the figure contract: first 16 hex digits of the sha256 of each CSV table
FIGURE_HASHES = {
    "B3DPVLBGen": "16351053a7866a97", "B3DPT": "a4d011751cc66e2c", "B3DPN": "e96d035520d317b3",
    "B3PS": "09f6edd1def2a5f9", "B2DPTWBA": "bd230c455934e4a6", "B2PS": "5b7a44b0345e81f6",
    "E2H": "953480b9d7e73127",
}


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_figure_matches_stored_table(figure_id, tmp_path):
    out = tmp_path / f"{figure_id}.csv"
    assert run_figure(figure_id, str(out)) == 0
    ref = (ROOT / "perfbench" / "ref" / f"{figure_id}.csv").read_text()
    assert _load_checks().check_figure(figure_id, out.read_text(), ref) == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == FIGURE_HASHES[figure_id]


def _readme_commands():
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("cvbell ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_example_exit_code(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == (1 if argv == ["verify", "--cutoff", "4"] else 0)
