"""Batch front-end: figure tables, single-point evaluations, verification suite.

Output tables are byte-stable across runs: fixed grids, deterministic
optimizers, and 12-significant-digit formatting.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import bell_dp, bell_ps, conditional, fock, gaussian, homodyne, optim
from .errors import CvBellError

FIGURE_IDS = ("B3DPVLBGen", "B3DPT", "B3DPN", "B3PS", "B2DPTWBA", "B2PS", "E2H")

_STATES = ("ghz", "su21", "twb", "conditional")
_TESTS = ("dp2", "dp3", "ps2", "ps3", "homodyne")
_VALID_COMBOS = {
    "dp3": ("ghz", "su21"),
    "ps3": ("ghz", "su21"),
    "dp2": ("twb", "conditional"),
    "ps2": ("twb", "conditional"),
    "homodyne": ("twb", "conditional"),
}


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.12g}"


@dataclass
class RunConfig:
    state: str
    test: str
    r: float | None = None
    n: float | None = None
    n2: float | None = None
    n3: float | None = None
    phi2: float = 0.0
    phi3: float = 0.0
    eta: float = 1.0
    j: float | None = None
    optimize: bool = False
    grid: tuple[float, float, int] | None = None
    cutoff: int = 30
    tol: float = 1e-8
    out: str | None = None
    format: str = "csv"

    def validate(self) -> None:
        if self.state not in _STATES:
            raise UsageError(f"unknown state {self.state!r}; choose from {_STATES}")
        if self.test not in _TESTS:
            raise UsageError(f"unknown test {self.test!r}; choose from {_TESTS}")
        if self.state not in _VALID_COMBOS[self.test]:
            raise UsageError(
                f"test {self.test!r} needs a state in {_VALID_COMBOS[self.test]}, got {self.state!r}"
            )
        if self.state == "ghz" and self.r is None and self.n is None:
            raise UsageError("state 'ghz' needs --r or --n")
        if self.state == "su21" and self.n is None and self.n2 is None:
            raise UsageError("state 'su21' needs --n (or --n2/--n3)")
        if self.state == "twb" and self.n is None:
            raise UsageError("state 'twb' needs --n")
        if self.state == "conditional" and self.n2 is None:
            raise UsageError("state 'conditional' needs --n2 (and usually --n3, --eta)")
        if self.j is None and not self.optimize and self.test in ("dp2", "dp3"):
            raise UsageError("displaced-parity tests need --j or --optimize")
        if self.format not in ("csv", "json"):
            raise UsageError("format must be csv or json")


def _parse_grid(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, steps = text.split(":")
        return float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise UsageError(f"bad --grid {text!r}, expected lo:hi:steps") from exc


# ---------------------------------------------------------------------------
# point evaluations

def _point_value(cfg: RunConfig) -> dict:
    meta: dict = {}

    def optimize_j(f: Callable[[float], float], j_lo=1e-9, j_hi=10.0):
        res = optim.log_j_maximize(f, j_lo, j_hi, tol=cfg.tol)
        meta.update({"j_opt": float(res.arg_max[0]), "evaluations": res.evaluations})
        return res.max_value

    state, test = cfg.state, cfg.test
    if test == "dp3":
        if state == "ghz":
            r = cfg.r if cfg.r is not None else gaussian.ghz_r_from_photons(cfg.n)
            fn = lambda j: bell_dp.b3_ghz_closed(r, j).value
        else:
            n = cfg.n if cfg.n is not None else 2.0 * (cfg.n2 + (cfg.n3 or 0.0))
            fn = lambda j: bell_dp.b3_su21_closed(n, j).value
        return {"value": optimize_j(fn) if cfg.optimize else fn(cfg.j), **meta}
    if test == "dp2":
        if state == "twb":
            fn = lambda j: bell_dp.b2_twb_dp(cfg.n, j).value
        else:
            p = conditional.ConditionalParams(cfg.n2, cfg.n3 or 0.0, cfg.phi2, cfg.phi3, cfg.eta)
            fn = lambda j: bell_dp.b2_conditional_dp(p, j).value
        return {"value": optimize_j(fn) if cfg.optimize else fn(cfg.j), **meta}
    if test == "ps3":
        if state == "su21":
            if cfg.n2 is not None:
                bv = bell_ps.b3_ps(cfg.n2, cfg.n3 or 0.0, tol=cfg.tol)
            else:
                bv = bell_ps.b3_ps(cfg.n / 4.0, cfg.n / 4.0, tol=cfg.tol)
        else:
            r = cfg.r if cfg.r is not None else gaussian.ghz_r_from_photons(cfg.n)
            bv = bell_ps.b3_ps_from_coeffs(bell_ps.ghz_pi_coeffs(r))
        return {"value": bv.value}
    if test == "ps2":
        if state == "twb":
            f = bell_ps.f_twb(cfg.n)
        else:
            p = conditional.ConditionalParams(cfg.n2, cfg.n3 or 0.0, cfg.phi2, cfg.phi3, cfg.eta)
            f = bell_ps.f_conditional(p, tol=cfg.tol)
        return {"value": bell_ps.b2_ps_from_f(f).value, "f": f}
    # homodyne: deterministic angle maximization of the CHSH combination
    if state == "twb":
        target = gaussian.twb_state(cfg.n)
    else:
        target = conditional.ConditionalParams(cfg.n2, cfg.n3 or 0.0, cfg.phi2, cfg.phi3, cfg.eta)
    res = optim.maximize_angles(lambda pts: homodyne.chsh_h(target, pts),
                                dim=4, grid=12, tol=cfg.tol)
    return {"value": res.max_value, "settings": [float(a) for a in res.arg_max]}


def run_point(cfg: RunConfig) -> int:
    """Evaluate one configuration (or a sweep) and print JSON records to stdout."""
    cfg.validate()
    base = {
        "state": cfg.state, "test": cfg.test,
        "params": {k: getattr(cfg, k) for k in ("r", "n", "n2", "n3", "phi2", "phi3", "eta", "j")
                   if getattr(cfg, k) is not None},
    }
    if cfg.grid is None:
        rec = dict(base)
        rec.update(_point_value(cfg))
        print(json.dumps(rec, sort_keys=True))
        return 0
    lo, hi, steps = cfg.grid
    sweep_key = "n2" if cfg.state == "conditional" else "n"
    for v in np.linspace(lo, hi, steps):
        sub = RunConfig(**{**cfg.__dict__, sweep_key: float(v), "grid": None})
        rec = dict(base)
        rec["params"] = dict(base["params"], **{sweep_key: float(v)})
        rec.update(_point_value(sub))
        print(json.dumps(rec, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# figures

def _figure_table(figure_id: str) -> tuple[dict, list[str], list[list[float]]]:
    meta: dict = {"figure": figure_id}
    if figure_id == "B3DPVLBGen":
        rs = np.linspace(0.0, 3.0, 61)
        js = np.concatenate([[0.0], np.logspace(-4, 0, 40)])
        rows = [[r, j, bell_dp.b3_ghz_closed(r, j).value] for r in rs for j in js]
        return meta, ["r", "j", "b3_dp"], rows
    if figure_id == "B3DPT":
        ns = np.logspace(-1, 3, 33)
        js = np.logspace(-5, 0, 33)
        rows = [[n, j, bell_dp.b3_su21_opt_dp(n, j).value] for n in ns for j in js]
        return meta, ["n", "j", "b3_dp"], rows
    if figure_id == "B3DPN":
        ns = np.logspace(-2, 5, 71)
        rows = []
        for n in ns:
            r = gaussian.ghz_r_from_photons(n)
            g = optim.log_j_maximize(lambda j: bell_dp.b3_ghz_closed(r, j).value, 1e-9, 10.0).max_value
            t = optim.log_j_maximize(lambda j: bell_dp.b3_su21_closed(n, j).value, 1e-9, 10.0).max_value
            rows.append([n, g, t])
        return meta, ["n", "b3_dp_ghz_opt", "b3_dp_su21_opt"], rows
    if figure_id == "B3PS":
        ns = np.logspace(-2, 2, 61)
        rows = []
        for n in ns:
            t = bell_ps.b3_ps_from_coeffs(bell_ps.su21_pi_coeffs(n), grid=16).value
            g = bell_ps.b3_ps_from_coeffs(
                bell_ps.ghz_pi_coeffs(gaussian.ghz_r_from_photons(n)), grid=16).value
            rows.append([n, t, g])
        return meta, ["n", "b3_ps_pi_su21", "b3_ps_pi_ghz"], rows
    if figure_id == "B2DPTWBA":
        meta.update({"n3": "1e-2/n2", "eta": 1.0})
        n2s = np.logspace(0, 4, 25)
        js = np.logspace(-6, -1, 33)
        rows = []
        for n2 in n2s:
            p = conditional.ConditionalParams(n2=n2, n3=1e-2 / n2, eta=1.0)
            for j in js:
                rows.append([n2, j, bell_dp.b2_conditional_dp(p, j).value])
        return meta, ["n2", "j", "b2_dp"], rows
    if figure_id == "B2PS":
        meta.update({"eta": 0.8, "n3": 0.1, "note": "f_1/f_tr swept in n2 at fixed n3"})
        ns = np.linspace(0.05, 10.0, 100)
        rows = []
        for n in ns:
            p = conditional.ConditionalParams(n2=n, n3=0.1, eta=0.8)
            rows.append([n, bell_ps.f_twb(n), bell_ps.f_conditional(p),
                         bell_ps.f_traced(p)])
        return meta, ["n", "f_twb", "f_1", "f_tr"], rows
    if figure_id == "E2H":
        meta.update({"n3": 0.5, "eta": 1.0})
        psis = np.linspace(-np.pi, np.pi, 201)
        curves = [homodyne.e_h(conditional.ConditionalParams(n2=n2, n3=0.5, eta=1.0), psis, 0.0)
                  for n2 in (0.5, 1.0, 5.0)]
        rows = [[psi, homodyne.classical_reference(psi), *es]
                for psi, *es in zip(psis, *curves)]
        return meta, ["psi", "e_classical", "e_n2_0.5", "e_n2_1", "e_n2_5"], rows
    raise UsageError(f"unknown figure id {figure_id!r}; choose from {FIGURE_IDS}")


def run_figure(figure_id: str, out: str | None = None, fmt: str = "csv") -> int:
    """Write one figure's data table to ``out`` (default <id>.<fmt>)."""
    meta, cols, rows = _figure_table(figure_id)
    path = out or f"{figure_id}.{fmt}"
    try:
        with open(path, "w") as fh:
            if fmt == "json":
                for row in rows:
                    fh.write(json.dumps({c: float(_fmt(v)) for c, v in zip(cols, row)},
                                        sort_keys=True) + "\n")
            else:
                for k, v in sorted(meta.items()):
                    fh.write(f"# {k}={v}\n")
                fh.write(",".join(cols) + "\n")
                for row in rows:
                    fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# verification suite

@dataclass
class _Check:
    name: str
    tolerance: str
    passed: bool
    detail: str


def _verify_checks(cutoff: int, tol: float) -> tuple[list[_Check], list[str]]:
    checks: list[_Check] = []
    notes: list[str] = []

    def add(name: str, tolerance: str, fn: Callable[[], tuple[bool, str]]):
        try:
            ok, detail = fn()
        except CvBellError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append(_Check(name, tolerance, ok, detail))

    phot = gaussian.TripartitePhotonNumbers(0.3, 0.3)
    params = conditional.ConditionalParams(0.3, 0.3, eta=0.8)

    def chk_dets():
        worst = 0.0
        for s in (gaussian.ghz_state(1.0), gaussian.su21_state(phot), gaussian.twb_state(2.0)):
            worst = max(worst, abs(s.det() - 1.0))
        return worst < 1e-9, f"max |det-1| = {worst:.2e}"
    add("pure-state determinants", "1e-9", chk_dets)

    def chk_dp_oracle():
        st = fock.su21_fock(phot, cutoff)
        gs = gaussian.su21_state(phot)
        worst = 0.0
        for al in [(0.1, 0.1j, 0.0), (0.2, -0.1 + 0.05j, 0.1j)]:
            o = fock.displaced_parity_expect(st, al)
            g = bell_dp.e_dp_gaussian(gs, al)
            worst = max(worst, abs(o - g))
        tw = fock.twb_fock(math.tanh(math.asinh(math.sqrt(0.5))), cutoff)
        gw = gaussian.twb_state(1.0)
        for al in [(0.2, 0.1), (0.3j, -0.2j)]:
            worst = max(worst, abs(fock.displaced_parity_expect(tw, al)
                                   - bell_dp.e_dp_gaussian(gw, al)))
        return worst < 1e-4, f"max |oracle-gaussian| = {worst:.2e}"
    add("displaced parity vs oracle", "1e-4", chk_dp_oracle)

    def chk_dp_closed():
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(20):
            r = rng.uniform(0, 2.5)
            al = rng.normal(0, 0.4, 3) + 1j * rng.normal(0, 0.4, 3)
            worst = max(worst, abs(bell_dp.e_dp_gaussian(gaussian.ghz_state(r), al)
                                   - bell_dp.e_dp_ghz_closed(r, al)))
        return worst < 1e-10, f"max path difference = {worst:.2e}"
    add("explicit GHZ correlator vs covariance path", "1e-10", chk_dp_closed)

    def chk_click():
        # total photons kept <= 0.8 so the cutoff-30 truncation tail (~3e-11)
        # stays well inside the 1e-9 comparison
        worst = 0.0
        st_cache: dict[float, fock.FockPureState] = {}
        for n3 in (0.1, 0.3, 0.5):
            st = st_cache.setdefault(n3, fock.su21_fock(
                gaussian.TripartitePhotonNumbers(0.3, n3), cutoff))
            for eta in (0.2, 0.6, 1.0):
                prob, _ = fock.onoff_condition(st, 2, eta)
                closed = conditional.p_click(
                    conditional.ConditionalParams(0.3, n3, eta=eta))
                worst = max(worst, abs(prob - closed))
        return worst < 1e-9, f"max |P1 - oracle| = {worst:.2e}"
    add("click probability vs oracle", "1e-9", chk_click)

    def chk_w1():
        prob, rho = fock.onoff_condition(fock.su21_fock(phot, cutoff), 2, 0.8)
        worst = 0.0
        for pt in ([0.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.1, 0.4], [0.5, 0.5, -0.3, 0.2]):
            worst = max(worst, abs(conditional.w1_eval(params, pt)
                                   - fock.wigner_reconstruct(rho, np.asarray(pt))))
        # normalization by tensor quadrature
        from numpy.polynomial.legendre import leggauss
        xg, wg = leggauss(28)
        xs, ws = xg * 6.0, wg * 6.0
        g2 = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        w2 = np.outer(ws, ws).ravel()
        total = 0.0
        for i, (x1, x2) in enumerate(g2):
            pts = np.concatenate([np.broadcast_to([x1, x2], (g2.shape[0], 2)), g2], axis=1)
            total += w2[i] * float(np.dot(conditional.w1_eval(params, pts), w2))
        wmin = float(np.min(conditional.w1_eval(
            conditional.ConditionalParams(1.0, 0.5, eta=1.0),
            np.stack(np.meshgrid(np.linspace(-1, 1, 21), np.linspace(-1, 1, 21),
                                 [0.0], [0.0], indexing="ij"), axis=-1).reshape(-1, 4))))
        ok = worst < 1e-4 and abs(total - 1.0) < 1e-3 and wmin < 0
        return ok, f"oracle diff {worst:.2e}, integral {total:.6f}, min {wmin:.4f}"
    add("heralded Wigner: oracle, normalization, negativity", "1e-4 / 1e-3", chk_w1)

    def chk_ps():
        st = fock.su21_fock(phot, cutoff if cutoff % 2 == 0 else cutoff + 1)
        X, Z = (math.pi / 2, 0.0), (0.0, 0.0)
        c = bell_ps.su21_ps_coeffs(0.3, 0.3, tol=1e-10)
        o1 = fock.pseudospin_expect(st, [Z, X, X])
        o2 = fock.pseudospin_expect(st, [X, Z, X])
        o3 = fock.pseudospin_expect(st, [X, X, Z])
        zzz = fock.pseudospin_expect(st, [Z, Z, Z])
        worst = max(abs(abs(o1) - abs(c.c1)), abs(abs(o2) - abs(c.c2)),
                    abs(abs(o3) - abs(c.c3)))
        notes.append(
            "documented finding: all-z pseudospin correlator is "
            f"{zzz:+.6f} under the ladder definition (odd states +1) while the "
            "closed forms normalize it to +1; coefficient signs differ globally "
            "and comparisons are made in absolute value."
        )
        return worst < 1e-4, f"max ||series|-|oracle|| = {worst:.2e}"
    add("pseudospin series vs oracle (|.|)", "1e-4", chk_ps)

    def chk_ftwb():
        c = max(cutoff, 40)
        tw = fock.twb_fock(math.tanh(math.asinh(1.0)), c)
        o = fock.pseudospin_expect(tw, [(math.pi / 2, 0.0), (math.pi / 2, 0.0)])
        diff = abs(o - bell_ps.f_twb(2.0))
        return diff < 1e-6, f"|oracle - closed| = {diff:.2e}"
    add("twin-beam spin-flip coefficient vs oracle", "1e-6", chk_ftwb)

    def chk_pi():
        cq = bell_ps.pi_coeffs_quadrature(bell_dp.su21_sym_state(1.0))
        cc = bell_ps.su21_pi_coeffs(1.0)
        worst = max(abs(abs(cq.c2) - abs(cc.c2)), abs(abs(cq.c3) - abs(cc.c3)),
                    abs(abs(cq.c1) - abs(cc.c1)))
        gq = bell_ps.pi_coeffs_quadrature(gaussian.ghz_state(0.42))
        gc = bell_ps.ghz_pi_coeffs(0.42)
        worst = max(worst, abs(gq.c1 - gc.c1))
        return worst < 1e-4, f"max |quadrature - closed| = {worst:.2e}"
    add("point-operator coefficients vs quadrature", "1e-4", chk_pi)

    def chk_orthant():
        tw = fock.twb_fock(math.tanh(math.asinh(math.sqrt(0.5))), cutoff)
        gw = gaussian.twb_state(1.0)
        worst = 0.0
        for th, ph in ((0.0, 0.0), (0.4, 0.3), (1.1, -0.6)):
            worst = max(worst, abs(fock.quadrature_orthant_expect(tw, th, ph)
                                   - homodyne.e_h_gaussian(gw, th, ph)))
        prob, rho = fock.onoff_condition(fock.su21_fock(phot, min(cutoff, 26)), 2, 0.8)
        worst_c = 0.0
        for th in (0.0, 0.7, 1.9):
            worst_c = max(worst_c, abs(
                fock.quadrature_orthant_expect(rho, th, 0.0)
                - homodyne.e_h_conditional(params, homodyne.HomodyneSetting(th, 0.0))))
        ps = fock.orthant_probabilities(tw, 0.3, 0.2)
        notes.append(
            "documented finding: the heralded-state homodyne closed form is "
            "implemented with the overall sign matching the orthant oracle "
            "(the printed-form sign is opposite)."
        )
        ok = worst < 1e-4 and worst_c < 1e-3 and abs(sum(ps) - 1.0) < 1e-6
        return ok, f"gaussian {worst:.2e}, heralded {worst_c:.2e}, sum {sum(ps):.8f}"
    add("orthant correlators vs oracle", "1e-4 / 1e-3 / 1e-6", chk_orthant)

    def chk_bounds():
        rng = np.random.default_rng(7)
        b2max = b3max = 0.0
        gs3 = [gaussian.ghz_state(1.2), gaussian.su21_state(phot)]
        gs2 = [gaussian.twb_state(2.0)]
        for _ in range(400):
            a = rng.normal(0, 0.5, 3) + 1j * rng.normal(0, 0.5, 3)
            ap = rng.normal(0, 0.5, 3) + 1j * rng.normal(0, 0.5, 3)
            st = gs3[int(rng.integers(0, 2))]
            b3max = max(b3max, bell_dp.b3_dp_general(
                st, bell_dp.DpSettings(tuple(a), tuple(ap))).value)
            b2max = max(b2max, bell_dp.b2_dp(
                gs2[0], bell_dp.DpSettings(tuple(a[:2]), tuple(ap[:2]))).value)
            b2max = max(b2max, bell_dp.b2_dp(
                params, bell_dp.DpSettings(tuple(a[:2]), tuple(ap[:2]))).value)
        ok = b2max <= 2 * math.sqrt(2) + 1e-9 and b3max <= 4 + 1e-9
        return ok, f"max B2 = {b2max:.6f}, max B3 = {b3max:.6f}"
    add("quantum bounds over random sweeps", "2sqrt2 / 4 (+1e-9)", chk_bounds)

    def chk_sawtooth():
        psis = np.linspace(-math.pi, math.pi, 200)
        worst = -math.inf
        for n2 in (0.5, 1.0, 5.0):
            p = conditional.ConditionalParams(n2=n2, n3=0.5, eta=1.0)
            for psi in psis:
                eh = homodyne.e_h_conditional(p, homodyne.HomodyneSetting(psi, 0.0))
                cl = homodyne.classical_reference(psi)
                worst = max(worst, abs(eh) - abs(cl))
                if eh * cl < -1e-12:
                    return False, f"sign mismatch at psi={psi}"
        return worst <= 1e-12, f"max(|E_H| - |sawtooth|) = {worst:.2e}"
    add("heralded homodyne below the classical sawtooth", "<= 0", chk_sawtooth)

    def chk_homodyne_chsh():
        angles = np.random.default_rng(11).uniform(-math.pi, math.pi, (10000, 4))
        p = conditional.ConditionalParams(n2=1.0, n3=0.5, eta=1.0)
        tw = gaussian.twb_state(3.0)
        mx = max(float(np.max(homodyne.chsh_h(p, angles))),
                 float(np.max(homodyne.chsh_h(tw, angles))))
        return mx <= 2.0, f"max CHSH = {mx:.6f} over 1e4 random settings"
    add("homodyne CHSH never exceeds 2", "2", chk_homodyne_chsh)

    return checks, notes


def run_verify(cutoff: int = 30, tol: float = 1e-8) -> int:
    """Run the oracle-equivalence and invariant suite; exit 1 on any failure."""
    checks, notes = _verify_checks(cutoff, tol)
    width = max(len(c.name) for c in checks)
    failures = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        if not c.passed:
            failures += 1
        print(f"[{status}] {c.name:<{width}}  tol {c.tolerance:<16} {c.detail}")
    for note in notes:
        print(f"[NOTE] {note}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cvbell",
                                 description="Bell tests for two- and three-mode CV states")
    sub = ap.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="write one figure's data table")
    fig.add_argument("id", choices=FIGURE_IDS)
    fig.add_argument("--out", default=None)
    fig.add_argument("--format", choices=("csv", "json"), default="csv")

    pt = sub.add_parser("point", help="evaluate one configuration")
    pt.add_argument("--state", required=True)
    pt.add_argument("--test", required=True)
    for flag in ("--r", "--n", "--n2", "--n3", "--phi2", "--phi3", "--eta", "--j", "--tol"):
        pt.add_argument(flag, type=float, default=None)
    pt.add_argument("--optimize", action="store_true")
    pt.add_argument("--grid", type=str, default=None, help="lo:hi:steps sweep of the energy")
    pt.add_argument("--cutoff", type=int, default=30)
    pt.add_argument("--out", default=None)
    pt.add_argument("--format", choices=("csv", "json"), default="json")

    ver = sub.add_parser("verify", help="run the oracle-equivalence suite")
    ver.add_argument("--cutoff", type=int, default=30)
    ver.add_argument("--tol", type=float, default=1e-8)
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "figure":
            return run_figure(args.id, args.out, args.format)
        if args.command == "point":
            cfg = RunConfig(
                state=args.state, test=args.test, r=args.r, n=args.n,
                n2=args.n2, n3=args.n3,
                phi2=args.phi2 if args.phi2 is not None else 0.0,
                phi3=args.phi3 if args.phi3 is not None else 0.0,
                eta=args.eta if args.eta is not None else 1.0,
                j=args.j, optimize=args.optimize,
                grid=_parse_grid(args.grid) if args.grid else None,
                cutoff=args.cutoff,
                tol=args.tol if args.tol is not None else 1e-8,
                out=args.out, format=args.format,
            )
            return run_point(cfg)
        return run_verify(args.cutoff, args.tol)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except CvBellError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
