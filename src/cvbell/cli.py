"""Batch front-end: figure tables, single-point evaluations, verification suite.

Output tables are byte-stable across runs: fixed grids, deterministic
optimizers, and 12-significant-digit formatting.

The argument parser is built once, when this module is imported, and never
changed after; ``main`` only parses with it, so it may be called many times in
one process.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import bell_dp, bell_ps, conditional, fock, gaussian, homodyne, optim
from .errors import CvBellError


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# point evaluations: one table entry per (state, test) pair

_PARAMS = ("r", "n", "n2", "n3", "phi2", "eta", "j")   # listed in a record's params
_FLAGS = (*_PARAMS, "optimize", "tol")
_DEFAULTS = {"phi2": 0.0, "eta": 1.0, "tol": 1e-8}


class _Pair(NamedTuple):
    """What one (state, test) pair reads and how it is evaluated.

    Exactly one form of each group is read.  A form is a tuple of flag names,
    chosen when its first name is given or has a default; unset names take
    their ``_DEFAULTS``, and a chosen form's name without one must be given.
    ``--grid`` sweeps the first name of the first form."""
    groups: tuple[tuple[tuple[str, ...], ...], ...]
    evaluate: Callable[[dict], dict]


def _ghz_r(p: dict) -> float:
    return p["r"] if "r" in p else gaussian.ghz_r_from_photons(p["n"])


def _heralded(p: dict) -> conditional.ConditionalParams:
    return conditional.ConditionalParams(p["n2"], p["n3"], p["phi2"], p["eta"])


def _dp(target: Callable[[dict], object], value: Callable[[object, np.ndarray], np.ndarray],
        n_parties: int):
    """A displaced-parity evaluator: ``value(target(p), j)`` at ``--j``, or its
    maximum over J with ``--optimize``; ``value`` takes J of any shape.
    ``target`` runs once per query and every J reuses it; for dp2 it is
    ``bell_dp.DpRates`` of the state at its family's J = 1 setting, the one
    engine every displaced-parity Bell value comes from, so a J costs 4 (twin
    beam) or 8 (heralded) exponentials and no quadratic form.

    The query is checked at its boundary: ``--j`` once, after the target,
    and the value at ``--j``, or the maximum over J, once as an
    ``n_parties`` Bell value.  ``value`` may leave both unchecked: the scan's
    J are finite, and its maximum is the largest value it evaluated.  For dp2
    it is ``DpRates``' unchecked core; the dp3 closed forms check their own.

    The scan runs over [1e-9, 10], or over [1e-4/N, 10] for a photon number N
    (``--n``, or ``--n2``) above 1e5: the optima fall as about 1/N (0.17/N for
    ``su21 dp3``), below a fixed 1e-9 once N passes about 1e8.

    A 1-D array of ``n`` (the B3DPN figure) is one lockstep maximization of
    its brackets: ``target`` then gives one entry per N, and ``value`` takes
    those of the live brackets as a column.  Each entry is the value a float N
    gives, and ``evaluations`` is the total."""
    def j_lo(n: float) -> float:
        return 1e-4 / n if 1e5 < n < math.inf else 1e-9

    def evaluate(p: dict) -> dict:
        t = target(p)
        if "j" in p:
            j = gaussian._nonnegative("J", p["j"])
            return {"value": bell_dp._bell(value(t, j), n_parties)}
        n = p.get("n", p.get("n2", 0.0))
        if np.ndim(n):
            res = optim.log_j_maximize(lambda j, rows: value(t[rows, None], j),
                                       [j_lo(x) for x in n.tolist()], 10.0, tol=p["tol"])
            return {"value": bell_dp._bell(res.max_value, n_parties), "j_opt": res.arg_max,
                    "evaluations": res.evaluations}
        res = optim.log_j_maximize(lambda j: value(t, j), j_lo(n), 10.0, tol=p["tol"])
        return {"value": bell_dp._bell(res.max_value, n_parties),
                "j_opt": float(res.arg_max[0]), "evaluations": res.evaluations}
    return evaluate


def _ps2(f: float) -> dict:
    return {"value": bell_ps.b2_ps_from_f(f), "f": f}


def _su21_ps3(p: dict) -> dict:
    n2, n3 = (p["n2"], p["n3"]) if "n2" in p else (p["n"] / 4.0, p["n"] / 4.0)
    return {"value": bell_ps.b3_ps_from_coeffs(bell_ps.su21_ps_coeffs(n2, n3))}


def _homodyne(target, phi2: float, tol: float) -> dict:
    """CHSH maximum of a state whose correlator is an even function E of
    theta + phi + phi2: the settings [0, 2d, -d - phi2, d - phi2] read E at
    -d, d, d and 3d, so the value is |3E(d) - E(3d)|, maximized over d in
    [0, pi/2] to bracket width ``tol`` from one correlator call per scan: with
    E(pi - psi) = -E(psi), d and pi - d give one value, so each peak is scanned once.
    The target is checked once, at the first scan (after the maximizer's
    ``tol``), and the scans call its correlator on their finite phases unchecked."""
    correlator = cache(lambda: homodyne._correlator(target))

    def value(d: np.ndarray) -> np.ndarray:
        e = correlator()(0.0, np.stack([d, 3 * d]) - phi2)
        return np.abs(3 * e[0] - e[1])

    res = optim.maximize_scalar(value, 0.0, math.pi / 2, tol)
    d = float(res.arg_max[0])
    return {"value": res.max_value, "settings": [0.0, 2 * d, -d - phi2, d - phi2]}


_N = (("n",),)
_GHZ = (("n",), ("r",))
_HERALDED = (("n2", "n3", "phi2", "eta"),)
_CLICK = (("n2", "n3", "eta"),)
_DP = (("j",), ("optimize", "tol"))
_TOL = (("tol",),)

# each dp2 family is sqrt(J) times its J = 1 setting: one rate form per query,
# from settings built once, read-only
_TWB_DP = bell_dp.twb_dp_settings(1.0)
_HERALDED_DP = bell_dp.conditional_dp_settings(1.0)
for _a in (_TWB_DP.unprimed, _TWB_DP.primed, _HERALDED_DP.unprimed, _HERALDED_DP.primed):
    _a.setflags(write=False)

_PAIRS = {
    # each closed form's magnitude is checked before --j, as the closed form does
    ("ghz", "dp3"): _Pair((_GHZ, _DP), _dp(lambda p: gaussian._nonnegative("r", _ghz_r(p)),
                                           bell_dp.b3_ghz_closed, 3)),
    # the trilinear closed form is the symmetric one: it reads the total N only
    ("su21", "dp3"): _Pair((_N, _DP), _dp(lambda p: gaussian._nonnegative("N", p["n"]),
                                          bell_dp.b3_su21_closed, 3)),
    ("twb", "dp2"): _Pair((_N, _DP), _dp(
        lambda p: bell_dp.DpRates(gaussian.twb_state(p["n"]), _TWB_DP),
        bell_dp.DpRates._core, 2)),
    ("conditional", "dp2"): _Pair((_HERALDED, _DP), _dp(
        lambda p: bell_dp.DpRates(_heralded(p), _HERALDED_DP), bell_dp.DpRates._core, 2)),
    ("ghz", "ps3"): _Pair((_GHZ,), lambda p: {
        "value": bell_ps.b3_ps_from_coeffs(bell_ps.ghz_pi_coeffs(_ghz_r(p)))}),
    ("su21", "ps3"): _Pair(((("n",), ("n2", "n3")),), _su21_ps3),
    ("twb", "ps2"): _Pair((_N,), lambda p: _ps2(bell_ps.f_twb(p["n"]))),
    # the spin-flip coefficient reads no phase
    ("conditional", "ps2"): _Pair((_CLICK,), lambda p: _ps2(
        bell_ps.f_conditional(conditional.ConditionalParams(p["n2"], p["n3"], eta=p["eta"])))),
    ("twb", "homodyne"): _Pair((_N, _TOL), lambda p: _homodyne(
        gaussian.twb_state(p["n"]), 0.0, p["tol"])),
    ("conditional", "homodyne"): _Pair((_HERALDED, _TOL), lambda p: _homodyne(
        _heralded(p), p["phi2"], p["tol"])),
}


def validate(state: str, test: str, flags: dict, grid: tuple[float, float, int] | None = None
             ) -> dict:
    """Return the values the (state, test) pair's evaluator reads: the given
    ``flags`` by name, unset ones at their defaults, and under ``grid`` the
    swept flag; raise ``UsageError`` for a flag it would not read."""
    pair = _PAIRS.get((state, test))
    if pair is None:
        raise UsageError(f"no test {test!r} for state {state!r}; choose from "
                         + ", ".join(f"{s} {t}" for s, t in _PAIRS))
    name, sweep = f"{state} {test}", pair.groups[0][0][0]
    given = dict(flags)
    if grid is not None:
        if grid[2] < 1:
            raise UsageError("--grid needs at least one step")
        given.setdefault(sweep, None)       # each step sets it
    values: dict = {}
    for forms in pair.groups:
        chosen = [f for f in forms if f[0] in given or f[0] in _DEFAULTS]
        if len(chosen) > 1:
            hint = f" (--grid sweeps --{sweep})" if grid is not None else ""
            raise UsageError(f"{name} takes --{chosen[0][0]} or --{chosen[1][0]}, not both{hint}")
        for f in chosen:
            missing = [k for k in f if k not in given and k not in _DEFAULTS]
            if missing:
                raise UsageError(f"{name} needs " + ", ".join(f"--{k}" for k in missing))
            values.update({k: given[k] if k in given else _DEFAULTS[k] for k in f})
    # in flag order, then any name that is not a flag
    unread = [f"--{k}" for k in dict.fromkeys((*_FLAGS, *sorted(given)))
              if k in given and k not in values]
    if unread:
        raise UsageError(f"{name} does not read {', '.join(unread)}")
    for forms in pair.groups:
        if not any(f[0] in values for f in forms):
            raise UsageError(f"{name} needs " + " or ".join(f"--{f[0]}" for f in forms))
    return values


def _parse_grid(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --grid {text!r}, expected lo:hi:steps") from exc
    if not math.isfinite(lo) or not math.isfinite(hi):
        raise argparse.ArgumentTypeError(f"bad --grid {text!r}, bounds must be finite")
    return lo, hi, steps


def _linspace(lo: float, hi: float, steps: int):
    """``np.linspace(lo, hi, steps)`` one value at a time, bit for bit, so no step count
    builds an array: k*step + lo, the last hi, (k/div)*delta + lo if the step underflows."""
    div, delta = steps - 1, hi - lo
    step = delta / div if div else 0.0
    for k in range(div):
        yield (k * step if step else k / div * delta) + lo
    yield hi if div else 0 * delta + lo


def run_point(state: str, test: str, grid: tuple[float, float, int] | None = None,
              **flags) -> int:
    """Evaluate one query, the ``point`` flags given as keywords, or a
    lo:hi:steps ``grid`` sweep of it, and print JSON records to stdout."""
    values = validate(state, test, flags, grid)
    pair = _PAIRS[state, test]
    sweep = pair.groups[0][0][0]
    steps = [values] if grid is None else (
        {**values, sweep: v} for v in _linspace(*grid))
    for p in steps:
        rec = {"state": state, "test": test,
               "params": {k: p[k] for k in _PARAMS if k in p}, **pair.evaluate(p)}
        print(json.dumps(rec, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# figures: each builder returns (meta, column names, rows)

_CELL = "%.12g"   # every figure cell, in the CSV and the JSON tables


def _b3dpvlbgen():
    rs = np.linspace(0.0, 3.0, 61)
    js = np.concatenate([[0.0], np.logspace(-4, 0, 40)])
    r, j = np.meshgrid(rs, js, indexing="ij")
    return {}, ["r", "j", "b3_dp"], np.stack([r, j, bell_dp.b3_ghz_closed(r, j)],
                                             axis=-1).reshape(-1, 3)


def _dp_rows(xs, target, family, js) -> np.ndarray:
    """Rows (x, J, B) of the Bell value of ``target(x)`` at ``family(J)``: one
    ``DpRates`` of the batch of states at the xs, a column, against the
    settings' batch over J."""
    x, j = np.meshgrid(xs, js, indexing="ij")
    values = bell_dp.DpRates(target(xs[:, None]), family(js)).bell()
    return np.stack([x, j, values], axis=-1).reshape(-1, 3)


def _b3dpt():
    return {}, ["n", "j", "b3_dp"], _dp_rows(np.logspace(-1, 3, 33), bell_dp.su21_opt_state,
                                            bell_dp.su21_opt_dp_settings, np.logspace(-5, 0, 33))


def _b3dpn():
    # point --test dp3 --optimize, once per state for all 71 N
    best = {"n": np.logspace(-2, 5, 71), "optimize": True, "tol": _DEFAULTS["tol"]}
    return {}, ["n", "b3_dp_ghz_opt", "b3_dp_su21_opt"], np.stack(
        [best["n"], *(_PAIRS[s, "dp3"].evaluate(best)["value"] for s in ("ghz", "su21"))],
        axis=-1)


def _b3ps():
    rows = []
    for n in np.logspace(-2, 2, 61):
        t = bell_ps.b3_ps_from_coeffs(bell_ps.su21_pi_coeffs(n))
        g = bell_ps.b3_ps_from_coeffs(bell_ps.ghz_pi_coeffs(gaussian.ghz_r_from_photons(n)))
        rows.append([n, t, g])
    return {}, ["n", "b3_ps_pi_su21", "b3_ps_pi_ghz"], rows


def _b2dptwba():
    rows = _dp_rows(np.logspace(0, 4, 25),
                    lambda n2: conditional.ConditionalParams(n2=n2, n3=1e-2 / n2, eta=1.0),
                    bell_dp.conditional_dp_settings, np.logspace(-6, -1, 33))
    return {"n3": "1e-2/n2", "eta": 1.0}, ["n2", "j", "b2_dp"], rows


def _b2ps():
    rows = []
    for n in np.linspace(0.05, 10.0, 100):
        p = conditional.ConditionalParams(n2=n, n3=0.1, eta=0.8)
        rows.append([n, bell_ps.f_twb(n), bell_ps.f_conditional(p), bell_ps.f_traced(p)])
    meta = {"eta": 0.8, "n3": 0.1, "note": "f_1/f_tr swept in n2 at fixed n3"}
    return meta, ["n", "f_twb", "f_1", "f_tr"], rows


def _e2h():
    psis = np.linspace(-np.pi, np.pi, 201)
    curves = [homodyne.e_h(conditional.ConditionalParams(n2=n2, n3=0.5, eta=1.0), psis, 0.0)
              for n2 in (0.5, 1.0, 5.0)]
    rows = [[psi, homodyne.classical_reference(psi), *es] for psi, *es in zip(psis, *curves)]
    return {"n3": 0.5, "eta": 1.0}, ["psi", "e_classical", "e_n2_0.5", "e_n2_1", "e_n2_5"], rows


_FIGURES = {"B3DPVLBGen": _b3dpvlbgen, "B3DPT": _b3dpt, "B3DPN": _b3dpn, "B3PS": _b3ps,
            "B2DPTWBA": _b2dptwba, "B2PS": _b2ps, "E2H": _e2h}
FIGURE_IDS = tuple(_FIGURES)


def run_figure(figure_id: str, out: str | None = None, fmt: str = "csv") -> int:
    """Write one figure's data table to ``out`` (default <id>.<fmt>)."""
    if figure_id not in _FIGURES:
        raise UsageError(f"unknown figure id {figure_id!r}; choose from {FIGURE_IDS}")
    meta, cols, rows = _FIGURES[figure_id]()
    path = out or f"{figure_id}.{fmt}"
    try:
        with open(path, "w") as fh:
            if fmt == "json":
                for row in rows:
                    fh.write(json.dumps({c: float(_CELL % v) for c, v in zip(cols, row)},
                                        sort_keys=True) + "\n")
            else:
                for k, v in sorted({"figure": figure_id, **meta}.items()):
                    fh.write(f"# {k}={v}\n")
                fh.write(",".join(cols) + "\n")
                line = ",".join([_CELL] * len(cols)) + "\n"   # one %-format per row
                fh.writelines(line % tuple(row) for row in np.asarray(rows, dtype=float).tolist())
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# verification suite: rows (name, bound, fn); a row passes iff fn() <= bound

def _max_diff(pairs) -> float:
    """max |a - b| over (a, b) pairs: every oracle-vs-closed-form row's value."""
    return max(abs(float(a) - float(b)) for a, b in pairs)


def _verify_checks(cutoff: int) -> tuple[list[tuple[str, float, Callable[[], float]]],
                                         Callable[[], str]]:
    """The rows of ``verify`` at a Fock ``cutoff``, and its one note."""
    phot = gaussian.TripartitePhotonNumbers(0.3, 0.3)
    params = conditional.ConditionalParams(0.3, 0.3, eta=0.8)
    X, Z = (math.pi / 2, 0.0), (0.0, 0.0)
    ghz_al = (0.3 + 0.2j, -0.25 + 0.1j, 0.15 - 0.3j)
    # Work that rows share, done on first use.  A Fock build that raises caches nothing,
    # so each row that needs it fails with its message, naming the first state it asks
    # for.  Pseudospin needs an even cutoff: an odd one takes the even one above it.
    su21_st = cache(lambda: fock.su21_fock(phot, cutoff))
    twb_st = cache(lambda: fock.twb_fock(math.tanh(math.asinh(math.sqrt(0.5))), cutoff))
    heralded_st = cache(lambda: fock.onoff_condition(su21_st(), 2, 0.8))
    ps_st = cache(lambda: su21_st() if cutoff % 2 == 0 else fock.su21_fock(phot, cutoff + 1))

    def dp_oracle():
        su21, twb = gaussian.su21_state(phot), gaussian.twb_state(1.0)
        return _max_diff([(fock.displaced_parity_expect(su21_st(), al), bell_dp.e_dp(su21, al))
                          for al in [(0.1, 0.1j, 0.0), (0.2, -0.1 + 0.05j, 0.1j)]]
                         + [(fock.displaced_parity_expect(twb_st(), al), bell_dp.e_dp(twb, al))
                            for al in [(0.2, 0.1), (0.3j, -0.2j)]])

    def click():
        # total photons <= 0.8: the cutoff-30 truncation tail (~3e-11) is well inside 1e-9
        states = {n3: su21_st() if n3 == phot.n3 else fock.su21_fock(
            gaussian.TripartitePhotonNumbers(0.3, n3), cutoff) for n3 in (0.1, 0.3, 0.5)}
        return _max_diff((fock.click_probability(st, 2, eta),
                          conditional.p_click(conditional.ConditionalParams(0.3, n3, eta=eta)))
                         for n3, st in states.items() for eta in (0.2, 0.6, 1.0))

    def wigner(p: conditional.ConditionalParams, pts: np.ndarray):
        # W(x1, x2, y1, y2) = e_dp(p, (x + iy)/sqrt 2) / pi^2, the heralded dp2 values' path
        return bell_dp.e_dp(p, (pts[..., :2] + 1j * pts[..., 2:]) / math.sqrt(2.0)) / np.pi**2

    def wigner_min():
        grid = np.meshgrid(np.linspace(-1, 1, 21), np.linspace(-1, 1, 21), [0.0], [0.0],
                           indexing="ij")
        return np.min(wigner(conditional.ConditionalParams(1.0, 0.5, eta=1.0),
                             np.stack(grid, axis=-1).reshape(-1, 4)))

    def ps_series():
        # the ladder oracle (odd number states +1) gives -c_k of the closed
        # forms, whose all-z correlator is +1, and an all-z correlator of -1
        c = bell_ps.su21_ps_coeffs(0.3, 0.3)
        return _max_diff(zip([fock.pseudospin_expect(ps_st(), s)
                              for s in ([Z, X, X], [X, Z, X], [X, X, Z], [Z, Z, Z])],
                             [-c.c1, -c.c2, -c.c3, -1.0]))

    def pi_coeffs():
        # the y-sign quadrature gives -closed on the trilinear state, +closed on GHZ
        sq = bell_ps.pi_coeffs_quadrature(bell_dp.su21_sym_state(1.0))
        sc = bell_ps.su21_pi_coeffs(1.0)
        gq = bell_ps.pi_coeffs_quadrature(gaussian.ghz_state(0.42))
        gc = bell_ps.ghz_pi_coeffs(0.42)
        return _max_diff([(sq.c1, -sc.c1), (sq.c2, -sc.c2), (sq.c3, -sc.c3),
                          (gq.c1, gc.c1), (gq.c2, gc.c2), (gq.c3, gc.c3)])

    @cache
    def sweep():
        rng = np.random.default_rng(7)
        z, pick = np.empty((400, 12)), np.empty(400, dtype=int)
        for i in range(400):    # the stream interleaves each row's normals and pick
            z[i] = rng.normal(0, 0.5, 12)
            pick[i] = rng.integers(0, 2)
        return z[:, 0:3] + 1j * z[:, 3:6], z[:, 6:9] + 1j * z[:, 9:12], pick

    def b2_max():
        a, ap, _ = sweep()
        two = bell_dp.DpSettings(a[:, :2], ap[:, :2])
        return max(np.max(bell_dp.DpRates(t, two).bell())
                   for t in (gaussian.twb_state(2.0), params))

    def b3_max():
        a, ap, pick = sweep()
        return max(np.max(bell_dp.DpRates(st, bell_dp.DpSettings(a[pick == i], ap[pick == i]))
                          .bell())
                   for i, st in enumerate([gaussian.ghz_state(1.2), gaussian.su21_state(phot)]))

    @cache
    def sawtooth():
        psis = np.linspace(-math.pi, math.pi, 200)
        return np.array([homodyne.classical_reference(psi) for psi in psis]), np.array(
            [homodyne.e_h(conditional.ConditionalParams(n2=n2, n3=0.5, eta=1.0), psis, 0.0)
             for n2 in (0.5, 1.0, 5.0)])

    def homodyne_chsh():
        angles = np.random.default_rng(11).uniform(-math.pi, math.pi, (10000, 4))
        return max(np.max(homodyne.chsh_h(t, angles)) for t in (
            conditional.ConditionalParams(n2=1.0, n3=0.5, eta=1.0), gaussian.twb_state(3.0)))

    def note():
        rho = heralded_st() if cutoff % 2 == 0 else fock.onoff_condition(ps_st(), 2, 0.8)
        return ("documented finding: the heralded spin-flip coefficient f_conditional is "
                f"{bell_ps.f_conditional(params):.6f} at (n2, n3, eta) = (0.3, 0.3, 0.8), while "
                f"the oracle's <s_x s_x> on the heralded state is "
                f"{fock.pseudospin_expect(rho, [X, X]):.6f}: the closed form sums every n3, "
                "the oracle only the even n3, so B2PS's f_1 and conditional ps2 are not "
                "oracle-checked.")

    return [
        ("pure-state determinants", 1e-9, lambda: max(abs(s.factors[1] - 1.0) for s in (
            gaussian.ghz_state(1.0), gaussian.su21_state(phot), gaussian.twb_state(2.0)))),
        ("displaced parity vs oracle", 1e-4, dp_oracle),
        # the tritter ket, from its A matrix alone, shares nothing with ghz_state's covariance
        ("GHZ displaced parity vs oracle", 1e-10, lambda: abs(fock.displaced_parity_expect(
            fock.ghz_fock(0.42, cutoff), ghz_al) - bell_dp.e_dp(gaussian.ghz_state(0.42), ghz_al))),
        ("click probability vs oracle", 1e-9, click),
        ("heralded Wigner vs oracle", 1e-4, lambda: _max_diff(
            (wigner(params, pt), fock.wigner_reconstruct(heralded_st(), pt)) for pt in np.array(
                [[0.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.1, 0.4], [0.5, 0.5, -0.3, 0.2]]))),
        # each Gaussian w exp(-x.Q.x) integrates to w pi^2 / sqrt(det Q)
        ("heralded Wigner normalization", 1e-3, lambda: abs(np.pi**2 * sum(
            w / np.sqrt(np.linalg.det(q)) for w, q in zip(*conditional.two_gaussian_form(params)))
            - 1.0)),
        ("heralded Wigner minimum", -math.ulp(0.0), wigner_min),   # that is, min < 0
        ("pseudospin series vs oracle", 1e-4, ps_series),
        ("twin-beam spin-flip coefficient vs oracle", 1e-6, lambda: abs(fock.pseudospin_expect(
            fock.twb_fock(math.tanh(math.asinh(1.0)), max(cutoff + cutoff % 2, 40)), [X, X])
            - bell_ps.f_twb(2.0))),
        ("point-operator coefficients vs quadrature", 1e-4, pi_coeffs),
        ("twin-beam orthant correlator vs oracle", 1e-4, lambda: _max_diff(
            (fock.quadrature_orthant_expect(twb_st(), th, ph),
             homodyne.e_h(gaussian.twb_state(1.0), th, ph))
            for th, ph in ((0.0, 0.0), (0.4, 0.3), (1.1, -0.6)))),
        ("heralded orthant correlator vs oracle", 1e-3, lambda: _max_diff(
            (fock.quadrature_orthant_expect(heralded_st(), th, 0.0), homodyne.e_h(params, th, 0.0))
            for th in (0.0, 0.7, 1.9))),
        ("max B2 over random dp sweeps", 2 * math.sqrt(2) + 1e-9, b2_max),
        ("max B3 over random dp sweeps", 4 + 1e-9, b3_max),
        # |E_H| <= |sawtooth|, with the sawtooth's sign, each to rounding
        ("heralded homodyne below the classical sawtooth", 1e-12,
         lambda: np.max(np.abs(sawtooth()[1]) - np.abs(sawtooth()[0]))),
        ("heralded homodyne with the sawtooth's sign", 1e-12,
         lambda: np.max(-sawtooth()[1] * sawtooth()[0])),
        ("homodyne CHSH over 1e4 random settings", 2.0, homodyne_chsh),
    ], note


def run_verify(cutoff: int = 30) -> int:
    """Run the oracle-equivalence and invariant suite: one line per row, its
    value and bound, or the ``CvBellError`` that failed it; exit 1 on any failure."""
    rows, note = _verify_checks(cutoff)
    width = max(len(name) for name, _, _ in rows)
    failures = 0
    for name, bound, fn in rows:
        try:
            value = float(fn())
            passed, shown = value <= bound, f"{value:>13.6e}  bound {bound:.6e}"
        except CvBellError as exc:
            passed, shown = False, f"{type(exc).__name__}: {exc}"
        failures += not passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name:<{width}}  {shown}")
    try:
        print(f"[NOTE] {note()}")
    except CvBellError:
        pass    # the rows that need its states have failed with the message
    print(f"{len(rows) - failures}/{len(rows)} checks passed")
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
    pt.add_argument("--state", required=True, choices=sorted({s for s, _ in _PAIRS}))
    pt.add_argument("--test", required=True, choices=sorted({t for _, t in _PAIRS}))
    # an unset flag is left out of the namespace, so it holds only the given ones
    for flag in (*_PARAMS, "tol"):
        pt.add_argument(f"--{flag}", type=float, default=argparse.SUPPRESS)
    pt.add_argument("--optimize", action="store_true", default=argparse.SUPPRESS)
    pt.add_argument("--grid", type=_parse_grid, default=argparse.SUPPRESS,
                    help="lo:hi:steps sweep of --n, or of --n2")

    ver = sub.add_parser("verify", help="run the oracle-equivalence suite")
    ver.add_argument("--cutoff", type=int, default=30)
    return ap


_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "figure":
            return run_figure(args.id, args.out, args.format)
        if args.command == "point":
            return run_point(**{k: v for k, v in vars(args).items() if k != "command"})
        return run_verify(args.cutoff)
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
