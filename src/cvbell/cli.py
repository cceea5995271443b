"""Batch front-end: figure tables, single-point evaluations, and the dispatch of ``verify``.

Output tables are byte-stable across runs: fixed grids, deterministic
optimizers, and 12-significant-digit formatting.

One table of commands, ``_COMMANDS``, drives the parse, the dispatch and
``--help``; ``point`` takes its flags from ``_FLAGS`` and each (state, test)
pair's from ``_PAIRS``, which ``validate`` checks.  An option is ``--name
value`` or ``--name=value``, spelled in full and given at most once; anything
else is a usage error.  ``--grid`` sets the swept flag over any value given
for it.  Nothing is built per call, so ``main`` may be called many times in
one process.
"""
from __future__ import annotations

import json
import math
import sys
from functools import cache, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import bell_dp, bell_ps, conditional, gaussian, homodyne, optim, verify
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
        raise UsageError(f"bad --grid {text!r}, expected lo:hi:steps") from exc
    if not math.isfinite(lo) or not math.isfinite(hi):
        raise UsageError(f"bad --grid {text!r}, bounds must be finite")
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


def _cell_lines(rows) -> list[str]:
    """Each row's ``_CELL`` texts, comma-joined, with a newline.  A column at most half
    distinct formats each distinct value once, keyed on its float bits: -0.0 is not 0.0."""
    columns = []
    for col in np.asarray(rows, dtype=float).T:
        bits = np.sort(col.view(np.int64))
        new = bits[1:] != bits[:-1]
        if 2 * (1 + np.count_nonzero(new)) <= len(col):
            keys = bits[np.append(True, new)]
            texts = np.array([_CELL % v for v in keys.view(float).tolist()], dtype=object)
            col = texts[np.searchsorted(keys, col.view(np.int64))]
        columns.append(col)
    line = ",".join(_CELL if c.dtype == float else "%s" for c in columns) + "\n"
    return [line % row for row in zip(*(c.tolist() for c in columns))]


def _b3dpvlbgen():
    rs = np.linspace(0.0, 3.0, 61)[:, None]     # one exponential per r
    js = np.concatenate([[0.0], np.logspace(-4, 0, 40)])
    return {}, ["r", "j", "b3_dp"], np.stack(
        np.broadcast_arrays(rs, js, bell_dp.b3_ghz_closed(rs, js)), axis=-1).reshape(-1, 3)


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
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown format {fmt!r}; choose from csv, json")
    if out == "":
        raise UsageError("--out needs a path, not ''")
    meta, cols, rows = _FIGURES[figure_id]()
    path = out or f"{figure_id}.{fmt}"
    try:
        with open(path, "w") as fh:
            if fmt == "json":       # the CSV's metadata, then each value the float of its CSV text
                fh.write(json.dumps({"figure": figure_id, **meta}, sort_keys=True) + "\n")
                fh.writelines(json.dumps(dict(zip(cols, map(float, line[:-1].split(",")))),
                                         sort_keys=True) + "\n" for line in _cell_lines(rows))
            else:
                for k, v in sorted({"figure": figure_id, **meta}.items()):
                    fh.write(f"# {k}={v}\n")
                fh.write(",".join(cols) + "\n")
                fh.writelines(_cell_lines(rows))
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# command line: one table of commands, read by the parse, the dispatch and --help

class _Command(NamedTuple):
    """A command's help line, its positional arguments, its options as name ->
    (converter, metavar), or None for a bare flag, the options it needs, and
    the function it calls with them all."""
    summary: str
    args: tuple[str, ...]
    options: dict[str, tuple[Callable[[str], object], str] | None]
    needs: tuple[str, ...]
    run: Callable[..., int]


_COMMANDS = {
    "figure": _Command("write one figure's table, csv by default, to ID.FORMAT unless --out",
                       ("id",), {"out": (str, "PATH"), "format": (str, "csv|json")}, (),
                       lambda figure_id, out=None, format="csv": run_figure(figure_id, out, format)),
    "point": _Command("evaluate one configuration, or a --grid sweep of it", (),
                      {"state": (str, "STATE"), "test": (str, "TEST"),
                       **{k: None if k == "optimize" else (float, "X") for k in _FLAGS},
                       "grid": (_parse_grid, "LO:HI:STEPS")}, ("state", "test"), run_point),
    "verify": _Command("run the oracle-equivalence suite at a Fock --cutoff, default 30", (),
                       {"cutoff": (int, "INT")}, (), verify.run_verify),
}
_HELP = ("-h", "--help")


def _help(name: str | None = None) -> int:
    """Print the usage of the command ``name``, or of all, from the tables."""
    lines = ["usage: cvbell COMMAND; each option is --name VALUE or --name=VALUE, "
             "spelled in full and given at most once"]
    for key, cmd in _COMMANDS.items() if name is None else [(name, _COMMANDS[name])]:
        lines += ["", " ".join(["cvbell", key, *map(str.upper, cmd.args), *(
            f"--{k} {spec[1]}" if k in cmd.needs else f"[--{k}{' ' + spec[1] if spec else ''}]"
            for k, spec in cmd.options.items())]), f"  {cmd.summary}"]
        if key == "figure":
            lines.append("  ID: " + ", ".join(FIGURE_IDS))
        if key == "point":
            lines.append("  each (state, test) pair reads these flags (a | b: exactly one):")
            for (s, t), pair in _PAIRS.items():
                lines.append(f"    {s} {t}: " + "; ".join(" | ".join(" ".join(
                    f"[--{k}]" if k in _DEFAULTS else f"--{k}" for k in form) for form in forms)
                    for forms in pair.groups))
            lines += ["  defaults: " + ", ".join(f"--{k} {v:g}" for k, v in _DEFAULTS.items()),
                      "  --grid sets a pair's first flag, --n or --n2, to each of "
                      "np.linspace(LO, HI, STEPS) in turn, over any value given"]
    print("\n".join(lines))
    return 0


def _parse(argv: Sequence[str]) -> Callable[[], int]:
    """The call ``argv`` asks for: its command's function on the positional
    arguments and the given options, converted, or ``_help`` at ``-h`` or
    ``--help``.  The first thing its table entry does not take, an option
    spelled otherwise or given twice included, is a ``UsageError``."""
    if argv and argv[0] in _HELP:
        return _help
    if not argv or argv[0] not in _COMMANDS:
        raise UsageError((f"unknown command {argv[0]!r}" if argv else "no command")
                         + "; choose from " + ", ".join(_COMMANDS))
    name, tokens = argv[0], iter(argv[1:])
    cmd, args, given = _COMMANDS[name], [], {}
    for token in tokens:
        key, eq, text = token[2:].partition("=")
        if token in _HELP:
            return partial(_help, name)
        if not token.startswith("--"):
            args.append(token)
        elif key not in cmd.options:
            raise UsageError(f"{name} has no option --{key}")
        elif key in given:
            raise UsageError(f"--{key} is given twice")
        elif cmd.options[key] is None:
            if eq:
                raise UsageError(f"--{key} takes no value")
            given[key] = True
        else:
            convert, metavar = cmd.options[key]
            text = text if eq else next(tokens, None)
            if text is None:
                raise UsageError(f"--{key} needs a value")
            try:
                given[key] = convert(text)
            except ValueError:
                raise UsageError(f"--{key} takes {metavar}, not {text!r}") from None
    if len(args) > len(cmd.args):
        raise UsageError(f"stray argument {args[len(cmd.args)]!r}")
    missing = [*map(str.upper, cmd.args[len(args):]),
               *(f"--{k}" for k in cmd.needs if k not in given)]
    if missing:
        raise UsageError(f"{name} needs " + ", ".join(missing))
    return partial(cmd.run, *args, **given)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line, ``sys.argv[1:]`` by default; return its exit code."""
    try:
        return _parse(sys.argv[1:] if argv is None else argv)()
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
