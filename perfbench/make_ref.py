"""Regenerate the benchmark's reference outputs from the program in ``src/``.

Writes ``ref/<ID>.csv`` for the seven figures and ``ref/points.json``, the
pool of ``point`` queries the ``points`` workload draws from, with each
query's values.  Run from the repository root:

    python3 perfbench/make_ref.py

Regenerate only at a commit whose outputs are known to be right: the
benchmark's correctness checks compare against these files.

The pool is fixed by POOL_SEED.  Each query kind owns ``count`` slots of a
pass and the pool holds CANDIDATES draws per slot; a seed picks one candidate
per slot, so every seed's stream has the same mix of kinds and energies and
differs only in the draws.  Only flags the chosen evaluator consumes are
passed: no --n2/--n3 for su21 dp3, no --grid with ghz --r, no --out,
--format, --cutoff or --tol on point, no --eta on twb, and --n3 always for
conditional.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))

from checks import FIGURE_IDS, check_point  # noqa: E402

POOL_SEED = 410194
CANDIDATES = 4


def _f(x: float) -> str:
    return f"{x:.6g}"


def _state(state: str, lo: float, hi: float, *extra: str):
    return lambda draw: ["--state", state, "--n", _f(draw(lo, hi)), *extra]


def _conditional(lo: float, hi: float, *extra: str):
    return lambda draw: ["--state", "conditional", "--n2", _f(draw(lo, hi)),
                         "--n3", _f(draw(1e-2, 5.0, 1)), "--eta", _f(draw(0.2, 1.0, 2, log=False)),
                         *extra]


def _sweep(build, steps: int):
    """Sweep the energy from the drawn value to three times it."""
    def sweep(draw):
        args = build(draw)
        e = float(args[args.index("--n2" if "--n2" in args else "--n") + 1])
        return [*args, "--grid", f"{_f(e)}:{_f(3 * e)}:{steps}"]
    return sweep


# name, slots per pass, test, argv builder.  Light kinds (ms-scale) fill 80
# slots and heavy ones 20: ps3 (0.25-0.45 s) 6 and homodyne (0.5-1.1 s) 14, so
# p50 lands inside the conditional dp2 group and p90 inside the homodyne group.
KINDS = [
    ("twb_ps2", 8, "ps2", _state("twb", 1e-3, 1e4)),
    ("conditional_ps2", 12, "ps2", _conditional(1e-2, 30.0)),
    ("ghz_dp3_n", 6, "dp3", _state("ghz", 1e-3, 1e5, "--optimize")),
    ("ghz_dp3_r", 4, "dp3",
     lambda draw: ["--state", "ghz", "--r", _f(draw(1e-2, 4.0)), "--optimize"]),
    ("su21_dp3", 10, "dp3", _state("su21", 1e-3, 1e5, "--optimize")),
    ("conditional_dp2", 20, "dp2", _conditional(1e-2, 1e3, "--optimize")),
    ("twb_dp2", 15, "dp2", _state("twb", 1e-3, 1e4, "--optimize")),
    ("twb_ps2_sweep", 1, "ps2", _sweep(_state("twb", 1e-2, 1e3), 9)),
    ("conditional_ps2_sweep", 1, "ps2", _sweep(_conditional(1e-2, 10.0), 5)),
    ("ghz_dp3_sweep", 1, "dp3", _sweep(_state("ghz", 1e-2, 1e4, "--optimize"), 5)),
    ("su21_dp3_sweep", 1, "dp3", _sweep(_state("su21", 1e-2, 1e4, "--optimize"), 5)),
    ("conditional_dp2_sweep", 1, "dp2", _sweep(_conditional(1e-2, 100.0, "--optimize"), 4)),
    ("ghz_ps3", 3, "ps3", _state("ghz", 1e-2, 1e3)),
    ("su21_ps3_n", 2, "ps3", _state("su21", 1e-2, 40.0)),
    ("su21_ps3_split", 1, "ps3",
     lambda draw: ["--state", "su21", "--n2", _f(draw(1e-2, 10.0)),
                   "--n3", _f(draw(1e-2, 10.0, 1))]),
    ("twb_homodyne", 7, "homodyne", _state("twb", 1e-2, 1e3)),
    ("conditional_homodyne", 7, "homodyne", _conditional(1e-2, 1e3)),
]


def pool_queries() -> list[dict]:
    """Latin-hypercube pool: in each kind, slot i draws every parameter from
    the middle half of its own stratum (the primary energy from stratum i,
    the others from fixed permutations), so all candidates of a slot cost
    about the same and every seed's stream costs about the same."""
    rng = random.Random(POOL_SEED)
    pool = []
    for name, count, test, build in KINDS:
        perms = [list(range(count)) for _ in range(3)]
        for perm in perms[1:]:
            rng.shuffle(perm)
        for slot in range(count):
            def draw(lo, hi, dim=0, log=True):
                u = (perms[dim][slot] + 0.25 + 0.5 * rng.random()) / count
                return lo * (hi / lo) ** u if log else lo + (hi - lo) * u
            for _ in range(CANDIDATES):
                argv = ["point", "--test", test, *build(draw)]
                pool.append({
                    "kind": name, "slot": slot, "test": test,
                    "one_sided": "--optimize" in argv or test in ("ps3", "homodyne"),
                    "sweep": "--grid" in argv, "argv": argv,
                })
    return pool


def main() -> int:
    import cvbell.cli as cli

    ref = HERE / "ref"
    ref.mkdir(exist_ok=True)
    for fid in FIGURE_IDS:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["figure", fid, "--out", str(ref / f"{fid}.csv")]) != 0:
                raise SystemExit(f"figure {fid} failed")
    pool = pool_queries()
    for entry in pool:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(entry["argv"])
        out = buf.getvalue()
        if rc != 0:
            raise SystemExit(f"exit {rc}: {' '.join(entry['argv'])}")
        entry["values"] = [json.loads(line)["value"] for line in out.splitlines()]
        why = check_point(entry, out)
        if why:
            raise SystemExit(f"{why}: {' '.join(entry['argv'])}")
    with open(ref / "points.json", "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in pool) + "\n]\n")
    print(f"wrote {len(FIGURE_IDS)} figures and {len(pool)} point queries to {ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
