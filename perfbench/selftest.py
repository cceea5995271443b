"""Self-test of the ``points`` generator: run from the repository root,

    python3 perfbench/selftest.py

For each of seeds 1, 2 and 3 it runs the ``points`` stream once and asserts that every query
passes its checks, that the stream covers every valid (state, test) pair, and
that no query carries a flag its evaluator does not consume.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

PAIRS = {("ghz", "dp3"), ("su21", "dp3"), ("ghz", "ps3"), ("su21", "ps3"),
         ("twb", "dp2"), ("conditional", "dp2"), ("twb", "ps2"), ("conditional", "ps2"),
         ("twb", "homodyne"), ("conditional", "homodyne")}


def flag_problems(argv: list[str]) -> list[str]:
    state, test = argv[argv.index("--state") + 1], argv[argv.index("--test") + 1]
    problems = [f"{flag} on point" for flag in ("--out", "--format", "--cutoff", "--tol")
                if flag in argv]
    if state == "su21" and test == "dp3" and ("--n2" in argv or "--n3" in argv):
        problems.append("--n2/--n3 on su21 dp3")
    if state == "ghz" and "--r" in argv and "--grid" in argv:
        problems.append("--grid with ghz --r")
    if state == "twb" and "--eta" in argv:
        problems.append("--eta on twb")
    if state == "conditional" and "--n3" not in argv:
        problems.append("conditional without --n3")
    return problems


def main(seeds=(1, 2, 3)) -> int:
    pool = json.loads((run.HERE / "ref" / "points.json").read_text())
    sys.path.insert(0, str(run.SRC))
    import cvbell
    import cvbell.cli as cli

    bad = 0
    for seed in seeds:
        commands = run.workload_commands("points", seed, pool)
        pairs = {(c["argv"][c["argv"].index("--state") + 1], c["entry"]["test"]) for c in commands}
        if pairs != PAIRS:
            print(f"seed {seed}: pairs covered {sorted(pairs)}")
            bad += 1
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
            runner = run.Runner(cvbell, cli, commands, Path(tmp))
            results = runner.run_pass()["results"]
        for cmd, (_, _, output, why) in zip(commands, results):
            problems = flag_problems(cmd["argv"]) + [why or run.check(cmd, output, {})]
            for problem in filter(None, problems):
                print(f"seed {seed}: {' '.join(cmd['argv'])}: {problem}")
                bad += 1
        print(f"seed {seed}: {len(commands)} queries checked")
    print("FAIL" if bad else "OK")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
