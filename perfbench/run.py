"""cvbell benchmark: one seeded workload through ``cvbell.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload {figures,points,oracle} --seed N \
        --seconds S --trace {0,1}

One client runs CLI commands in a closed loop, in this process, in passes:
each pass is the workload's whole job (see README.md), the same commands every
time, and passes repeat (at least two) while the next one should end within
``--seconds``.  Every command's output is checked.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` each pass
runs twice, traced and untraced, and the last line carries per-layer metrics
per pass.  The line before it holds the machine record and the per-command
breakdown.  Exits 2 without a result if ``src/cvbell`` or the reference files
are missing.
"""
from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from checks import FIGURE_IDS, check_figure, check_point, check_verify, short_hash
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_PAIRS = 5
MIN_PASSES = 2
PROBE_REF_S = 0.0025   # probe time that defines the reference host speed
SETUP_REF_S = 0.6      # reference import time that defines it for setup_s
CVBELL_IMPORT = "import time, cvbell, cvbell.cli; print(time.perf_counter())"
REFERENCE_IMPORT = "import time, numpy, scipy.linalg, scipy.special; print(time.perf_counter())"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SERIES = ("bell_ps.su21_ps_coeffs", "bell_ps.f_conditional", "bell_ps.f_traced")
E_H = ("homodyne.e_h_gaussian", "homodyne.e_h_conditional")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the number of usable cores, before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        cap = min(int(cur), nproc) if cur.isdigit() and int(cur) > 0 else nproc
        os.environ[var] = str(cap)
    return int(os.environ[BLAS_VARS[0]])


def probe() -> float:
    """Seconds a fixed CPU-bound loop takes now: scalar float math and small
    numpy calls, the mix most of cvbell's time is spent in.  numpy is
    imported here so that BLAS threads are capped before it loads."""
    import numpy as np

    a = np.eye(6) + 0.1
    t0 = time.perf_counter()
    s = 0.0
    for i in range(3000):
        x = i * 1e-3
        s += math.cos(x) * math.cos(2 * x) * math.sin(x) - 0.3 * math.sin(x) * math.cos(x)
    for _ in range(150):
        s += float(np.linalg.inv(a)[0, 0]) + float(np.exp(-a).sum())
    return time.perf_counter() - t0


def timed(fn) -> tuple[float, float, object]:
    """Run ``fn``; return its wall time, that time scaled to the reference host
    speed by the mean of the probes just before and after, and its result.

    The host is shared: for seconds to minutes at a time the same CPU-bound
    code runs up to 1.7 times slower, in CPU time as much as in wall time.
    Scaling by the probe removes most of that swing from the metrics.
    """
    before = probe()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return wall, wall * 2 * PROBE_REF_S / (before + probe()), result


def spawn_import(code: str) -> float:
    """Wall seconds from spawning a fresh interpreter to the end of ``code``,
    which prints the shared monotonic clock when its imports are done (waiting
    for the child with a timeout would poll in steps of up to 50 ms)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                         timeout=60, capture_output=True, text=True).stdout
    return float(out) - t0


class SetupSampler:
    """``setup_s``: fresh interpreter to ``import cvbell, cvbell.cli`` done.

    It is sampled in pairs spread evenly over the run's passes.  A pair is
    that import and a fixed reference import of the libraries cvbell uses
    (numpy, scipy.linalg, scipy.special), spawned back to back in alternating
    order.  The host's slow phases stretch both about alike, while the probe,
    a few small warm loops, follows import time only in part.  ``setup_s`` is the
    median ratio of a pair times ``SETUP_REF_S``: seconds at the host speed
    where the reference import takes 0.6 s.
    """

    def __init__(self, pairs: int, seconds: float) -> None:
        self.slots = [k * seconds / pairs for k in range(pairs)]
        self.pairs: list[tuple[float, float]] = []   # (cvbell s, reference s)
        self.start = time.perf_counter()
        self.spent = 0.0                               # seconds spent sampling

    def take_due(self) -> None:
        """Take one pair if its slot, in seconds of passes run so far, has come."""
        if self.slots and self.slots[0] <= time.perf_counter() - self.start - self.spent:
            self.slots.pop(0)
            self.take()

    def take(self) -> None:
        t0 = time.perf_counter()
        if len(self.pairs) % 2:
            cv, ref = spawn_import(CVBELL_IMPORT), spawn_import(REFERENCE_IMPORT)
        else:
            ref, cv = spawn_import(REFERENCE_IMPORT), spawn_import(CVBELL_IMPORT)
        self.pairs.append((cv, ref))
        self.spent += time.perf_counter() - t0

    def finish(self) -> float:
        """Take the pairs still due and return ``setup_s``."""
        while self.slots:
            self.slots.pop(0)
            self.take()
        return SETUP_REF_S * statistics.median(cv / ref for cv, ref in self.pairs)


def machine_record(blas_threads: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads, "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# ---------------------------------------------------------------------------
# workloads: the commands of one pass

def workload_commands(workload: str, seed: int, pool: list[dict]) -> list[dict]:
    if workload == "figures":
        return [{"label": fid, "figure": fid, "argv": ["figure", fid]} for fid in FIGURE_IDS]
    if workload == "oracle":
        return [{"label": f"c{c}", "argv": ["verify", "--cutoff", str(c)]} for c in (30, 40)]
    slots: dict[tuple, list[dict]] = {}
    for entry in pool:
        slots.setdefault((entry["kind"], entry["slot"]), []).append(entry)
    rng = random.Random(f"points:{seed}")
    stream = [rng.choice(candidates) for candidates in slots.values()]
    rng.shuffle(stream)
    return [{"label": e["test"] + ("_sweep" if e["sweep"] else ""), "entry": e,
             "argv": e["argv"]} for e in stream]


# ---------------------------------------------------------------------------
# running and checking

class Runner:
    """Runs passes of one command list through ``cli.main`` in this process.

    Before each command every lru_cache in cvbell is cleared, so each command
    starts from the cache state of a fresh ``cvbell`` process.  ``between``,
    if given, is called before each command, outside its timing.
    """

    def __init__(self, cvbell, cli, commands: list[dict], tmp: Path, between=None) -> None:
        self.cli, self.commands, self.tmp, self.between = cli, commands, tmp, between
        self.caches = [obj for mod in vars(cvbell).values() if inspect.ismodule(mod)
                       for obj in vars(mod).values() if hasattr(obj, "cache_clear")]
        self.form_info = cvbell.conditional.two_gaussian_form.cache_info
        self.form_hits = self.form_misses = 0

    def run_pass(self) -> dict:
        t0 = time.perf_counter()
        results = []
        for cmd in self.commands:
            if self.between:
                self.between()
            for cache in self.caches:
                cache.cache_clear()
            results.append(self.run_command(cmd))
            info = self.form_info()
            self.form_hits += info.hits
            self.form_misses += info.misses
        return {"wall": time.perf_counter() - t0, "results": results}

    def run_command(self, cmd: dict) -> tuple[float, float, str, str]:
        """Run one command; return (wall s, scaled s, output, failure reason or '')."""
        argv = list(cmd["argv"])
        if "figure" in cmd:
            out_path = self.tmp / f"{cmd['figure']}.csv"
            argv += ["--out", str(out_path)]
        buf = io.StringIO()

        def call():
            try:
                with contextlib.redirect_stdout(buf):
                    return self.cli.main(argv)
            except Exception:  # a crash is a failed command; the run goes on
                return traceback.format_exc(limit=-1).strip()

        wall, scaled, rc = timed(call)
        output = buf.getvalue()
        if rc != 0:
            return wall, scaled, output, rc if isinstance(rc, str) else f"exit code {rc}"
        if "figure" in cmd:
            output = out_path.read_text()
            out_path.unlink()
        return wall, scaled, output, ""


def check(cmd: dict, output: str, refs: dict) -> str:
    if "figure" in cmd:
        return check_figure(cmd["figure"], output, refs[cmd["figure"]])
    if "entry" in cmd:
        return check_point(cmd["entry"], output)
    return check_verify(output)


def latencies(passes: list[dict]) -> list[float]:
    """Each command's scaled latency, median over the passes."""
    return [statistics.median(lat) for lat in zip(*([r[1] for r in p["results"]]
                                                   for p in passes))]


def quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=("figures", "points", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    refs: dict = {}
    try:
        if not (SRC / "cvbell" / "__init__.py").is_file():
            raise FileNotFoundError(f"no cvbell package under {SRC}")
        for fid in FIGURE_IDS:
            refs[fid] = (HERE / "ref" / f"{fid}.csv").read_text()
        pool = json.loads((HERE / "ref" / "points.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: {exc}; run from the repository root", file=sys.stderr)
        return 2

    blas_threads = cap_blas_threads()
    load_before = os.getloadavg()

    sys.path.insert(0, str(SRC))
    import cvbell
    import cvbell.cli as cli
    if not Path(cvbell.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported cvbell from {cvbell.__file__}, not {SRC}", file=sys.stderr)
        return 2

    commands = workload_commands(args.workload, args.seed, pool)
    tracer = Tracer(cvbell) if args.trace else None
    plain, traced = [], []
    form = [0, 0]   # two_gaussian_form cache hits, misses in traced passes
    failures: list[str] = []
    # inside the checkout: the benchmark writes nowhere else
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    setup = None if tracer else SetupSampler(SETUP_PAIRS, args.seconds)
    runner = Runner(cvbell, cli, commands, tmp, setup and setup.take_due)
    try:
        start = time.perf_counter()
        while True:
            if tracer:
                hits, misses = runner.form_hits, runner.form_misses
                tracer.install()
                try:
                    traced.append(runner.run_pass())
                finally:
                    tracer.uninstall()
                form[0] += runner.form_hits - hits
                form[1] += runner.form_misses - misses
            plain.append(runner.run_pass())
            for i, cmd in enumerate(commands):
                _, _, output, why = plain[-1]["results"][i]
                why = why or check(cmd, output, refs)
                if tracer and not why:
                    _, _, t_output, t_why = traced[-1]["results"][i]
                    why = t_why or ("" if t_output == output else "traced output differs")
                if why:
                    failures.append(f"{' '.join(cmd['argv'])}: {why}")
            # start another pass only if it should end within --seconds,
            # not counting the time spent sampling setup
            elapsed = time.perf_counter() - start - (setup.spent if setup else 0.0)
            if len(plain) >= MIN_PASSES and elapsed * (len(plain) + 1) / len(plain) > args.seconds:
                break
        setup_s = setup.finish() if setup else None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted = len(commands) * len(plain)

    lat = latencies(plain)
    by_label: dict[str, list[float]] = {}
    for cmd, latency in zip(commands, lat):
        by_label.setdefault(cmd["label"], []).append(latency)
    breakdown = {}
    for label, values in sorted(by_label.items()):
        if label in FIGURE_IDS:
            breakdown[f"cli.figure.{label}_s"] = values[0]
        elif label in ("c30", "c40"):
            breakdown[f"cli.verify.{label}_s"] = values[0]
        elif not label.endswith("_sweep"):
            breakdown[f"cli.point.{label}_p50_ms"] = 1e3 * statistics.median(values)

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_record(blas_threads),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "passes": len(plain), "pass_walls_s": [p["wall"] for p in plain],
        "unscaled_wall_s": sum(statistics.median(r[0] for r in rs)
                               for rs in zip(*(p["results"] for p in plain))),
        "setup_pairs_s": setup.pairs if setup else [], "queries_per_pass": len(commands),
        "fail_frac": len(failures) / attempted, "failures": failures[:10],
        "breakdown": breakdown,
    }
    if tracer:
        metrics = layer_metrics(tracer, len(traced), lat, latencies(traced))
        metrics["cli.figure.hash_match"] = sum(
            1 for cmd, (_, _, output, why) in zip(commands, plain[-1]["results"])
            if "figure" in cmd and not why and short_hash(output) == short_hash(refs[cmd["figure"]]))
        metrics["conditional.form_cache_hit_ratio"] = form[0] / sum(form) if sum(form) else 0.0
        detail["form_cache_base"] = sum(form) // len(traced)
        total_self = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        detail["traced_self_s"] = total_self
        detail["optim_self_share"] = metrics["optim.self_s"] / total_self if total_self else 0.0
        units = {"calls": "count", "evaluations": "count", "hash_match": "count",
                 "self_s": "s", "mean_ms": "ms", "mean_us": "us"}
        out = {name: {"value": v, "unit": units.get(name.rsplit(".", 1)[1], "ratio")}
               for name, v in metrics.items()}
    else:
        values = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(lat), "s"),
            "query_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "query_p90_ms": (1e3 * quantile(lat, 0.9), "ms"),
            "queries_per_s": (len(lat) / sum(lat), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        out = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": out}, sort_keys=True))
    return 0


def layer_metrics(tracer: Tracer, passes: int, lat: list[float],
                  lat_traced: list[float]) -> dict:
    """Per-layer metrics; counts and self times are per pass."""
    m: dict[str, float] = {}
    for layer, (calls, self_ns) in tracer.layer_totals().items():
        m[f"{layer}.calls"] = calls // passes
        m[f"{layer}.self_s"] = self_ns / 1e9 / passes
    m["optim.evaluations"] = sum(st.evaluations for q, st in tracer.stats.items()
                                 if q.startswith("optim.")) // passes

    def mean(prefix, names, scale, unit, calls_metric=True):
        calls, incl_ns = tracer.group(*names)
        if calls_metric:
            m[f"{prefix}.calls"] = calls // passes
        m[f"{prefix}.mean_{unit}"] = incl_ns / calls / scale if calls else 0.0

    for fn in ("klyshko_max", "maximize_angles", "log_j_maximize"):
        mean(f"optim.{fn}", [f"optim.{fn}"], 1e6, "ms")
    mean("bell_dp.e_dp_gaussian", ["bell_dp.e_dp_gaussian"], 1e3, "us")
    mean("bell_ps.series", SERIES, 1e6, "ms")
    mean("homodyne.e_h", E_H, 1e3, "us")
    mean("fock.displacement", ["fock.displacement"], 1e3, "us")
    for fn in ("onoff_condition", "quadrature_orthant_expect"):
        mean(f"fock.{fn}", [f"fock.{fn}"], 1e6, "ms", calls_metric=False)
    m["trace.overhead"] = sum(lat_traced) / sum(lat) - 1.0
    return m


if __name__ == "__main__":
    sys.exit(main())
