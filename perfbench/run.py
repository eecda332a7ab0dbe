"""Benchmark for thermobit: Monte Carlo trajectories per second, set-up
time and peak memory on three workloads, with an outside-in layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cap_mi_curve --seed 1 --seconds 20 --trace 0

A run repeats the workload's cycle of CLI invocations (through
`thermobit.cli.main`, in this process) until `--seconds` have passed,
checks every output against the analytic oracles in `oracles.py`, and
prints as its last stdout line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are
`traj_per_s`, `setup_s` and `peak_rss_mb`; with `--trace 1` they are the
per-layer metrics of `layers.py`.  The line before it is a JSON record of
the environment and the per-cycle figures.  Scratch output goes to
`.bench_work/` in the checkout.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 7
# Ensemble size of the probe pass over the other workloads' operations;
# the mean checks in oracles.py assume n >= 500.
PROBE_N = 1000
MIN_CYCLES = 3
SUBPROCESS_TIMEOUT_S = 60

# Default mi-curve grid of the CLI: 0 plus 19 log-spaced points from
# 0.1 tau to 20 tau.
MI_GRID = [0.0] + [10 ** (-1 + k * math.log10(200.0) / 18) for k in range(19)]


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload cycle."""

    argv: tuple
    n: int
    traj_per_n: int = 1

    def command(self, n, master_seed, out_dir, serial=False):
        argv = list(self.argv)
        if serial and "--workers" in argv:
            argv[argv.index("--workers") + 1] = "1"
        return argv + ["--n", str(n), "--master-seed", str(master_seed),
                       "--output-dir", out_dir]


# Why each workload: see perfbench/README.md.
WORKLOADS = {
    "cap_mi_curve": [
        Op(("capacitor", "mi-curve", "--u0-sigma", "1", "--workers", "1"),
           n=500, traj_per_n=len(MI_GRID)),
    ],
    "dw_thermalize": [
        Op(("doublewell", "relax", "--barrier-kt", "2"), n=2000),
        Op(("doublewell", "heated", "--barrier-kt", "4", "--t-hot", "4"), n=1000),
        Op(("doublewell", "escape", "--barrier-kt", "2"), n=2000),
        Op(("doublewell", "escape", "--barrier-kt", "3"), n=2000),
    ],
    "cap_short_pool": [
        Op(("capacitor", "write", "--u0-sigma", "0.5", "--workers", "2"), n=6000),
        Op(("capacitor", "erase", "--duration-tau", "0.1", "--workers", "2"),
           n=12000),
    ],
}


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _option(argv, flag, default):
    return float(argv[argv.index(flag) + 1]) if flag in argv else default


def _duration_window(t):
    """Simulated duration of an erase asked to run for t: [t, t + dt]."""
    return (0.0, 0.0) if t == 0.0 else (t, t + oracles.DT_TAU)


def _binary_information(p):
    return 1.0 + sum(x * math.log2(x) for x in (p, 1.0 - p) if x > 0.0)


def check_mi_curve(argv, n, rows, summary):
    u0 = _option(argv, "--u0-sigma", 1.0)
    _require(len(rows) == len(MI_GRID), f"{len(rows)} rows, expected {len(MI_GRID)}")
    for row, t in zip(rows, MI_GRID):
        _require(math.isclose(row["duration_tau"], t, rel_tol=1e-9),
                 f"duration {row['duration_tau']} != grid {t}")
        p_hat = row["p_e_hat"]
        k = round(p_hat * n)
        _require(abs(k - p_hat * n) < 1e-6, f"p_e_hat {p_hat} is not a count over n={n}")
        lo, hi = _duration_window(t)
        _require(oracles.binomial_consistent(k, n, oracles.ou_read_error(u0, lo),
                                             oracles.ou_read_error(u0, hi)),
                 f"t={t:.4g}: {k}/{n} read errors vs OU oracle "
                 f"{oracles.ou_read_error(u0, lo):.4g}..{oracles.ou_read_error(u0, hi):.4g}")
        _require(row["ci_low"] <= p_hat <= row["ci_high"], f"t={t:.4g}: CI excludes p_e_hat")
        _require(abs(row["info_bits"] - _binary_information(p_hat)) <= 1e-12,
                 f"t={t:.4g}: info_bits {row['info_bits']} != 1 - h2({p_hat})")
        q_lo, q_hi = sorted((oracles.erase_heat(u0, lo), oracles.erase_heat(u0, hi)))
        _require(oracles.mean_consistent(row["mean_Q_env_kT"], row["se_Q_env_kT"], q_lo, q_hi),
                 f"t={t:.4g}: erase heat {row['mean_Q_env_kT']:.4g} +- "
                 f"{row['se_Q_env_kT']:.3g} vs oracle {q_lo:.4g}..{q_hi:.4g}")


def check_relax(argv, n, rows, summary):
    _require(rows[0]["p1"] == 1.0, "relax must start with every trajectory in well 1")
    k = round(rows[-1]["p1"] * n)
    a = oracles.RELAX_P1_ALLOWANCE
    _require(oracles.binomial_consistent(k, n, 0.5 - a, 0.5 + a),
             f"terminal p1 {rows[-1]['p1']} is not 1/2 (n={n})")
    drift = rows[-1]["mean_U"] - rows[0]["mean_U"]
    se = math.hypot(rows[-1]["se_U"], rows[0]["se_U"])
    b = oracles.RELAX_DRIFT_ALLOWANCE_KT
    _require(oracles.mean_consistent(drift, se, -b, b),
             f"mean-U drift {drift:.4g} +- {se:.3g} kT is not 0")


def check_heated(argv, n, rows, summary):
    mean, se = summary["mean_absorbed_kT"], summary["se_absorbed_kT"]
    _require(math.isclose(mean, rows[-1]["mean_U"] - rows[0]["mean_U"],
                          rel_tol=1e-9, abs_tol=1e-12),
             "summary mean_absorbed_kT disagrees with the CSV")
    _require(mean - oracles.Z * se > 0.0, f"absorbed energy {mean:.4g} +- {se:.3g} kT is not > 0")


def check_escape(argv, n, rows, summary):
    barrier = _option(argv, "--barrier-kt", 2.0)
    (row,) = rows
    _require(row["barrier_kT"] == barrier and row["n"] == n, "escape row echoes wrong inputs")
    t = oracles.quadrature_mfpt(barrier)
    _require(oracles.mean_consistent(row["mean_escape_time"], row["se_escape_time"],
                                     t, t * (1.0 + oracles.ESCAPE_BIAS_ALLOWANCE)),
             f"{barrier} kT escape time {row['mean_escape_time']:.4g} +- "
             f"{row['se_escape_time']:.3g} vs quadrature MFPT {t:.4g}")


def check_write(argv, n, rows, summary):
    (row,) = rows
    q = oracles.write_heat(row["u0_sigma"])
    _require(oracles.mean_consistent(row["mean_Q_env_kT"], row["se_Q_env_kT"], q, q),
             f"write heat {row['mean_Q_env_kT']:.4g} +- {row['se_Q_env_kT']:.3g} vs {q:.4g}")


def check_erase(argv, n, rows, summary):
    (row,) = rows
    u0, t = row["u0_sigma"], row["duration_tau"]
    lo, hi = sorted(oracles.erase_heat(u0, d) for d in _duration_window(t))
    _require(oracles.mean_consistent(row["mean_Q_env_kT"], row["se_Q_env_kT"], lo, hi),
             f"erase heat {row['mean_Q_env_kT']:.4g} +- {row['se_Q_env_kT']:.3g} "
             f"vs {lo:.4g}..{hi:.4g}")


CHECKS = {
    ("capacitor", "mi-curve"): check_mi_curve,
    ("capacitor", "write"): check_write,
    ("capacitor", "erase"): check_erase,
    ("doublewell", "relax"): check_relax,
    ("doublewell", "heated"): check_heated,
    ("doublewell", "escape"): check_escape,
}


# numpy >= 2 formats a numpy scalar as "np.float64(x)", and thermobit's
# CSV writer passes some numpy scalars through repr, so such fields
# appear in the doublewell relax/heated CSVs.  The value inside is exact;
# the benchmark reads it and counts the field as a format defect
# (per-layer metric reporting.nonplain_csv_fields) instead of failing
# the operation.
_NUMPY_SCALAR = re.compile(r"np\.float64\((.*)\)")


def read_csv(path):
    """Rows of a thermobit CSV as dicts of floats, and the number of
    fields not written as plain decimal numbers."""
    rows, nonplain = [], 0
    with open(path, newline="", encoding="utf-8") as fh:
        for record in csv.DictReader(fh):
            row = {}
            for key, text in record.items():
                match = _NUMPY_SCALAR.fullmatch(text)
                nonplain += match is not None
                row[key] = float(match.group(1) if match else text)
            _require(all(math.isfinite(v) for v in row.values()), f"non-finite value in {path}")
            rows.append(row)
    _require(rows, f"{path} has no rows")
    return rows, nonplain


class Runner:
    """Runs workload cycles through the CLI and checks every output."""

    def __init__(self, cli_main, workload, seed):
        self.cli_main = cli_main
        self.workload = workload
        self.seed = seed
        self.out_dir = os.path.join(".bench_work", "out")
        self.attempted = 0
        self.failures = []
        self.mismatches = []
        self.escapes = []

    def master_seed(self, cycle, j):
        key = f"{self.seed}/{self.workload}/{cycle}/{j}".encode()
        return int.from_bytes(hashlib.sha256(key).digest()[:7], "big")

    def invoke(self, op, n, master_seed, serial, keep):
        """Run one CLI invocation; return (wall seconds, CSV bytes or None,
        count of non-plain CSV fields).

        `keep` records escape results for the bias metric; a traced rerun
        of the same inputs passes False."""
        argv = op.command(n, master_seed, self.out_dir, serial)
        self.attempted += 1
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli_main(argv)
        except (Exception, SystemExit):  # noqa: BLE001 - counted as a failed operation
            code = traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
        try:
            _require(code == 0, f"exit status {code}")
            summary = json.loads(out.getvalue())
            csv_path = summary["outputs"]["csv"]
            rows, nonplain = read_csv(csv_path)
            CHECKS[op.argv[:2]](op.argv, n, rows, summary["summary"])
            with open(csv_path, "rb") as fh:
                data = fh.read()
        except (CheckFailed, ValueError, KeyError, OSError) as exc:
            self.failures.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
            return wall, None, 0
        if keep and op.argv[1] == "escape":
            self.escapes.append((_option(op.argv, "--barrier-kt", 2.0), n, rows[0]))
        return wall, data, nonplain

    def cycle(self, cycle, serial=False, probe=False, keep=True):
        """Run every op of the workload, or when probing, every op of the
        other workloads at PROBE_N trajectories."""
        ops = ([op for name, ops in WORKLOADS.items() if name != self.workload for op in ops]
               if probe else WORKLOADS[self.workload])
        walls, traj, outputs, nonplain = [], 0, [], 0
        for j, op in enumerate(ops):
            n = PROBE_N if probe else op.n
            seconds, data, bad = self.invoke(op, n, self.master_seed(cycle, j), serial, keep)
            walls.append(seconds)
            traj += n * op.traj_per_n
            outputs.append(data)
            nonplain += bad
        return walls, traj, outputs, nonplain


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


SETUP_CODE = """
import time
t0 = time.perf_counter()
import thermobit.cli
thermobit.cli.build_parser()
print(time.perf_counter() - t0)
"""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup():
    """Seconds to import thermobit.cli and build its parser in a fresh
    interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, check=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    return float(proc.stdout.split()[-1])


def measure_import_breakdown(repeats):
    """Median self import time of numpy, scipy and thermobit modules, from
    `python -X importtime` in fresh interpreters."""
    per_package = {"numpy": [], "scipy": [], "thermobit": []}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_CODE],
                              cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              check=True, timeout=SUBPROCESS_TIMEOUT_S)
        totals = dict.fromkeys(per_package, 0)
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[0].strip().isdigit():
                package = fields[2].strip().split(".")[0]
                if package in totals:
                    totals[package] += int(fields[0])
        for package, us in totals.items():
            per_package[package].append(us * 1e-6)
    return {f"cli.import.{p}_s": statistics.median(v) for p, v in per_package.items()}


def environment():
    import numpy
    import scipy

    def git(*args):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                                  text=True, check=True, timeout=SUBPROCESS_TIMEOUT_S).stdout
        except (OSError, subprocess.SubprocessError):
            return None

    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if rev else None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "git_rev": rev.strip() if rev else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "src_sha256": digest.hexdigest(),
    }


def run_untraced(runner, seconds):
    # The host's speed drifts in phases that last seconds to a minute, so
    # set-up samples are spread over the run, between cycles, and the
    # cycle wall used is the sum over operations of each operation's
    # median wall across cycles.
    cycles, setup = [], []
    busy = 0.0
    while len(cycles) < MIN_CYCLES or busy < seconds:
        walls, traj, _, nonplain = runner.cycle(len(cycles))
        busy += sum(walls)
        cycles.append({"op_walls_s": walls, "trajectories": traj,
                       "traj_per_s": traj / sum(walls), "nonplain_csv_fields": nonplain})
        if len(setup) < SETUP_REPEATS * min(1.0, busy / seconds):
            setup.append(measure_setup())
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup())
    median_cycle_wall = sum(statistics.median(c["op_walls_s"][j] for c in cycles)
                            for j in range(len(cycles[0]["op_walls_s"])))
    metrics = {
        "traj_per_s": (cycles[0]["trajectories"] / median_cycle_wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, {"cycles": cycles, "setup_samples_s": setup}


@contextlib.contextmanager
def traced(runner, tracer, traced_main):
    """Install the tracer's wrappers and route the runner through them."""
    untraced_main = runner.cli_main
    tracer.install()
    runner.cli_main = traced_main
    try:
        yield
    finally:
        runner.cli_main = untraced_main
        tracer.unpatch()


def run_traced(runner, seconds):
    import layers

    tracer = layers.Tracer()
    traced_main = tracer.wrap("cli.main", runner.cli_main)
    cycle_ranges, cycle_counts, pairs = [], [], []
    t0 = time.perf_counter()
    while len(pairs) < MIN_CYCLES or time.perf_counter() - t0 < seconds:
        k = len(pairs)
        plain_walls, _, plain_out, nonplain = runner.cycle(k, serial=True)
        if k == 0:
            first_nonplain = nonplain
        first = len(tracer.names)
        with traced(runner, tracer, traced_main):
            traced_walls, _, traced_out, _ = runner.cycle(k, serial=True, keep=False)
        cycle_ranges.append((first, len(tracer.names)))
        cycle_counts.append(tracer.take_counts())
        pairs.append((sum(plain_walls), sum(traced_walls)))
        if plain_out != traced_out:
            runner.mismatches.append(f"cycle {k}: traced CSV bytes differ from untraced")

    first = len(tracer.names)
    with traced(runner, tracer, traced_main):
        runner.cycle("probe", probe=True)
    probe_range = (first, len(tracer.names))
    probe_counts = tracer.take_counts()

    start, end, parent = tracer.arrays()
    self_s = layers.self_times(start, end, parent)
    cycles = layers.LayerStats(tracer, self_s, cycle_ranges, cycle_counts)
    probe = layers.LayerStats(tracer, self_s, [probe_range], [probe_counts])
    metrics = layers.layer_metrics(cycles, probe)
    for barrier in (2.0, 3.0):
        found = [(n, row["mean_escape_time"]) for b, n, row in runner.escapes if b == barrier]
        mean = sum(n * t for n, t in found) / sum(n for n, _ in found)
        metrics[f"doublewell.escape.rel_err_{barrier:.0f}kT"] = (
            mean / oracles.quadrature_mfpt(barrier) - 1.0)
    metrics.update(layers.pool_probe(runner.master_seed("pool", 0)))
    metrics.update(measure_import_breakdown(3))
    plain = sum(p for p, _ in pairs)
    traced_total = sum(t for _, t in pairs)
    metrics["trace.overhead_frac"] = traced_total / plain - 1.0
    metrics["reporting.nonplain_csv_fields"] = first_nonplain

    spans_path = WORK / f"spans-{runner.workload}-seed{runner.seed}.npz"
    tracer.save(spans_path)
    detail = {"pairs_wall_s": pairs, "spans": len(tracer.names),
              "spans_file": str(spans_path.relative_to(ROOT)),
              "time_shares": layers.time_shares(cycles, traced_total)}
    return {name: (value, layers.PER_LAYER_UNITS[name]) for name, value in metrics.items()}, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "thermobit" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'thermobit'} not found; run from a thermobit checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # Keep every file the run or its children create inside the checkout.
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    sys.path.insert(0, str(SRC))
    from thermobit import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported thermobit from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    runner = Runner(cli.main, args.workload, args.seed)
    run = run_traced if args.trace else run_untraced
    metrics, detail = run(runner, args.seconds)
    env = environment()
    env["loadavg_start"] = load_start
    env["loadavg_end"] = os.getloadavg()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "failures": runner.failures, "mismatches": runner.mismatches,
              **detail}
    result = {
        "correct": not runner.failures and not runner.mismatches,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
