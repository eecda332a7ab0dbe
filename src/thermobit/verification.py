"""One-shot verification suite behind the `verify` subcommand.

Each criterion is a standalone check with its tolerance pinned here;
the pytest acceptance module runs the same functions.  Statistical
checks use a fixed master seed, so a verify run is reproducible.
"""

import contextlib
import io
import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import cli
from .bounds import (BOLTZMANN, IceCubeModel, anderson_bound,
                     brillouin_min_dissipation, ice_cube_erasure_energy)
from .capacitor import (ErasureExperimentConfig, erase, erase_dissipation_theory,
                        erase_ensemble, partial_erase_error_prob, run_erasure_experiment,
                        write_bit, write_ensemble)
from .doublewell import DoubleWellParams, measure_escape_time, relax_ensemble
from .infotheory import bit_information, memory_entropy
from .ou import CellParams, ou_sample_stationary, ou_step
from .streams import make_stream

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0


def check_equipartition(master_seed):
    """Stationary variance equals kT/C within 1.5% at n = 1e5."""
    cell = CellParams.reduced()
    n = 100_000
    stat = ou_sample_stationary(cell, make_stream(master_seed, 0), size=n)
    relaxed = ou_step(np.full(n, cell.sigma_st), 20.0 * cell.tau, cell,
                      make_stream(master_seed, 1))
    target = cell.kT / cell.capacitance
    errs = [abs(stat.var() / target - 1.0), abs(relaxed.var() / target - 1.0)]
    ok = max(errs) < 0.015
    return ok, f"relative variance errors {errs[0]:.4f}, {errs[1]:.4f} (tol 0.015)"


def check_erase_dissipation(master_seed):
    """Mean erase heat matches (C*u0^2 - kT)/2 within 3 SE for u0 in {s/2, s, 2s}."""
    cell = CellParams.reduced()
    n = 100_000
    details, ok = [], True
    for k, u0 in enumerate((0.5, 1.0, 2.0)):
        q = erase_ensemble(u0, 20.0 * cell.tau, cell, 0.01 * cell.tau, n, master_seed,
                           stream_offset=k * n)
        theory = erase_dissipation_theory(u0, cell)
        se = q.std(ddof=1) / math.sqrt(n)
        dev = abs(q.mean() - theory)
        ok &= dev <= 3.0 * se
        details.append(f"u0={u0}: mean={q.mean():+.4f} theory={theory:+.4f} ({dev / se:.2f} SE)")
    return ok, "; ".join(details)


def check_write_positivity(master_seed):
    """Write heat is +(kT - C*u0^2)/2 on average; control cost >= kT ln2 always."""
    cell = CellParams.reduced()
    n = 100_000
    u0 = 0.5
    q, _, control = write_ensemble(1, u0, cell, 0.01 * cell.tau, n, master_seed)
    theory = 0.5 * (cell.kT - cell.capacitance * u0 * u0)
    se = q.std(ddof=1) / math.sqrt(n)
    dev = abs(q.mean() - theory)
    floor = cell.kT * math.log(2.0)
    ok = dev <= 3.0 * se and np.all(control >= floor - 1e-15) and np.all(control > 0)
    return ok, (f"mean={q.mean():+.4f} theory={theory:+.4f} ({dev / se:.2f} SE); "
                f"min control cost {control.min():.4f} kT (floor {floor:.4f})")


def check_incomplete_erasure(master_seed):
    """Read-error and remaining information after partial erase at u0 = sigma."""
    cell = CellParams.reduced()
    cfg = ErasureExperimentConfig(cell=cell, u0=1.0,
                                  durations=(cell.tau, 20.0 * cell.tau),
                                  n_trajectories=100_000, master_seed=master_seed,
                                  dt=0.01 * cell.tau)
    short, full = run_erasure_experiment(cfg)
    pe_theory = partial_erase_error_prob(1.0, cell.tau, cell)
    info_theory = bit_information(pe_theory)
    in_ci = short.channel.ci_low <= pe_theory <= short.channel.ci_high
    info_dev = abs(short.information.bits - info_theory)
    ok = in_ci and info_dev <= 0.01 and full.information.bits < 1e-3
    return ok, (f"p_e CI [{short.channel.ci_low:.4f}, {short.channel.ci_high:.4f}] "
                f"vs theory {pe_theory:.4f} ({'in' if in_ci else 'OUT'}); "
                f"info dev {info_dev:.4f} bits (tol 0.01); "
                f"info(20 tau) = {full.information.bits:.2e} bits (tol 1e-3)")


def check_passive_erasure(master_seed):
    """Double-well bit forgets (p1 -> 0.5) with mean potential energy constant."""
    p = DoubleWellParams.reduced(2.0)
    series = relax_ensemble(p, side=1, t_total=20.0, dt=0.5 * p.max_stable_dt,
                            n_traj=10_000, seed=master_seed)
    terminal = series.p1[-1]
    drift = np.max(np.abs(series.mean_U - series.mean_U[0]))
    ok = abs(terminal - 0.5) <= 0.02 and drift < 0.05
    return ok, (f"terminal p1 = {terminal:.4f} (tol 0.5 +- 0.02); "
                f"max |mean_U(t) - mean_U(0)| = {drift:.4f} kT (tol 0.05)")


def check_kramers_scaling(master_seed):
    """Escape-time ratio E=3kT vs E=2kT within 30% of e."""
    times = {}
    for barrier in (2.0, 3.0):
        p = DoubleWellParams.reduced(barrier)
        times[barrier], _ = measure_escape_time(p, n_traj=3000,
                                                dt=0.5 * p.max_stable_dt,
                                                seed=master_seed)
    ratio = times[3.0] / times[2.0]
    ok = abs(ratio - math.e) <= 0.3 * math.e
    return ok, (f"T(3kT)={times[3.0]:.3f}, T(2kT)={times[2.0]:.3f}, "
                f"ratio {ratio:.3f} vs e = {math.e:.3f} (tol 30%)")


def check_ice_cube(master_seed):
    """10 cm^3 at 300 K: ~7.4e23 kT of cooling, >1e23 times the 1-bit limit."""
    comp = ice_cube_erasure_energy(IceCubeModel(volume_cm3=10.0, ambient_temperature=300.0))
    oracle = 0.917 * 10.0 * 333.55 / (BOLTZMANN * 300.0)
    rel = abs(comp.cooling_kT - oracle) / oracle
    order = math.log10(comp.cooling_kT)
    ok = rel < 0.05 and 23.5 <= order < 24.5 and comp.violation_factor > 1e23
    return ok, (f"Q = {comp.cooling_kT:.3e} kT (oracle {oracle:.3e}, rel err {rel:.2e}); "
                f"order 1e{order:.1f}; violation factor {comp.violation_factor:.2e}")


def check_exact_formulas(master_seed):
    """Closed-form values reproduce to 1e-12 relative."""
    T = 300.0
    kT = BOLTZMANN * T
    checks = [
        ("brillouin(0.5)", brillouin_min_dissipation(0.5, T), kT * math.log(2.0)),
        ("anderson(1 bit)", anderson_bound(1.0, T), -kT * math.log(2.0)),
        ("I(0)", bit_information(0.0), 1.0),
        ("I(0.5)", bit_information(0.5), 0.0),
        ("S(0)", memory_entropy(0.0), 0.0),
        ("S(1)", memory_entropy(1.0), 0.0),
        ("S(0.5)", memory_entropy(0.5), math.log(2.0)),
    ]
    worst = 0.0
    for _name, got, want in checks:
        scale = max(abs(want), 1.0)
        worst = max(worst, abs(got - want) / scale)
    return worst < 1e-12, f"worst relative error {worst:.2e} over {len(checks)} identities"


_DETERMINISM_RUNS = [
    ["capacitor", "write", "--n", "300"],
    ["capacitor", "erase", "--n", "300", "--duration-tau", "5"],
    ["capacitor", "mi-curve", "--n", "200", "--durations-tau", "0,1,5"],
    ["doublewell", "relax", "--n", "200", "--t-total", "2"],
    ["doublewell", "heated", "--n", "200", "--t-total", "2"],
    ["doublewell", "escape", "--n", "150"],
    ["bounds", "brillouin"],
    ["bounds", "anderson"],
    ["bounds", "icecube"],
    ["info", "eval", "--p-e", "0.25"],
]


def check_determinism(master_seed):
    """Every subcommand emits identical CSV bytes for 1, 4, and 8 workers."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv in _DETERMINISM_RUNS:
            blobs = []
            for workers in (1, 4, 8):
                outdir = os.path.join(tmp, "_".join(argv[:2]), f"w{workers}")
                full = list(argv) + ["--output-dir", outdir,
                                     "--master-seed", str(master_seed)]
                if argv[0] in ("capacitor", "doublewell"):
                    full += ["--workers", str(workers)]
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(full)
                if rc != 0:
                    failures.append(f"{' '.join(argv)}: exit {rc}")
                    break
                csvs = sorted(f for f in os.listdir(outdir) if f.endswith(".csv"))
                blobs.append(b"".join(open(os.path.join(outdir, f), "rb").read()
                                      for f in csvs))
            else:
                if len(set(blobs)) != 1:
                    failures.append(f"{' '.join(argv)}: CSV bytes differ across workers")
    ok = not failures
    return ok, "all subcommands byte-identical for workers 1/4/8" if ok else "; ".join(failures)


def check_ledger_identity(master_seed):
    """Q_env + dE_cap == 0 exactly across 1e5 random write/erase trajectories."""
    cell = CellParams.reduced()
    n = 100_000
    worst = 0.0
    master = make_stream(master_seed, 2_000_000)
    u0s = 0.1 + 1.1 * master.uniform(n)
    durations = 3.0 * master.uniform(n)
    bits = master.integers(0, 2, size=n)
    def energy(v):
        return 0.5 * cell.capacitance * v * v

    for i in range(n):
        st = make_stream(master_seed, 1_000_000 + i)
        wr = write_bit(int(bits[i]), float(u0s[i]), cell, 0.01, st)
        worst = max(worst, abs(wr.bath_heat + (energy(wr.v_final) - energy(wr.v_start))))
        er = erase(wr.v_final, float(durations[i]), cell, 0.01, st)
        worst = max(worst, abs(er.bath_heat + (energy(er.v_final) - energy(er.v_start))))
    return worst == 0.0, f"max |Q_env + dE_cap| = {worst:.3e} over {n} write/erase pairs"


CRITERIA = [
    ("1 equipartition", check_equipartition),
    ("2 erase dissipation", check_erase_dissipation),
    ("3 write positivity", check_write_positivity),
    ("4 incomplete erasure info", check_incomplete_erasure),
    ("5 passive double-well erasure", check_passive_erasure),
    ("6 Kramers scaling", check_kramers_scaling),
    ("7 ice-cube violation", check_ice_cube),
    ("8 exact formulas", check_exact_formulas),
    ("9 determinism", check_determinism),
    ("10 ledger identity", check_ledger_identity),
]


def run_one(name, master_seed=12345):
    fn = dict(CRITERIA)[name]
    start = time.monotonic()
    try:
        passed, detail = fn(master_seed)
    except Exception as exc:  # noqa: BLE001 - verify must report, not crash
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(name=name, passed=passed, detail=detail,
                           elapsed=time.monotonic() - start)


def run_all(master_seed=12345):
    return [run_one(name, master_seed) for name, _fn in CRITERIA]
