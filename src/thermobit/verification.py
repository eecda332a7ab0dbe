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
from functools import partial

import numpy as np

from . import cli, oracles
from .bounds import (BOLTZMANN, IceCubeModel, anderson_bound,
                     brillouin_min_dissipation, ice_cube_erasure_energy)
from .capacitor import (BLOCK as CAPACITOR_BLOCK, _bath_heat, _erase_block, _erased,
                        _write_cap, _write_rows, erase_dissipation_theory, erase_ensemble,
                        partial_erase_error_prob, run_erasure_experiment, write_ensemble)
from .doublewell import BLOCK, max_stable_dt, measure_escape_time, relax_ensemble
from .ensemble import run_blocks, standard_error
from .infotheory import binary_entropy, bit_information
from .ou import ou_step
from .streams import make_stream

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0


def check_equipartition(master_seed):
    """Stationary variance equals kT/C (1 sigma^2) within 1.5% at n = 1e5."""
    n = 100_000
    stat = make_stream(master_seed, 0).standard_normal(n)
    relaxed = ou_step(np.ones(n), 20.0, make_stream(master_seed, 1))
    errs = [abs(stat.var() - 1.0), abs(relaxed.var() - 1.0)]
    ok = max(errs) < 0.015
    return ok, f"relative variance errors {errs[0]:.4f}, {errs[1]:.4f} (tol 0.015)"


def check_erase_dissipation(master_seed):
    """Mean 20-tau erase heat matches (u0^2 - 1)/2 kT within 3 SE for u0 in {1/2, 1, 2} sigma."""
    n = 100_000
    details, ok = [], True
    for k, u0 in enumerate((0.5, 1.0, 2.0)):
        q = erase_ensemble(u0, 20.0, n, master_seed, stream_offset=k * n)
        theory = erase_dissipation_theory(u0, 20.0)
        se = standard_error(q)
        dev = abs(q.mean() - theory)
        ok &= dev <= 3.0 * se
        details.append(f"u0={u0}: mean={q.mean():+.4f} theory={theory:+.4f} ({dev / se:.2f} SE)")
    return ok, "; ".join(details)


def check_write_positivity(master_seed):
    """Write heat is +(1 - u0^2)/2 kT on average; control cost >= kT ln2 always."""
    n = 100_000
    u0 = 0.5
    # Blocks from 3 * n, after criterion 2's (0, n, 2n): at offset 0 the
    # stationary start takes the normals of criterion 2's u0 = 0.5 erase.
    q, _, control = write_ensemble(1, u0, 0.01, n, master_seed, stream_offset=3 * n)
    theory = 0.5 * (1.0 - u0 * u0)
    se = standard_error(q)
    dev = abs(q.mean() - theory)
    floor = math.log(2.0)
    ok = dev <= 3.0 * se and np.all(control >= floor - 1e-15) and np.all(control > 0)
    return ok, (f"mean={q.mean():+.4f} theory={theory:+.4f} ({dev / se:.2f} SE); "
                f"min control cost {control.min():.4f} kT (floor {floor:.4f})")


def check_incomplete_erasure(master_seed):
    """Read-error and remaining information after partial erase at u0 = sigma."""
    short, full = run_erasure_experiment(1.0, (1.0, 20.0), 100_000, master_seed)
    pe_theory = partial_erase_error_prob(1.0, 1.0)
    info_theory = bit_information(pe_theory)
    in_ci = short.channel.ci_low <= pe_theory <= short.channel.ci_high
    info_dev = abs(short.info_bits - info_theory)
    ok = in_ci and info_dev <= 0.01 and full.info_bits < 1e-3
    return ok, (f"p_e CI [{short.channel.ci_low:.4f}, {short.channel.ci_high:.4f}] "
                f"vs theory {pe_theory:.4f} ({'in' if in_ci else 'OUT'}); "
                f"info dev {info_dev:.4f} bits (tol 0.01); "
                f"info(20 tau) = {full.info_bits:.2e} bits (tol 1e-3)")


def check_passive_erasure(master_seed):
    """Double-well bit forgets (p1 -> 0.5) with mean potential energy constant."""
    series = relax_ensemble(2.0, side=1, t_total=20.0, dt=0.5 * max_stable_dt(2.0),
                            n_traj=10_000, seed=master_seed)
    terminal = series.p1[-1]
    drift = np.max(np.abs(series.mean_U - series.mean_U[0]))
    ok = abs(terminal - 0.5) <= 0.02 and drift < 0.05
    return ok, (f"terminal p1 = {terminal:.4f} (tol 0.5 +- 0.02); "
                f"max |mean_U(t) - mean_U(0)| = {drift:.4f} kT (tol 0.05)")


def check_kramers_scaling(master_seed):
    """Escape-time ratio T(3kT)/T(2kT) within 3 SE of the exact first-passage ratio.

    The target is `oracles.escape_mfpt(3) / oracles.escape_mfpt(2)` = 1.8377, the
    ratio of exact mean first-passage times from +x0 to 0.  It is not the
    pure-Arrhenius `e`: for this quartic well the Kramers prefactor scales
    like 1/E (Kramers, Physica 7, 284, 1940), which alone gives e * 2/3 =
    1.812 at high barriers, and at 2-3 kT the finite-barrier correction
    moves it to 1.8377.  The SE of the ratio comes from the two runs' own
    SEs by the delta method, and the 3-SE rule is the one criteria 2 and 3
    use.

    Only the ratio is checked.  Euler-Maruyama sees a crossing of x = 0
    only at sample times, so each simulated mean time comes out about 10%
    high; at the same dt = max_stable_dt / 2 that bias is nearly the same
    fraction at both barriers and cancels in the ratio, but not in either
    absolute time.
    """
    times, ses = {}, {}
    for barrier in (2.0, 3.0):
        times[barrier], ses[barrier] = measure_escape_time(barrier, n_traj=3000,
                                                           dt=0.5 * max_stable_dt(barrier),
                                                           seed=master_seed)
    ratio = times[3.0] / times[2.0]
    se = ratio * math.hypot(ses[3.0] / times[3.0], ses[2.0] / times[2.0])
    target = oracles.escape_mfpt(3.0) / oracles.escape_mfpt(2.0)
    z = (ratio - target) / se
    ok = abs(z) <= 3.0
    return ok, (f"T(3kT)={times[3.0]:.3f}, T(2kT)={times[2.0]:.3f}, "
                f"ratio {ratio:.4f} +- {se:.4f} vs quadrature {target:.4f} "
                f"({z:+.2f} SE, tol 3); e = {math.e:.3f} for reference")


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
        ("H(0)", binary_entropy(0.0), 0.0),
        ("H(1)", binary_entropy(1.0), 0.0),
        ("H(0.5)", binary_entropy(0.5), 1.0),
    ]
    worst = 0.0
    for _name, got, want in checks:
        scale = max(abs(want), 1.0)
        worst = max(worst, abs(got - want) / scale)
    return worst < 1e-12, f"worst relative error {worst:.2e} over {len(checks)} identities"


_DETERMINISM_RUNS = [
    ("capacitor", "write", "--n", "300"),
    ("capacitor", "erase", "--n", "300", "--duration-tau", "5"),
    ("capacitor", "mi-curve", "--n", "200", "--durations-tau", "0,1,5"),
    # 2 * BLOCK + 1 trajectories: three double-well blocks, the last partial.
    ("doublewell", "relax", "--n", str(2 * BLOCK + 1), "--t-total", "2"),
    ("doublewell", "heated", "--n", str(2 * BLOCK + 1), "--t-total", "2"),
    ("doublewell", "escape", "--n", str(2 * BLOCK + 1)),
    ("bounds", "brillouin"),
    ("bounds", "anderson"),
    ("bounds", "icecube"),
    ("info", "eval", "--p-e", "0.25"),
]


def check_determinism(master_seed):
    """Every subcommand emits identical CSV bytes for 1, 4, and 8 workers.

    The worker count is the outer loop, so that the one live pool (see
    `ensemble`) is forked once per count, not once per subcommand.
    """
    blobs = {argv: [] for argv in _DETERMINISM_RUNS}
    failures = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workers in (1, 4, 8):
            for argv in _DETERMINISM_RUNS:
                if argv in failures:
                    continue
                outdir = os.path.join(tmp, "_".join(argv[:2]), f"w{workers}")
                full = list(argv) + ["--output-dir", outdir]
                if argv[0] in ("capacitor", "doublewell"):
                    full += ["--master-seed", str(master_seed), "--workers", str(workers)]
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(full)
                if rc != 0:
                    failures[argv] = f"{' '.join(argv)}: exit {rc}"
                    continue
                csvs = sorted(f for f in os.listdir(outdir) if f.endswith(".csv"))
                blobs[argv].append(b"".join(open(os.path.join(outdir, f), "rb").read()
                                            for f in csvs))
    for argv in _DETERMINISM_RUNS:
        if argv not in failures and len(set(blobs[argv])) != 1:
            failures[argv] = f"{' '.join(argv)}: CSV bytes differ across workers"
    ok = not failures
    detail = "; ".join(failures[argv] for argv in _DETERMINISM_RUNS if argv in failures)
    return ok, "all subcommands byte-identical for workers 1/4/8" if ok else detail


def _ledger_block(stream, rows, max_steps):
    """Each row's worst |Q_env + dE_cap| over a write, then an erase, of a random bit."""
    u0, duration = 0.1 + 1.1 * stream.uniform(), 3.0 * stream.uniform()
    v_start, target, _, _ = _write_rows(stream.integers(0, 2, size=rows), u0, 0.01, stream,
                                        max_steps)
    v_final = _erased(target, duration, *_erase_block(stream, rows, duration))
    e_start, e_target, e_final = (0.5 * v * v for v in (v_start, target, v_final))
    write = _bath_heat(v_start, target) + (e_target - e_start)
    erase = _bath_heat(target, v_final) + (e_final - e_target)
    return (np.maximum(np.abs(write), np.abs(erase)),)


def check_ledger_identity(master_seed):
    """Q_env + dE_cap == 0 exactly across 1e5 random write/erase trajectories.

    Runs the kernels behind every capacitor CSV, in blocks from stream
    1,000,000 (clear of criteria 1-4); each block draws one u0 in
    [0.1, 1.2) sigma and one erase duration in [0, 3) tau.  The identity
    holds by construction in IEEE arithmetic: _bath_heat(a, b) is
    E(a) - E(b) and the check adds E(b) - E(a), its exact negative.  So it
    pins the paper's per-trajectory ledger claim, not the dynamics.  The
    writes' step cap is that of the highest level, which bounds the rest.
    """
    n = 100_000
    task = partial(_ledger_block, max_steps=_write_cap(1.2, 0.01, n))
    (worst,) = run_blocks(task, n, CAPACITOR_BLOCK, master_seed, stream_offset=1_000_000)
    worst = float(worst.max())
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
