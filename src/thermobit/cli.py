"""Command-line front end for the thermal-memory experiments.

Subcommands:

    capacitor write|erase|mi-curve   charge-based bit energetics
    doublewell relax|escape|heated   bistable-bit thermalization
    bounds brillouin|anderson|icecube  closed-form bounds and the ice cube
    info eval                        binary-channel information measures
    verify                           run the full acceptance suite

Every run writes a CSV plus a JSON manifest to the output directory and
prints a JSON summary to stdout.  Exit codes: 0 success, 2 usage error,
3 config validation error, 4 runtime or infeasibility error.

Defaults use reduced units (kT = 1, C = 1, tau = 1); `--unit-mode si`
with explicit cell parameters is available for the capacitor family.
"""

import argparse
import json
import math
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields

import numpy as np

from . import bounds as bounds_mod
from . import capacitor as cap_mod
from . import doublewell as dw_mod
from . import infotheory as info_mod
from .ensemble import MAX_WORKERS, EnsembleWorkerError
from .ou import CellParams
from .reporting import ConfigError, parse_config_file, write_csv, write_manifest

__all__ = ["main", "ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run configuration, echoed into the manifest."""

    subcommand: str
    unit_mode: str = "reduced"
    n_trajectories: int = 10000
    master_seed: int = 12345
    worker_count: int = 1
    output_dir: str = "."
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.unit_mode not in ("reduced", "si"):
            raise ConfigError(f"unit_mode must be 'reduced' or 'si', got {self.unit_mode!r}")
        if self.n_trajectories < 1:
            raise ConfigError("n_trajectories must be >= 1")
        if not 1 <= self.worker_count <= MAX_WORKERS:
            raise ConfigError(f"worker_count must lie in [1, {MAX_WORKERS}], "
                              f"got {self.worker_count}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ConfigError(f"master_seed must lie in [0, 2**64), got {self.master_seed}")
        # Every other value is checked by the library call it feeds, before
        # any block runs; a ValueError there exits 3 as well.
        grid = list(self.options.get("durations_tau", []))
        if grid != sorted(grid):
            raise ConfigError("duration grid must be sorted ascending")

    def as_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "options"}
        return {**out, **self.options}


def _parse_bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_floats(text):
    return [float(tok) for tok in str(text).split(",") if tok.strip() != ""]


# Default mi-curve grid: 0 plus 19 log-spaced points from 0.1*tau to 20*tau.
def _default_durations():
    return [0.0] + list(np.logspace(math.log10(0.1), math.log10(20.0), 19))


_COMMON_OPTS = [
    ("n", int, 10000, "ensemble size (trajectories)"),
    ("master-seed", int, 12345, "master RNG seed"),
    ("workers", int, 1, "worker process count"),
]

_CELL_OPTS = [
    ("unit-mode", str, "reduced", "reduced (kT=1, C=1, tau=1) or si"),
    ("temperature-K", float, 300.0, "cell temperature (si mode)"),
    ("resistance-ohm", float, 1e6, "cell resistance (si mode)"),
    ("capacitance-F", float, 1e-12, "cell capacitance (si mode)"),
]

# The write's voltmeter sampling step; erase and mi-curve walk no write and
# have none.  Any step leaves the write's heat exact, since the write snaps
# to u0.  0.01 tau does not make its duration unbiased: the level is checked
# only every dt, so at u0 = sigma the mean duration reads about 14% above the
# continuous mean first-passage time.
_DT_OPT = ("dt-tau", float, 0.01, "write sampling step as a fraction of tau")


def _add_opts(sp, opts):
    for flag, typ, _default, help_text in opts:
        kwargs = {"help": help_text, "default": None}
        if typ is bool:
            kwargs["action"] = "store_const"
            kwargs["const"] = True
        elif typ is list:
            kwargs["type"] = _parse_floats
        else:
            kwargs["type"] = typ
        sp.add_argument("--" + flag, dest=flag.replace("-", "_"), **kwargs)


def _resolve_opts(args, file_cfg, opts):
    resolved = {}
    for flag, typ, default, _help in opts:
        key = flag.replace("-", "_")
        value = getattr(args, key)
        if value is None and key in file_cfg:
            parse = _parse_bool if typ is bool else (_parse_floats if typ is list else typ)
            try:
                value = parse(file_cfg[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from exc
        if value is None:
            value = default() if callable(default) and typ is list else default
        resolved[key] = value
    return resolved


def _cell_from(resolved):
    if resolved["unit_mode"] != "si":
        return CellParams.reduced()
    try:
        return CellParams(temperature=resolved["temperature_K"],
                          resistance=resolved["resistance_ohm"],
                          capacitance=resolved["capacitance_F"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _se(values):
    values = np.asarray(values, dtype=float)
    return float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0


# --- subcommand runners: return (base_name, columns, rows, summary) ---

def _run_capacitor_write(cfg, cell):
    o = cfg.options
    u0 = o["u0_sigma"] * cell.sigma_st
    dt = o["dt_tau"] * cell.tau
    q, steps, control = cap_mod.write_ensemble(o["bit"], u0, cell, dt, cfg.n_trajectories,
                                               cfg.master_seed, worker_count=cfg.worker_count)
    q, control = q / cell.kT, control / cell.kT
    theory = 0.5 * (1.0 - o["u0_sigma"] ** 2)
    columns = ["bit", "u0_sigma", "n", "mean_Q_env_kT", "se_Q_env_kT",
               "theory_Q_env_kT", "mean_duration_tau", "mean_n_samples",
               "mean_control_cost_kT"]
    row = [o["bit"], o["u0_sigma"], cfg.n_trajectories, float(q.mean()), _se(q),
           theory, float(steps.mean() * dt / cell.tau), float(steps.mean() + 1.0),
           float(control.mean())]
    summary = {"mean_Q_env_kT": row[3], "se_Q_env_kT": row[4],
               "theory_Q_env_kT": theory, "mean_control_cost_kT": row[8]}
    return "capacitor_write", columns, [row], summary


def _run_capacitor_erase(cfg, cell):
    o = cfg.options
    u0 = o["u0_sigma"] * cell.sigma_st
    duration = o["duration_tau"] * cell.tau
    # First, so that a negative u0 (a valid start, but not a written level)
    # is refused before anything runs.
    theory = cap_mod.erase_dissipation_theory(u0, duration, cell) / cell.kT
    q = cap_mod.erase_ensemble(u0, duration, cell, cfg.n_trajectories, cfg.master_seed,
                               worker_count=cfg.worker_count) / cell.kT
    columns = ["u0_sigma", "duration_tau", "n", "mean_Q_env_kT", "se_Q_env_kT",
               "theory_Q_env_kT"]
    row = [o["u0_sigma"], o["duration_tau"], cfg.n_trajectories,
           float(q.mean()), _se(q), theory]
    summary = {"mean_Q_env_kT": row[3], "se_Q_env_kT": row[4], "theory_Q_env_kT": theory}
    return "capacitor_erase", columns, [row], summary


def _run_capacitor_mi_curve(cfg, cell):
    o = cfg.options
    reports = cap_mod.run_erasure_experiment(cap_mod.ErasureExperimentConfig(
        cell=cell, u0=o["u0_sigma"] * cell.sigma_st,
        durations=tuple(d * cell.tau for d in o["durations_tau"]),
        n_trajectories=cfg.n_trajectories, master_seed=cfg.master_seed,
        worker_count=cfg.worker_count))
    columns = ["duration_tau", "p_e_hat", "ci_low", "ci_high", "info_bits",
               "mean_Q_env_kT", "se_Q_env_kT"]
    rows = [[rep.duration / cell.tau, rep.channel.p_e_hat, rep.channel.ci_low,
             rep.channel.ci_high, rep.information.bits, rep.mean_Q_env / cell.kT,
             rep.se_Q_env / cell.kT] for rep in reports]
    summary = {"n_durations": len(rows),
               "final_info_bits": rows[-1][4] if rows else None,
               "theory_Q_env_kT": (reports[-1].theory_Q_env / cell.kT) if reports else None}
    return "capacitor_mi_curve", columns, rows, summary


def _dw_params(o):
    return dw_mod.DoubleWellParams.reduced(o["barrier_kt"])


def _dw_dt(params, o):
    return o["dt"] if o["dt"] is not None else 0.5 * params.max_stable_dt


def _series_rows(series):
    return [[t, p1, se1, mu, seu] for t, p1, se1, mu, seu in
            zip(series.times, series.p1, series.se_p1, series.mean_U, series.se_U)]


_DW_COLUMNS = ["t", "p1", "se_p1", "mean_U", "se_U"]


def _run_doublewell_relax(cfg, _cell=None):
    o = cfg.options
    params = _dw_params(o)
    series = dw_mod.relax_ensemble(params, o["side"], o["t_total"], _dw_dt(params, o),
                                   cfg.n_trajectories, cfg.master_seed,
                                   worker_count=cfg.worker_count)
    summary = {"terminal_p1": float(series.p1[-1]),
               "mean_U_drift": float(series.mean_U[-1] - series.mean_U[0])}
    return "doublewell_relax", _DW_COLUMNS, _series_rows(series), summary


def _run_doublewell_heated(cfg, _cell=None):
    o = cfg.options
    params = _dw_params(o)
    series, mean_du, se_du = dw_mod.heated_erase(
        params, o["t_hot"], o["t_total"], _dw_dt(params, o),
        cfg.n_trajectories, cfg.master_seed, side=o["side"], worker_count=cfg.worker_count)
    summary = {"terminal_p1": float(series.p1[-1]),
               "mean_absorbed_kT": mean_du, "se_absorbed_kT": se_du}
    return "doublewell_heated", _DW_COLUMNS, _series_rows(series), summary


def _run_doublewell_escape(cfg, _cell=None):
    o = cfg.options
    params = _dw_params(o)
    mean_t, se_t = dw_mod.measure_escape_time(params, cfg.n_trajectories,
                                              _dw_dt(params, o), cfg.master_seed,
                                              max_time=o["max_time"],
                                              worker_count=cfg.worker_count)
    columns = ["barrier_kT", "n", "mean_escape_time", "se_escape_time"]
    row = [o["barrier_kt"], cfg.n_trajectories, mean_t, se_t]
    return "doublewell_escape", columns, [row], {"mean_escape_time": mean_t,
                                                 "se_escape_time": se_t}


def _run_bounds_brillouin(cfg, _cell=None):
    o = cfg.options
    e_d = bounds_mod.brillouin_min_dissipation(o["p_e"], o["temperature_K"])
    kT = bounds_mod.BOLTZMANN * o["temperature_K"]
    columns = ["p_e", "temperature_K", "E_d_joule", "E_d_kT"]
    row = [o["p_e"], o["temperature_K"], e_d, e_d / kT]
    return "bounds_brillouin", columns, [row], {"E_d_joule": e_d, "E_d_kT": e_d / kT}


def _run_bounds_anderson(cfg, _cell=None):
    o = cfg.options
    b = bounds_mod.anderson_bound(o["delta_s_bits"], o["temperature_K"])
    kT = bounds_mod.BOLTZMANN * o["temperature_K"]
    columns = ["delta_S_bits", "temperature_K", "bound_joule", "bound_kT"]
    row = [o["delta_s_bits"], o["temperature_K"], b, b / kT]
    return "bounds_anderson", columns, [row], {"bound_joule": b, "bound_kT": b / kT}


def _run_bounds_icecube(cfg, _cell=None):
    o = cfg.options
    model = bounds_mod.IceCubeModel(
        volume_cm3=o["volume_cm3"],
        ambient_temperature=o["ambient_K"],
        ice_density=o["ice_density"],
        latent_heat_fusion=o["latent_heat"],
        include_sensible_heat=bool(o["sensible"]),
    )
    comp = bounds_mod.ice_cube_erasure_energy(model)
    columns = ["Q_joule", "Q_kT", "bound_kT", "violation_factor"]
    row = [comp.cooling_joule, comp.cooling_kT, comp.anderson_kT, comp.violation_factor]
    block = (
        f"Ice-cube erasure, V = {model.volume_cm3} cm^3 at {model.ambient_temperature} K\n"
        f"  cooling drawn from environment : {comp.cooling_joule:.4g} J"
        f" = {comp.cooling_kT:.4g} kT\n"
        f"  self-entropy cooling limit     : {comp.anderson_joule:.4g} J"
        f" = {comp.anderson_kT:.4g} kT (1 bit)\n"
        f"  violation factor               : {comp.violation_factor:.4g}\n"
    )
    summary = {"Q_joule": comp.cooling_joule, "Q_kT": comp.cooling_kT,
               "bound_kT": comp.anderson_kT, "violation_factor": comp.violation_factor,
               "comparison": block}
    return "bounds_icecube", columns, [row], summary


def _run_info_eval(cfg, _cell=None):
    o = cfg.options
    p_e = o["p_e"]
    info = info_mod.bit_information(p_e)
    ent = info_mod.memory_entropy(p_e)
    columns = ["p_e", "info_bits", "entropy_nats", "entropy_bits"]
    row = [p_e, info, ent, info_mod.nats_to_bits(ent)]
    return "info_eval", columns, [row], {"info_bits": info, "entropy_nats": ent}


_SUBCOMMANDS = {
    ("capacitor", "write"): {
        "runner": _run_capacitor_write,
        "cell": True,
        "opts": _CELL_OPTS + [_DT_OPT, ("bit", int, 1, "bit value to write"),
                              ("u0-sigma", float, 1.0, "target level in units of sigma_st")],
    },
    ("capacitor", "erase"): {
        "runner": _run_capacitor_erase,
        "cell": True,
        "opts": _CELL_OPTS + [("u0-sigma", float, 1.0, "written level in units of sigma_st"),
                              ("duration-tau", float, 20.0, "erase duration in units of tau")],
    },
    ("capacitor", "mi-curve"): {
        "runner": _run_capacitor_mi_curve,
        "cell": True,
        "opts": _CELL_OPTS + [("u0-sigma", float, 1.0, "latched level in units of sigma_st"),
                              ("durations-tau", list, _default_durations,
                               "comma-separated erase durations in units of tau")],
    },
    ("doublewell", "relax"): {
        "runner": _run_doublewell_relax,
        "opts": [("barrier-kt", float, 2.0, "barrier height in kT"),
                 ("side", int, 1, "written side, 0 or 1"),
                 ("t-total", float, 20.0, "total relaxation time"),
                 ("dt", float, None, "time step (default: half the stability bound)")],
    },
    ("doublewell", "heated"): {
        "runner": _run_doublewell_heated,
        "opts": [("barrier-kt", float, 4.0, "barrier height in ambient kT"),
                 ("t-hot", float, 4.0, "hot-bath temperature (ambient = 1)"),
                 ("side", int, 1, "written side, 0 or 1"),
                 ("t-total", float, 20.0, "total evolution time"),
                 ("dt", float, None, "time step (default: half the stability bound)")],
    },
    ("doublewell", "escape"): {
        "runner": _run_doublewell_escape,
        "opts": [("barrier-kt", float, 2.0, "barrier height in kT"),
                 ("dt", float, None, "time step (default: half the stability bound)"),
                 ("max-time", float, 1e4, "per-trajectory simulated-time budget")],
    },
    ("bounds", "brillouin"): {
        "runner": _run_bounds_brillouin,
        "opts": [("p-e", float, 0.5, "operation error probability"),
                 ("temperature-K", float, 300.0, "temperature")],
    },
    ("bounds", "anderson"): {
        "runner": _run_bounds_anderson,
        "opts": [("delta-s-bits", float, 1.0, "self-entropy change in bits"),
                 ("temperature-K", float, 300.0, "temperature")],
    },
    ("bounds", "icecube"): {
        "runner": _run_bounds_icecube,
        "opts": [("volume-cm3", float, 10.0, "ice cube volume"),
                 ("ambient-K", float, 300.0, "ambient temperature"),
                 ("ice-density", float, bounds_mod.ICE_DENSITY, "ice density, g/cm^3"),
                 ("latent-heat", float, bounds_mod.LATENT_HEAT_FUSION,
                  "latent heat of fusion, J/g"),
                 ("sensible", bool, False, "include sensible-heat terms")],
    },
    ("info", "eval"): {
        "runner": _run_info_eval,
        "opts": [("p-e", float, 0.5, "channel error probability")],
    },
}


def build_parser():
    # No prefix matching: "--durations" is refused rather than read as
    # --durations-tau, so main's fuse below sees every spelling of the flag.
    parser = argparse.ArgumentParser(prog="thermobit", allow_abbrev=False,
                                     description="Thermal-memory erasure experiments")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--output-dir",
                        help="output directory (default: $THERMOBIT_OUTPUT_DIR or '.')")
    top = parser.add_subparsers(dest="command", required=True)

    groups = {}
    for (group, sub), spec in _SUBCOMMANDS.items():
        if group not in groups:
            gp = top.add_parser(group, allow_abbrev=False)
            groups[group] = gp.add_subparsers(dest="subcommand", required=True)
        sp = groups[group].add_parser(sub, parents=[common], allow_abbrev=False)
        _add_opts(sp, spec["opts"] + _COMMON_OPTS)
        sp.set_defaults(_spec=spec, _name=(group, sub))

    vp = top.add_parser("verify", help="run the acceptance suite", parents=[common],
                        allow_abbrev=False)
    vp.add_argument("--master-seed", dest="master_seed", type=int, default=None)
    vp.set_defaults(_name=("verify", None))
    return parser


def _run_verify(args, file_cfg, output_dir):
    from . import verification

    seed = args.master_seed if args.master_seed is not None else 12345
    results = verification.run_all(master_seed=seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.elapsed:6.1f}s  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return 0 if n_fail == 0 else 1


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed([i for i, a in enumerate(argv[:-1]) if a == "--durations-tau"]):
        argv[i:i + 2] = [argv[i] + "=" + argv[i + 1]]  # else argparse reads "-1,1" as a flag
    args = build_parser().parse_args(argv)

    try:
        file_cfg = parse_config_file(args.config) if args.config else {}
        output_dir = (args.output_dir or file_cfg.get("output_dir")
                      or os.environ.get("THERMOBIT_OUTPUT_DIR") or ".")

        if args._name[0] == "verify":
            return _run_verify(args, file_cfg, output_dir)

        spec = args._spec
        resolved = _resolve_opts(args, file_cfg, spec["opts"] + _COMMON_OPTS)
        common = {k: resolved.pop(k) for k in ("n", "master_seed", "workers")}
        cfg = ExperimentConfig(
            subcommand="_".join(args._name),
            unit_mode=resolved.get("unit_mode", "reduced"),
            n_trajectories=common["n"],
            master_seed=common["master_seed"],
            worker_count=common["workers"],
            output_dir=output_dir,
            options=resolved,
        )
        cell = _cell_from(resolved) if spec.get("cell") else None
    except ConfigError as exc:
        print(f"thermobit: config error: {exc}", file=sys.stderr)
        return 3

    try:
        base, columns, rows, summary = spec["runner"](cfg, cell)
        os.makedirs(output_dir, exist_ok=True)
        csv_path = os.path.join(output_dir, base + ".csv")
        write_csv(csv_path, columns, rows)
        manifest_path = os.path.join(output_dir, base + ".manifest.json")
        write_manifest(manifest_path, cfg.as_dict(), [csv_path])
    except (cap_mod.WriteTimeoutError, dw_mod.EscapeInfeasibleError,
            bounds_mod.NoErasureError, EnsembleWorkerError, BrokenProcessPool,
            OSError) as exc:
        print(f"thermobit: runtime error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"thermobit: config error: {exc}", file=sys.stderr)
        return 3

    print(json.dumps({"command": " ".join(args._name), "config": cfg.as_dict(),
                      "outputs": {"csv": csv_path, "manifest": manifest_path},
                      "summary": summary}, indent=2, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
