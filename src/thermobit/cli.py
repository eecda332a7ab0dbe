"""Command-line front end for the thermal-memory experiments.

Subcommands:

    capacitor write|erase|mi-curve   charge-based bit energetics
    doublewell relax|escape|heated   bistable-bit thermalization
    bounds brillouin|anderson|icecube  closed-form bounds and the ice cube
    info eval                        binary-channel information measures
    verify                           run the full acceptance suite

Every run writes a CSV plus a JSON manifest to the output directory and
prints a JSON summary to stdout.  The manifest's config holds the option
names, so written back as `key = value` lines it replays the run; the
summary is the last CSV row plus the subcommand's extras.  Exit codes: 0
success, 2 usage error, 3 config validation error, 4 runtime or
infeasibility error.

Each subcommand takes only the options its runner reads; `--n`,
`--master-seed` and `--workers` belong to the simulating ones.  Inputs and
columns are in the library's units (kT, and the capacitor's sigma =
sqrt(kT/C) and tau = RC), so they pass through unscaled.
"""

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import bounds as bounds_mod
from . import capacitor as cap_mod
from . import doublewell as dw_mod
from . import infotheory as info_mod
from .ensemble import EnsembleWorkerError, standard_error
from .reporting import ConfigError, parse_config_file, write_csv, write_manifest
from .streams import _check_word

__all__ = ["main"]


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
_DURATIONS_TAU = (0.0, *np.logspace(math.log10(0.1), math.log10(20.0), 19).tolist())


_SEED_OPT = ("master-seed", int, 12345, "master RNG seed")

# The ensemble options; ensemble.run_blocks refuses an n, worker count or
# seed out of range before any stream or pool starts.
_RUN_OPTS = [
    ("n", int, 10000, "ensemble size (trajectories)"),
    _SEED_OPT,
    ("workers", int, 1, "worker process count; the blocks are split evenly by count "
                        "into one contiguous share per worker"),
]

# The write's voltmeter sampling step; erase and mi-curve walk no write and
# have none.  Any step leaves the write's heat exact, since the write snaps to
# u0, but not its duration: at u0 = sigma and 0.01 tau it reads about 14% above
# the continuous mean first-passage time (oracles.write_mfpt shifts the level).
_DT_OPT = ("dt-tau", float, 0.01, "write sampling step as a fraction of tau")
_DW_DT_OPT = ("dt", float, None, "time step (default: half the stability bound at the "
                                   "temperature the walk runs at)")


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
    """Each option's value: the flag, else the config file (no unknown key), else the default."""
    keys = [flag.replace("-", "_") for flag, *_ in opts]
    unknown = sorted(set(file_cfg) - set(keys) - {"output_dir"})
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    resolved = {}
    for key, (_flag, typ, default, _help) in zip(keys, opts):
        value = getattr(args, key)
        if value is None and key in file_cfg:
            parse = _parse_bool if typ is bool else (_parse_floats if typ is list else typ)
            try:
                value = parse(file_cfg[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from exc
        resolved[key] = default if value is None else value
    return resolved


# --- subcommand runners: o is the resolved option dict; each returns
# (base_name, rows, extras), every row a dict of CSV column -> value in
# column order, and extras the summary's keys that are not columns ---

def _run_capacitor_write(o):
    q, steps, control = cap_mod.write_ensemble(o["bit"], o["u0_sigma"], o["dt_tau"],
                                               o["n"], o["master_seed"], worker_count=o["workers"])
    row = {"bit": o["bit"], "u0_sigma": o["u0_sigma"], "n": o["n"],
           "mean_Q_env_kT": float(q.mean()), "se_Q_env_kT": float(standard_error(q)),
           "theory_Q_env_kT": 0.5 * (1.0 - o["u0_sigma"] ** 2),
           "mean_duration_tau": float(steps.mean() * o["dt_tau"]),
           "mean_n_samples": float(steps.mean() + 1.0),
           "mean_control_cost_kT": float(control.mean())}
    return "capacitor_write", [row], {}


def _run_capacitor_erase(o):
    # First, so that a negative u0 (a valid start, but not a written level)
    # is refused before anything runs.
    theory = cap_mod.erase_dissipation_theory(o["u0_sigma"], o["duration_tau"])
    q = cap_mod.erase_ensemble(o["u0_sigma"], o["duration_tau"], o["n"], o["master_seed"],
                               worker_count=o["workers"])
    row = {"u0_sigma": o["u0_sigma"], "duration_tau": o["duration_tau"], "n": o["n"],
           "mean_Q_env_kT": float(q.mean()), "se_Q_env_kT": float(standard_error(q)),
           "theory_Q_env_kT": theory}
    return "capacitor_erase", [row], {}


def _run_capacitor_mi_curve(o):
    reports = cap_mod.run_erasure_experiment(o["u0_sigma"], o["durations_tau"], o["n"],
                                             o["master_seed"], worker_count=o["workers"])
    rows = [{"duration_tau": rep.duration, "p_e_hat": rep.channel.p_e_hat,
             "ci_low": rep.channel.ci_low, "ci_high": rep.channel.ci_high,
             "info_bits": rep.info_bits, "mean_Q_env_kT": rep.mean_Q_env,
             "se_Q_env_kT": rep.se_Q_env} for rep in reports]
    theory = cap_mod.erase_dissipation_theory(o["u0_sigma"], reports[-1].duration)
    return "capacitor_mi_curve", rows, {"n_durations": len(rows),
                                        "final_info_bits": rows[-1]["info_bits"],
                                        "theory_Q_env_kT": theory}


def _dw_dt(o, temperature=1.0):
    if o["dt"] is not None:
        return o["dt"]
    return 0.5 * dw_mod.max_stable_dt(o["barrier_kt"], temperature)


def _series_rows(series):
    return [{"t": t, "p1": p1, "se_p1": se1, "mean_U": mu, "se_U": seu} for t, p1, se1, mu, seu
            in zip(series.times, series.p1, series.se_p1, series.mean_U, series.se_U)]


def _run_doublewell_relax(o):
    series = dw_mod.relax_ensemble(o["barrier_kt"], o["side"], o["t_total"], _dw_dt(o),
                                   o["n"], o["master_seed"], worker_count=o["workers"])
    return "doublewell_relax", _series_rows(series), {
        "terminal_p1": float(series.p1[-1]),
        "mean_U_drift": float(series.mean_U[-1] - series.mean_U[0])}


def _run_doublewell_heated(o):
    series, mean_du, se_du = dw_mod.heated_erase(
        o["barrier_kt"], o["t_hot"], o["t_total"], _dw_dt(o, o["t_hot"]),
        o["n"], o["master_seed"], side=o["side"], worker_count=o["workers"])
    return "doublewell_heated", _series_rows(series), {
        "terminal_p1": float(series.p1[-1]), "mean_absorbed_kT": mean_du,
        "se_absorbed_kT": se_du}


def _run_doublewell_escape(o):
    mean_t, se_t = dw_mod.measure_escape_time(o["barrier_kt"], o["n"], _dw_dt(o),
                                              o["master_seed"], worker_count=o["workers"])
    row = {"barrier_kT": o["barrier_kt"], "n": o["n"], "mean_escape_time": mean_t,
           "se_escape_time": se_t}
    return "doublewell_escape", [row], {}


def _run_bounds_brillouin(o):
    e_d = bounds_mod.brillouin_min_dissipation(o["p_e"], o["temperature_K"])
    kT = bounds_mod.BOLTZMANN * o["temperature_K"]
    row = {"p_e": o["p_e"], "temperature_K": o["temperature_K"], "E_d_joule": e_d,
           "E_d_kT": e_d / kT}
    return "bounds_brillouin", [row], {}


def _run_bounds_anderson(o):
    b = bounds_mod.anderson_bound(o["delta_s_bits"], o["temperature_K"])
    kT = bounds_mod.BOLTZMANN * o["temperature_K"]
    row = {"delta_S_bits": o["delta_s_bits"], "temperature_K": o["temperature_K"],
           "bound_joule": b, "bound_kT": b / kT}
    return "bounds_anderson", [row], {}


def _run_bounds_icecube(o):
    comp = bounds_mod.ice_cube_erasure_energy(
        o["volume_cm3"], o["ambient_K"], ice_density=o["ice_density"],
        latent_heat=o["latent_heat"], include_sensible_heat=o["sensible"])
    row = {"Q_joule": comp.cooling_joule, "Q_kT": comp.cooling_kT,
           "bound_kT": comp.anderson_kT, "violation_factor": comp.violation_factor}
    block = (
        f"Ice-cube erasure, V = {o['volume_cm3']} cm^3 at {o['ambient_K']} K\n"
        f"  cooling drawn from environment : {comp.cooling_joule:.4g} J"
        f" = {comp.cooling_kT:.4g} kT\n"
        f"  self-entropy cooling limit     : {comp.anderson_joule:.4g} J"
        f" = {comp.anderson_kT:.4g} kT (1 bit)\n"
        f"  violation factor               : {comp.violation_factor:.4g}\n"
    )
    return "bounds_icecube", [row], {"comparison": block}


def _run_info_eval(o):
    h = info_mod.binary_entropy(o["p_e"])
    row = {"p_e": o["p_e"], "info_bits": info_mod.bit_information(o["p_e"]),
           "entropy_nats": h * math.log(2.0), "entropy_bits": h}
    return "info_eval", [row], {}


_SUBCOMMANDS = {
    ("capacitor", "write"): {
        "runner": _run_capacitor_write,
        "opts": [_DT_OPT, ("bit", int, 1, "bit value to write"),
                 ("u0-sigma", float, 1.0, "target level in units of sigma_st")] + _RUN_OPTS,
    },
    ("capacitor", "erase"): {
        "runner": _run_capacitor_erase,
        "opts": [("u0-sigma", float, 1.0, "written level in units of sigma_st"),
                 ("duration-tau", float, 20.0, "erase duration in units of tau")] + _RUN_OPTS,
    },
    ("capacitor", "mi-curve"): {
        "runner": _run_capacitor_mi_curve,
        "opts": [("u0-sigma", float, 1.0, "latched level in units of sigma_st"),
                 ("durations-tau", list, _DURATIONS_TAU,
                  "comma-separated erase durations in units of tau")] + _RUN_OPTS,
    },
    ("doublewell", "relax"): {
        "runner": _run_doublewell_relax,
        "opts": [("barrier-kt", float, 2.0, "barrier height in kT"),
                 ("side", int, 1, "written side, 0 or 1"),
                 ("t-total", float, 20.0, "total relaxation time"),
                 _DW_DT_OPT] + _RUN_OPTS,
    },
    ("doublewell", "heated"): {
        "runner": _run_doublewell_heated,
        "opts": [("barrier-kt", float, 4.0, "barrier height in ambient kT"),
                 ("t-hot", float, 4.0, "hot-bath temperature (ambient = 1)"),
                 ("side", int, 1, "written side, 0 or 1"),
                 ("t-total", float, 20.0, "total evolution time"),
                 _DW_DT_OPT] + _RUN_OPTS,
    },
    ("doublewell", "escape"): {
        "runner": _run_doublewell_escape,
        "opts": [("barrier-kt", float, 2.0, "barrier height in kT"),
                 _DW_DT_OPT] + _RUN_OPTS,
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


# Every flag that takes a value.  main joins each to its value, so that
# argparse reads "--u0-sigma -1e-3" as a value, not as a flag it does not know.
_VALUE_FLAGS = {"--config", "--output-dir"} | {
    "--" + flag for spec in _SUBCOMMANDS.values() for flag, typ, *_ in spec["opts"]
    if typ is not bool}

# The library keywords of the flags whose names differ from them; every other
# flag's keyword is its name with "_" for "-".  A refusal names the flags.
_KEYWORDS = {"workers": ("worker_count",), "n": ("n", "n_traj"),
             "barrier-kt": ("barrier_kT",), "t-hot": ("T_hot", "temperature"),
             "dt-tau": ("dt",), "u0-sigma": ("u0",), "duration-tau": ("duration", "t"),
             "durations-tau": ("durations",), "p-e": ("p_e", "p"), "temperature-K": ("T",),
             "delta-s-bits": ("delta_S_bits",)}


def _flag_names(message, opts):
    """`message` with each library keyword of an option in `opts` named by its flag.

    A keyword is replaced where it is the subject of "must" or is followed
    by "=", the two forms the library's refusals use.
    """
    for flag, *_ in opts:
        for key in _KEYWORDS.get(flag, (flag.replace("-", "_"),)):
            message = re.sub(rf"(?<![\w-]){key}(?= must\b| ?=)", "--" + flag, message)
    return message


@functools.cache
def build_parser():
    # Built once per process: every option defaults to None and each
    # parse_args call fills a fresh namespace, so no call sees another's
    # values.  No prefix matching: "--durations" is refused rather than
    # read as --durations-tau, so main's join sees every spelling of a flag.
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
        _add_opts(sp, spec["opts"])
        sp.set_defaults(_spec=spec, _name=(group, sub))

    vp = top.add_parser("verify", help="run the acceptance suite", parents=[common],
                        allow_abbrev=False)
    _add_opts(vp, [_SEED_OPT])
    vp.set_defaults(_spec={"opts": [_SEED_OPT]}, _name=("verify", None))
    return parser


def _run_verify(master_seed):
    from . import verification

    results = verification.run_all(master_seed=master_seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.elapsed:6.1f}s  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return 0 if n_fail == 0 else 1


def _runtime_errors():
    """The errors that exit 4: a dead pool worker's only once a pool has loaded its module."""
    pool = sys.modules.get("concurrent.futures.process")
    return (dw_mod.EscapeInfeasibleError, bounds_mod.NoErasureError, EnsembleWorkerError,
            OSError) + ((pool.BrokenProcessPool,) if pool else ())


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    joined, i = [], 0
    while i < len(argv):
        if argv[i] in _VALUE_FLAGS and i + 1 < len(argv):
            joined.append(argv[i] + "=" + argv[i + 1])
            i += 2
        else:
            joined.append(argv[i])
            i += 1
    args = build_parser().parse_args(joined)
    spec = args._spec

    try:
        file_cfg = parse_config_file(args.config) if args.config else {}
        o = _resolve_opts(args, file_cfg, spec["opts"])
        output_dir = (args.output_dir or file_cfg.get("output_dir")
                      or os.environ.get("THERMOBIT_OUTPUT_DIR") or ".")
        if args._name[0] == "verify":
            # Checked up front: each criterion would otherwise fail on it in turn.
            _check_word("master_seed", o["master_seed"])
            return _run_verify(o["master_seed"])
        base, rows, extras = spec["runner"](o)
        os.makedirs(output_dir, exist_ok=True)
        csv_path = os.path.join(output_dir, base + ".csv")
        write_csv(csv_path, list(rows[0]), [list(row.values()) for row in rows])
        config = {"subcommand": "_".join(args._name), "output_dir": output_dir, **o}
        manifest_path = os.path.join(output_dir, base + ".manifest.json")
        write_manifest(manifest_path, config, [csv_path])
    except ConfigError as exc:
        print(f"thermobit: config error: {exc}", file=sys.stderr)
        return 3
    except _runtime_errors() as exc:
        print(f"thermobit: runtime error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"thermobit: config error: {_flag_names(str(exc), spec['opts'])}", file=sys.stderr)
        return 3

    print(json.dumps({"command": " ".join(args._name), "config": config,
                      "outputs": {"csv": csv_path, "manifest": manifest_path},
                      "summary": {**rows[-1], **extras}}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
