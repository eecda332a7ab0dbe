import json
import math
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import thermobit
from thermobit import capacitor, cli, doublewell, ensemble, verification
from thermobit.capacitor import BLOCK
from thermobit.reporting import format_value


@pytest.fixture
def run_cli(capsys):
    """Run cli.main in process; return (exit code, stdout, stderr)."""
    def run(args):
        code = cli.main(list(args))
        out = capsys.readouterr()
        return code, out.out, out.err
    return run


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["capacitor", "frobnicate"])
        assert exc_info.value.code == 2

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            cli.main([])
        assert exc_info.value.code == 2

    def test_bad_config_value_is_config_error(self, tmp_path, run_cli):
        code, _, err = run_cli(["capacitor", "erase", "--n", "0",
                                "--output-dir", str(tmp_path)])
        assert code == 3
        assert "config error: --n must be >= 1, got 0" in err

    def test_unsorted_duration_grid_is_config_error(self, tmp_path, run_cli):
        code, _, _ = run_cli(["capacitor", "mi-curve", "--durations-tau", "2,1",
                              "--n", "100", "--output-dir", str(tmp_path)])
        assert code == 3

    def test_frozen_cube_is_runtime_error(self, tmp_path, run_cli):
        code, _, err = run_cli(["bounds", "icecube", "--ambient-K", "260",
                                "--output-dir", str(tmp_path)])
        assert code == 4
        assert "runtime error" in err

    @pytest.mark.parametrize("argv", [
        ["brillouin", "--temperature-K", "inf"],
        ["anderson", "--delta-s-bits", "inf"],
        ["anderson", "--temperature-K", "inf"],
        ["icecube", "--volume-cm3", "inf"],
        ["icecube", "--ambient-K", "inf"],
        ["icecube", "--latent-heat", "nan"],
        ["icecube", "--latent-heat", "inf"],
        ["icecube", "--ice-density", "-1"],
        ["icecube", "--volume-cm3", "1e308"],  # Q overflows
        ["icecube", "--volume-cm3", "1e300"],  # Q finite, Q_kT overflows
        ["anderson", "--delta-s-bits", "1e308", "--temperature-K", "1e308"],
        ["brillouin", "--temperature-K", "5e-324"],  # kT underflows to 0
        ["anderson", "--temperature-K", "5e-324"],
    ])
    def test_non_finite_or_non_physical_bounds_input_is_config_error(self, tmp_path, run_cli,
                                                                     argv):
        code, _, err = run_cli(["bounds"] + argv + ["--output-dir", str(tmp_path)])
        assert code == 3
        assert "config error" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv", [
        ["capacitor", "write", "--u0-sigma", "7.5", "--n", "10"],  # 1.4e16 draws
        ["capacitor", "erase", "--n", "20000000000"],
        ["capacitor", "mi-curve", "--n", "600000000"],  # x 20 durations = 1.2e10
        ["doublewell", "escape", "--barrier-kt", "16", "--n", "1"],  # 1.0e11 with its floor
        ["doublewell", "escape", "--barrier-kt", "20", "--n", "10"],
    ])
    def test_run_past_the_draw_budget_is_refused_before_any_stream(
            self, tmp_path, monkeypatch, run_cli, argv):
        made = []
        monkeypatch.setattr(ensemble, "make_stream", lambda *args: made.append(args))
        start = time.monotonic()
        code, _, err = run_cli(argv + ["--output-dir", str(tmp_path)])
        assert time.monotonic() - start < 1.0
        assert code == 3
        assert "above the budget of 1e+10" in err
        assert not list(tmp_path.glob("*.csv"))
        assert not made

    @pytest.mark.parametrize("argv", [
        ["capacitor", "erase", "--master-seed", "-1"],
        ["capacitor", "write", "--u0-sigma", "0"],
        ["capacitor", "mi-curve", "--durations-tau", "nan"],
        ["capacitor", "erase", "--u0-sigma", "-1"],
        ["capacitor", "mi-curve", "--durations-tau", "-1,1"],
        ["capacitor", "write", "--workers", str(ensemble.MAX_WORKERS + 1)],
    ])
    def test_bad_capacitor_input_is_config_error(self, tmp_path, monkeypatch, run_cli, argv):
        # Bad input is refused before any process starts: no pool is built.
        # The seed and the worker count are checked by ensemble.run_blocks.
        built = []
        monkeypatch.setattr(ensemble, "_live", None)
        monkeypatch.setattr(ensemble, "ProcessPoolExecutor",
                            lambda **kwargs: built.append(kwargs))
        code, _, err = run_cli(argv + ["--n", "10", "--output-dir", str(tmp_path)])
        assert code == 3
        assert "config error" in err
        assert not list(tmp_path.glob("*.csv"))
        assert not built

    @pytest.mark.parametrize("argv", [
        ["capacitor", "erase", "--u0-sigma", "1e200"],  # heat and its SE overflow
        ["capacitor", "mi-curve", "--u0-sigma", "1e308", "--durations-tau", "0,1"],
        ["capacitor", "mi-curve", "--durations-tau", ""],  # no duration, no row
        ["capacitor", "write", "--dt-tau", "1e-300"],  # 2e300 expected steps
        ["capacitor", "write", "--u0-sigma", "40"],  # mean time e^800 past float range
    ], ids=["erase-u0-1e200", "mi-curve-u0-1e308", "mi-curve-empty-grid", "write-dt-1e-300",
            "write-u0-40"])
    def test_capacitor_run_out_of_range_is_refused_before_any_block(
            self, tmp_path, monkeypatch, run_cli, argv):
        made = []
        monkeypatch.setattr(ensemble, "make_stream", lambda *args: made.append(args))
        code, _, err = run_cli(argv + ["--n", "10", "--output-dir", str(tmp_path)])
        assert code == 3
        assert "config error" in err
        assert not list(tmp_path.glob("*.csv"))
        assert not made

    @pytest.mark.parametrize("sub, argv", [
        ("erase", ["--u0-sigma", "1e6"]),
        ("mi-curve", ["--u0-sigma", "1e6", "--durations-tau", "0,1"]),
    ], ids=["erase", "mi-curve"])
    def test_large_finite_u0_still_runs(self, tmp_path, run_cli, sub, argv):
        code, _, _ = run_cli(["capacitor", sub] + argv + ["--n", "10",
                                                          "--output-dir", str(tmp_path)])
        assert code == 0
        (csv_path,) = tmp_path.glob("*.csv")
        for line in csv_path.read_text().splitlines()[1:]:
            assert all(math.isfinite(float(field)) for field in line.split(","))

    @pytest.mark.parametrize("argv", [
        ["capacitor", "mi-curve", "--durations", "-1,1"],
        ["capacitor", "write", "--u0", "1"],
        ["doublewell", "relax", "--t-tot", "5"],
    ])
    def test_flag_prefix_is_usage_error(self, capsys, argv):
        # No prefix of a flag stands for the flag.
        with pytest.raises(SystemExit) as exc_info:
            cli.main(argv)
        assert exc_info.value.code == 2
        assert "unrecognized arguments: " + " ".join(argv[2:]) in capsys.readouterr().err

    def test_dead_worker_is_runtime_error(self, tmp_path, monkeypatch, run_cli):
        def broken(*args, **kwargs):
            raise BrokenProcessPool("a worker died")
        monkeypatch.setattr(capacitor, "write_ensemble", broken)
        code, _, err = run_cli(["capacitor", "write", "--n", "10", "--workers", "2",
                                "--output-dir", str(tmp_path)])
        assert code == 4
        assert "runtime error: a worker died" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv", [
        ["doublewell", "relax", "--t-total", "inf"],
        ["doublewell", "heated", "--t-total", "inf"],
        ["doublewell", "heated", "--t-hot", "nan"],
        ["doublewell", "heated", "--t-hot", "0.5"],
        ["doublewell", "escape", "--barrier-kt", "0"],
        ["doublewell", "relax", "--dt", "nan"],
        ["doublewell", "relax", "--side", "2"],
        ["doublewell", "relax", "--t-total", "1e300"],
        ["doublewell", "heated", "--side", "3"],
        ["doublewell", "relax", "--t-total", "1e12"],
    ])
    def test_bad_doublewell_input_is_config_error(self, tmp_path, capsys, argv):
        assert cli.main(argv + ["--n", "100", "--output-dir", str(tmp_path)]) == 3
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv", [
        [sub, f"{flag}={value}"]
        for sub, flags in (("relax", ("--barrier-kt", "--t-total", "--dt")),
                           ("heated", ("--barrier-kt", "--t-total", "--dt")),
                           ("escape", ("--barrier-kt", "--dt")))
        for flag in flags for value in ("0", "-1", "-1e308")
    ] + [["heated", f"--t-hot={value}"] for value in ("0", "-1", "0.999")])
    def test_zero_or_negative_doublewell_input_is_refused_before_any_stream(
            self, tmp_path, monkeypatch, run_cli, argv):
        made = []
        monkeypatch.setattr(ensemble, "make_stream", lambda *args: made.append(args))
        code, _, err = run_cli(["doublewell", *argv, "--n", "100", "--output-dir", str(tmp_path)])
        assert code == 3
        assert "config error" in err
        assert not list(tmp_path.glob("*.csv"))
        assert not made

    @pytest.mark.parametrize("argv", [
        ["heated", "--t-hot", "1e308"],
        ["heated", "--t-hot", "1e308", "--dt", "0.001"],
        ["relax", "--barrier-kt", "1e308"],
    ])
    def test_overflowing_stability_bound_names_the_input_not_dt(
            self, tmp_path, monkeypatch, run_cli, argv):
        # 8*max(E, T) overflows, so the bound would be 0: the refusal names
        # the barrier or temperature given, not a dt the user may never have set.
        made = []
        monkeypatch.setattr(ensemble, "make_stream", lambda *args: made.append(args))
        code, _, err = run_cli(["doublewell", *argv, "--n", "100", "--output-dir", str(tmp_path)])
        assert code == 3
        message = err.split("config error: ", 1)[1]
        assert "1e+308" in message
        assert not message.startswith("dt")
        assert not list(tmp_path.glob("*.csv"))
        assert not made

    @pytest.mark.parametrize("argv, message", [
        (["capacitor", "write", "--workers", "257"], "--workers must lie in [1, 256], got 257"),
        (["capacitor", "erase", "--master-seed", "-1"],
         "--master-seed must lie in [0, 2**64), got -1"),
        (["doublewell", "heated", "--t-hot", "0"], "--t-hot must be positive and finite, got 0.0"),
        (["doublewell", "relax", "--barrier-kt", "0"],
         "--barrier-kt must be positive and finite, got 0.0"),
        (["doublewell", "heated", "--t-hot", "1e308"], "no Euler-Maruyama step is stable at "
         "--barrier-kt=4.0 and --t-hot=1e+308: the bound is 0.0"),
        # relax has no --t-hot: its walk runs at the ambient temperature 1.
        (["doublewell", "relax", "--barrier-kt", "1e308"], "no Euler-Maruyama step is stable "
         "at --barrier-kt=1e+308 and temperature=1.0: the bound is 0.0"),
    ], ids=["workers", "master-seed", "t-hot", "barrier-kt", "t-hot-overflow", "relax-overflow"])
    def test_refusal_names_the_flag(self, tmp_path, run_cli, argv, message):
        code, _, err = run_cli(argv + ["--n", "100", "--output-dir", str(tmp_path)])
        assert code == 3
        assert err == f"thermobit: config error: {message}\n"

    def test_escape_has_no_max_time_option(self, capsys):
        # The step cap follows from the exact mean first-passage time.
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["doublewell", "escape", "--max-time", "100"])
        assert exc_info.value.code == 2
        assert "--max-time" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        [*cmd, flag, value]
        for cmd in (["capacitor", "write"], ["capacitor", "erase"], ["capacitor", "mi-curve"])
        for flag, value in (("--unit-mode", "si"), ("--temperature-K", "300"),
                            ("--resistance-ohm", "1e6"), ("--capacitance-F", "1e-12"))
    ] + [
        [*cmd, flag, "1"]
        for cmd in (["bounds", "brillouin"], ["bounds", "anderson"], ["bounds", "icecube"],
                    ["info", "eval"])
        for flag in ("--n", "--master-seed", "--workers")
    ], ids=lambda argv: " ".join(argv[:3]))
    def test_option_no_runner_reads_is_usage_error(self, capsys, argv):
        # The capacitor runs in reduced units, so the cell's SI values would
        # cancel out of every column; bounds and info run no ensemble.
        with pytest.raises(SystemExit) as exc_info:
            cli.main(argv)
        assert exc_info.value.code == 2
        assert "unrecognized arguments: " + argv[2] in capsys.readouterr().err

    def test_erase_has_no_dt_option(self, capsys):
        # An erase is one exact draw over its duration, so it takes no step.
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["capacitor", "erase", "--dt-tau", "0.01"])
        assert exc_info.value.code == 2
        assert "--dt-tau" in capsys.readouterr().err

    def test_mi_curve_has_no_dt_option(self, capsys):
        # The mi-curve erases from the latched +-u0 and simulates no write.
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["capacitor", "mi-curve", "--dt-tau", "0.01"])
        assert exc_info.value.code == 2
        assert "--dt-tau" in capsys.readouterr().err

    def test_successful_run_is_zero(self, tmp_path):
        # The one subprocess run: `python -m thermobit.cli` reaches main()
        # and turns its return value into the process exit code.
        proc = subprocess.run([sys.executable, "-m", "thermobit.cli", "info", "eval",
                               "--p-e", "0.11", "--output-dir", str(tmp_path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0


# Every float flag of every simulating subcommand.
_FLOAT_FLAGS = [(group, sub, flag) for (group, sub), spec in cli._SUBCOMMANDS.items()
                if group in ("capacitor", "doublewell")
                for flag, typ, _default, _help in spec["opts"] if typ in (float, list)]


@settings(max_examples=3 * len(_FLOAT_FLAGS), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(_FLOAT_FLAGS), value=st.sampled_from(["nan", "inf", "-inf"]))
def test_non_finite_float_flag_is_config_error(tmp_path, monkeypatch, capsys, case, value):
    made = []
    monkeypatch.setattr(ensemble, "make_stream", lambda *args: made.append(args))
    group, sub, flag = case
    code = cli.main([group, sub, f"--{flag}={value}", "--n", "100",
                     "--output-dir", str(tmp_path)])
    assert code == 3, (case, value)
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    assert not made


# Zero is a valid erase level, erase duration and mi-curve duration.
_ZERO_VALID = {("erase", "u0-sigma"), ("erase", "duration-tau"), ("mi-curve", "durations-tau")}


@pytest.mark.parametrize("case, value", [
    (case, value) for case in _FLOAT_FLAGS
    for value in ("-1e-3", "-1e308", "-inf") + (() if case[1:] in _ZERO_VALID else ("0",))
], ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_negative_float_after_a_space_is_config_error(tmp_path, monkeypatch, run_cli, case,
                                                      value):
    # argparse reads "-1e-3" or "-inf" on its own as an unknown flag (exit 2)
    # unless main joins it to its flag.
    made = []
    monkeypatch.setattr(ensemble, "make_stream", lambda *args: made.append(args))
    group, sub, flag = case
    code, _, err = run_cli([group, sub, f"--{flag}", value, "--n", "100",
                            "--output-dir", str(tmp_path)])
    assert code == 3
    assert "config error" in err
    assert not list(tmp_path.glob("*.csv"))
    assert not made


class _Reads(dict):
    """An option dict that records which keys are read."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("name", list(cli._SUBCOMMANDS), ids=" ".join)
def test_every_declared_option_is_read(name):
    # An option its runner never reads cannot change a result.
    args = cli.build_parser().parse_args(list(name))
    declared = {key for key in vars(args) if not key.startswith("_")} - {
        "command", "subcommand", "config", "output_dir"}
    o = _Reads(cli._resolve_opts(args, {}, cli._SUBCOMMANDS[name]["opts"]))
    o.update({key: value for key, value in (("n", 100), ("t_total", 0.5)) if key in o})
    cli._SUBCOMMANDS[name]["runner"](o)
    assert o.read == declared


@pytest.mark.parametrize("argv", [
    ["relax", "--barrier-kt", "0.001", "--n", "2000"],
    ["relax", "--barrier-kt", "1e-300", "--n", "100"],
    ["heated", "--t-hot", "4000"],  # past the draw budget at the stable step
    ["heated", "--t-hot", "4000", "--n", "100", "--t-total", "0.01"],
    ["heated", "--t-hot", "1e308"],
    ["heated", "--t-hot", "16", "--n", "100", "--t-total", "1"],
])
def test_low_barrier_or_hot_bath_runs_finite_or_is_refused(tmp_path, run_cli, argv):
    # The default step is stable at kT well above the barrier: a run either
    # keeps every column finite or is refused before it starts, never overflows.
    code, out, err = run_cli(["doublewell", *argv, "--output-dir", str(tmp_path)])
    assert code in (0, 3), err
    if code == 3:
        assert not list(tmp_path.glob("*.csv"))
        return
    summary = json.loads(out)["summary"]
    assert all(math.isfinite(v) for v in summary.values())
    assert abs(summary.get("mean_U_drift", 0.0)) < 0.05
    (csv_path,) = tmp_path.glob("*.csv")
    for line in csv_path.read_text().splitlines()[1:]:
        assert all(math.isfinite(float(field)) for field in line.split(","))


class TestNumpyOnlyRuntime:
    def test_import_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, thermobit, thermobit.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    def test_verify_passes_with_scipy_blocked(self):
        # A None entry in sys.modules makes any `import scipy` raise ImportError.
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; sys.modules['scipy'] = None; "
             "from thermobit import cli; sys.exit(cli.main(['verify']))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestOutputs:
    def test_icecube_summary_values(self, tmp_path, run_cli):
        code, out, _ = run_cli(["bounds", "icecube", "--output-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["Q_kT"] == pytest.approx(7.3846e23, rel=1e-4)
        assert payload["summary"]["violation_factor"] > 1e23
        assert "violation factor" in payload["summary"]["comparison"]

    def test_info_eval_summary(self, tmp_path, run_cli):
        _, out, _ = run_cli(["info", "eval", "--p-e", "0.11", "--output-dir", str(tmp_path)])
        payload = json.loads(out)
        assert payload["summary"]["info_bits"] == pytest.approx(0.500084041835472, abs=1e-12)

    def test_csv_headers_are_fixed(self, tmp_path, run_cli):
        code, _, _ = run_cli(["capacitor", "mi-curve", "--durations-tau", "0,1",
                              "--n", "200", "--output-dir", str(tmp_path)])
        assert code == 0
        header = (tmp_path / "capacitor_mi_curve.csv").read_text().splitlines()[0]
        assert header == "duration_tau,p_e_hat,ci_low,ci_high,info_bits,mean_Q_env_kT,se_Q_env_kT"

    def test_doublewell_csv_header(self, tmp_path, run_cli):
        code, _, _ = run_cli(["doublewell", "relax", "--n", "100", "--t-total", "0.5",
                              "--output-dir", str(tmp_path)])
        assert code == 0
        header = (tmp_path / "doublewell_relax.csv").read_text().splitlines()[0]
        assert header == "t,p1,se_p1,mean_U,se_U"

    def test_doublewell_csv_fields_are_plain_floats(self, tmp_path, run_cli):
        code, _, _ = run_cli(["doublewell", "relax", "--n", "100", "--t-total", "0.5",
                              "--output-dir", str(tmp_path)])
        assert code == 0
        for line in (tmp_path / "doublewell_relax.csv").read_text().splitlines()[1:]:
            for field in line.split(","):
                float(field)

    def test_manifest_checksum_matches_csv(self, tmp_path, run_cli):
        import hashlib

        code, _, _ = run_cli(["info", "eval", "--p-e", "0.25", "--output-dir", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "info_eval.manifest.json").read_text())
        csv_path = tmp_path / "info_eval.csv"
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert manifest["checksums"][str(csv_path)] == digest
        assert manifest["config"]["p_e"] == 0.25

    def test_float_columns_round_trip(self, tmp_path, run_cli):
        code, out, _ = run_cli(["bounds", "brillouin", "--p-e", "0.3",
                                "--output-dir", str(tmp_path)])
        assert code == 0
        header, row = (tmp_path / "bounds_brillouin.csv").read_text().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["p_e"]) == 0.3
        payload = json.loads(out)
        assert float(values["E_d_joule"]) == payload["summary"]["E_d_joule"]


class TestManifest:
    """The manifest's config is the resolved options, under their own names."""

    @pytest.mark.parametrize("argv", [
        ["capacitor", "write", "--n", "40", "--bit", "0", "--workers", "2", "--master-seed", "77"],
        ["capacitor", "erase", "--n", "40", "--duration-tau", "0.5", "--master-seed", "77"],
        ["capacitor", "mi-curve", "--n", "40", "--durations-tau", "0,0.3,2", "--master-seed", "77"],
        ["doublewell", "relax", "--n", "100", "--t-total", "0.5", "--side", "0",
         "--master-seed", "77"],
        ["doublewell", "heated", "--n", "100", "--t-total", "0.5", "--master-seed", "77"],
        ["doublewell", "escape", "--n", "20", "--dt", "0.002", "--master-seed", "77"],
        ["bounds", "brillouin", "--p-e", "0.2"],
        ["bounds", "anderson", "--delta-s-bits", "2"],
        ["bounds", "icecube", "--sensible"],
        ["info", "eval", "--p-e", "0.25"],
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_manifest_config_replays_the_run(self, tmp_path, run_cli, argv):
        code, out, _ = run_cli(argv + ["--output-dir", str(tmp_path / "first")])
        assert code == 0
        paths = json.loads(out)["outputs"]
        config = json.loads(Path(paths["manifest"]).read_text())["config"]
        assert config["subcommand"] == "_".join(argv[:2])
        lines = [f"{key} = {','.join(map(str, v)) if isinstance(v, list) else v}\n"
                 for key, v in config.items()
                 if key not in ("subcommand", "output_dir") and v is not None]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(lines))
        code, out, err = run_cli(argv[:2] + ["--config", str(cfg), "--output-dir",
                                             str(tmp_path / "again")])
        assert code == 0, err
        again = json.loads(out)
        assert again["config"] == {**config, "output_dir": str(tmp_path / "again")}
        assert Path(again["outputs"]["csv"]).read_bytes() == Path(paths["csv"]).read_bytes()

    def test_version_is_the_package_version(self, tmp_path, run_cli):
        assert run_cli(["info", "eval", "--output-dir", str(tmp_path)])[0] == 0
        manifest = json.loads((tmp_path / "info_eval.manifest.json").read_text())
        assert manifest["tool_version"] == thermobit.__version__


class TestSummary:
    @pytest.mark.parametrize("argv, extras", [
        (["capacitor", "write", "--n", "30"], set()),
        (["capacitor", "mi-curve", "--n", "30", "--durations-tau", "0,0.5,3"],
         {"n_durations", "final_info_bits", "theory_Q_env_kT"}),
        (["doublewell", "heated", "--n", "100", "--t-total", "0.5"],
         {"terminal_p1", "mean_absorbed_kT", "se_absorbed_kT"}),
    ], ids=["write", "mi-curve", "heated"])
    def test_summary_holds_the_last_csv_row(self, tmp_path, run_cli, argv, extras):
        code, out, _ = run_cli(argv + ["--output-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads(out)
        header, *rows = Path(payload["outputs"]["csv"]).read_text().splitlines()
        columns = header.split(",")
        summary = payload["summary"]
        assert [format_value(summary[c]) for c in columns] == rows[-1].split(",")
        assert set(summary) == set(columns) | extras


class TestConfigPrecedence:
    def test_flag_overrides_config_file(self, tmp_path, run_cli):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p_e = 0.5\n# comment line\n")
        _, out, _ = run_cli(["info", "eval", "--config", str(cfg), "--p-e", "0.11",
                             "--output-dir", str(tmp_path)])
        payload = json.loads(out)
        assert payload["config"]["p_e"] == 0.11

    def test_config_file_overrides_default(self, tmp_path, run_cli):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p_e = 0.25\n")
        _, out, _ = run_cli(["info", "eval", "--config", str(cfg),
                             "--output-dir", str(tmp_path)])
        payload = json.loads(out)
        assert payload["config"]["p_e"] == 0.25

    def test_malformed_config_file_is_config_error(self, tmp_path, run_cli):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this line has no equals sign\n")
        code, _, _ = run_cli(["info", "eval", "--config", str(cfg),
                              "--output-dir", str(tmp_path)])
        assert code == 3

    def test_unknown_config_key_is_config_error(self, tmp_path, run_cli):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p_ee = 0.25\nn = 10\nworkers = 1\noutput_dir = elsewhere\n")
        code, _, err = run_cli(["info", "eval", "--config", str(cfg),
                                "--output-dir", str(tmp_path)])
        assert code == 3
        assert "p_ee" in err and "output_dir" not in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    @pytest.mark.parametrize("argv", [["capacitor", "erase", "--n", "10"], ["verify"]])
    def test_unreadable_config_file_is_config_error(self, tmp_path, run_cli, argv, kind):
        cfg = tmp_path / "run.cfg"
        if kind == "directory":
            cfg.mkdir()
        elif kind == "not-utf8":
            cfg.write_bytes(b"n = \xff\xfe\n")
        code, out, err = run_cli(argv + ["--config", str(cfg), "--output-dir", str(tmp_path)])
        assert code == 3
        assert "config error" in err and out == ""
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv, text, seed", [
        ([], "master_seed = 7\n", 7),
        (["--master-seed", "9"], "master_seed = 7\n", 9),
    ])
    def test_verify_reads_seed_from_config_file(self, tmp_path, monkeypatch, capsys,
                                                 argv, text, seed):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        seeds = []
        monkeypatch.setattr(verification, "run_all", lambda master_seed: seeds.append(
            master_seed) or [verification.CriterionResult("1 fake", True, "ok")])
        assert cli.main(["verify", "--config", str(cfg)] + argv) == 0
        assert seeds == [seed]

    @pytest.mark.parametrize("key", ["master_sed", "n", "workers"])
    def test_verify_refuses_unknown_config_key(self, tmp_path, monkeypatch, capsys, key):
        # verify reads master_seed and output_dir; the criteria fix their own n and workers.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 7\n")
        monkeypatch.setattr(verification, "run_all", lambda master_seed: pytest.fail("ran"))
        assert cli.main(["verify", "--config", str(cfg)]) == 3
        assert f"unknown config key(s): {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, text", [
        (["--master-seed", "-1"], None),
        (["--master-seed", str(2**64)], None),
        ([], "master_seed = -1\n"),
    ], ids=["flag-minus-1", "flag-2**64", "file-minus-1"])
    def test_verify_refuses_seed_out_of_range(self, tmp_path, monkeypatch, capsys, argv, text):
        if text is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(text)
            argv = argv + ["--config", str(cfg)]
        monkeypatch.setattr(verification, "run_all", lambda master_seed: pytest.fail("ran"))
        assert cli.main(["verify"] + argv) == 3
        assert "--master-seed must lie in [0, 2**64)" in capsys.readouterr().err

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch, run_cli):
        monkeypatch.setenv("THERMOBIT_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(["info", "eval", "--p-e", "0.2"])
        assert code == 0
        assert (tmp_path / "info_eval.csv").exists()


class TestDeterminism:
    @pytest.mark.parametrize("workers", ["1", "4"])
    def test_mi_curve_bytes_stable_across_workers(self, tmp_path, workers, run_cli):
        out = tmp_path / workers
        code, _, _ = run_cli(["capacitor", "mi-curve", "--durations-tau", "0,0.5,1",
                              "--n", "400", "--workers", workers,
                              "--output-dir", str(out)])
        assert code == 0
        digest = (out / "capacitor_mi_curve.csv").read_bytes()
        # Compare against a fresh single-worker reference run.
        ref_dir = tmp_path / ("ref" + workers)
        run_cli(["capacitor", "mi-curve", "--durations-tau", "0,0.5,1",
                 "--n", "400", "--workers", "1", "--output-dir", str(ref_dir)])
        assert digest == (ref_dir / "capacitor_mi_curve.csv").read_bytes()


class TestBlocks:
    def test_partial_block_bytes_stable_across_workers(self, tmp_path, run_cli):
        blobs = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            code, stdout, _ = run_cli(["capacitor", "write", "--n", str(BLOCK + 1),
                                       "--workers", workers, "--output-dir", str(out)])
            assert code == 0
            assert json.loads(stdout)["config"]["n"] == BLOCK + 1
            blobs.append((out / "capacitor_write.csv").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("argv", [
        ["doublewell", "relax", "--t-total", "2"],
        ["doublewell", "heated", "--t-total", "2"],
        ["doublewell", "escape"],
    ])
    def test_doublewell_partial_block_bytes_stable_across_workers(self, tmp_path, argv):
        blobs = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert cli.main(argv + ["--n", str(doublewell.BLOCK + 1), "--workers", workers,
                                    "--output-dir", str(out)]) == 0
            blobs.append((out / f"doublewell_{argv[1]}.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestParserCache:
    """One parser serves every cli.main call in a process and keeps no state."""

    @staticmethod
    def written_bits(out_dir):
        header, *rows = (out_dir / "capacitor_write.csv").read_text().splitlines()
        return [row.split(",")[header.split(",").index("bit")] for row in rows]

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_flag_does_not_stick_to_the_next_call(self, tmp_path, run_cli):
        base = ["capacitor", "write", "--n", "20"]
        assert run_cli(base + ["--bit", "0", "--output-dir", str(tmp_path / "a")])[0] == 0
        assert run_cli(base + ["--output-dir", str(tmp_path / "b")])[0] == 0
        assert self.written_bits(tmp_path / "a") == ["0"]
        assert self.written_bits(tmp_path / "b") == ["1"]

    def test_a_usage_error_does_not_spoil_the_next_call(self, tmp_path, run_cli):
        argv = ["capacitor", "write", "--n", "20", "--master-seed", "5"]
        cli.build_parser.cache_clear()
        assert run_cli(argv + ["--output-dir", str(tmp_path / "fresh")])[0] == 0
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["capacitor", "write", "--bit", "0", "--n", "7", "--u0", "1"])
        assert exc_info.value.code == 2
        code, out, _ = run_cli(argv + ["--output-dir", str(tmp_path / "after")])
        assert code == 0
        assert json.loads(out)["config"]["n"] == 20
        assert self.written_bits(tmp_path / "after") == ["1"]
        assert ((tmp_path / "after" / "capacitor_write.csv").read_bytes()
                == (tmp_path / "fresh" / "capacitor_write.csv").read_bytes())


class TestVerify:
    def test_prints_elapsed_per_criterion(self, monkeypatch, capsys):
        fake = [verification.CriterionResult("1 fake", True, "ok", elapsed=1.5),
                verification.CriterionResult("2 fake", False, "bad", elapsed=12.5)]
        monkeypatch.setattr(verification, "run_all", lambda master_seed: fake)
        assert cli.main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "1.5s" in lines[0] and "PASS" in lines[0]
        assert "12.5s" in lines[1] and "FAIL" in lines[1]
        assert lines[2] == "1/2 criteria passed"
