import json
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest

from thermobit import capacitor, cli, doublewell, ensemble, verification
from thermobit.capacitor import BLOCK


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
        assert "config error" in err

    def test_unsorted_duration_grid_is_config_error(self, tmp_path, run_cli):
        code, _, _ = run_cli(["capacitor", "mi-curve", "--durations-tau", "2,1",
                              "--n", "100", "--output-dir", str(tmp_path)])
        assert code == 3

    def test_frozen_cube_is_runtime_error(self, tmp_path, run_cli):
        code, _, err = run_cli(["bounds", "icecube", "--ambient-K", "260",
                                "--output-dir", str(tmp_path)])
        assert code == 4
        assert "runtime error" in err

    def test_infeasible_escape_is_runtime_error(self, tmp_path, run_cli):
        code, _, _ = run_cli(["doublewell", "escape", "--barrier-kt", "12",
                              "--n", "10", "--output-dir", str(tmp_path)])
        assert code == 4

    @pytest.mark.parametrize("argv", [
        ["capacitor", "erase", "--master-seed", "-1"],
        ["capacitor", "write", "--u0-sigma", "0"],
        ["capacitor", "mi-curve", "--durations-tau", "nan"],
        ["capacitor", "write", "--unit-mode", "si", "--temperature-K", "-1"],
        ["capacitor", "write", "--unit-mode", "si", "--capacitance-F", "nan"],
        ["capacitor", "erase", "--u0-sigma", "-1"],
        ["capacitor", "mi-curve", "--durations-tau", "-1,1"],
        ["capacitor", "write", "--workers", str(ensemble.MAX_WORKERS + 1)],
    ])
    def test_bad_capacitor_input_is_config_error(self, tmp_path, monkeypatch, run_cli, argv):
        # Bad input is refused before any process starts: no pool is built.
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
        ["doublewell", "escape", "--max-time", "-1"],
        ["doublewell", "escape", "--barrier-kt", "0"],
        ["doublewell", "relax", "--dt", "nan"],
        ["doublewell", "relax", "--side", "2"],
        ["doublewell", "relax", "--t-total", "1e300"],
        ["doublewell", "escape", "--max-time", "1e308", "--dt", "1e-5"],
        ["doublewell", "heated", "--side", "3"],
        ["doublewell", "relax", "--t-total", "1e12"],
    ])
    def test_bad_doublewell_input_is_config_error(self, tmp_path, capsys, argv):
        assert cli.main(argv + ["--n", "100", "--output-dir", str(tmp_path)]) == 3
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

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

    def test_empty_duration_grid_yields_header_only_csv(self, tmp_path, run_cli):
        code, _, _ = run_cli(["capacitor", "mi-curve", "--durations-tau", "",
                              "--n", "100", "--output-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "capacitor_mi_curve.csv").read_text().splitlines()
        assert len(lines) == 1

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
            assert json.loads(stdout)["config"]["n_trajectories"] == BLOCK + 1
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
