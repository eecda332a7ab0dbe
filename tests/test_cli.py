import json
import subprocess
import sys

import pytest

from thermobit import cli, verification
from thermobit.capacitor import BLOCK

BASE = [sys.executable, "-m", "thermobit.cli"]


def run_cli(args, **kwargs):
    return subprocess.run(BASE + list(args), capture_output=True, text=True, **kwargs)


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli(["capacitor", "frobnicate"]).returncode == 2

    def test_missing_command_is_usage_error(self):
        assert run_cli([]).returncode == 2

    def test_bad_config_value_is_config_error(self, tmp_path):
        proc = run_cli(["capacitor", "erase", "--n", "0",
                        "--output-dir", str(tmp_path)])
        assert proc.returncode == 3
        assert "config error" in proc.stderr

    def test_unsorted_duration_grid_is_config_error(self, tmp_path):
        proc = run_cli(["capacitor", "mi-curve", "--durations-tau", "2,1",
                        "--n", "100", "--output-dir", str(tmp_path)])
        assert proc.returncode == 3

    def test_frozen_cube_is_runtime_error(self, tmp_path):
        proc = run_cli(["bounds", "icecube", "--ambient-K", "260",
                        "--output-dir", str(tmp_path)])
        assert proc.returncode == 4
        assert "runtime error" in proc.stderr

    def test_infeasible_escape_is_runtime_error(self, tmp_path):
        proc = run_cli(["doublewell", "escape", "--barrier-kt", "12",
                        "--n", "10", "--output-dir", str(tmp_path)])
        assert proc.returncode == 4

    @pytest.mark.parametrize("argv", [
        ["capacitor", "erase", "--master-seed", "-1"],
        ["capacitor", "write", "--u0-sigma", "0"],
        ["capacitor", "mi-curve", "--durations-tau", "nan"],
    ])
    def test_bad_capacitor_input_is_config_error(self, tmp_path, argv):
        proc = run_cli(argv + ["--n", "10", "--output-dir", str(tmp_path)])
        assert proc.returncode == 3
        assert "config error" in proc.stderr
        assert not list(tmp_path.glob("*.csv"))

    def test_successful_run_is_zero(self, tmp_path):
        proc = run_cli(["info", "eval", "--p-e", "0.11",
                        "--output-dir", str(tmp_path)])
        assert proc.returncode == 0


class TestOutputs:
    def test_icecube_summary_values(self, tmp_path):
        proc = run_cli(["bounds", "icecube", "--output-dir", str(tmp_path)])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["summary"]["Q_kT"] == pytest.approx(7.3846e23, rel=1e-4)
        assert payload["summary"]["violation_factor"] > 1e23
        assert "violation factor" in payload["summary"]["comparison"]

    def test_info_eval_summary(self, tmp_path):
        proc = run_cli(["info", "eval", "--p-e", "0.11", "--output-dir", str(tmp_path)])
        payload = json.loads(proc.stdout)
        assert payload["summary"]["info_bits"] == pytest.approx(0.500084041835472, abs=1e-12)

    def test_csv_headers_are_fixed(self, tmp_path):
        proc = run_cli(["capacitor", "mi-curve", "--durations-tau", "0,1",
                        "--n", "200", "--output-dir", str(tmp_path)])
        assert proc.returncode == 0
        header = (tmp_path / "capacitor_mi_curve.csv").read_text().splitlines()[0]
        assert header == "duration_tau,p_e_hat,ci_low,ci_high,info_bits,mean_Q_env_kT,se_Q_env_kT"

    def test_doublewell_csv_header(self, tmp_path):
        proc = run_cli(["doublewell", "relax", "--n", "100", "--t-total", "0.5",
                        "--output-dir", str(tmp_path)])
        assert proc.returncode == 0
        header = (tmp_path / "doublewell_relax.csv").read_text().splitlines()[0]
        assert header == "t,p1,se_p1,mean_U,se_U"

    def test_doublewell_csv_fields_are_plain_floats(self, tmp_path):
        proc = run_cli(["doublewell", "relax", "--n", "100", "--t-total", "0.5",
                        "--output-dir", str(tmp_path)])
        assert proc.returncode == 0
        for line in (tmp_path / "doublewell_relax.csv").read_text().splitlines()[1:]:
            for field in line.split(","):
                float(field)

    def test_empty_duration_grid_yields_header_only_csv(self, tmp_path):
        proc = run_cli(["capacitor", "mi-curve", "--durations-tau", "",
                        "--n", "100", "--output-dir", str(tmp_path)])
        assert proc.returncode == 0
        lines = (tmp_path / "capacitor_mi_curve.csv").read_text().splitlines()
        assert len(lines) == 1

    def test_manifest_checksum_matches_csv(self, tmp_path):
        import hashlib

        proc = run_cli(["info", "eval", "--p-e", "0.25", "--output-dir", str(tmp_path)])
        assert proc.returncode == 0
        manifest = json.loads((tmp_path / "info_eval.manifest.json").read_text())
        csv_path = tmp_path / "info_eval.csv"
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert manifest["checksums"][str(csv_path)] == digest
        assert manifest["config"]["p_e"] == 0.25

    def test_float_columns_round_trip(self, tmp_path):
        proc = run_cli(["bounds", "brillouin", "--p-e", "0.3",
                        "--output-dir", str(tmp_path)])
        assert proc.returncode == 0
        header, row = (tmp_path / "bounds_brillouin.csv").read_text().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["p_e"]) == 0.3
        payload = json.loads(proc.stdout)
        assert float(values["E_d_joule"]) == payload["summary"]["E_d_joule"]


class TestConfigPrecedence:
    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p_e = 0.5\n# comment line\n")
        proc = run_cli(["info", "eval", "--config", str(cfg), "--p-e", "0.11",
                        "--output-dir", str(tmp_path)])
        payload = json.loads(proc.stdout)
        assert payload["config"]["p_e"] == 0.11

    def test_config_file_overrides_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p_e = 0.25\n")
        proc = run_cli(["info", "eval", "--config", str(cfg),
                        "--output-dir", str(tmp_path)])
        payload = json.loads(proc.stdout)
        assert payload["config"]["p_e"] == 0.25

    def test_malformed_config_file_is_config_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this line has no equals sign\n")
        proc = run_cli(["info", "eval", "--config", str(cfg),
                        "--output-dir", str(tmp_path)])
        assert proc.returncode == 3

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        import os

        env = dict(os.environ, THERMOBIT_OUTPUT_DIR=str(tmp_path))
        proc = run_cli(["info", "eval", "--p-e", "0.2"], env=env)
        assert proc.returncode == 0
        assert (tmp_path / "info_eval.csv").exists()


class TestDeterminism:
    @pytest.mark.parametrize("workers", ["1", "4"])
    def test_mi_curve_bytes_stable_across_workers(self, tmp_path, workers):
        out = tmp_path / workers
        proc = run_cli(["capacitor", "mi-curve", "--durations-tau", "0,0.5,1",
                        "--n", "400", "--workers", workers,
                        "--output-dir", str(out)])
        assert proc.returncode == 0
        digest = (out / "capacitor_mi_curve.csv").read_bytes()
        # Compare against a fresh single-worker reference run.
        ref_dir = tmp_path / ("ref" + workers)
        run_cli(["capacitor", "mi-curve", "--durations-tau", "0,0.5,1",
                 "--n", "400", "--workers", "1", "--output-dir", str(ref_dir)])
        assert digest == (ref_dir / "capacitor_mi_curve.csv").read_bytes()


class TestBlocks:
    def test_partial_block_bytes_stable_across_workers(self, tmp_path):
        blobs = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            proc = run_cli(["capacitor", "write", "--n", str(BLOCK + 1), "--workers", workers,
                            "--output-dir", str(out)])
            assert proc.returncode == 0
            assert json.loads(proc.stdout)["config"]["n_trajectories"] == BLOCK + 1
            blobs.append((out / "capacitor_write.csv").read_bytes())
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
