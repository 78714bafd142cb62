import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import varcycle
from varcycle import BOUNDARY_TOL, cli, validate_params
from varcycle.cli import (_CSV_BLOCK_ROWS, CsvTable, atomic_write, cycle_csv, main, matrix_csv,
                          trajectory_csv)


@pytest.fixture
def diag_config(tmp_path):
    doc = {
        "n": 3,
        "alpha": 0.1,
        "beta": 0.9,
        "a": [0.2, 0.3, 0.5],
        "b": [0.4, 0.4, 0.2],
        "noise": {"mu": [0.0] * 6, "sigma": [1.0] * 6},
        "run": {"T": 80, "seed": 11, "method": "both"},
        "output": {"path": str(tmp_path / "traj.csv")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path, doc


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip().startswith("{") else None
    return code, report, captured.err


class TestDecompose:
    def test_complex_regime_reports_no_basis(self, capsys):
        code, report, _ = run_cli(
            capsys, "decompose", "--n", "2", "--alpha", "1.09804", "--beta", "0.7"
        )
        assert code == 0
        assert report["payload"]["regime"] == "complex_conjugate"
        assert report["payload"]["basis_available"] is False
        assert report["payload"]["residuals"] is None

    def test_diagonalizable_residuals_pass(self, capsys):
        code, report, _ = run_cli(
            capsys, "decompose", "--n", "3", "--alpha", "0.1", "--beta", "0.9"
        )
        assert code == 0
        res = report["payload"]["residuals"]
        assert res["passed"] is True
        assert res["mq_qj"] < 1e-12 and res["qqinv"] < 1e-12

    def test_boundary_tolerance_is_not_an_option(self, capsys):
        # a looser tolerance once reported a double root where the
        # quadratic factor has two distinct real roots
        flags = ["decompose", "--n", "3", "--alpha", "0.1", "--beta", "0.9"]
        with pytest.raises(SystemExit) as exc:
            main(flags + ["--boundary-tol", "10"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, report, _ = run_cli(capsys, *flags)
        assert code == 0
        assert report["payload"]["boundary_tol"] == BOUNDARY_TOL
        assert report["payload"]["regime"] == "diagonalizable_real"

    def test_dump_matrices_round_trip(self, capsys, tmp_path):
        out = tmp_path / "mats"
        code, report, _ = run_cli(
            capsys, "decompose", "--n", "3", "--alpha", "0.1", "--beta", "0.9",
            "--dump-matrices", out,
        )
        assert code == 0
        Q = np.loadtxt(out / "Q.csv", delimiter=",")
        Qinv = np.loadtxt(out / "Qinv.csv", delimiter=",")
        M = np.loadtxt(out / "M.csv", delimiter=",")
        # shortest round-trip decimals reproduce the computation exactly
        assert np.max(np.abs(Q @ Qinv - np.eye(6))) < 1e-10
        assert M.shape == (6, 6)


class TestSimulate:
    def test_both_methods_write_two_csvs_and_summary(self, capsys, diag_config):
        config_path, doc = diag_config
        code, report, _ = run_cli(capsys, "simulate", "--config", config_path)
        assert code == 0
        payload = report["payload"]
        assert payload["max_method_deviation_relative"] < 1e-8
        for name in ("recursive", "explicit"):
            path = payload["files"][name]
            assert os.path.exists(path)
            with open(path) as fh:
                lines = fh.read().strip().splitlines()
            assert lines[0] == "t,x_1,x_2,x_3,y_1,y_2,y_3,xbar,ybar"
            assert len(lines) == doc["run"]["T"] + 2  # header + T+1 rows

    def test_determinism_same_seed(self, capsys, tmp_path, diag_config):
        config_path, _ = diag_config
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run_cli(
                capsys, "simulate", "--config", config_path,
                "--method", "recursive", "--out", out,
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_echo_round_trip(self, capsys, tmp_path, diag_config):
        config_path, _ = diag_config
        code, first, _ = run_cli(capsys, "simulate", "--config", config_path)
        assert code == 0
        echo_path = tmp_path / "echo.json"
        echo_path.write_text(json.dumps(first["config_echo"]))
        code, second, _ = run_cli(capsys, "simulate", "--config", echo_path)
        assert code == 0
        assert first["payload"] == second["payload"]

    def test_integral_float_run_values_match_ints(self, capsys, tmp_path, diag_config):
        config_path, doc = diag_config
        outs = []
        for T, seed in ((12, 3), (12.0, 3.0)):
            doc["run"] = {"T": T, "seed": seed, "method": "recursive"}
            doc["output"] = {"path": str(tmp_path / f"{T!r}.csv")}
            config_path.write_text(json.dumps(doc))
            code, report, _ = run_cli(capsys, "simulate", "--config", config_path)
            assert code == 0
            outs.append((tmp_path / f"{T!r}.csv").read_bytes())
        assert outs[0] == outs[1]
        assert len(outs[0].decode().strip().splitlines()) == 12 + 2

    def test_z0_from_csv(self, capsys, tmp_path, diag_config):
        config_path, _ = diag_config
        z0 = tmp_path / "z0.csv"
        z0.write_text(",".join(["0.5"] * 6))
        code, report, _ = run_cli(
            capsys, "simulate", "--config", config_path,
            "--method", "recursive", "--z0", f"csv:{z0}", "--out", tmp_path / "z.csv",
        )
        assert code == 0
        with open(report["payload"]["files"]["recursive"]) as fh:
            first_row = fh.read().splitlines()[1].split(",")
        assert float(first_row[1]) == 0.5

    def test_zero_noise_flag(self, capsys, tmp_path, diag_config):
        config_path, _ = diag_config
        code, report, _ = run_cli(
            capsys, "simulate", "--config", config_path, "--method", "recursive",
            "--zero-noise", "--z0", "zeros", "--out", tmp_path / "zn.csv",
        )
        assert code == 0
        data = np.loadtxt(report["payload"]["files"]["recursive"], delimiter=",", skiprows=1)
        assert np.all(data[:, 1:] == 0.0)

    def test_missing_out_is_validation_error(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 2, "alpha": 0.1, "beta": 0.9,
                                   "a": [0.5, 0.5], "b": [0.5, 0.5]}))
        code, _, err = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 2
        assert err.startswith("error: ConfigError:")
        assert len(err.strip().splitlines()) == 1


class TestStrictSchema:
    def test_unknown_top_level_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"n": 2, "alpha": 0.1, "beta": 0.9,
                                   "a": [0.5, 0.5], "b": [0.5, 0.5], "alhpa": 0.2}))
        code, _, err = run_cli(capsys, "decompose", "--config", cfg)
        assert code == 2
        assert "alhpa" in err

    def test_unknown_nested_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        for section, key in (({"run": {"T": 10, "sede": 1}}, "sede"),
                             ({"output": {"format": "csv"}}, "format")):
            cfg.write_text(json.dumps({
                "n": 2, "alpha": 0.1, "beta": 0.9, "a": [0.5, 0.5], "b": [0.5, 0.5],
                **section,
            }))
            code, _, err = run_cli(capsys, "decompose", "--config", cfg)
            assert code == 2
            assert err.startswith("error: ConfigError:") and repr(key) in err

    def test_validation_error_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"n": 2, "alpha": 0.0, "beta": 0.0,
                                   "a": [0.5, 0.5], "b": [0.5, 0.5]}))
        code, _, err = run_cli(capsys, "decompose", "--config", cfg)
        assert code == 2
        assert err.startswith("error: ForbiddenPair:")

    def test_failed_run_leaves_no_partial_output(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        out = tmp_path / "never.csv"
        cfg.write_text(json.dumps({"n": 2, "alpha": 0.1, "beta": 0.9,
                                   "a": [0.5, 0.5], "b": [0.5, 0.6]}))
        code, _, _ = run_cli(capsys, "simulate", "--config", cfg, "--out", out)
        assert code == 2
        assert not out.exists()
        assert not list(tmp_path.glob(".tmp-*"))


NAN, INF = float("nan"), float("inf")
MODEL_FLAGS = ["--n", "2", "--alpha", "0.1", "--beta", "0.9"]


def text_file(path, text):
    path.write_text(text)
    return path


def directory(path):
    path.mkdir()
    return path


def config_with(tmp_path, **overrides):
    doc = {"n": 2, "alpha": 0.1, "beta": 0.9, "a": [0.5, 0.5], "b": [0.5, 0.5]}
    doc.update(overrides)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # Python's json writes NaN/Infinity tokens
    return path


BAD_INPUTS = {
    "alpha-nan": (lambda p: ["decompose", "--config", config_with(p, alpha=NAN)],
                  "ParameterError"),
    "beta-inf": (lambda p: ["decompose", "--config", config_with(p, beta=INF)],
                 "ParameterError"),
    "a-nan": (lambda p: ["decompose", "--config", config_with(p, a=[NAN, 0.5])],
              "WeightViolation"),
    "b-inf": (lambda p: ["decompose", "--config", config_with(p, b=[INF, 0.5])],
              "WeightViolation"),
    "mu-nan": (lambda p: ["decompose", "--config", config_with(
        p, noise={"mu": [NAN, 0.0, 0.0, 0.0], "sigma": [1.0] * 4})], "ParameterError"),
    "sigma-inf": (lambda p: ["decompose", "--config", config_with(
        p, noise={"mu": [0.0] * 4, "sigma": [1.0, INF, 1.0, 1.0]})], "ParameterError"),
    "n-fractional": (lambda p: ["decompose", "--config", config_with(p, n=2.7)],
                     "DimensionMismatch"),
    "cycle-alpha-nan": (lambda p: ["cycle", "--alpha", "nan", "--out", p / "c.csv"],
                        "ParameterError"),
    "cycle-forbidden-pair": (lambda p: ["cycle", "--alpha", "1", "--beta", "1",
                                        "--out", p / "c.csv"], "ForbiddenPair"),
    "cycle-T-zero": (lambda p: ["cycle", "--T", "0", "--out", p / "c.csv"], "RangeError"),
    "cycle-T-one": (lambda p: ["cycle", "--T", "1", "--out", p / "c.csv"], "RangeError"),
    "cycle-eps-sd-negative": (lambda p: ["cycle", "--eps-sd", "-1", "--out", p / "c.csv"],
                              "RangeError"),
    "cycle-eta-sd-negative": (lambda p: ["cycle", "--eta-sd", "-1", "--out", p / "c.csv"],
                              "RangeError"),
    "simulate-T-negative": (lambda p: ["simulate", *MODEL_FLAGS, "--T", "-3",
                                       "--out", p / "s.csv"], "RangeError"),
    "moments-one-rep": (lambda p: ["moments", *MODEL_FLAGS, "--mc-reps", "1"], "RangeError"),
    "moments-negative-reps": (lambda p: ["moments", *MODEL_FLAGS, "--mc-reps", "-5"],
                              "RangeError"),
    "decompose-overflow": (lambda p: ["decompose", "--n", "2", "--alpha", "1e200",
                                      "--beta", "0.3"], "NonFiniteResult"),
    "moments-overflow": (lambda p: ["moments", "--n", "2", "--alpha", "-0.5", "--beta", "0.3",
                                    "--t-grid", "2,2000"], "NonFiniteResult"),
    "alpha-text": (lambda p: ["decompose", "--config", config_with(p, alpha="x")],
                   "ParameterError"),
    "alpha-huge-integer": (lambda p: ["decompose", "--config", config_with(p, alpha=10**400)],
                           "ParameterError"),
    "a-text": (lambda p: ["decompose", "--config", config_with(p, a=["x", 0.5])],
               "WeightViolation"),
    "mu-text": (lambda p: ["decompose", "--config", config_with(
        p, noise={"mu": ["x", 0.0, 0.0, 0.0], "sigma": [1.0] * 4})], "ParameterError"),
    "sigma-text": (lambda p: ["decompose", "--config", config_with(
        p, noise={"mu": [0.0] * 4, "sigma": [1.0, "x", 1.0, 1.0]})], "ParameterError"),
    "run-T-text": (lambda p: ["simulate", "--config", config_with(p, run={"T": "x"}),
                              "--out", p / "s.csv"], "ConfigError"),
    "z0-file-text": (lambda p: ["simulate", *MODEL_FLAGS, "--out", p / "s.csv", "--z0",
                                f"csv:{text_file(p / 'z0.txt', '0,x,0,0')}"], "ConfigError"),
    "z0-file-nan": (lambda p: ["simulate", *MODEL_FLAGS, "--out", p / "s.csv", "--z0",
                               f"csv:{text_file(p / 'z0.txt', '0,nan,0,0')}"], "ConfigError"),
    "run-z0-file-inf": (lambda p: ["simulate", "--config", config_with(
        p, run={"z0": f"csv:{text_file(p / 'z0.txt', '0,0,-inf,0')}"}),
        "--out", p / "s.csv"], "ConfigError"),
    "cycle-x0-nan": (lambda p: ["cycle", "--x0", "nan", "--out", p / "c.csv"], "RangeError"),
    "cycle-x0-inf": (lambda p: ["cycle", "--x0", "inf", "--out", p / "c.csv"], "RangeError"),
    "cycle-x1-nan": (lambda p: ["cycle", "--x1", "nan", "--out", p / "c.csv"], "RangeError"),
    # negative numbers argparse does not read as numbers reach validation
    "cycle-alpha-minus-inf": (lambda p: ["cycle", "--alpha", "-inf", "--out", p / "c.csv"],
                              "ParameterError"),
    "cycle-beta-minus-inf": (lambda p: ["cycle", "--beta", "-inf", "--out", p / "c.csv"],
                             "ParameterError"),
    "cycle-x0-minus-inf": (lambda p: ["cycle", "--x0", "-inf", "--out", p / "c.csv"],
                           "RangeError"),
    "cycle-x1-minus-inf": (lambda p: ["cycle", "--x1", "-inf", "--out", p / "c.csv"],
                           "RangeError"),
    "cycle-eps-sd-minus-inf": (lambda p: ["cycle", "--eps-sd", "-inf", "--out", p / "c.csv"],
                               "RangeError"),
    "cycle-eta-sd-exponent": (lambda p: ["cycle", "--eta-sd", "-1e-05", "--out", p / "c.csv"],
                              "RangeError"),
    "alpha-flag-minus-inf": (lambda p: ["decompose", "--n", "2", "--alpha", "-inf",
                                        "--beta", "0.9"], "ParameterError"),
    "simulate-beta-flag-minus-inf": (lambda p: ["simulate", "--n", "2", "--alpha", "0.1",
                                                "--beta", "-inf", "--out", p / "s.csv"],
                                     "ParameterError"),
    "t-grid-text": (lambda p: ["moments", *MODEL_FLAGS, "--t-grid", "2,x"], "ConfigError"),
    "tau-grid-text": (lambda p: ["moments", *MODEL_FLAGS, "--tau-grid", "0,x"], "ConfigError"),
    "a-flag-text": (lambda p: ["decompose", *MODEL_FLAGS, "--a", "x,0.5"], "ConfigError"),
    "b-flag-text": (lambda p: ["decompose", *MODEL_FLAGS, "--b", "0.5,x"], "ConfigError"),
    "noise-mu-flag-text": (lambda p: ["decompose", *MODEL_FLAGS, "--noise-mu", "0,x,0,0"],
                           "ConfigError"),
    "noise-sigma-flag-text": (lambda p: ["decompose", *MODEL_FLAGS,
                                         "--noise-sigma", "1,1,x,1"], "ConfigError"),
    "simulate-seed-negative": (lambda p: ["simulate", *MODEL_FLAGS, "--T", "5", "--seed", "-1",
                                          "--out", p / "o.csv"], "RangeError"),
    "cycle-seed-negative": (lambda p: ["cycle", "--T", "100", "--seed", "-1",
                                       "--out", p / "c.csv"], "RangeError"),
    "simulate-zero-noise-seed-negative": (lambda p: ["simulate", *MODEL_FLAGS, "--T", "5",
                                                     "--zero-noise", "--seed", "-1",
                                                     "--out", p / "o.csv"], "RangeError"),
    "cycle-zero-sd-seed-negative": (lambda p: ["cycle", "--T", "100", "--eps-sd", "0",
                                               "--eta-sd", "0", "--seed", "-1",
                                               "--out", p / "c.csv"], "RangeError"),
    "run-seed-negative-simulate": (lambda p: ["simulate", "--config", config_with(
        p, run={"seed": -1}), "--out", p / "s.csv"], "RangeError"),
    "run-seed-negative-verify": (lambda p: ["verify", "--config", config_with(
        p, run={"seed": -1})], "RangeError"),
    "run-T-fractional": (lambda p: ["simulate", "--config", config_with(
        p, run={"T": 2.7, "seed": 1}), "--out", p / "s.csv"], "ConfigError"),
    "run-seed-fractional": (lambda p: ["simulate", "--config", config_with(
        p, run={"T": 2, "seed": 1.9}), "--out", p / "s.csv"], "ConfigError"),
    "run-T-boolean": (lambda p: ["simulate", "--config", config_with(p, run={"T": True}),
                                 "--out", p / "s.csv"], "ConfigError"),
    "run-seed-boolean": (lambda p: ["verify", "--config", config_with(p, run={"seed": False})],
                         "ConfigError"),
    "config-missing": (lambda p: ["verify", "--config", p / "missing.json"],
                       "FileNotFoundError"),
    "config-is-directory": (lambda p: ["decompose", "--config", directory(p / "cfg")],
                            "IsADirectoryError"),
    "cycle-out-under-regular-file": (lambda p: ["cycle", "--T", "100", "--out",
                                                text_file(p / "f", "x") / "c.csv"],
                                     "FileExistsError"),
    "cycle-out-is-directory": (lambda p: ["cycle", "--T", "100", "--out", directory(p / "d")],
                               "IsADirectoryError"),
    "simulate-out-is-directory": (lambda p: ["simulate", *MODEL_FLAGS, "--T", "5",
                                             "--out", directory(p / "d")],
                                  "IsADirectoryError"),
    "dump-matrices-under-regular-file": (lambda p: ["decompose", *MODEL_FLAGS,
                                                    "--dump-matrices", text_file(p / "f", "x")],
                                         "FileExistsError"),
    "report-out-is-directory": (lambda p: ["decompose", *MODEL_FLAGS,
                                           "--out", directory(p / "d")], "IsADirectoryError"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(capsys, tmp_path, case):
    argv, error = BAD_INPUTS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([str(a) for a in argv(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {error}: ")
    assert not list(tmp_path.rglob("*.csv"))
    assert not list(tmp_path.rglob(".tmp-*"))


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def file_mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


class TestOutputMode:
    """Outputs get the mode open(path, "w") would give them."""

    def test_new_files_follow_the_umask(self, capsys, tmp_path, umask_022):
        runs = [["cycle", "--T", 30, "--out", tmp_path / "c.csv"],
                ["simulate", *MODEL_FLAGS, "--T", 5, "--method", "both",
                 "--out", tmp_path / "s.csv"],
                ["decompose", *MODEL_FLAGS, "--dump-matrices", tmp_path / "mats",
                 "--out", tmp_path / "report.json"]]
        for argv in runs:
            assert run_cli(capsys, *argv)[0] == 0
        written = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert len(written) == 7
        assert {p.name: file_mode(p) for p in written} == {p.name: 0o644 for p in written}

    def test_rewrite_keeps_the_old_mode(self, capsys, tmp_path, umask_022):
        out = tmp_path / "c.csv"
        out.write_text("old\n")
        out.chmod(0o640)
        assert run_cli(capsys, "cycle", "--T", 30, "--out", out)[0] == 0
        assert out.read_text().startswith("t,xbar,h\n")
        assert file_mode(out) == 0o640


@pytest.mark.parametrize("argv,key,value", [
    (["cycle", "--alpha", "-1e-05"], "alpha", -1e-05),
    (["cycle", "--beta", "-2E-1"], "beta", -0.2),
    (["cycle", "--x0", "-1e-05"], "x0", -1e-05),
    (["cycle", "--x1", "-2E+3"], "x1", -2000.0),
    (["decompose", "--n", "2", "--beta", "0.9", "--alpha", "-1e-05"], "alpha", -1e-05),
    (["decompose", "--n", "2", "--alpha", "1", "--beta", "-2E+3"], "beta", -2000.0),
])
def test_negative_numbers_in_exponent_notation_are_values(capsys, tmp_path, argv, key, value):
    # argparse alone reads -1e-05 as an option and stops with a usage error
    if argv[0] == "cycle":
        argv = argv + ["--T", "30", "--out", tmp_path / "c.csv"]
    code, report, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert report["config_echo"][key] == value


class TestCycleCommand:
    def test_csv_bytes_match_recorded_hash(self, capsys, tmp_path):
        # recorded with the per-row writer; the values come from a
        # Python-float recursion and elementwise numpy, and each cell is
        # the repr of a Python float, so the bytes are the same everywhere
        out = tmp_path / "c.csv"
        code, _, _ = run_cli(capsys, "cycle", "--T", 20000, "--seed", 3, "--out", out)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "47bf9056e5949d959a48429d7504cc99122de54c64573940c2f81737b17232e3")

    def test_default_run_reproduces_benchmark(self, capsys, tmp_path):
        out = tmp_path / "fig.csv"
        code, report, _ = run_cli(capsys, "cycle", "--out", out, "--analyze")
        assert code == 0
        payload = report["payload"]
        assert payload["rows"] == 701
        with open(out) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "t,xbar,h"
        assert len(lines) == 702
        pred = payload["predicted_period"]
        assert abs(payload["estimated_period"] - pred) / pred < 0.10
        assert payload["prominent"] is True

    def test_same_seed_identical_files(self, capsys, tmp_path):
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            code, _, _ = run_cli(capsys, "cycle", "--seed", 7, "--out", out)
            assert code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("flag", ["--eps-sd", "--eta-sd"])
    def test_negative_zero_sd_draws_as_zero(self, capsys, tmp_path, flag):
        # -0.0 passes sd >= 0; numpy's normal() rejects its sign bit
        outs = {}
        for sd in ("0", "-0.0"):
            outs[sd] = tmp_path / f"c{sd}.csv"
            code, _, err = run_cli(capsys, "cycle", "--T", 30, f"{flag}={sd}", "--out", outs[sd])
            assert code == 0, err
        assert outs["0"].read_bytes() == outs["-0.0"].read_bytes()

    def test_short_run_downgrades_analysis_to_warning(self, capsys, tmp_path):
        out = tmp_path / "short.csv"
        code, report, err = run_cli(
            capsys, "cycle", "--T", 32, "--out", out, "--analyze"
        )
        assert code == 0
        assert out.exists()
        assert "estimated_period" not in report["payload"]
        assert report["payload"]["warnings"]
        assert "warning:" in err


class TestMoments:
    def test_report_structure(self, capsys, diag_config):
        config_path, _ = diag_config
        code, report, _ = run_cli(
            capsys, "moments", "--config", config_path,
            "--t-grid", "2,5,10", "--tau-grid", "0,1",
        )
        assert code == 0
        payload = report["payload"]
        assert payload["stationarity_gap"] > 1e-3
        assert len(payload["grid"]) == 6
        assert payload["limits"]["spectral_radius_ok"] is True
        assert payload["limits"]["covariance_discrepancy"] > 0

    def test_wrong_regime_is_validation_error(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 2, "alpha": 1.09804, "beta": 0.7,
                                   "a": [0.5, 0.5], "b": [0.5, 0.5]}))
        code, _, err = run_cli(capsys, "moments", "--config", cfg)
        assert code == 2
        assert err.startswith("error: WrongRegime:") and "complex_conjugate" in err

    @pytest.mark.parametrize("flags", [("--seed", 11), ()])
    def test_echoed_config_reproduces_mc(self, capsys, tmp_path, diag_config, flags):
        config_path, doc = diag_config
        doc["run"]["seed"] = 5
        config_path.write_text(json.dumps(doc))
        grid = ("--t-grid", "2", "--tau-grid", "0", "--mc-reps", 4)
        code, first, _ = run_cli(capsys, "moments", "--config", config_path, *grid, *flags)
        assert code == 0
        seed = first["config_echo"]["run"]["seed"]
        assert seed == (11 if flags else 5)
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(first["config_echo"]))
        for extra in ((), ("--seed", seed)):
            code, again, _ = run_cli(capsys, "moments", "--config", echo, *grid, *extra)
            assert code == 0
            assert again["payload"]["grid"] == first["payload"]["grid"]

    def test_report_echoes_mc_stream_version(self, capsys, diag_config):
        config_path, _ = diag_config
        code = main(["moments", "--config", str(config_path), "--t-grid", "2",
                     "--tau-grid", "0", "--mc-reps", "4"])
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert report["payload"]["mc_stream_version"] == 2

    def test_dump_cov(self, capsys, tmp_path, diag_config):
        config_path, _ = diag_config
        prefix = tmp_path / "cov"
        code, _, _ = run_cli(
            capsys, "moments", "--config", config_path,
            "--t-grid", "2,3", "--tau-grid", "0", "--dump-cov", prefix,
        )
        assert code == 0
        mat = np.loadtxt(f"{prefix}_t2_tau0.csv", delimiter=",")
        assert mat.shape == (6, 6)


#: models without the paper's basis Q: the benchmark (complex regime), the
#: repeated-root boundary d1, n = 1 and alpha = 0
BASIS_FREE_MODELS = {
    "benchmark": (2, 1.09804, 0.7),
    "d1": (3, (3.0 - 2.0 * np.sqrt(2.0)) * 0.7, 0.7),
    "n1": (1, 0.1, 0.9),
    "alpha0": (3, 0.0, 0.8),
}


class TestVerify:
    def test_diagonalizable_config_passes(self, capsys, diag_config):
        config_path, _ = diag_config
        code, report, _ = run_cli(capsys, "verify", "--config", config_path)
        assert code == 0
        checks = {c["name"]: c["status"] for c in report["payload"]["checks"]}
        assert checks["decomposition_residuals"] == "pass"
        assert checks["explicit_equals_recursive"] == "pass"
        assert checks["cycle_reduction"] == "pass"
        assert checks["regime_agreement"] == "pass"

    def test_residual_detail_names_all_three_figures(self, capsys, diag_config):
        # passed tests all three residuals, so the detail shows all three
        config_path, _ = diag_config
        _, report, _ = run_cli(capsys, "verify", "--config", config_path)
        detail = next(c["detail"] for c in report["payload"]["checks"]
                      if c["name"] == "decomposition_residuals")
        figures = dict(item.split("=") for item in detail.split())
        assert sorted(figures) == ["mq_qj", "qqinv", "similarity"]
        _, dec_report, _ = run_cli(capsys, "decompose", "--config", config_path)
        for name, value in dec_report["payload"]["residuals"].items():
            if name != "passed":
                assert figures[name] == f"{value:.3e}"

    @pytest.mark.parametrize("n, alpha, beta", BASIS_FREE_MODELS.values(),
                             ids=BASIS_FREE_MODELS.keys())
    def test_block_basis_checks_pass_where_q_does_not_exist(self, capsys, tmp_path,
                                                            n, alpha, beta):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": n, "alpha": alpha, "beta": beta,
                                   "a": [1.0 / n] * n, "b": [1.0 / n] * n}))
        code, report, _ = run_cli(capsys, "verify", "--config", cfg)
        assert code == 0 and report["payload"]["all_passed"] is True
        checks = {c["name"]: c["status"] for c in report["payload"]["checks"]}
        assert checks["decomposition_residuals"] == "skipped"
        assert checks["block_basis_residuals"] == "pass"
        assert checks["explicit_equals_recursive"] == "pass"
        assert checks["cycle_reduction"] == "pass"
        for method in ("explicit", "both"):
            code, report, err = run_cli(capsys, "simulate", "--config", cfg, "--T", 300,
                                        "--method", method, "--out", tmp_path / "s.csv")
            assert code == 0, err
        assert report["payload"]["max_method_deviation_relative"] < 1e-8

    def test_block_detail_names_both_figures(self, capsys, diag_config):
        config_path, _ = diag_config
        _, report, _ = run_cli(capsys, "verify", "--config", config_path)
        detail = next(c["detail"] for c in report["payload"]["checks"]
                      if c["name"] == "block_basis_residuals")
        figures = dict(item.split("=") for item in detail.split())
        assert sorted(figures) == ["mr_rj", "rrinv"]
        assert all(float(v) < 1e-14 for v in figures.values())



def per_cell_trajectory_csv(traj_z, params):
    """Oracle: the trajectory writer formatting one cell at a time."""
    n = params.n
    header = ("t," + ",".join(f"x_{i+1}" for i in range(n)) + ","
              + ",".join(f"y_{i+1}" for i in range(n)) + ",xbar,ybar")
    xbar = traj_z[:, :n] @ params.b
    ybar = traj_z[:, n:] @ params.a
    lines = [header]
    for t in range(traj_z.shape[0]):
        cells = ([str(t)] + [repr(float(v)) for v in traj_z[t]]
                 + [repr(float(xbar[t])), repr(float(ybar[t]))])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def per_cell_cycle_csv(xbar, h):
    """Oracle: the cycle writer formatting one row at a time."""
    lines = ["t,xbar,h"]
    for t in range(len(xbar)):
        lines.append(f"{t},{repr(float(xbar[t]))},{repr(float(h[t]))}")
    return "\n".join(lines) + "\n"


def per_cell_matrix_csv(matrix):
    """Oracle: the matrix writer formatting one cell at a time."""
    return "\n".join(",".join(repr(float(v)) for v in row)
                     for row in np.atleast_2d(matrix)) + "\n"


def csv_text(table):
    buf = io.BytesIO()
    table.write(buf)
    return buf.getvalue().decode()


def assert_same_lines(got, want):
    got, want = got.split("\n"), want.split("\n")
    # compared line by line: pytest's diff of two long strings is very slow
    assert len(got) == len(want)
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, f"line {bad[0]}: {got[bad[0]]!r} != {want[bad[0]]!r}"


def test_trajectory_csv_is_byte_identical_to_per_cell_writer():
    params = validate_params({"n": 4, "alpha": 0.1, "beta": 0.9,
                              "a": [0.1, 0.2, 0.3, 0.4], "b": [0.4, 0.3, 0.2, 0.1]})
    rng = np.random.default_rng(9)
    # 2,500 rows span several blocks of the writer, the last one partial
    z = rng.standard_normal((2500, 8)) * 10.0 ** rng.integers(-150, 150, (2500, 8))
    z[0] = [0.0, -0.0, 5e-324, 1.0, 3.0, -2.5, 1e16, 0.1]
    assert_same_lines(csv_text(trajectory_csv(z, params)), per_cell_trajectory_csv(z, params))


def awkward_values(rows, cols, seed):
    """Values over 300 decades whose leading entries are -0.0, 5e-324,
    1e16 and other exactly representable numbers."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-150, 150, (rows, cols))
    special = [-0.0, 5e-324, 1e16, 0.0, 1.0, 3.0, -2.5, 0.1]
    k = min(values.size, len(special))
    values.flat[:k] = special[:k]
    return values


SIZES = [0, 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1, 3 * _CSV_BLOCK_ROWS + 17]


class TestRowWriter:
    """The shared CSV row writer, formatting parts of the rows in forked
    children, against the per-cell oracles."""

    params = validate_params({"n": 2, "alpha": 0.1, "beta": 0.9,
                              "a": [0.3, 0.7], "b": [0.6, 0.4]})

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("rows", SIZES)
    def test_byte_identical_to_per_cell_writers(self, monkeypatch, cpus, rows):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        z = awkward_values(rows, 4, rows)
        assert_same_lines(csv_text(trajectory_csv(z, self.params)),
                          per_cell_trajectory_csv(z, self.params))
        xbar, h = awkward_values(rows, 2, rows + 1).T
        assert_same_lines(csv_text(cycle_csv(xbar, h)), per_cell_cycle_csv(xbar, h))
        if rows:  # the CLI dumps only 2n x 2n matrices
            m = awkward_values(rows, 3, rows + 2)
            assert_same_lines(csv_text(matrix_csv(m)), per_cell_matrix_csv(m))

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("rows", SIZES[1:])
    def test_one_column_and_no_index(self, monkeypatch, cpus, rows):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        x = awkward_values(rows, 1, rows + 3)[:, 0]
        indexed = "t,x\n" + "".join(f"{t},{float(v)!r}\n" for t, v in enumerate(x))
        assert_same_lines(csv_text(CsvTable("t,x", (x,), index=True)), indexed)
        assert_same_lines(csv_text(CsvTable(None, (x,), index=False)),
                          per_cell_matrix_csv(x[:, None]))
        z = awkward_values(rows, 3, rows + 4)
        assert_same_lines(csv_text(CsvTable("u,v,w", (z[:, :2], z[:, 2]), index=False)),
                          "u,v,w\n" + per_cell_matrix_csv(z))

    @pytest.mark.parametrize("n", [3, 700])
    def test_dump_matrices_byte_identical(self, capsys, tmp_path, n):
        out = tmp_path / "mats"
        code, _, _ = run_cli(capsys, "decompose", "--n", n, "--alpha", "0.1", "--beta", "0.9",
                             "--dump-matrices", out)
        assert code == 0
        params = validate_params({"n": n, "alpha": 0.1, "beta": 0.9,
                                  "a": [1.0 / n] * n, "b": [1.0 / n] * n})
        dec = varcycle.decompose(params)
        matrices = {"M": varcycle.build_transition_matrix(params).entries,
                    "Q": dec.Q, "Qinv": dec.Qinv}
        for name, matrix in matrices.items():
            assert (out / f"{name}.csv").read_bytes() == per_cell_matrix_csv(matrix).encode()

    def test_failing_child_exits_2_and_leaves_no_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        format_rows = cli.CsvTable._format

        def fail_past_first_block(table, lo, hi):
            if lo >= _CSV_BLOCK_ROWS:  # only the child formats these rows
                raise MemoryError
            return format_rows(table, lo, hi)

        monkeypatch.setattr(cli.CsvTable, "_format", fail_past_first_block)
        out = tmp_path / "c.csv"
        code, report, err = run_cli(capsys, "cycle", "--T", 3000, "--out", out)
        assert code == 2 and report is None
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: OSError: ")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_children_are_reaped(self, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        z = awkward_values(5 * _CSV_BLOCK_ROWS, 4, 1)
        csv_text(trajectory_csv(z, self.params))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

        class FailingFile(io.BytesIO):
            def write(self, data):
                raise OSError("disk full")

        # the parent fails while its children still wait to hand over their parts
        with pytest.raises(OSError, match="disk full"):
            trajectory_csv(z, self.params).write(FailingFile())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_one_cpu_writes_same_bytes_and_forks_nothing(self, monkeypatch, tmp_path):
        script = """
import os, sys
import numpy as np
from varcycle.cli import atomic_write, cycle_csv

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
xbar, h = np.random.default_rng(4).standard_normal((2, 5000))
atomic_write(sys.argv[1], cycle_csv(xbar, h))
print(len(forks))
"""
        pinned = tmp_path / "pinned.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(varcycle.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script, str(pinned)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        xbar, h = np.random.default_rng(4).standard_normal((2, 5000))
        here = tmp_path / "here.csv"
        atomic_write(str(here), cycle_csv(xbar, h))
        assert pinned.read_bytes() == here.read_bytes()
