import contextlib
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import varcycle
from varcycle import BOUNDARY_TOL, _decimal, cli, validate_params
from varcycle.cli import (_CSV_BLOCK_CELLS, CsvTable, atomic_write, cycle_csv, main, matrix_csv,
                          trajectory_csv)

#: Rows in one block of a two-column table such as the cycle CSV.
_CSV_BLOCK_ROWS = _CSV_BLOCK_CELLS // 2


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
    def test_complex_regime_reports_no_basis(self, capsys, tmp_path):
        code, report, _ = run_cli(
            capsys, "decompose", "--config", config_with(tmp_path, alpha=1.09804, beta=0.7)
        )
        assert code == 0
        assert report["payload"]["regime"] == "complex_conjugate"
        assert report["payload"]["basis_available"] is False
        assert report["payload"]["residuals"] is None

    def test_diagonalizable_residuals_pass(self, capsys, tmp_path):
        code, report, _ = run_cli(
            capsys, "decompose", "--config", uniform_config(tmp_path, 3, 0.1, 0.9)
        )
        assert code == 0
        res = report["payload"]["residuals"]
        assert res["passed"] is True
        assert res["mq_qj"] < 1e-12 and res["qqinv"] < 1e-12

    def test_zero_alpha_keeps_the_eigenvalue_one(self, capsys, tmp_path):
        # alpha*beta == 0 factors the quadratic exactly into (lam - 1)(lam - 1 + beta):
        # two distinct roots however small beta is, not a double root at 1 - beta/2
        code, report, _ = run_cli(capsys, "decompose", "--config",
                                  config_with(tmp_path, alpha=0.0, beta=1e-6))
        assert code == 0
        payload = report["payload"]
        assert payload["regime"] == "diagonalizable_real"
        assert [e["value"] for e in payload["eigenvalues"]] == [1.0, 1.0 - 1e-6, 1.0, 1.0 - 1e-6]
        assert payload["blocks"] == [[1.0, 1, 1], [1.0, 1, 1], [1.0 - 1e-6, 1, 1],
                                     [1.0 - 1e-6, 1, 1]]
        # the two roots differ, so the paper's basis exists
        assert payload["basis_available"] is True
        assert payload["residuals"]["passed"] is True

    @pytest.mark.parametrize("alpha", ["1e-200", "1e-310", "5e-324"])
    def test_tiny_alpha_reports_a_passing_basis(self, capsys, tmp_path, alpha):
        # V divides by nothing, so a subnormal alpha has a basis too, and no warning
        cfg = config_with(tmp_path, alpha=float(alpha), beta=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, report, err = run_cli(capsys, "decompose", "--config", cfg)
        assert code == 0, err
        assert report["payload"]["regime"] == "diagonalizable_real"
        assert report["payload"]["basis_available"] is True
        assert report["payload"]["residuals"]["passed"] is True

    def test_blocks_are_runs(self, capsys, tmp_path):
        code, report, _ = run_cli(capsys, "decompose", "--config",
                                  uniform_config(tmp_path, 50, 0.1, 0.9))
        assert code == 0
        blocks = report["payload"]["blocks"]
        assert [(size, count) for _, size, count in blocks] == [(1, 49), (1, 1), (1, 49), (1, 1)]
        eig = [e["value"] for e in report["payload"]["eigenvalues"]]
        assert [value for value, _, _ in blocks] == [eig[0], eig[2], eig[1], eig[3]]

    def test_one_agent_lists_only_the_two_eigenvalues(self, capsys, tmp_path):
        # at n = 1, M is 2x2: 1 - alpha and 1 - beta are not its eigenvalues
        cfg = config_with(tmp_path, n=1, alpha=0.3, beta=0.6, a=[1.0], b=[1.0])
        code, report, _ = run_cli(capsys, "decompose", "--config", cfg)
        assert code == 0
        eigenvalues = report["payload"]["eigenvalues"]
        assert [e["multiplicity"] for e in eigenvalues] == [1, 1]
        listed = sorted((complex(e["value"]["re"], e["value"]["im"]) for e in eigenvalues),
                        key=lambda v: v.imag)
        M = varcycle.build_transition_matrix(validate_params(json.loads(cfg.read_text())))
        exact = sorted(np.linalg.eigvals(M.entries), key=lambda v: v.imag)
        assert np.allclose(listed, exact, rtol=0, atol=1e-15)

    def test_boundary_tolerance_is_not_an_option(self, capsys, tmp_path):
        # a looser tolerance once reported a double root where the
        # quadratic factor has two distinct real roots
        flags = ["decompose", "--config", str(uniform_config(tmp_path, 3, 0.1, 0.9))]
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
            capsys, "decompose", "--config", uniform_config(tmp_path, 3, 0.1, 0.9),
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
    def test_both_methods_write_two_csvs_and_summary(self, capsys, tmp_path, diag_config):
        config_path, doc = diag_config
        code, report, _ = run_cli(capsys, "simulate", "--config", config_path,
                                  "--out", tmp_path / "traj.csv")
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
        code, first, _ = run_cli(capsys, "simulate", "--config", config_path,
                                 "--out", tmp_path / "traj.csv")
        assert code == 0
        echo_path = tmp_path / "echo.json"
        echo_path.write_text(json.dumps(first["config_echo"]))
        code, second, _ = run_cli(capsys, "simulate", "--config", echo_path)
        assert code == 0
        assert first["payload"] == second["payload"]

    def test_config_echo_bytes_match_echo_of_lists(self):
        # the echo hands its vectors to the encoder as arrays; the report
        # holds the same bytes as an echo of Python lists
        params = validate_params({"n": 3, "alpha": 0.1, "beta": 0.9,
                                  "a": [0.2, 0.3, 0.5], "b": [0.1, 0.6, 0.3]})
        noise = varcycle.validate_noise({"mu": [0.0, -0.0, 5e-324, 1e16, -2.5, 0.1],
                                         "sigma": [1.0, 0.1, 3.0, 1e-300, 2.0, 7.25]}, 3)
        run, output = {"T": 12, "seed": 3, "method": "both", "z0": "zeros"}, {"path": None}
        echo = cli.config_echo(params, noise, run, output)
        assert isinstance(echo["a"], np.ndarray) and isinstance(echo["noise"]["mu"], np.ndarray)
        listed = {"n": 3, "alpha": 0.1, "beta": 0.9, "a": params.a.tolist(),
                  "b": params.b.tolist(),
                  "noise": {"mu": noise.mu.tolist(), "sigma": noise.sigma.tolist()},
                  "run": run, "output": output}
        assert json.dumps(echo, default=cli._json_default) == json.dumps(listed)

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
        # every sigma 0: the report's zero_noise flag is set
        config_path, doc = diag_config
        doc["noise"]["sigma"] = [0.0] * 6
        config_path.write_text(json.dumps(doc))
        code, report, _ = run_cli(
            capsys, "simulate", "--config", config_path, "--method", "recursive",
            "--z0", "zeros", "--out", tmp_path / "zn.csv",
        )
        assert code == 0
        data = np.loadtxt(report["payload"]["files"]["recursive"], delimiter=",", skiprows=1)
        assert np.all(data[:, 1:] == 0.0)
        assert report["payload"]["zero_noise"] is True
        assert report["config_echo"]["noise"]["sigma"] == [0.0] * 6

    def test_zero_noise_echo_reruns_the_run(self, capsys, tmp_path):
        # a nonzero mu makes the drawn means show in every row after the first
        first = tmp_path / "first.csv"
        cfg = config_with(tmp_path, noise={"mu": [0.5, -1.0, 2.0, 0.25], "sigma": [0.0] * 4})
        code, report, _ = run_cli(capsys, "simulate", "--config", cfg, "--T", "5", "--out", first)
        assert code == 0
        echo = report["config_echo"]
        echo["output"]["path"] = str(tmp_path / "rerun.csv")
        rerun = tmp_path / "rerun.json"
        rerun.write_text(json.dumps(echo))
        code, report, _ = run_cli(capsys, "simulate", "--config", rerun)
        assert code == 0 and report["payload"]["zero_noise"] is True
        assert (tmp_path / "rerun.csv").read_bytes() == first.read_bytes()

    def test_integral_float_T_and_seed_echo_as_integers(self, capsys, tmp_path):
        first = tmp_path / "first.csv"
        cfg = config_with(tmp_path, run={"T": 12.0, "seed": 3.0})
        code, report, _ = run_cli(capsys, "simulate", "--config", cfg, "--out", first)
        assert code == 0
        run = report["config_echo"]["run"]
        assert type(run["T"]) is int and type(run["seed"]) is int
        assert (run["T"], run["seed"]) == (12, 3)
        assert (report["payload"]["T"], report["payload"]["seed"]) == (12, 3)
        echo = report["config_echo"]
        echo["output"]["path"] = str(tmp_path / "rerun.csv")
        rerun = tmp_path / "rerun.json"
        rerun.write_text(json.dumps(echo))
        code, again, _ = run_cli(capsys, "simulate", "--config", rerun)
        assert code == 0 and again["config_echo"]["run"] == run
        assert (tmp_path / "rerun.csv").read_bytes() == first.read_bytes()

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


class TestModelConfig:
    """--config is the one way to give the model to decompose, simulate and moments."""

    @pytest.mark.parametrize("command", ["decompose", "simulate", "moments"])
    def test_missing_weights_are_uniform(self, capsys, tmp_path, command):
        bare = text_file(tmp_path / "bare.json", json.dumps({"n": 3, "alpha": 0.1, "beta": 0.9}))
        extra = {"decompose": [], "moments": ["--mc-reps", 3],
                 "simulate": ["--T", 20, "--method", "both", "--out", tmp_path / "s.csv"]}
        reports, files = [], []
        for cfg in (bare, uniform_config(tmp_path, 3, 0.1, 0.9)):
            code, report, err = run_cli(capsys, command, "--config", cfg, *extra[command])
            assert code == 0, err
            del report["timing"]
            reports.append(json.dumps(report))
            files.append([p.read_bytes() for p in sorted(tmp_path.glob("s_*.csv"))])
        assert reports[0] == reports[1]
        assert files[0] == files[1]

    @pytest.mark.parametrize("command", ["decompose", "simulate", "moments"])
    def test_help_lists_no_model_flag(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        options = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        assert "--config" in options
        model_flags = {"--n", "--alpha", "--beta", "--a", "--b", "--noise-mu", "--noise-sigma",
                       "--zero-noise"}
        assert not options & model_flags


NAN, INF = float("nan"), float("inf")
NO_AGENTS = json.dumps({"n": 0, "alpha": 0.1, "beta": 0.9})
# uniform weights for these n fail at once, one by size and one by overflow;
# a size that could be allocated, such as 1e9, is never run
HUGE_AGENTS = {n: json.dumps({"n": n, "alpha": 0.1, "beta": 0.9}) for n in (1e18, 1e30)}


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


def uniform_config(tmp_path, n, alpha, beta):
    """config_with for n agents that lists uniform weights."""
    return config_with(tmp_path, n=n, alpha=alpha, beta=beta, a=[1.0 / n] * n, b=[1.0 / n] * n)


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
    "sigma-negative": (lambda p: ["decompose", "--config", config_with(
        p, noise={"mu": [0.0] * 4, "sigma": [1.0, 1.0, -0.5, 1.0]})], "ParameterError"),
    "n-fractional": (lambda p: ["decompose", "--config", config_with(p, n=2.7)],
                     "DimensionMismatch"),
    "cycle-alpha-nan": (lambda p: ["cycle", "--alpha", "nan", "--out", p / "c.csv"],
                        "ParameterError"),
    "cycle-forbidden-pair": (lambda p: ["cycle", "--alpha", "1", "--beta", "1",
                                        "--out", p / "c.csv"], "ForbiddenPair"),
    # one lower bound for --T, stated before any draw
    "cycle-T-zero": (lambda p: ["cycle", "--T", "0", "--out", p / "c.csv"],
                     "RangeError: T must be >= 2, got 0"),
    "cycle-T-one": (lambda p: ["cycle", "--T", "1", "--out", p / "c.csv"],
                    "RangeError: T must be >= 2, got 1"),
    "cycle-eps-sd-negative": (lambda p: ["cycle", "--eps-sd", "-1", "--out", p / "c.csv"],
                              "RangeError"),
    "cycle-eta-sd-negative": (lambda p: ["cycle", "--eta-sd", "-1", "--out", p / "c.csv"],
                              "RangeError"),
    "simulate-T-negative": (lambda p: ["simulate", "--config", config_with(p), "--T", "-3",
                                       "--out", p / "s.csv"], "RangeError"),
    # numpy refuses a draw of 2**62 steps by its size, before it allocates
    "simulate-huge-T": (lambda p: ["simulate", "--config", config_with(p), "--T", 2**62,
                                   "--out", p / "s.csv"], "RangeError"),
    "cycle-huge-T": (lambda p: ["cycle", "--T", 2**62, "--out", p / "c.csv"], "RangeError"),
    "moments-one-rep": (lambda p: ["moments", "--config", config_with(p), "--mc-reps", "1"],
                        "RangeError"),
    "moments-negative-reps": (lambda p: ["moments", "--config", config_with(p),
                                         "--mc-reps", "-5"], "RangeError"),
    "moments-negative-seed": (lambda p: ["moments", "--config", config_with(p), "--mc-reps", "2",
                                         "--seed", "-1"], "RangeError"),
    # no Monte Carlo reads the seed here, but the echoed config must rerun
    "moments-negative-seed-without-mc": (lambda p: ["moments", "--config", config_with(p),
                                                    "--seed", "-1"], "RangeError"),
    "moments-alpha-overflow": (lambda p: ["moments", "--config", config_with(
        p, alpha=1e155, beta=1.0)], "NonFiniteResult"),
    "moments-beta-overflow": (lambda p: ["moments", "--config", config_with(
        p, alpha=0.5, beta=1e155)], "NonFiniteResult"),
    "decompose-overflow": (lambda p: ["decompose", "--config", config_with(
        p, alpha=1e200, beta=0.3)], "NonFiniteResult"),
    # alpha^2 + beta^2 - 6 alpha beta is inf - inf: a NaN discriminant
    "decompose-nan-discriminant": (lambda p: ["decompose", "--config", config_with(
        p, alpha=1e200, beta=1e200)], "NonFiniteResult"),
    "verify-nan-discriminant": (lambda p: ["verify", "--config", config_with(
        p, alpha=-1e200, beta=-1e200)], "NonFiniteResult"),
    "cycle-nan-discriminant": (lambda p: ["cycle", "--alpha", "1e200", "--beta", "1e200",
                                          "--out", p / "c.csv"], "NonFiniteResult"),
    # the boundary d2 = (3 + 2 sqrt 2) beta overflows to inf without a warning
    "decompose-boundary-overflow": (lambda p: ["decompose", "--config", config_with(
        p, alpha=1e308, beta=-1e308)], "NonFiniteResult"),
    "moments-overflow": (lambda p: ["moments", "--config", config_with(p, alpha=-0.5, beta=0.3),
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
    "z0-file-text": (lambda p: ["simulate", "--config", config_with(p), "--out", p / "s.csv",
                                "--z0", f"csv:{text_file(p / 'z0.txt', '0,x,0,0')}"],
                     "ConfigError"),
    "z0-file-nan": (lambda p: ["simulate", "--config", config_with(p), "--out", p / "s.csv",
                               "--z0", f"csv:{text_file(p / 'z0.txt', '0,nan,0,0')}"],
                    "ConfigError"),
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
    "t-grid-text": (lambda p: ["moments", "--config", config_with(p), "--t-grid", "2,x"],
                    "ConfigError"),
    "tau-grid-text": (lambda p: ["moments", "--config", config_with(p), "--tau-grid", "0,x"],
                      "ConfigError"),
    "simulate-seed-negative": (lambda p: ["simulate", "--config", config_with(p), "--T", "5",
                                          "--seed", "-1", "--out", p / "o.csv"], "RangeError"),
    "cycle-seed-negative": (lambda p: ["cycle", "--T", "100", "--seed", "-1",
                                       "--out", p / "c.csv"], "RangeError"),
    "simulate-zero-noise-seed-negative": (lambda p: ["simulate", "--config", config_with(
        p, noise={"mu": [0.0] * 4, "sigma": [0.0] * 4}), "--T", "5", "--seed", "-1",
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
    # one number rule: only JSON numbers count, with the field's error type
    # true would run n = 1 if it counted as the integer 1
    "n-boolean": (lambda p: ["decompose", "--config", config_with(p, n=True, a=[1.0], b=[1.0])],
                  "DimensionMismatch"),
    "alpha-numeric-text": (lambda p: ["decompose", "--config", config_with(p, alpha="0.1")],
                           "ParameterError"),
    "beta-boolean": (lambda p: ["decompose", "--config", config_with(p, beta=False)],
                     "ParameterError"),
    "a-boolean-at-n-1": (lambda p: ["decompose", "--config", config_with(
        p, n=1, a=[True], b=[1.0])], "WeightViolation"),
    "sigma-boolean": (lambda p: ["decompose", "--config", config_with(
        p, noise={"mu": [0.0] * 4, "sigma": [1.0, True, 1.0, 1.0]})], "ParameterError"),
    "run-T-numeric-text": (lambda p: ["simulate", "--config", config_with(p, run={"T": "12"}),
                                      "--out", p / "s.csv"], "ConfigError"),
    # n is checked before the uniform weights are derived from it
    "decompose-n-zero": (lambda p: ["decompose", "--config", text_file(p / "c.json", NO_AGENTS)],
                         "DimensionMismatch"),
    "simulate-n-zero": (lambda p: ["simulate", "--config", text_file(p / "c.json", NO_AGENTS),
                                   "--out", p / "s.csv"], "DimensionMismatch"),
    "moments-n-zero": (lambda p: ["moments", "--config", text_file(p / "c.json", NO_AGENTS)],
                       "DimensionMismatch"),
    "decompose-n-1e18-uniform": (lambda p: ["decompose", "--config", text_file(
        p / "c.json", HUGE_AGENTS[1e18])], "DimensionMismatch"),
    "verify-n-1e30-uniform": (lambda p: ["verify", "--config", text_file(
        p / "c.json", HUGE_AGENTS[1e30])], "DimensionMismatch"),
    "config-section-not-object": (lambda p: ["decompose", "--config", config_with(
        p, noise=[0.0, 1.0])], "ConfigError"),
    "config-not-json": (lambda p: ["decompose", "--config", text_file(p / "c.json", "{n: 2")],
                        "ConfigError"),
    "run-method-unknown": (lambda p: ["simulate", "--config", config_with(
        p, run={"method": "bogus"}), "--out", p / "s.csv"], "ConfigError"),
    # a path that is not text once named the trajectory file "True"
    "output-path-true": (lambda p: ["simulate", "--config", config_with(
        p, output={"path": True})], "ConfigError"),
    "output-path-number": (lambda p: ["decompose", "--config", config_with(
        p, output={"path": 5})], "ConfigError"),
    # verify writes no report file, so a path would go unused
    "verify-output-path": (lambda p: ["verify", "--config", config_with(
        p, output={"path": str(p / "rep.json")})], "ConfigError"),
    "cycle-without-out": (lambda p: ["cycle", "--T", "10"], "ConfigError"),
    "config-missing": (lambda p: ["verify", "--config", p / "missing.json"],
                       "FileNotFoundError"),
    "config-is-directory": (lambda p: ["decompose", "--config", directory(p / "cfg")],
                            "IsADirectoryError"),
    "cycle-out-under-regular-file": (lambda p: ["cycle", "--T", "100", "--out",
                                                text_file(p / "f", "x") / "c.csv"],
                                     "FileExistsError"),
    "cycle-out-is-directory": (lambda p: ["cycle", "--T", "100", "--out", directory(p / "d")],
                               "IsADirectoryError"),
    "simulate-out-is-directory": (lambda p: ["simulate", "--config", config_with(p), "--T", "5",
                                             "--out", directory(p / "d")],
                                  "IsADirectoryError"),
    "dump-matrices-under-regular-file": (lambda p: ["decompose", "--config", config_with(p),
                                                    "--dump-matrices", text_file(p / "f", "x")],
                                         "FileExistsError"),
    "report-out-is-directory": (lambda p: ["decompose", "--config", config_with(p),
                                           "--out", directory(p / "d")], "IsADirectoryError"),
    # overflow at the float limit ends in the typed error, not a numpy warning
    "cycle-float-limit": (lambda p: ["cycle", "--alpha=1e308", "--beta=-1e308", "--T", "100",
                                     "--out", p / "c.csv"], "NonFiniteState"),
    "verify-float-limit": (lambda p: ["verify", "--config", config_with(
        p, alpha=1e308, beta=-1e308)], "NonFiniteState"),
    # the complex regime, where the exact check of R runs at float scale
    "verify-complex-float-scale": (lambda p: ["verify", "--config", config_with(
        p, alpha=1e150, beta=1e150)], "NonFiniteState"),
    # shocks alpha * epsilon that overflow reach the explicit solution as inf
    "simulate-explicit-shock-overflow": (lambda p: ["simulate", "--config", config_with(
        p, alpha=1e150, beta=0.5, noise={"mu": [0.0] * 4, "sigma": [1e160] * 4}),
        "--method", "explicit", "--T", "50", "--out", p / "t.csv"], "NonFiniteState"),
}

#: Run sections that every model subcommand refuses, and the error type.
BAD_RUN_SECTIONS = {
    "T-text": (lambda p: {"T": "x"}, "ConfigError"),
    "T-zero": (lambda p: {"T": 0}, "RangeError"),
    "seed-negative": (lambda p: {"seed": -1}, "RangeError"),
    "seed-fractional": (lambda p: {"seed": 1.5}, "ConfigError"),
    "z0-unknown": (lambda p: {"z0": "bogus"}, "ConfigError"),
    "z0-file-wrong-length": (lambda p: {"z0": f"csv:{text_file(p / 'z0.txt', '0,0,0')}"},
                             "ConfigError"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(capsys, tmp_path, case):
    # the expected error is a type, or a type and the start of its message
    argv, error = BAD_INPUTS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([str(a) for a in argv(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    error_type, _, message = error.partition(": ")
    assert len(lines) == 1 and lines[0].startswith(f"error: {error_type}: {message}")
    assert not list(tmp_path.rglob("*.csv"))
    assert not list(tmp_path.rglob(".tmp-*"))


@pytest.mark.parametrize("command", ["decompose", "simulate", "moments", "verify"])
@pytest.mark.parametrize("case", sorted(BAD_RUN_SECTIONS))
def test_bad_run_section_fails_alike_in_every_subcommand(capsys, tmp_path, command, case):
    # simulate gets no output path: the run section is checked before it
    run, error = BAD_RUN_SECTIONS[case]
    code, _, err = run_cli(capsys, command, "--config", config_with(tmp_path, run=run(tmp_path)))
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {error}: ")


@pytest.mark.parametrize("command", ["decompose", "moments"])
def test_output_path_writes_the_report(capsys, tmp_path, command):
    out = tmp_path / "rep.json"
    code, report, err = run_cli(capsys, command, "--config",
                                config_with(tmp_path, output={"path": str(out)}))
    assert code == 0, err
    assert json.loads(out.read_text()) == report
    assert report["config_echo"]["output"]["path"] == str(out)
    # the echo reruns to the same file
    out.unlink()
    echo = text_file(tmp_path / "echo.json", json.dumps(report["config_echo"]))
    code, again, err = run_cli(capsys, command, "--config", echo)
    assert code == 0, err
    assert json.loads(out.read_text()) == again
    del report["timing"], again["timing"]
    assert again == report
    # --out sets the same key
    code, flagged, err = run_cli(capsys, command, "--config", config_with(tmp_path),
                                 "--out", tmp_path / "flag.json")
    assert code == 0, err
    assert flagged["config_echo"]["output"]["path"] == str(tmp_path / "flag.json")
    assert json.loads((tmp_path / "flag.json").read_text()) == flagged


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
        cfg = config_with(tmp_path)
        runs = [["cycle", "--T", 30, "--out", tmp_path / "c.csv"],
                ["simulate", "--config", cfg, "--T", 5, "--method", "both",
                 "--out", tmp_path / "s.csv"],
                ["decompose", "--config", cfg, "--dump-matrices", tmp_path / "mats",
                 "--out", tmp_path / "report.json"]]
        for argv in runs:
            assert run_cli(capsys, *argv)[0] == 0
        written = [p for p in tmp_path.rglob("*") if p.is_file() and p != cfg]
        assert len(written) == 7
        assert {p.name: file_mode(p) for p in written} == {p.name: 0o644 for p in written}

    def test_rewrite_keeps_the_old_mode(self, capsys, tmp_path, umask_022):
        out = tmp_path / "c.csv"
        out.write_text("old\n")
        out.chmod(0o640)
        assert run_cli(capsys, "cycle", "--T", 30, "--out", out)[0] == 0
        assert out.read_text().startswith("t,xbar,h\n")
        assert file_mode(out) == 0o640

    def test_a_symlink_is_written_through(self, capsys, tmp_path, umask_022):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        target.chmod(0o640)
        link.symlink_to(target.name)
        assert run_cli(capsys, "cycle", "--T", 10, "--out", link)[0] == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        lines = target.read_text().splitlines()
        assert lines[0] == "t,xbar,h" and len(lines) == 12
        assert file_mode(target) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    def test_a_dangling_symlink_creates_its_target(self, capsys, tmp_path, umask_022):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        link.symlink_to(target.name)
        assert run_cli(capsys, "cycle", "--T", 10, "--out", link)[0] == 0
        assert link.is_symlink() and target.read_text().startswith("t,xbar,h\n")
        assert file_mode(target) == 0o644


def test_numpy_scalars_become_python_numbers():
    out = json.dumps({"x": np.float64(0.1), "k": [np.int64(3)], "f": np.float32(0.5),
                      "z": np.complex128(1 - 2j), "m": (np.float64(-0.0), 1j)},
                     default=cli._json_default)
    assert out == json.dumps({"x": 0.1, "k": [3], "f": 0.5, "z": {"re": 1.0, "im": -2.0},
                              "m": [-0.0, {"re": 0.0, "im": 1.0}]})


@pytest.mark.parametrize("argv,key,value", [
    (["cycle", "--alpha", "-1e-05"], "alpha", -1e-05),
    (["cycle", "--beta", "-2E-1"], "beta", -0.2),
    (["cycle", "--x0", "-1e-05"], "x0", -1e-05),
    (["cycle", "--x1", "-2E+3"], "x1", -2000.0),
])
def test_negative_numbers_in_exponent_notation_are_values(capsys, tmp_path, argv, key, value):
    # argparse alone reads -1e-05 as an option and stops with a usage error
    code, report, err = run_cli(capsys, *argv, "--T", "30", "--out", tmp_path / "c.csv")
    assert code == 0, err
    assert report["config_echo"][key] == value


class TestCycleCommand:
    def test_csv_bytes_match_recorded_hash(self, capsys, tmp_path):
        # recorded from the two-level scan of the recursion, which is
        # elementwise numpy without BLAS: the bytes were the same under
        # OPENBLAS_CORETYPE SkylakeX, Haswell and Prescott, and each cell is
        # the repr of a double
        out = tmp_path / "c.csv"
        code, _, _ = run_cli(capsys, "cycle", "--T", 20000, "--seed", 3, "--out", out)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "8261be5a0a024c70ba40a374cc99e9126eb5a1a00b787b5c08f83a76796032b9")

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

    def test_cancelling_discriminant_exits_without_traceback(self, capsys, tmp_path):
        # kappa1^2 - 4 kappa2 loses six digits to cancellation here; the
        # explosive path then overflows, which is a typed error
        code, report, err = run_cli(capsys, "cycle", "--alpha=-57.098796558801666",
                                    "--beta=-9.796604701144634", "--out", tmp_path / "c.csv")
        assert code == 2 and report is None
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: NonFiniteState: ")

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


#: models without the paper's basis Q: the benchmark (complex regime), the
#: repeated-root boundary d1, n = 1 in the complex regime, and alpha = 0
#: with a beta so small that 1 - beta rounds to 1, so the roots coincide
BASIS_FREE_MODELS = {
    "benchmark": (2, 1.09804, 0.7),
    "d1": (3, (3.0 - 2.0 * np.sqrt(2.0)) * 0.7, 0.7),
    "n1": (1, 1.09804, 0.7),
    "alpha0": (3, 0.0, 1e-17),
}

#: diagonalizable models on the edges of the parameter space, all with Q
BASIS_AXIS_MODELS = {
    "n1": (1, 0.1, 0.9),
    "alpha0": (3, 0.0, 0.8),
    "beta0": (3, 0.4, 0.0),
}


def reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


#: --dump-cov names of the default grid, t in (2, 5, 10) and tau' in (0, 1)
GRID_DUMPS = [f"t{t}_tau{tau}" for t in (2, 5, 10) for tau in (0, 1)]
TILDE_DUMPS = [f"tilde_{name}" for name in GRID_DUMPS]
LIMIT_DUMPS = ["resolvent_limit_cov", "ma_infinity_cov"]


def dump_names(prefix):
    """The names after `prefix`_ of the --dump-cov files written for it."""
    return sorted(p.name[len(prefix.name) + 1:-len(".csv")]
                  for p in prefix.parent.glob(f"{prefix.name}_*.csv"))


def read_matrix(path):
    """A CSV matrix read back cell by cell with float()."""
    return np.array([[float(cell) for cell in line.split(",")]
                     for line in Path(path).read_text().splitlines()])


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

    def run_strict(self, capsys, tmp_path, n, alpha, beta, *flags):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": n, "alpha": alpha, "beta": beta,
                                   "a": [1.0 / n] * n, "b": [1.0 / n] * n}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["moments", "--config", str(cfg), *map(str, flags)])
        out, err = capsys.readouterr()
        assert code == 0, err
        return json.loads(out, parse_constant=reject_constant)["payload"]

    def test_paper_benchmark_runs(self, capsys, tmp_path):
        payload = self.run_strict(capsys, tmp_path, *BASIS_FREE_MODELS["benchmark"],
                                  "--dump-cov", tmp_path / "cov")
        assert payload["stationarity_gap"] is None
        assert payload["stationarity_gap_original"] > 1e-3
        # no Q: nothing is dumped in its coordinates
        assert dump_names(tmp_path / "cov") == sorted(GRID_DUMPS + LIMIT_DUMPS)
        limits = payload["limits"]
        assert limits["spectral_radius_ok"] is True
        lt3, lt4 = limits["lambda_tilde"][2:]
        assert lt3["im"] > 0.0 and lt4 == {"re": lt3["re"], "im": -lt3["im"]}
        assert limits["covariance_discrepancy"] > 0

    @pytest.mark.parametrize("model", ["benchmark", "d1"])
    def test_monte_carlo_within_four_se(self, capsys, tmp_path, model):
        # acceptance criterion c05's bound, where no paper basis Q exists
        payload = self.run_strict(capsys, tmp_path, *BASIS_FREE_MODELS[model],
                                  "--mc-reps", 20000, "--seed", 12)
        for entry in payload["grid"]:
            gamma, est, se = (np.array(entry[k]) for k in ("gamma", "mc_estimate", "mc_se"))
            assert np.all(np.abs(est - gamma) < 4.0 * se), (entry["t"], entry["tau_prime"])

    def test_lambda_tilde_at_zero_alpha(self, capsys, tmp_path):
        # the quadratic roots are 1 and 1 - beta, not a double root between them
        payload = self.run_strict(capsys, tmp_path, 2, 0.0, 1e-6)
        limits = payload["limits"]
        assert limits["spectral_radius_ok"] is False
        lt = 1.0 / (1.0 - (1.0 - 1e-6))
        assert limits["lambda_tilde"] == [None, lt, None, lt]

    @pytest.mark.parametrize("n, alpha, beta", BASIS_FREE_MODELS.values(),
                             ids=BASIS_FREE_MODELS.keys())
    def test_runs_where_q_does_not_exist(self, capsys, tmp_path, n, alpha, beta):
        payload = self.run_strict(capsys, tmp_path, n, alpha, beta, "--mc-reps", 4,
                                  "--dump-cov", tmp_path / "cov")
        assert len(payload["grid"]) == 6 and payload["stationarity_gap"] is None
        limits = payload["limits"]
        # alpha = 0 puts an eigenvalue at 1: no limits, and its lambda_tilde is null
        assert limits["spectral_radius_ok"] == (alpha != 0.0)
        assert (None in limits["lambda_tilde"]) == (alpha == 0.0)
        assert (limits["aggregate_ma_infinity_cov"] is None) == (alpha == 0.0)
        # no Q: nothing is dumped in its coordinates
        limit_dumps = LIMIT_DUMPS if alpha != 0.0 else []
        assert dump_names(tmp_path / "cov") == sorted(GRID_DUMPS + limit_dumps)

    @pytest.mark.parametrize("n, alpha, beta", BASIS_AXIS_MODELS.values(),
                             ids=BASIS_AXIS_MODELS.keys())
    def test_runs_on_the_axes_with_q(self, capsys, tmp_path, n, alpha, beta):
        payload = self.run_strict(capsys, tmp_path, n, alpha, beta, "--mc-reps", 4,
                                  "--dump-cov", tmp_path / "cov")
        assert len(payload["grid"]) == 6 and payload["stationarity_gap"] > 0
        # alpha*beta = 0 puts an eigenvalue at 1: no limits
        limits_ok = alpha * beta != 0.0
        assert payload["limits"]["spectral_radius_ok"] == limits_ok
        assert (payload["limits"]["aggregate_resolvent_limit_cov"] is None) == (not limits_ok)
        limit_dumps = LIMIT_DUMPS if limits_ok else []
        assert dump_names(tmp_path / "cov") == sorted(GRID_DUMPS + TILDE_DUMPS + limit_dumps)

    def test_q_is_built_only_when_read(self, capsys, monkeypatch, tmp_path, diag_config):
        # decompose without --dump-matrices and verify check Q through R and
        # the 2x2 V; simulate's explicit path and moments need only those too
        config_path, _ = diag_config

        def unread(*args, **kwargs):
            raise AssertionError("a dense M, Q or Q^-1 was built")

        for name in ("Q", "Qinv"):
            monkeypatch.setattr(varcycle.spectral.SpectralDecomposition, name, property(unread))
        monkeypatch.setattr(varcycle.model.TransitionMatrix, "entries", property(unread))
        code, report, err = run_cli(capsys, "decompose", "--config", config_path)
        assert code == 0, err
        assert report["payload"]["residuals"]["passed"] is True
        code, report, err = run_cli(capsys, "verify", "--config", config_path)
        assert code == 0, err
        checks = {c["name"]: c["status"] for c in report["payload"]["checks"]}
        assert checks["decomposition_residuals"] == checks["block_basis_residuals"] == "pass"
        code, report, err = run_cli(capsys, "simulate", "--config", config_path,
                                    "--method", "both", "--out", tmp_path / "traj.csv")
        assert code == 0, err
        assert report["payload"]["max_method_deviation_relative"] < 1e-8
        code, report, err = run_cli(capsys, "moments", "--config", config_path,
                                    "--dump-cov", tmp_path / "cov")
        assert code == 0, err
        assert report["payload"]["stationarity_gap"] > 1e-3
        assert set(TILDE_DUMPS) <= set(dump_names(tmp_path / "cov"))

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
        report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert report["payload"]["mc_stream_version"] == 3

    def test_one_noise_batch_and_one_step_loop_back_the_grid(self, capsys, monkeypatch,
                                                             diag_config):
        # the default 3 x 2 grid reads every point from one batch of
        # max(t + tau') = 11 steps
        moments_mod = varcycle.moments
        calls = {"noise": [], "iterate": 0}
        draw, iterate = moments_mod.sample_noise_path, moments_mod._iterate

        def counted_draw(spec, params, T, seed, **kwargs):
            calls["noise"].append(T)
            return draw(spec, params, T, seed, **kwargs)

        def counted_iterate(*args):
            calls["iterate"] += 1
            return iterate(*args)

        monkeypatch.setattr(moments_mod, "sample_noise_path", counted_draw)
        monkeypatch.setattr(moments_mod, "_iterate", counted_iterate)
        code, report, err = run_cli(capsys, "moments", "--config", diag_config[0],
                                    "--mc-reps", 5)
        assert code == 0, err
        assert len(report["payload"]["grid"]) == 6
        assert calls == {"noise": [11], "iterate": 1}

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

    def library_moments(self, doc, reps=0):
        """The default grid, the limits and, with reps, the MC grid of the
        library for the config `doc`."""
        params = validate_params(doc)
        noise = varcycle.validate_noise(doc["noise"], params.n)
        inputs = varcycle.moment_inputs(params, noise)
        dec = varcycle.decompose(params)
        grid = varcycle.stationarity_diagnostic(inputs, dec, [2, 5, 10], [0, 1])
        mc = reps and varcycle.mc_cross_covariance(params, noise, inputs.G, [2, 5, 10], [0, 1],
                                                   reps, doc["run"]["seed"])
        return grid, varcycle.limiting_moments(inputs, dec), mc

    def test_every_dump_reads_back_bitwise(self, capsys, tmp_path, diag_config):
        config_path, doc = diag_config
        prefix = tmp_path / "cov"
        code, _, err = run_cli(capsys, "moments", "--config", config_path, "--dump-cov", prefix)
        assert code == 0, err
        grid, limits, _ = self.library_moments(doc)
        expected = {f"t{t}_tau{tau}": X for (t, tau), X in grid.gamma.items()}
        expected.update({f"tilde_t{t}_tau{tau}": X for (t, tau), X in grid.gamma_tilde.items()})
        expected.update(resolvent_limit_cov=limits.resolvent_limit_cov,
                        ma_infinity_cov=limits.ma_infinity_cov)
        assert dump_names(prefix) == sorted(expected)
        for name, X in expected.items():
            read = read_matrix(f"{prefix}_{name}.csv")
            assert read.shape == X.shape and np.all(read == X), name
            assert np.array_equal(np.signbit(read), np.signbit(X)), name

    def test_report_holds_no_matrix_beyond_the_grid(self, capsys, diag_config):
        code, report, err = run_cli(capsys, "moments", "--config", diag_config[0],
                                    "--mc-reps", 5)
        assert code == 0, err
        larger = []

        def walk(node, key):
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(v, k)
            elif isinstance(node, list):
                rows = [row for row in node if isinstance(row, list)]
                if rows and (len(node) > 2 or any(len(row) > 2 for row in rows)):
                    larger.append(key)
                for v in node:
                    walk(v, key)

        walk(report["payload"], None)
        assert sorted(larger) == sorted(["gamma", "mc_estimate", "mc_se"] * 6)

    def test_aggregate_blocks_of_the_dumped_limits(self, capsys, tmp_path, diag_config):
        config_path, doc = diag_config
        prefix = tmp_path / "cov"
        code, report, err = run_cli(capsys, "moments", "--config", config_path,
                                    "--dump-cov", prefix)
        assert code == 0, err
        n, a, b = doc["n"], np.array(doc["a"]), np.array(doc["b"])
        for name in LIMIT_DUMPS:
            X = read_matrix(f"{prefix}_{name}.csv")
            expected = np.array([[b @ X[:n, :n] @ b, b @ X[:n, n:] @ a],
                                 [a @ X[n:, :n] @ b, a @ X[n:, n:] @ a]])
            block = np.array(report["payload"]["limits"][f"aggregate_{name}"])
            assert block.shape == (2, 2)
            assert np.max(np.abs(block - expected)) <= 1e-14 * np.max(np.abs(expected)), name

    def test_mc_grid_is_the_library_grid_digit_for_digit(self, capsys, diag_config):
        # the report carries gamma, mc_estimate and mc_se as the library
        # computes them, each float as its shortest round-trip decimal
        config_path, doc = diag_config
        code, report, err = run_cli(capsys, "moments", "--config", config_path,
                                    "--mc-reps", 50)
        assert code == 0, err
        grid, _, mc = self.library_moments(doc, reps=50)
        expected = [{"gamma": grid.gamma[key], "mc_estimate": mc[key][0], "mc_se": mc[key][1]}
                    for key in sorted(grid.gamma)]
        reported = [{k: e[k] for k in ("gamma", "mc_estimate", "mc_se")}
                    for e in report["payload"]["grid"]]
        assert json.dumps(reported) == json.dumps(expected, default=cli._json_default)


class TestReportEncoding:
    """A report whose float64 arrays hold _CSV_BLOCK_CELLS cells or more
    has their text written by the CSV formatter, in json.dumps's bytes."""

    @staticmethod
    def emit(monkeypatch, payload, out=None):
        """The report, its text, and how many blocks the formatter wrote."""
        calls = []
        csv_rows = _decimal.csv_rows
        monkeypatch.setattr(_decimal, "csv_rows",
                            lambda *args, **kw: calls.append(1) or csv_rows(*args, **kw))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            report = cli.emit_report({"n": 2}, payload, {"compute": 1.0}, out)
        assert_same_text(buf.getvalue(),
                         json.dumps(report, allow_nan=False, default=cli._json_default) + "\n")
        return report, buf.getvalue(), len(calls)

    @pytest.mark.parametrize("cells,formatted", [(_CSV_BLOCK_CELLS - 1, False),
                                                 (_CSV_BLOCK_CELLS, True)])
    def test_size_rule(self, monkeypatch, cells, formatted):
        values = np.random.default_rng(cells).standard_normal(cells)
        rows = cells // 3
        # a 0-d array does not count
        payload = {"m": values[:3 * rows].reshape(rows, 3), "v": values[3 * rows:],
                   "k": np.array(2.5)}
        assert (self.emit(monkeypatch, payload)[2] > 0) is formatted

    def test_a_string_that_spells_the_mark_keeps_json_dumps(self, monkeypatch):
        values = np.random.default_rng(8).standard_normal((_CSV_BLOCK_CELLS, 2))
        _, text, calls = self.emit(monkeypatch, {"m": values, "s": cli._ARRAY_MARK})
        assert calls == 0
        assert json.loads(text)["payload"]["s"] == cli._ARRAY_MARK

    def test_report_file_holds_the_same_bytes(self, monkeypatch, tmp_path):
        # the report is formatted once, whether or not it also goes to a file
        values = np.random.default_rng(9).standard_normal((100, 100))
        _, alone, calls_alone = self.emit(monkeypatch, {"m": values})
        _, text, calls = self.emit(monkeypatch, {"m": values}, str(tmp_path / "r.json"))
        assert calls == calls_alone > 0
        assert text == alone
        assert_same_text((tmp_path / "r.json").read_text(), text)

    @pytest.mark.parametrize("cells", [10, _CSV_BLOCK_CELLS + 10])
    def test_non_finite_cell_exits_2(self, capsys, monkeypatch, tmp_path, cells):
        values = np.zeros(cells)
        values[cells // 2] = np.nan
        monkeypatch.setattr(cli, "lint_params", lambda params: {"values": values})
        code, report, err = run_cli(capsys, "decompose", "--config", config_with(tmp_path),
                                    "--out", tmp_path / "r.json")
        assert code == 2 and report is None
        assert err.startswith("error: NonFiniteResult: report holds a non-finite value")
        assert not (tmp_path / "r.json").exists()

    def test_moments_report_is_json_dumps_of_its_dict(self, monkeypatch, diag_config, tmp_path):
        # n = 3 with --mc-reps: 18 6x6 matrices, below the rule; n = 20: above
        reports = []
        emit_report = cli.emit_report
        monkeypatch.setattr(cli, "emit_report", lambda *args: reports.append(
            emit_report(*args)) or reports[-1])
        cfg = uniform_config(tmp_path, 20, 4e-4, 0.9)
        for config in (diag_config[0], cfg):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["moments", "--config", str(config), "--mc-reps", "50",
                             "--out", str(tmp_path / "m.json")])
            assert code == 0
            want = json.dumps(reports[-1], allow_nan=False, default=cli._json_default) + "\n"
            assert_same_text(buf.getvalue(), want)
            assert_same_text((tmp_path / "m.json").read_text(), want)


CYCLE_ANALYZE_SCRIPT = """
import contextlib, io, sys
from varcycle.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(["cycle", "--analyze", "--T", "3000", "--out", sys.argv[1] + "/c.csv"])
print(code, "numpy.ma" in sys.modules)
"""


def test_cycle_analyze_does_not_load_numpy_ma(tmp_path):
    # np.median imports numpy.ma on its first call, about 10 ms in a fresh
    # process; the periodogram's median takes one partition instead
    env = dict(os.environ, PYTHONPATH=str(Path(varcycle.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c",
                           CYCLE_ANALYZE_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


SMALL_REPORT_SCRIPT = """
import contextlib, io, json, sys
import numpy as np
from varcycle.cli import main

work = sys.argv[1]
w = np.random.default_rng(5).uniform(0.5, 1.5, (2, 700))
configs = {700: {"n": 700, "alpha": 0.1, "beta": 0.9, "a": (w[0] / w[0].sum()).tolist(),
                 "b": (w[1] / w[1].sum()).tolist()},
           70: {"n": 70, "alpha": 0.1, "beta": 0.9}}
for n, doc in configs.items():
    with open(f"{work}/{n}.json", "w") as fh:
        json.dump(doc, fh)
loaded = []
for n, argv in ((700, ["decompose"]), (700, ["verify"]), (70, ["moments", "--t-grid", "2",
                                                               "--tau-grid", "0"])):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--config", f"{work}/{n}.json"])
    loaded.append([code, "varcycle._decimal" in sys.modules])
print(json.dumps(loaded))
"""


def test_small_reports_do_not_load_the_formatter(tmp_path):
    # decompose and verify at n = 700 report 4,200 float cells (the
    # config's weights and noise vectors); moments at n = 70 reports 19,600
    env = dict(os.environ, PYTHONPATH=str(Path(varcycle.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c",
                           SMALL_REPORT_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, False], [0, False], [0, True]]


#: small weights that once failed verify: at the front of b (decomposition_residuals
#: and block_basis_residuals), at the front of b at T = 500 (block_basis_residuals and
#: explicit_equals_recursive), and at the front of b in the complex regime
SMALL_WEIGHT_CONFIGS = {
    "front-of-b": {"n": 3, "alpha": 0.1, "beta": 0.9,
                   "b": [3.746544899230158e-07, 0.48712059498119836, 0.5128790303643118]},
    "front-of-b-long": {"n": 3, "alpha": 0.1, "beta": 0.9, "a": [1 / 3] * 3,
                        "b": [1e-9, 0.5, 0.499999999], "run": {"T": 500}},
    "complex": {"n": 4, "alpha": 1.09804, "beta": 0.7, "b": [1e-7, 0.3, 0.3, 0.3999999]},
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

    @pytest.mark.parametrize("alpha, beta", [(0.1, 0.9), (1.09804, 0.7),
                                             (0.003944575970102982, 0.022990669098271105),
                                             (0.0, 1e-6)],
                             ids=["diagonalizable", "complex", "band-edge", "zero-alpha"])
    def test_regime_field_is_the_decompose_regime(self, capsys, tmp_path, alpha, beta):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 2, "alpha": alpha, "beta": beta,
                                   "a": [0.3, 0.7], "b": [0.6, 0.4]}))
        code, report, err = run_cli(capsys, "verify", "--config", cfg)
        assert code == 0 and report["payload"]["all_passed"] is True, err
        assert [c["name"] for c in report["payload"]["checks"]] == [
            "decomposition_residuals", "block_basis_residuals", "explicit_equals_recursive",
            "cycle_reduction"]
        regime = report["payload"]["regime"]
        code, report, err = run_cli(capsys, "decompose", "--config", cfg)
        assert code == 0, err
        assert regime == report["payload"]["regime"]

    def test_regimes_agree_at_the_band_edge(self, capsys, tmp_path):
        # two discriminants, rounded apart, once put this point on either
        # side of the repeated-root band; verify and cycle now read one solve
        alpha, beta = 0.003944575970102982, 0.022990669098271105
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 2, "alpha": alpha, "beta": beta,
                                   "a": [0.5, 0.5], "b": [0.5, 0.5]}))
        code, report, err = run_cli(capsys, "verify", "--config", cfg)
        assert code == 0 and report["payload"]["all_passed"] is True, err
        assert report["payload"]["regime"] == "repeated_root_jordan"
        code, report, err = run_cli(capsys, "cycle", "--alpha", repr(alpha), "--beta",
                                    repr(beta), "--out", tmp_path / "c.csv")
        assert code == 0, err
        assert report["payload"]["regime"] == "repeated_real"

    @pytest.mark.parametrize("alpha", [1e-200, 1e-310, 5e-324])
    def test_tiny_alpha_passes_the_basis_check(self, capsys, tmp_path, alpha):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 2, "alpha": alpha, "beta": 1.0,
                                   "a": [0.5, 0.5], "b": [0.5, 0.5]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, report, err = run_cli(capsys, "verify", "--config", cfg)
        assert code == 0 and report["payload"]["all_passed"] is True, err
        checks = {c["name"]: c["status"] for c in report["payload"]["checks"]}
        assert checks["decomposition_residuals"] == "pass"

    def test_methods_compared_from_run_z0(self, capsys, tmp_path, diag_config):
        # explicit_equals_recursive starts both methods from the configured
        # z0, and reports what simulate --method both reports
        config_path, doc = diag_config
        z0 = text_file(tmp_path / "z0.txt", "3.5,-2,0.25,1e3,-7,0.5")
        details = {}
        for start in ("zeros", f"csv:{z0}"):
            doc["run"]["z0"] = start
            config_path.write_text(json.dumps(doc))
            _, simulated, _ = run_cli(capsys, "simulate", "--config", config_path,
                                      "--out", tmp_path / "traj.csv")
            code, verified, _ = run_cli(capsys, "verify", "--config", config_path)
            assert code == 0
            details[start] = next(c["detail"] for c in verified["payload"]["checks"]
                                  if c["name"] == "explicit_equals_recursive")
            relative = simulated["payload"]["max_method_deviation_relative"]
            assert details[start] == f"relative deviation {relative:.3e}"
        assert details["zeros"] != details[f"csv:{z0}"]

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

    @pytest.mark.parametrize("n, alpha, beta", BASIS_AXIS_MODELS.values(),
                             ids=BASIS_AXIS_MODELS.keys())
    def test_decomposition_passes_on_the_axes(self, capsys, tmp_path, n, alpha, beta):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": n, "alpha": alpha, "beta": beta,
                                   "a": [1.0 / n] * n, "b": [1.0 / n] * n}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, report, err = run_cli(capsys, "decompose", "--config", cfg)
            assert code == 0, err
            assert report["payload"]["basis_available"] is True
            assert report["payload"]["residuals"]["passed"] is True
            code, report, err = run_cli(capsys, "verify", "--config", cfg)
        assert code == 0 and report["payload"]["all_passed"] is True, err
        checks = {c["name"]: c["status"] for c in report["payload"]["checks"]}
        assert checks["decomposition_residuals"] == checks["block_basis_residuals"] == "pass"

    def test_zero_alpha_regimes_agree(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 2, "alpha": 0.0, "beta": 1e-6,
                                   "a": [0.5, 0.5], "b": [0.5, 0.5]}))
        code, report, err = run_cli(capsys, "verify", "--config", cfg)
        assert code == 0 and report["payload"]["all_passed"] is True, err
        assert report["payload"]["regime"] == "diagonalizable_real"
        code, report, err = run_cli(capsys, "cycle", "--alpha", "0.0", "--beta", "1e-6",
                                    "--out", tmp_path / "c.csv")
        assert code == 0, err
        assert report["payload"]["regime"] == "distinct_real"

    def test_block_detail_names_all_three_figures(self, capsys, diag_config):
        config_path, _ = diag_config
        _, report, _ = run_cli(capsys, "verify", "--config", config_path)
        detail = next(c["detail"] for c in report["payload"]["checks"]
                      if c["name"] == "block_basis_residuals")
        figures = dict(item.split("=") for item in detail.split())
        assert sorted(figures) == ["mr_rj", "rrinv", "similarity"]
        assert all(float(v) < 1e-14 for v in figures.values())

    @pytest.mark.parametrize("reverse", [False, True], ids=["given", "reversed"])
    @pytest.mark.parametrize("config", SMALL_WEIGHT_CONFIGS.values(),
                             ids=SMALL_WEIGHT_CONFIGS.keys())
    def test_small_weight_passes_in_either_agent_order(self, capsys, tmp_path, config, reverse):
        # R once divided by the first weight; each block now pivots on its
        # largest, so the order of the agents does not decide the verdict
        doc = {k: v[::-1] if reverse and k in ("a", "b") else v for k, v in config.items()}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, report, err = run_cli(capsys, "verify", "--config", cfg)
            assert code == 0, err
            assert all(c["status"] in ("pass", "skipped") for c in report["payload"]["checks"])
            code, report, err = run_cli(capsys, "decompose", "--config", cfg)
        assert code == 0, err
        residuals = report["payload"]["residuals"]
        assert residuals is None or residuals["passed"] is True

    def test_one_step_skips_only_the_cycle_reduction(self, capsys, tmp_path):
        # T = 1 gives two states; the scalar equation needs three
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 3, "alpha": 0.1, "beta": 0.9, "run": {"T": 1}}))
        code, report, err = run_cli(capsys, "verify", "--config", cfg)
        assert code == 0 and report["payload"]["all_passed"] is True, err
        checks = {c["name"]: c["status"] for c in report["payload"]["checks"]}
        assert checks.pop("cycle_reduction") == "skipped"
        assert set(checks.values()) == {"pass"} and len(checks) == 3



LARGE_N_SCRIPT = """
import contextlib, io, json, resource, sys
import numpy as np
from varcycle.cli import main

n, work = 100_000, sys.argv[1]
w = np.random.default_rng(3).uniform(0.5, 1.5, (2, n))
with open(work + "/c.json", "w") as fh:
    json.dump({"n": n, "alpha": 0.1, "beta": 0.9, "a": (w[0] / w[0].sum()).tolist(),
               "b": (w[1] / w[1].sum()).tolist(), "run": {"T": 20, "seed": 1}}, fh)
reports = []
for argv in (["decompose"], ["verify"],
             ["simulate", "--method", "both", "--out", work + "/t.csv"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--config", work + "/c.json"])
    reports.append([code, json.loads(out.getvalue())["payload"]])
peak_kb = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
print(json.dumps({"reports": reports, "peak_kb": peak_kb}))
"""


def test_decompose_verify_simulate_at_n_1e5_under_1gb(tmp_path):
    # no 2n x 2n array: one dense M, Q or Q^-1 alone would take 320 GB
    env = dict(os.environ, PYTHONPATH=str(Path(varcycle.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", LARGE_N_SCRIPT,
                           str(tmp_path)], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    (dec_code, dec), (ver_code, ver), (sim_code, sim) = result["reports"]
    assert dec_code == ver_code == sim_code == 0
    assert dec["residuals"]["passed"] is True and len(dec["blocks"]) == 4
    assert ver["all_passed"] is True
    assert {c["name"]: c["status"] for c in ver["checks"]}["decomposition_residuals"] == "pass"
    assert sim["max_method_deviation_relative"] < 1e-8
    assert result["peak_kb"] < 1024 * 1024


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


def assert_same_text(got, want):
    # pytest's diff of two long strings is very slow
    if got != want:
        at = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                  min(len(got), len(want)))
        pytest.fail(f"texts differ at {at}: {got[at - 30:at + 30]!r} != "
                    f"{want[at - 30:at + 30]!r}")


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


#: Rows of a cycle table: none, one, and a quarter block and a whole block,
#: each with one row and with three such runs and 17 rows more.
_QUARTER_ROWS = _CSV_BLOCK_ROWS // 4
SIZES = [0, 1, _QUARTER_ROWS, _QUARTER_ROWS + 1, 3 * _QUARTER_ROWS + 17,
         _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1, 3 * _CSV_BLOCK_ROWS + 17]


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
        assert_same_lines(csv_text(CsvTable("t,x", (x,))), indexed)
        assert_same_lines(csv_text(CsvTable(None, (x,))), per_cell_matrix_csv(x[:, None]))
        # a header names the index column first, and every row carries its index
        z = awkward_values(rows, 3, rows + 4)
        rows_indexed = "".join(f"{t},{line}\n" for t, line in
                               enumerate(per_cell_matrix_csv(z).splitlines()))
        assert_same_lines(csv_text(CsvTable("t,u,v,w", (z[:, :2], z[:, 2]))),
                          "t,u,v,w\n" + rows_indexed)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("width", [_CSV_BLOCK_CELLS // 4 - 1, _CSV_BLOCK_CELLS // 4 + 1,
                                       _CSV_BLOCK_CELLS - 1, _CSV_BLOCK_CELLS + 1])
    def test_wide_rows_fill_blocks_by_cells(self, monkeypatch, cpus, width):
        # a block holds as many rows as fit in the cell budget, at least one
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        m = awkward_values(7, width, width)
        table = matrix_csv(m)
        per_block = max(1, _CSV_BLOCK_CELLS // width)
        assert table._block_rows == per_block
        assert [b.count(b"\n") for b in table._blocks(0, 7)] == \
            [per_block] * (7 // per_block) + [7 % per_block] * (7 % per_block > 0)
        assert_same_lines(csv_text(table), per_cell_matrix_csv(m))
        narrow = matrix_csv(m[:, :3])
        assert narrow._block_rows == _CSV_BLOCK_CELLS // 3

    @pytest.mark.parametrize("n", [3, 700])
    def test_dump_matrices_byte_identical(self, capsys, tmp_path, n):
        out = tmp_path / "mats"
        cfg = uniform_config(tmp_path, n, 0.1, 0.9)
        code, _, _ = run_cli(capsys, "decompose", "--config", cfg, "--dump-matrices", out)
        assert code == 0
        params = validate_params({"n": n, "alpha": 0.1, "beta": 0.9,
                                  "a": [1.0 / n] * n, "b": [1.0 / n] * n})
        dec = varcycle.decompose(params)
        matrices = {"M": varcycle.build_transition_matrix(params).entries,
                    "Q": dec.Q, "Qinv": dec.Qinv}
        for name, matrix in matrices.items():
            assert (out / f"{name}.csv").read_bytes() == per_cell_matrix_csv(matrix).encode()

    @pytest.mark.parametrize("alpha, beta, digests", [
        ("0.1", "0.9", ("f3e723ec977ebff8d8ba67fb519c7827b916d0517b8358b2e7cca52440bf54dd",
                        "25581189508351f5a16e72dbe4c22aee18366923d33cd42d93d7e46f3913e2cf")),
        ("1e-8", "1", ("76c19ff3ddf24f70039c632eb57cf40389d9e43429e0f17e2e4f16f005ba1dcb",
                       "6062a30fed532d067b65645a60fb279a5f7b71c696fb04de4eaba7c11b4a2f4c")),
    ])
    def test_basis_bytes_match_recorded_hash(self, capsys, tmp_path, alpha, beta, digests):
        # pins how Q and Q^-1 are computed, not only how they are written
        out = tmp_path / "mats"
        cfg = uniform_config(tmp_path, 3, float(alpha), float(beta))
        code, _, _ = run_cli(capsys, "decompose", "--config", cfg, "--dump-matrices", out)
        assert code == 0
        for name, digest in zip(("Q", "Qinv"), digests):
            assert hashlib.sha256((out / f"{name}.csv").read_bytes()).hexdigest() == digest

    def test_failing_child_exits_2_and_leaves_no_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        format_rows = cli.CsvTable._format

        def fail_past_first_block(table, lo, hi):
            if lo >= _CSV_BLOCK_ROWS:  # only the child formats these rows
                raise MemoryError
            return format_rows(table, lo, hi)

        monkeypatch.setattr(cli.CsvTable, "_format", fail_past_first_block)
        out = tmp_path / "c.csv"
        # two blocks of rows and one more, so that the child formats rows
        code, report, err = run_cli(capsys, "cycle", "--T", 2 * _CSV_BLOCK_ROWS, "--out", out)
        assert code == 2 and report is None
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: OSError: ")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failing_write_exits_2_and_keeps_the_old_file(self, capsys, monkeypatch, tmp_path):
        # on one usable CPU every block is formatted in this process
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        format_rows = cli.CsvTable._format

        def fail_past_first_block(table, lo, hi):
            if lo >= _CSV_BLOCK_ROWS:
                raise OSError("disk full")
            return format_rows(table, lo, hi)

        monkeypatch.setattr(cli.CsvTable, "_format", fail_past_first_block)
        out = tmp_path / "c.csv"
        out.write_bytes(b"old rows\n")
        out.chmod(0o640)
        # two blocks of rows and one more, so that the second block fails
        code, report, err = run_cli(capsys, "cycle", "--T", 2 * _CSV_BLOCK_ROWS, "--out", out)
        assert code == 2 and report is None
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: OSError: ")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_bytes() == b"old rows\n"
        assert file_mode(out) == 0o640

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
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script,
                               str(pinned)], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        xbar, h = np.random.default_rng(4).standard_normal((2, 5000))
        here = tmp_path / "here.csv"
        atomic_write(str(here), cycle_csv(xbar, h))
        assert pinned.read_bytes() == here.read_bytes()
