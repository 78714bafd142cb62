"""Command-line surface: configuration ingestion, subcommand dispatch,
and report/trajectory emission.

Reports are JSON envelopes on stdout carrying the tool version, the
fully resolved configuration (sufficient to reproduce the run), the
subcommand payload, and per-stage wall-clock timing.  Time series go to
CSV files; every file is written atomically (temp file + rename) so a
failed run never leaves partial output behind.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import stat
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, BinaryIO, Iterator, NoReturn, Sequence

import numpy as np

from . import __version__, cycle as cycle_mod, moments as moments_mod
from .errors import ConfigError, NonFiniteResult, TooShort, VarcycleError
from .model import (
    ModelParams,
    NoiseSpec,
    build_transition_matrix,
    lint_params,
    validate_noise,
    validate_pair,
    validate_params,
)
from .simulate import (
    aggregates,
    sample_noise_path,
    simulate_explicit,
    simulate_recursive,
)
from .spectral import BOUNDARY_TOL, Regime, decompose, verify_block_basis, verify_decomposition

DEFAULT_SEED = 0
BENCHMARK = {"alpha": 1.09804, "beta": 0.7, "T": 700, "eps_sd": 1.0, "eta_sd": 1.6}

_RUN_DEFAULTS = {"T": 200, "seed": DEFAULT_SEED, "method": "recursive", "z0": "zeros"}
_OUTPUT_DEFAULTS = {"path": None}

_SCHEMA = {
    "": {"n", "alpha", "beta", "a", "b", "noise", "run", "output"},
    "noise": {"mu", "sigma"},
    "run": {"T", "seed", "method", "z0"},
    "output": {"path"},
}


# ---------------------------------------------------------------------------
# configuration

def _check_keys(section: str, doc: Any) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"config section {section or 'top level'!r} must be an object")
    allowed = _SCHEMA[section]
    for key in doc:
        if key not in allowed:
            where = f" in section {section!r}" if section else ""
            raise ConfigError(f"unknown config key {key!r}{where}")


def load_config(path: str) -> dict:
    """Load and strictly validate a run-configuration document."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys("", doc)
    for section in ("noise", "run", "output"):
        if section in doc:
            _check_keys(section, doc[section])
    return doc


def resolve_config(doc: dict) -> tuple[ModelParams, NoiseSpec, dict, dict]:
    """Validate the model, fill defaults, and return the resolved pieces."""
    params = validate_params(doc)
    noise_doc = doc.get("noise")
    if noise_doc is None:
        noise_doc = {"mu": [0.0] * (2 * params.n), "sigma": [1.0] * (2 * params.n)}
    noise = validate_noise(noise_doc, params.n)
    run = dict(_RUN_DEFAULTS)
    run.update(doc.get("run") or {})
    if run["method"] not in ("recursive", "explicit", "both"):
        raise ConfigError(f"run.method must be recursive|explicit|both, got {run['method']!r}")
    output = dict(_OUTPUT_DEFAULTS)
    output.update(doc.get("output") or {})
    return params, noise, run, output


def config_echo(params: ModelParams, noise: NoiseSpec, run: dict, output: dict) -> dict:
    return {
        "n": params.n,
        "alpha": params.alpha,
        "beta": params.beta,
        "a": params.a.tolist(),
        "b": params.b.tolist(),
        "noise": {"mu": noise.mu.tolist(), "sigma": noise.sigma.tolist()},
        "run": dict(run),
        "output": dict(output),
    }


def _parse_numbers(text: str, kind: type = float) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated {kind.__name__}s, got {text!r}") from exc


def _model_from_args(args: argparse.Namespace) -> dict:
    if args.config is not None:
        if any(getattr(args, k, None) is not None for k in ("n", "alpha", "beta", "a", "b")):
            raise ConfigError("give the model either via --config or via flags, not both")
        return load_config(args.config)
    if args.n is None or args.alpha is None or args.beta is None:
        raise ConfigError("model requires --config or all of --n/--alpha/--beta (+ --a/--b)")
    n = args.n
    doc: dict[str, Any] = {
        "n": n,
        "alpha": args.alpha,
        "beta": args.beta,
        "a": _parse_numbers(args.a) if args.a else [1.0 / n] * n,
        "b": _parse_numbers(args.b) if args.b else [1.0 / n] * n,
    }
    if args.noise_mu or args.noise_sigma:
        doc["noise"] = {
            "mu": _parse_numbers(args.noise_mu) if args.noise_mu else [0.0] * (2 * n),
            "sigma": _parse_numbers(args.noise_sigma) if args.noise_sigma else [1.0] * (2 * n),
        }
    return doc


# ---------------------------------------------------------------------------
# output helpers

#: Rows formatted together; the parts a CSV is split into between
#: processes are whole runs of these blocks.
_CSV_BLOCK_ROWS = 1024


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _split_rows(rows: int, parts: int) -> list[tuple[int, int]]:
    """[lo, hi) ranges of at most `parts` contiguous runs of whole blocks."""
    blocks = -(-rows // _CSV_BLOCK_ROWS)
    k = max(1, min(parts, blocks))
    edges = [min(rows, i * blocks // k * _CSV_BLOCK_ROWS) for i in range(k + 1)]
    return list(zip(edges, edges[1:]))


@dataclass(frozen=True)
class CsvTable:
    """A CSV held as its columns and formatted while it is written.

    Each column is a 1-D array or a 2-D array with one row per CSV row.
    Numbers are written as shortest round-trip decimals (the repr of a
    Python float); with ``index`` each row starts with its row number.
    """

    header: str | None
    columns: tuple[np.ndarray, ...]
    index: bool

    def _format(self, lo: int, hi: int) -> bytes:
        # tolist() yields Python floats, whose repr is the shortest
        # round-trip decimal.  zip over one iterator repeated per column
        # takes the row-major cells a row at a time.
        block = np.column_stack([c[lo:hi] for c in self.columns])
        cells = iter(list(map(repr, block.ravel().tolist())))
        fields = [cells] * block.shape[1]
        if self.index:
            fields.insert(0, map(str, range(lo, hi)))
        lines = list(map(",".join, zip(*fields)))
        lines.append("")
        return "\n".join(lines).encode()

    def _blocks(self, lo: int, hi: int) -> Iterator[bytes]:
        for start in range(lo, hi, _CSV_BLOCK_ROWS):
            yield self._format(start, min(start + _CSV_BLOCK_ROWS, hi))

    def _format_in_child(self, fd: int, lo: int, hi: int) -> NoReturn:
        # the whole part is formatted before the first write, so that a
        # full pipe does not stall the child while the parent is busy
        code = 1
        try:
            data = list(self._blocks(lo, hi))
            with open(fd, "wb") as out:
                out.writelines(data)
            code = 0
        finally:
            os._exit(code)

    def write(self, fh: BinaryIO) -> None:
        """Write the CSV to the binary file `fh`.

        The rows are split at block boundaries into one contiguous part
        per usable CPU.  Forked children format parts 2..k into pipes
        while this process formats part 1; the parts reach `fh` in row
        order, so the bytes do not depend on the number of parts.  Raises
        OSError if a child fails.
        """
        parts = _split_rows(len(self.columns[0]), _usable_cpus())
        reads: list[int] = []
        pids: list[int] = []
        try:
            for lo, hi in parts[1:]:
                r, w = os.pipe()
                reads.append(r)
                try:
                    pid = os.fork()
                    if pid == 0:
                        self._format_in_child(w, lo, hi)
                finally:
                    os.close(w)
                pids.append(pid)
            if self.header is not None:
                fh.write(f"{self.header}\n".encode())
            fh.writelines(self._blocks(*parts[0]))
            for (lo, hi), r in zip(parts[1:], reads):
                while chunk := os.read(r, 1 << 16):
                    fh.write(chunk)
                code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(0), 0)[1])
                if code != 0:
                    raise OSError(f"formatting CSV rows {lo}..{hi - 1} failed in a "
                                  f"child process (exit status {code})")
        finally:
            for r in reads:
                os.close(r)
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def atomic_write(path: str, content: str | CsvTable) -> None:
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # mkstemp creates the file 0600; give it the mode open(path, "w")
    # would leave: the old file's, else 0o666 less the umask
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fd, mode)
            if isinstance(content, CsvTable):
                content.write(fh)
            else:
                fh.write(content.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def matrix_csv(matrix: np.ndarray) -> CsvTable:
    return CsvTable(None, (np.atleast_2d(matrix),), index=False)


def trajectory_csv(traj_z: np.ndarray, params: ModelParams) -> CsvTable:
    n = params.n
    header = (
        "t,"
        + ",".join(f"x_{i+1}" for i in range(n))
        + ","
        + ",".join(f"y_{i+1}" for i in range(n))
        + ",xbar,ybar"
    )
    xbar = traj_z[:, :n] @ params.b
    ybar = traj_z[:, n:] @ params.a
    return CsvTable(header, (traj_z, xbar, ybar), index=True)


def cycle_csv(xbar: np.ndarray, h: np.ndarray) -> CsvTable:
    return CsvTable("t,xbar,h", (xbar, h), index=True)


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def emit_report(config: dict, payload: dict, timing: dict, out: str | None = None) -> dict:
    report = {
        "tool_version": __version__,
        "config_echo": _jsonable(config),
        "payload": _jsonable(payload),
        "timing": {k: round(v, 6) for k, v in timing.items()},
    }
    try:
        text = json.dumps(report, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResult(f"report holds a non-finite value: {exc}") from exc
    if out:
        atomic_write(out, text + "\n")
    print(text)
    return report


class _Timer:
    def __init__(self):
        self.stages: dict[str, float] = {}
        self._t0 = time.perf_counter()

    def mark(self, stage: str) -> None:
        now = time.perf_counter()
        self.stages[stage] = self.stages.get(stage, 0.0) + (now - self._t0)
        self._t0 = now


# ---------------------------------------------------------------------------
# subcommands

def _cmd_decompose(args: argparse.Namespace) -> int:
    timer = _Timer()
    doc = _model_from_args(args)
    params, noise, run, output = resolve_config(doc)
    timer.mark("validate")

    dec = decompose(params)
    M = build_transition_matrix(params)
    payload: dict[str, Any] = {
        "regime": dec.regime.value,
        "boundary_tol": BOUNDARY_TOL,
        "d1": dec.boundaries.d1,
        "d2": dec.boundaries.d2,
        "delta": dec.boundaries.delta,
        "eigenvalues": [
            {"value": _jsonable(v), "multiplicity": m}
            for v, m in dec.eig.eigenvalues_with_multiplicity()
        ],
        "blocks": _jsonable(dec.blocks),
        "tau_minus": dec.tau_minus,
        "tau_plus": dec.tau_plus,
        "tau_tilde": dec.tau_tilde,
        "basis_available": dec.Q is not None,
        "residuals": None,
        "lint": lint_params(params),
    }
    if dec.Q is not None:
        check = verify_decomposition(M, dec.diag, dec.Q, dec.Qinv)
        payload["residuals"] = {
            "mq_qj": check.residual_mq_qj,
            "qqinv": check.residual_qqinv,
            "similarity": check.residual_similarity,
            "passed": check.passed,
        }
    timer.mark("compute")

    if args.dump_matrices:
        atomic_write(os.path.join(args.dump_matrices, "M.csv"), matrix_csv(M.entries))
        if dec.Q is not None:
            atomic_write(os.path.join(args.dump_matrices, "Q.csv"), matrix_csv(dec.Q))
            atomic_write(os.path.join(args.dump_matrices, "Qinv.csv"), matrix_csv(dec.Qinv))
    timer.mark("write")
    emit_report(config_echo(params, noise, run, output), payload, timer.stages, args.out)
    return 0


def _run_int(run: dict, key: str) -> int:
    """run[key] as an int.  A boolean or a fractional number is rejected
    rather than truncated, so the echoed config reproduces the run."""
    raw = run[key]
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ConfigError(f"run.{key} must be an integer, got {raw!r}")
    try:
        return int(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"run.{key} must be an integer: {exc}") from exc


def _resolve_z0(spec: str, n: int) -> np.ndarray:
    if spec == "zeros":
        return np.zeros(2 * n)
    if spec.startswith("csv:"):
        try:
            values = np.loadtxt(spec[4:], delimiter=",").ravel()
        except ValueError as exc:
            raise ConfigError(f"z0 file must hold comma-separated numbers: {exc}") from exc
        if values.shape != (2 * n,):
            raise ConfigError(f"z0 file must hold 2n={2*n} values, got {values.size}")
        if not np.all(np.isfinite(values)):
            raise ConfigError("z0 file must hold finite numbers")
        return values
    raise ConfigError(f"run.z0 must be 'zeros' or 'csv:<path>', got {spec!r}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    timer = _Timer()
    doc = _model_from_args(args)
    params, noise, run, output = resolve_config(doc)
    for key, flag in (("T", args.T), ("seed", args.seed), ("method", args.method), ("z0", args.z0)):
        if flag is not None:
            run[key] = flag
    if args.out is not None:
        output["path"] = args.out
    if not output["path"]:
        raise ConfigError("simulate requires an output path (--out or output.path)")
    timer.mark("validate")

    T, seed = _run_int(run, "T"), _run_int(run, "seed")
    z0 = _resolve_z0(str(run["z0"]), params.n)
    noises = sample_noise_path(noise, params, T, seed, zero_noise=args.zero_noise)
    M = build_transition_matrix(params)

    trajectories = {}
    if run["method"] in ("recursive", "both"):
        trajectories["recursive"] = simulate_recursive(params, M, z0, noises)
    if run["method"] in ("explicit", "both"):
        dec = decompose(params)
        trajectories["explicit"] = simulate_explicit(params, dec, z0, noises)
    timer.mark("compute")

    base = str(output["path"])
    stem, ext = os.path.splitext(base)
    files: dict[str, str] = {}
    for name, traj in trajectories.items():
        files[name] = f"{stem}_{name}{ext or '.csv'}" if run["method"] == "both" else base
        atomic_write(files[name], trajectory_csv(traj.z, params))
    timer.mark("write")

    payload: dict[str, Any] = {
        "method": run["method"],
        "T": T,
        "seed": seed,
        "rows": T + 1,
        "files": files,
        "zero_noise": bool(args.zero_noise),
        "lint": lint_params(params),
    }
    if run["method"] == "both":
        zr = trajectories["recursive"].z
        ze = trajectories["explicit"].z
        scale = 1.0 + float(np.max(np.abs(zr)))
        payload["max_method_deviation"] = float(np.max(np.abs(zr - ze)))
        payload["max_method_deviation_relative"] = float(np.max(np.abs(zr - ze)) / scale)
    emit_report(config_echo(params, noise, run, output), payload, timer.stages)
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    timer = _Timer()
    doc = _model_from_args(args)
    params, noise, run, output = resolve_config(doc)
    if args.seed is not None:
        run["seed"] = args.seed
    seed = _run_int(run, "seed")
    timer.mark("validate")

    dec = decompose(params)
    inputs = moments_mod.moment_inputs(params, noise)
    t_grid = _parse_numbers(args.t_grid, int)
    tau_grid = _parse_numbers(args.tau_grid, int)
    mc = None
    if args.mc_reps:
        mc = moments_mod.MonteCarloSpec(
            params=params, noise_spec=noise, reps=args.mc_reps, seed=seed
        )
    report = moments_mod.stationarity_diagnostic(inputs, dec, t_grid, tau_grid, mc=mc)
    limits = moments_mod.limiting_moments(inputs, dec)
    timer.mark("compute")

    grid_payload = []
    for (t, tau) in sorted(report.gamma_tilde):
        entry: dict[str, Any] = {
            "t": t,
            "tau_prime": tau,
            "gamma_tilde": report.gamma_tilde[(t, tau)],
            "gamma": report.gamma[(t, tau)],
        }
        if report.mc_estimate is not None:
            est, se = report.mc_estimate[(t, tau)]
            entry["mc_estimate"] = est
            entry["mc_se"] = se
        grid_payload.append(entry)

    payload = {
        "grid": grid_payload,
        "stationarity_gap": report.stationarity_gap,
        "stationarity_gap_original": report.stationarity_gap_original,
        "limits": {
            "lambda_tilde": limits.lambda_tilde,
            "spectral_radius_ok": limits.spectral_radius_ok,
            "limiting_mean": limits.limiting_mean,
            "resolvent_limit_cov": limits.resolvent_limit_cov,
            "ma_infinity_cov": limits.ma_infinity_cov,
            "truncation_terms": limits.truncation_terms,
            "covariance_discrepancy": limits.covariance_discrepancy,
        },
        "mc_reps": args.mc_reps,
        "mc_stream_version": moments_mod.MC_STREAM_VERSION,
        "lint": lint_params(params),
    }

    if args.dump_cov:
        for (t, tau) in sorted(report.gamma.keys()):
            path = f"{args.dump_cov}_t{t}_tau{tau}.csv"
            atomic_write(path, matrix_csv(report.gamma[(t, tau)]))
    timer.mark("write")
    emit_report(config_echo(params, noise, run, output), payload, timer.stages, args.out)
    return 0


def _cmd_cycle(args: argparse.Namespace) -> int:
    timer = _Timer()
    if not args.out:
        raise ConfigError("cycle requires --out")
    alpha, beta, T = args.alpha, args.beta, args.T
    validate_pair(alpha, beta)
    timer.mark("validate")

    model = cycle_mod.reduce_to_cycle(alpha, beta)
    noise = cycle_mod.sample_scalar_noise((0.0, args.eps_sd), (0.0, args.eta_sd), T, args.seed)
    xbar = cycle_mod.simulate_cycle(model, noise, args.x0, args.x1, T)
    h = cycle_mod.forcing_series(noise, alpha, beta)[: T + 1]
    atomic_write(args.out, cycle_csv(xbar, h))

    payload: dict[str, Any] = {
        "kappa1": model.kappa1,
        "kappa2": model.kappa2,
        "delta1": model.delta1,
        "rho_mod": model.rho_mod,
        "omega": model.omega,
        "regime": model.regime.value,
        "invertible": model.invertible,
        "strictly_periodic": model.strictly_periodic,
        "predicted_period": (2.0 * np.pi / model.omega) if model.omega else None,
        "rows": T + 1,
        "file": args.out,
    }
    warnings: list[str] = []
    if args.analyze:
        try:
            est = cycle_mod.dominant_period(xbar)
            payload["estimated_frequency"] = est.frequency
            payload["estimated_period"] = est.period
            payload["peak_power"] = est.peak_power
            payload["median_power"] = est.median_power
            payload["prominent"] = est.prominent
        except TooShort as exc:
            warnings.append(f"period analysis skipped: {exc}")
    timer.mark("compute")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    payload["warnings"] = warnings
    echo = {
        "alpha": alpha, "beta": beta, "T": T, "seed": args.seed,
        "eps_sd": args.eps_sd, "eta_sd": args.eta_sd, "x0": args.x0, "x1": args.x1,
        "out": args.out, "analyze": args.analyze,
    }
    emit_report(echo, payload, timer.stages)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    timer = _Timer()
    doc = load_config(args.config)
    params, noise, run, output = resolve_config(doc)
    timer.mark("validate")

    checks: list[dict[str, Any]] = []

    def record(name: str, status: str, detail: str) -> None:
        checks.append({"name": name, "status": status, "detail": detail})

    M = build_transition_matrix(params)
    n, alpha, beta = params.n, params.alpha, params.beta
    dense = M.entries
    blocks_ok = (
        np.array_equal(dense[:n, :n], (1 - alpha) * np.eye(n))
        and np.array_equal(dense[n:, n:], (1 - beta) * np.eye(n))
        and np.array_equal(dense[:n, n:], alpha * np.outer(np.ones(n), params.a))
        and np.array_equal(dense[n:, :n], -beta * np.outer(np.ones(n), params.b))
    )
    del dense  # no later check needs the dense M
    record("transition_blocks", "pass" if blocks_ok else "fail", "block structure exact")

    dec = decompose(params)
    record("regime", "pass", dec.regime.value)
    if dec.Q is not None:
        check = verify_decomposition(M, dec.diag, dec.Q, dec.Qinv)
        record(
            "decomposition_residuals",
            "pass" if check.passed else "fail",
            f"mq_qj={check.residual_mq_qj:.3e} qqinv={check.residual_qqinv:.3e} "
            f"similarity={check.residual_similarity:.3e}",
        )
    else:
        record("decomposition_residuals", "skipped", "no explicit basis in this regime")
    r1, r2, ok = verify_block_basis(M, dec.R)
    record("block_basis_residuals", "pass" if ok else "fail", f"mr_rj={r1:.3e} rrinv={r2:.3e}")

    T, seed = _run_int(run, "T"), _run_int(run, "seed")
    noises = sample_noise_path(noise, params, T, seed)
    traj = simulate_recursive(params, M, np.zeros(2 * params.n), noises)
    expl = simulate_explicit(params, dec, np.zeros(2 * params.n), noises)
    dev = float(np.max(np.abs(traj.z - expl.z))) / (1.0 + float(np.max(np.abs(traj.z))))
    record("explicit_equals_recursive", "pass" if dev < 1e-8 else "fail",
           f"relative deviation {dev:.3e}")

    agg = aggregates(traj, params)
    model = cycle_mod.reduce_to_cycle(alpha, beta)
    scalar_noise = cycle_mod.scalar_noise_from_vector(params, noises)
    h = cycle_mod.forcing_series(scalar_noise, alpha, beta)
    resid = agg.xbar[2:] + model.kappa1 * agg.xbar[1:-1] + model.kappa2 * agg.xbar[:-2]
    resid -= h[: len(resid)]
    scale = 1.0 + float(np.max(np.abs(agg.xbar)))
    rr = float(np.max(np.abs(resid))) / scale
    record("cycle_reduction", "pass" if rr < 1e-10 else "fail", f"relative residual {rr:.3e}")

    spectral_to_cycle = {
        Regime.COMPLEX_CONJUGATE: cycle_mod.CycleRegime.COMPLEX_OSCILLATORY,
        Regime.DIAGONALIZABLE_REAL: cycle_mod.CycleRegime.DISTINCT_REAL,
        Regime.REPEATED_ROOT_JORDAN: cycle_mod.CycleRegime.REPEATED_REAL,
    }
    agree = spectral_to_cycle[dec.regime] is model.regime
    record("regime_agreement", "pass" if agree else "fail",
           f"spectral={dec.regime.value} cycle={model.regime.value}")
    timer.mark("compute")

    all_passed = all(c["status"] != "fail" for c in checks)
    emit_report(
        config_echo(params, noise, run, output),
        {"checks": checks, "all_passed": all_passed},
        timer.stages,
    )
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# parser

def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON run configuration")
    sub.add_argument("--n", type=int)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--beta", type=float)
    sub.add_argument("--a", help="comma-separated sentiment weights")
    sub.add_argument("--b", help="comma-separated output weights")
    sub.add_argument("--noise-mu", help="comma-separated means, length 2n")
    sub.add_argument("--noise-sigma", help="comma-separated standard deviations, length 2n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varcycle",
        description="agent-coupled vector autoregression and its induced business-cycle model",
    )
    parser.add_argument("--version", action="version", version=f"varcycle {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("decompose", help="regime classification and explicit decomposition")
    _add_model_flags(p)
    p.add_argument("--dump-matrices", metavar="DIR", help="write M, Q, Qinv as CSV")
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=_cmd_decompose)

    p = subs.add_parser("simulate", help="simulate trajectories")
    _add_model_flags(p)
    p.add_argument("--T", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--method", choices=["recursive", "explicit", "both"])
    p.add_argument("--z0", help="'zeros' or 'csv:<path>'")
    p.add_argument("--zero-noise", action="store_true", help="replace draws by their means")
    p.add_argument("--out", help="trajectory CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("moments", help="covariance grids, stationarity gap, limits")
    _add_model_flags(p)
    p.add_argument("--t-grid", default="2,5,10")
    p.add_argument("--tau-grid", default="0,1")
    p.add_argument("--mc-reps", type=int, default=0)
    p.add_argument("--seed", type=int)
    p.add_argument("--dump-cov", metavar="PREFIX", help="CSV dump of covariance matrices")
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=_cmd_moments)

    p = subs.add_parser("cycle", help="scalar business-cycle simulation (defaults: benchmark run)")
    p.add_argument("--alpha", type=float, default=BENCHMARK["alpha"])
    p.add_argument("--beta", type=float, default=BENCHMARK["beta"])
    p.add_argument("--T", type=int, default=BENCHMARK["T"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--eps-sd", type=float, default=BENCHMARK["eps_sd"])
    p.add_argument("--eta-sd", type=float, default=BENCHMARK["eta_sd"])
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--x1", type=float, default=0.0)
    p.add_argument("--out", help="series CSV path (t, xbar, h)")
    p.add_argument("--analyze", action="store_true", help="attach the periodogram report")
    p.set_defaults(func=_cmd_cycle)

    p = subs.add_parser("verify", help="run the invariant suite for a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """argv with each negative number after a long option joined to it as
    --flag=value, since argparse takes -1e-05, -2E+3 or -inf for an option."""
    out: list[str] = []
    for token in argv:
        negative = re.match(r"-(\.?\d|inf|nan)", token, re.IGNORECASE)
        if negative and out and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except VarcycleError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # reading a config or input file, or writing an output
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
