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
import shutil
import signal
import stat
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, BinaryIO, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from . import __version__, cycle as cycle_mod, moments as moments_mod
from .errors import (ConfigError, DimensionMismatch, NonFiniteResult, RangeError, TooShort,
                     VarcycleError)
from .model import (
    ModelParams,
    NoiseSpec,
    TransitionMatrix,
    _agent_count,
    _integer,
    build_transition_matrix,
    lint_params,
    validate_noise,
    validate_pair,
    validate_params,
)
from .simulate import aggregates, sample_noise_path, simulate_explicit, simulate_recursive
from .spectral import BOUNDARY_TOL, SpectralDecomposition, decompose, verify_decomposition

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


def resolve_config(doc: dict, args: argparse.Namespace | None = None
                   ) -> tuple[ModelParams, NoiseSpec, dict, dict, np.ndarray]:
    """Validate the model, fill defaults, and return the echo pieces (`run`
    with T and seed parsed) and z0.  Missing weights are uniform and
    missing noise is N(0, 1).  A flag of `args` named after a run or
    output key overrides it (`--out` is `path`).  The whole run
    section is checked in every subcommand, so every echoed config reruns."""
    uniform = {}
    if "n" in doc:
        n = _agent_count(doc["n"])
        try:
            uniform = {k: [1.0 / n] * n for k in ("a", "b") if k not in doc}
        except (OverflowError, MemoryError) as exc:
            raise DimensionMismatch(f"cannot hold uniform weights for n={n}: {exc}") from exc
    params = validate_params({**uniform, **doc})
    noise_doc = doc.get("noise")
    if noise_doc is None:
        noise_doc = {"mu": [0.0] * (2 * params.n), "sigma": [1.0] * (2 * params.n)}
    noise = validate_noise(noise_doc, params.n)
    run = dict(_RUN_DEFAULTS, **(doc.get("run") or {}))
    output = dict(_OUTPUT_DEFAULTS, **(doc.get("output") or {}))
    flags = vars(args) if args is not None else {}
    for section in (run, output):
        section.update({k: flags[k] for k in section if flags.get(k) is not None})
    if not isinstance(output["path"], (str, type(None))):
        raise ConfigError(f"output.path must be a string or null, got {output['path']!r}")
    if run["method"] not in ("recursive", "explicit", "both"):
        raise ConfigError(f"run.method must be recursive|explicit|both, got {run['method']!r}")
    T = run["T"] = _integer(run["T"], "run.T", ConfigError)
    seed = run["seed"] = _integer(run["seed"], "run.seed", ConfigError)
    if T < 1:
        raise RangeError(f"T must be >= 1, got {T}")
    if seed < 0:
        raise RangeError(f"seed must be >= 0, got {seed}")
    return params, noise, run, output, _resolve_z0(str(run["z0"]), params.n)


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


def config_echo(params: ModelParams, noise: NoiseSpec, run: dict, output: dict) -> dict:
    # the vectors stay arrays: the report's encoder converts each with one tolist()
    return {
        "n": params.n,
        "alpha": params.alpha,
        "beta": params.beta,
        "a": params.a,
        "b": params.b,
        "noise": {"mu": noise.mu, "sigma": noise.sigma},
        "run": dict(run),
        "output": dict(output),
    }


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated ints, got {text!r}") from exc


# ---------------------------------------------------------------------------
# output helpers

#: Cells formatted together: a block holds as many rows as fit, and at
#: least one.  The parts a CSV is split into between processes are whole
#: runs of blocks.
_CSV_BLOCK_CELLS = 8192


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _split_rows(rows: int, parts: int, block: int) -> list[tuple[int, int]]:
    """[lo, hi) ranges of at most `parts` contiguous runs of whole blocks
    of `block` rows."""
    blocks = -(-rows // block)
    k = max(1, min(parts, blocks))
    edges = [min(rows, i * blocks // k * block) for i in range(k + 1)]
    return list(zip(edges, edges[1:]))


@dataclass(frozen=True)
class CsvTable:
    """A CSV held as its columns and formatted while it is written.

    Each column is a 1-D array or a 2-D array with one row per CSV row.
    Numbers are written as shortest round-trip decimals (the repr of a
    Python float); with a header, whose first name is the index column,
    each row starts with its row number.
    """

    header: str | None
    columns: tuple[np.ndarray, ...]

    @property
    def _block_rows(self) -> int:
        """Rows per block: as many as fit in _CSV_BLOCK_CELLS, at least one."""
        width = sum(1 if c.ndim == 1 else c.shape[1] for c in self.columns)
        return max(1, _CSV_BLOCK_CELLS // width)

    def _format(self, lo: int, hi: int) -> bytes:
        # imported here, so that commands which write no CSV do not load it
        from ._decimal import csv_rows

        block = np.column_stack([c[lo:hi] for c in self.columns])
        return csv_rows(block, None if self.header is None else lo)

    def _blocks(self, lo: int, hi: int) -> Iterator[bytes]:
        block = self._block_rows
        for start in range(lo, hi, block):
            yield self._format(start, min(start + block, hi))

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
        parts = _split_rows(len(self.columns[0]), _usable_cpus(), self._block_rows)
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


def atomic_write(path: str, content: str | CsvTable | Iterable[str]) -> None:
    """Write via a temp file in the target directory, then rename.  A
    symlink at `path` is written through, as open(path, "w") would."""
    path = os.path.realpath(path)
    directory = os.path.dirname(path)
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
                for chunk in [content] if isinstance(content, str) else content:
                    fh.write(chunk.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def matrix_csv(matrix: np.ndarray) -> CsvTable:
    return CsvTable(None, (np.atleast_2d(matrix),))


def trajectory_csv(traj_z: np.ndarray, params: ModelParams) -> CsvTable:
    n = params.n
    header = (
        "t,"
        + ",".join(f"x_{i+1}" for i in range(n))
        + ","
        + ",".join(f"y_{i+1}" for i in range(n))
        + ",xbar,ybar"
    )
    return CsvTable(header, (traj_z, *params.aggregate(traj_z[:, :n], traj_z[:, n:])))


def cycle_csv(xbar: np.ndarray, h: np.ndarray) -> CsvTable:
    return CsvTable("t,xbar,h", (xbar, h))


def _json_default(obj: Any) -> Any:
    """What json.dumps writes for the values it does not encode itself:
    arrays as nested lists, complex numbers as {"re", "im"}, numpy scalars
    as Python numbers."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


#: Stands for a float array in the JSON text of the rest of a report.
_ARRAY_MARK = "\0float64 array\0"


def _lift_arrays(obj: Any, arrays: list[np.ndarray]) -> Any:
    """`obj` with every non-empty float64 ndarray (not a subclass) of one
    or two dimensions in its dicts, lists and tuples replaced by
    _ARRAY_MARK; the arrays go to `arrays` in the order json.dumps meets
    them."""
    if isinstance(obj, dict):
        return {k: _lift_arrays(v, arrays) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_lift_arrays(v, arrays) for v in obj]
    if type(obj) is np.ndarray and obj.dtype == np.float64 and obj.ndim in (1, 2) and obj.size:
        arrays.append(obj)
        return _ARRAY_MARK
    return obj


def _json_text(report: dict) -> Iterable[str]:
    """The text of json.dumps(report, allow_nan=False, default=_json_default)
    and a newline, in pieces.

    When the report's float64 arrays hold _CSV_BLOCK_CELLS cells or more,
    the CSV writer's formatter writes their text as it is read: it writes a
    cell in about a third of repr's time, but loading it (compiling the
    module where no bytecode is cached, building its tables) costs what
    repr spends on several thousand cells.  Raises NonFiniteResult.
    """
    arrays: list[np.ndarray] = []
    rest = _lift_arrays(report, arrays)
    try:
        if (sum(a.size for a in arrays) >= _CSV_BLOCK_CELLS
                and all(np.isfinite(a).all() for a in arrays)):
            parts = json.dumps(rest, allow_nan=False, default=_json_default).split(
                json.dumps(_ARRAY_MARK))
            # a string of the report that holds the mark splits it more often
            if len(parts) == len(arrays) + 1:
                from ._decimal import JsonText

                return JsonText(parts, arrays, _CSV_BLOCK_CELLS)
        return json.dumps(report, allow_nan=False, default=_json_default), "\n"
    except ValueError as exc:
        raise NonFiniteResult(f"report holds a non-finite value: {exc}") from exc


def emit_report(config: dict, payload: dict, timing: dict, out: str | None = None) -> dict:
    report = {
        "tool_version": __version__,
        "config_echo": config,
        "payload": payload,
        "timing": {k: round(v, 6) for k, v in timing.items()},
    }
    text = _json_text(report)
    if out:
        atomic_write(out, text)
        # the file holds the text: copy it rather than format the report twice
        with open(out, encoding="utf-8", newline="") as fh:
            shutil.copyfileobj(fh, sys.stdout)
    else:
        sys.stdout.writelines(text)
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

def _residual(r: np.ndarray, z: np.ndarray) -> tuple[float, float]:
    """max|r| and max|r| / (1 + max|z|), for a residual r of the state z:
    the one rule that judges a residual on the scale of its state."""
    worst = float(np.max(np.abs(r)))
    return worst, worst / (1.0 + float(np.max(np.abs(z))))


def _basis_residuals(M: TransitionMatrix, dec: SpectralDecomposition) -> dict[str, Any] | None:
    """The residuals of the basis Q = (R, V) and their verdict; None without V."""
    if dec.V is None:
        return None
    check = verify_decomposition(M, dec.R, dec.V, np.diag([dec.eig.lambda3, dec.eig.lambda4]))
    return {"mq_qj": check.residual_mq_qj, "qqinv": check.residual_qqinv,
            "similarity": check.residual_similarity, "passed": check.passed}


def _cmd_decompose(args: argparse.Namespace) -> int:
    timer = _Timer()
    params, noise, run, output, _ = resolve_config(load_config(args.config), args)
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
            {"value": v, "multiplicity": m} for v, m in dec.eig.eigenvalues_with_multiplicity()
        ],
        "blocks": dec.blocks,
        "tau_minus": dec.tau_minus,
        "tau_plus": dec.tau_plus,
        "tau_tilde": dec.tau_tilde,
        "basis_available": dec.V is not None,
        "residuals": _basis_residuals(M, dec),
        "lint": lint_params(params),
    }
    timer.mark("compute")

    if args.dump_matrices:
        atomic_write(os.path.join(args.dump_matrices, "M.csv"), matrix_csv(M.entries))
        if dec.V is not None:
            atomic_write(os.path.join(args.dump_matrices, "Q.csv"), matrix_csv(dec.Q))
            atomic_write(os.path.join(args.dump_matrices, "Qinv.csv"), matrix_csv(dec.Qinv))
    timer.mark("write")
    emit_report(config_echo(params, noise, run, output), payload, timer.stages, output["path"])
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    timer = _Timer()
    params, noise, run, output, z0 = resolve_config(load_config(args.config), args)
    if not output["path"]:
        raise ConfigError("simulate requires an output path (--out or output.path)")
    timer.mark("validate")

    noises = sample_noise_path(noise, params, run["T"], run["seed"])
    M = build_transition_matrix(params)

    trajectories = {}
    if run["method"] in ("recursive", "both"):
        trajectories["recursive"] = simulate_recursive(params, M, z0, noises)
    if run["method"] in ("explicit", "both"):
        dec = decompose(params)
        trajectories["explicit"] = simulate_explicit(params, dec, z0, noises)
    timer.mark("compute")

    base = output["path"]
    stem, ext = os.path.splitext(base)
    files: dict[str, str] = {}
    for name, traj in trajectories.items():
        files[name] = f"{stem}_{name}{ext or '.csv'}" if run["method"] == "both" else base
        atomic_write(files[name], trajectory_csv(traj.z, params))
    timer.mark("write")

    payload: dict[str, Any] = {
        "method": run["method"],
        "T": run["T"],
        "seed": run["seed"],
        "rows": run["T"] + 1,
        "files": files,
        "zero_noise": not bool(noise.sigma.any()),
        "lint": lint_params(params),
    }
    if run["method"] == "both":
        z = trajectories["recursive"].z
        payload["max_method_deviation"], payload["max_method_deviation_relative"] = (
            _residual(z - trajectories["explicit"].z, z))
    emit_report(config_echo(params, noise, run, output), payload, timer.stages)
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    timer = _Timer()
    params, noise, run, output, _ = resolve_config(load_config(args.config), args)
    timer.mark("validate")

    dec = decompose(params)
    inputs = moments_mod.moment_inputs(params, noise)
    t_grid = _parse_ints(args.t_grid)
    tau_grid = _parse_ints(args.tau_grid)
    report = moments_mod.stationarity_diagnostic(inputs, dec, t_grid, tau_grid)
    mc_estimate = None
    if args.mc_reps:
        mc_estimate = moments_mod.mc_cross_covariance(params, noise, inputs.G, t_grid,
                                                      tau_grid, args.mc_reps, run["seed"])
    limits = moments_mod.limiting_moments(inputs, dec)
    timer.mark("compute")

    grid_payload = []
    for (t, tau) in sorted(report.gamma):
        entry: dict[str, Any] = {"t": t, "tau_prime": tau, "gamma": report.gamma[(t, tau)]}
        if mc_estimate is not None:
            est, se = mc_estimate[(t, tau)]
            entry["mc_estimate"] = est
            entry["mc_se"] = se
        grid_payload.append(entry)

    # the full limit covariances go to --dump-cov; the report keeps their
    # 2x2 aggregate blocks
    limit_covs = {"resolvent_limit_cov": limits.resolvent_limit_cov,
                  "ma_infinity_cov": limits.ma_infinity_cov}
    payload = {
        "grid": grid_payload,
        "stationarity_gap": report.stationarity_gap,
        "stationarity_gap_original": report.stationarity_gap_original,
        "limits": {
            "lambda_tilde": limits.lambda_tilde,
            "spectral_radius_ok": limits.spectral_radius_ok,
            "limiting_mean": limits.limiting_mean,
            **{f"aggregate_{name}": None if X is None else moments_mod._aggregate_cov(params, X)
               for name, X in limit_covs.items()},
            "covariance_discrepancy": limits.covariance_discrepancy,
        },
        "mc_reps": args.mc_reps,
        "mc_stream_version": moments_mod.MC_STREAM_VERSION,
        "lint": lint_params(params),
    }

    if args.dump_cov:
        dumps = {f"t{t}_tau{tau}": X for (t, tau), X in sorted(report.gamma.items())}
        if report.gamma_tilde is not None:
            dumps.update({f"tilde_t{t}_tau{tau}": X
                          for (t, tau), X in sorted(report.gamma_tilde.items())})
        if limits.spectral_radius_ok:
            dumps.update(limit_covs)
        for name, matrix in dumps.items():
            atomic_write(f"{args.dump_cov}_{name}.csv", matrix_csv(matrix))
    timer.mark("write")
    emit_report(config_echo(params, noise, run, output), payload, timer.stages, output["path"])
    return 0


def _cmd_cycle(args: argparse.Namespace) -> int:
    timer = _Timer()
    if not args.out:
        raise ConfigError("cycle requires --out")
    alpha, beta, T = args.alpha, args.beta, args.T
    validate_pair(alpha, beta)
    if T < 2:  # simulate_cycle's bound, stated before any shock is drawn
        raise RangeError(f"T must be >= 2, got {T}")
    timer.mark("validate")

    model = cycle_mod.reduce_to_cycle(alpha, beta)
    noise = cycle_mod.sample_scalar_noise((0.0, args.eps_sd), (0.0, args.eta_sd), T, args.seed)
    xbar = cycle_mod.simulate_cycle(model, noise, args.x0, args.x1, T)
    h = cycle_mod.forcing_series(noise, alpha, beta)[: T + 1]

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
    atomic_write(args.out, cycle_csv(xbar, h))
    timer.mark("write")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    payload["warnings"] = warnings
    echo = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    emit_report(echo, payload, timer.stages)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    timer = _Timer()
    params, noise, run, output, z0 = resolve_config(load_config(args.config))
    if output["path"] is not None:
        raise ConfigError(f"verify writes no file, so output.path must be null, "
                          f"got {output['path']!r}")
    timer.mark("validate")

    checks: list[dict[str, Any]] = []

    def record(name: str, status: str, detail: str) -> None:
        checks.append({"name": name, "status": status, "detail": detail})

    M = build_transition_matrix(params)
    dec = decompose(params)
    if (residuals := _basis_residuals(M, dec)) is None:
        record("decomposition_residuals", "skipped", "no explicit basis in this regime")
    else:
        passed = residuals.pop("passed")
        record("decomposition_residuals", "pass" if passed else "fail",
               " ".join(f"{k}={v:.3e}" for k, v in residuals.items()))
    check = verify_decomposition(M, dec.R, np.eye(2), dec.R.A)  # R itself, with J = J_R
    record("block_basis_residuals", "pass" if check.passed else "fail",
           f"mr_rj={check.residual_mq_qj:.3e} rrinv={check.residual_qqinv:.3e} "
           f"similarity={check.residual_similarity:.3e}")

    noises = sample_noise_path(noise, params, run["T"], run["seed"])
    traj = simulate_recursive(params, M, z0, noises)
    _, dev = _residual(traj.z - simulate_explicit(params, dec, z0, noises).z, traj.z)
    record("explicit_equals_recursive", "pass" if dev < 1e-8 else "fail",
           f"relative deviation {dev:.3e}")

    if run["T"] < 2:
        record("cycle_reduction", "skipped", "the equation needs three states, T >= 2")
    else:
        alpha, beta = params.alpha, params.beta
        model = cycle_mod.reduce_to_cycle(alpha, beta)
        agg = aggregates(traj, params)
        scalar_noise = cycle_mod.scalar_noise_from_vector(params, noises)
        h = cycle_mod.forcing_series(scalar_noise, alpha, beta)
        resid = agg.xbar[2:] + model.kappa1 * agg.xbar[1:-1] + model.kappa2 * agg.xbar[:-2]
        resid -= h[: len(resid)]
        # b . x rounds at the scale of x, not of xbar, so the state scales it
        _, rr = _residual(resid, traj.z)
        record("cycle_reduction", "pass" if rr < 1e-10 else "fail",
               f"relative residual {rr:.3e}")
    timer.mark("compute")

    all_passed = all(c["status"] != "fail" for c in checks)
    emit_report(
        config_echo(params, noise, run, output),
        {"regime": dec.regime.value, "checks": checks, "all_passed": all_passed},
        timer.stages,
    )
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varcycle",
        description="agent-coupled vector autoregression and its induced business-cycle model",
    )
    parser.add_argument("--version", action="version", version=f"varcycle {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("decompose", help="regime classification and explicit decomposition")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--dump-matrices", metavar="DIR", help="write M, Q, Qinv as CSV")
    p.add_argument("--out", dest="path", help="also write the JSON report here")
    p.set_defaults(func=_cmd_decompose)

    p = subs.add_parser("simulate", help="simulate trajectories")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--T", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--method", choices=["recursive", "explicit", "both"])
    p.add_argument("--z0", help="'zeros' or 'csv:<path>'")
    p.add_argument("--out", dest="path", help="trajectory CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("moments", help="covariance grids, stationarity gap, limits")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--t-grid", default="2,5,10")
    p.add_argument("--tau-grid", default="0,1")
    p.add_argument("--mc-reps", type=int, default=0)
    p.add_argument("--seed", type=int)
    p.add_argument("--dump-cov", metavar="PREFIX",
                   help="write PREFIX_t{t}_tau{tau}.csv (gamma), PREFIX_tilde_t{t}_tau{tau}.csv "
                        "(in Q's coordinates, where Q exists), PREFIX_resolvent_limit_cov.csv and "
                        "PREFIX_ma_infinity_cov.csv (where the spectral radius is below 1)")
    p.add_argument("--out", dest="path", help="also write the JSON report here")
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
    except (VarcycleError, OSError) as exc:  # OSError: reading an input or writing an output
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
