"""The benchmark's workloads.

A workload turns (seed, op) into input files and the varcycle CLI calls
that consume them, and checks what each call produced.  The program sees
only the generated configs and flags.  Sizes are fields, so the tests run
the same workloads small; ``WORKLOADS`` holds the benchmark's sizes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

import gate

# The paper's oscillatory benchmark parameterization of the scalar cycle.
PAPER_CYCLE = {"alpha": 1.09804, "beta": 0.7, "eps_sd": 1.0, "eta_sd": 1.6}


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the files the harness expects it to write."""

    label: str
    argv: list[str]
    outputs: tuple[str, ...] = ()


@dataclass
class CallResult:
    """What one CLI invocation returned, printed and warned."""

    label: str
    exit_code: int
    stdout: str
    stderr: str
    runtime_warnings: list[str]
    wall_s: float


def _rng(seed: int, op: int) -> np.random.Generator:
    return np.random.default_rng([seed, op])


def _run_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _weights(rng: np.random.Generator, n: int) -> list[float]:
    # bounded away from zero, renormalized to sum to 1 well within 1e-12
    u = rng.uniform(0.5, 1.5, n)
    return (u / u.sum()).tolist()


def _config(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@dataclass(frozen=True)
class CycleLong:
    """``cycle --analyze`` at the paper's parameterization, long horizon."""

    name: ClassVar[str] = "cycle_long"
    labels: ClassVar[tuple[str, ...]] = ("cycle",)
    T: int = 300_000

    def calls(self, seed: int, op: int, workdir: Path) -> list[Call]:
        rng = _rng(seed, op)
        out = str(workdir / "cycle.csv")
        argv = ["cycle", "--analyze", "--T", str(self.T), "--seed", str(_run_seed(rng)),
                "--out", out]
        for key, value in PAPER_CYCLE.items():
            argv += [f"--{key.replace('_', '-')}", repr(value)]
        return [Call("cycle", argv, (out,))]

    def check(self, call: Call, result: CallResult) -> list[str]:
        doc, failures = gate.report_failures(result)
        if doc is None:
            return failures
        payload = doc["payload"]
        rows = gate.csv_rows(call.outputs[0])
        if rows != self.T + 1:
            failures.append(f"cycle CSV has {rows} rows, expected {self.T + 1}")
        predicted = gate.predicted_period(PAPER_CYCLE["alpha"], PAPER_CYCLE["beta"])
        reported = payload.get("predicted_period")
        if reported is None or abs(reported - predicted) > 1e-9 * predicted:
            failures.append(f"predicted_period {reported} differs from {predicted}")
        estimated = payload.get("estimated_period")
        if estimated is None or not abs(estimated - predicted) <= 0.10 * predicted:
            failures.append(f"estimated_period {estimated} not within 10% of {predicted}")
        return failures


@dataclass(frozen=True)
class PanelWide:
    """``decompose`` then ``verify`` on one wide config (distinct real roots)."""

    name: ClassVar[str] = "panel_wide"
    labels: ClassVar[tuple[str, ...]] = ("decompose", "verify")
    n: int = 700
    T: int = 500

    def calls(self, seed: int, op: int, workdir: Path) -> list[Call]:
        rng = _rng(seed, op)
        doc = {
            "n": self.n, "alpha": 0.1, "beta": 0.9,
            "a": _weights(rng, self.n), "b": _weights(rng, self.n),
            "run": {"T": self.T, "seed": _run_seed(rng)},
        }
        cfg = _config(workdir / "wide.json", doc)
        return [Call("decompose", ["decompose", "--config", cfg]),
                Call("verify", ["verify", "--config", cfg])]

    def check(self, call: Call, result: CallResult) -> list[str]:
        doc, failures = gate.report_failures(result)
        if doc is None:
            return failures
        payload = doc["payload"]
        if call.label == "decompose":
            residuals = payload.get("residuals") or {}
            if residuals.get("passed") is not True:
                failures.append(f"decomposition residuals did not pass: {residuals}")
        else:
            if payload.get("all_passed") is not True:
                failures.append("verify did not report all_passed")
            status = {c["name"]: c["status"] for c in payload.get("checks", [])}
            for name in ("decomposition_residuals", "explicit_equals_recursive"):
                if status.get(name) != "pass":
                    failures.append(f"verify check {name} is {status.get(name)}")
        return failures


@dataclass(frozen=True)
class PanelLong:
    """``simulate --method both`` on a narrow config over a long horizon."""

    name: ClassVar[str] = "panel_long"
    labels: ClassVar[tuple[str, ...]] = ("simulate",)
    n: int = 10
    T: int = 20_000

    def calls(self, seed: int, op: int, workdir: Path) -> list[Call]:
        rng = _rng(seed, op)
        doc = {
            "n": self.n, "alpha": 0.1, "beta": 0.9,
            "a": _weights(rng, self.n), "b": _weights(rng, self.n),
            "run": {"T": self.T, "seed": _run_seed(rng)},
        }
        cfg = _config(workdir / "long.json", doc)
        out = workdir / "traj.csv"
        outputs = (str(workdir / "traj_recursive.csv"), str(workdir / "traj_explicit.csv"))
        argv = ["simulate", "--config", cfg, "--method", "both", "--out", str(out)]
        return [Call("simulate", argv, outputs)]

    def check(self, call: Call, result: CallResult) -> list[str]:
        doc, failures = gate.report_failures(result)
        if doc is None:
            return failures
        dev = doc["payload"].get("max_method_deviation_relative")
        if dev is None or not dev < 1e-8:
            failures.append(f"max_method_deviation_relative {dev} is not below 1e-8")
        for path in call.outputs:
            rows = gate.csv_rows(path)
            if rows != self.T + 1:
                failures.append(f"{Path(path).name} has {rows} rows, expected {self.T + 1}")
        return failures


@dataclass(frozen=True)
class CovarianceMc:
    """``moments`` with Monte Carlo replications near the unit circle."""

    name: ClassVar[str] = "covariance_mc"
    labels: ClassVar[tuple[str, ...]] = ("moments",)
    n: int = 20
    alpha: float = 4e-4
    mc_reps: int = 1500

    def calls(self, seed: int, op: int, workdir: Path) -> list[Call]:
        rng = _rng(seed, op)
        doc = {
            "n": self.n, "alpha": self.alpha, "beta": 0.9,
            "a": _weights(rng, self.n), "b": _weights(rng, self.n),
        }
        cfg = _config(workdir / "mc.json", doc)
        argv = ["moments", "--config", cfg, "--t-grid", "2,5,10", "--tau-grid", "0,1",
                "--mc-reps", str(self.mc_reps), "--seed", str(_run_seed(rng))]
        return [Call("moments", argv)]

    def check(self, call: Call, result: CallResult) -> list[str]:
        doc, failures = gate.report_failures(result)
        if doc is None:
            return failures
        payload = doc["payload"]
        failures += gate.mc_failures(payload.get("grid", []))
        gap = payload.get("stationarity_gap")
        if gap is None or not gap > 0.0:
            failures.append(f"stationarity_gap {gap} is not positive")
        if payload.get("limits", {}).get("spectral_radius_ok") is not True:
            failures.append("limits.spectral_radius_ok is not true")
        return failures


WORKLOADS = {w.name: w for w in (CycleLong(), PanelWide(), PanelLong(), CovarianceMc())}
