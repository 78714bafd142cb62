"""Correctness gate for the outputs of one varcycle CLI call.

Every call fails on a non-zero exit, a traceback on stderr, a
``RuntimeWarning``, or a report that is not strict JSON.  The workloads add
their own checks on top (see ``workloads.py``) using the helpers below.
"""

from __future__ import annotations

import json
import math
from statistics import NormalDist

import numpy as np

# Family-wise false-alarm rate of the Monte Carlo check over all entries of
# one report.  A correct program then fails it about once in a million
# calls, while an entry off by 10 standard errors still fails it for any
# grid size up to about 1e15 entries.
MC_FAMILY_ALPHA = 1e-6


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-strict JSON token {token}")


def strict_json(text: str) -> dict:
    """Parse a report, refusing the NaN and Infinity tokens JSON lacks."""
    return json.loads(text, parse_constant=_reject_constant)


def report_failures(result) -> tuple[dict | None, list[str]]:
    """Generic checks of one call; returns the parsed report and failures."""
    failures = []
    if result.exit_code != 0:
        failures.append(f"exit code {result.exit_code}")
    if "Traceback (most recent call last)" in result.stderr:
        failures.append("traceback on stderr")
    failures.extend(f"RuntimeWarning: {w}" for w in result.runtime_warnings)
    try:
        doc = strict_json(result.stdout)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        failures.append(f"report is not strict JSON: {exc}")
        return None, failures
    return doc, failures


def csv_rows(path: str) -> int:
    """Data rows of a CSV file with one header line."""
    with open(path, "rb") as fh:
        text = fh.read()
    lines = text.count(b"\n") + (0 if text.endswith(b"\n") or not text else 1)
    return lines - 1


def predicted_period(alpha: float, beta: float) -> float:
    """2*pi/omega for the scalar cycle, from its coefficients directly.

    The characteristic roots of x(t+2) + k1 x(t+1) + k2 x(t) solve
    r^2 + k1 r + k2 = 0 with k1 = alpha + beta - 2 and
    k2 = 1 - alpha - beta + 2 alpha beta; omega is the angle of the
    upper complex root.
    """
    k1 = alpha + beta - 2.0
    k2 = 1.0 - alpha - beta + 2.0 * alpha * beta
    disc = k1 * k1 - 4.0 * k2
    if disc >= 0.0:
        raise ValueError(f"roots are real for alpha={alpha}, beta={beta}")
    return 2.0 * math.pi / math.atan2(math.sqrt(-disc) / 2.0, -k1 / 2.0)


def bonferroni_z(entries: int, family_alpha: float = MC_FAMILY_ALPHA) -> float:
    """Two-sided normal threshold for ``entries`` simultaneous checks."""
    return NormalDist().inv_cdf(1.0 - family_alpha / (2.0 * entries))


def mc_failures(grid: list[dict]) -> list[str]:
    """Check every Monte Carlo entry against the exact covariance.

    Each |mc_estimate - gamma| / mc_se must stay below the Bonferroni
    threshold over all entries of the grid.
    """
    if not grid or any("mc_estimate" not in e for e in grid):
        return ["report has no Monte Carlo estimates"]
    est = np.concatenate([np.ravel(e["mc_estimate"]) for e in grid])
    se = np.concatenate([np.ravel(e["mc_se"]) for e in grid])
    gamma = np.concatenate([np.ravel(e["gamma"]) for e in grid])
    if not (est.shape == se.shape == gamma.shape):
        return ["Monte Carlo and exact grids differ in shape"]
    if np.any(~np.isfinite(se)) or np.any(se < 0):
        return ["Monte Carlo standard errors are not finite and non-negative"]
    gap = np.abs(est - gamma)
    degenerate = se == 0.0
    if np.any(degenerate & (gap > 0.0)):
        return ["an entry with zero standard error differs from the exact value"]
    dev = np.where(degenerate, 0.0, gap / np.where(degenerate, 1.0, se))
    z = bonferroni_z(est.size)
    worst = float(np.max(dev))
    if not worst < z:
        bad = int(np.sum(dev >= z))
        return [f"{bad} of {est.size} Monte Carlo entries beyond {z:.2f} se (worst {worst:.2f})"]
    return []
