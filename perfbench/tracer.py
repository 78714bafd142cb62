"""Spans around the calls into varcycle's modules, taken from outside.

``Tracer.install`` replaces the public functions listed in ``TARGETS`` with
timing wrappers, in their defining module and under every other name a
varcycle module binds them to (``from .simulate import simulate_recursive``
in ``varcycle.cli``, for example).  ``Tracer.uninstall`` puts the originals
back.  Spans (name, start, end, parent, run id) stay in memory; the caller
writes them out.  Counters marked computed are derived from array shapes,
not measured.

Only traced runs import this module.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable

Counter = Callable[[dict, tuple, dict, Any], None]


def _bytes_written(c: dict, args: tuple, kwargs: dict, result: Any) -> None:
    path = args[0] if args else kwargs["path"]
    c["cli.bytes_written"] += os.path.getsize(path)


def _matrix(c: dict, args: tuple, kwargs: dict, result: Any) -> None:
    c["model.build_calls"] += 1
    # computed: the dense 2n x 2n entries
    c["model.matrix_bytes"] = max(c["model.matrix_bytes"], result.entries.nbytes)


def _basis(c: dict, args: tuple, kwargs: dict, result: Any) -> None:
    if result.Q is not None:
        m = result.Q.shape[0]
        # computed: Q, Q^-1 and the dense J that the residual check builds
        c["spectral.basis_bytes"] = max(c["spectral.basis_bytes"], 3 * m * m * 8)


def _residual(c: dict, args: tuple, kwargs: dict, result: Any) -> None:
    m = (args[0] if args else kwargs["M"]).shape[0]
    # computed: MQ, QJ, QQ^-1, Q^-1 M and (Q^-1 M) Q, each 2 m^3 flops
    c["spectral.residual_flops"] += 10 * m**3


def _noise(c: dict, args: tuple, kwargs: dict, result: Any) -> None:
    c["simulate.noise_calls"] += 1
    c["simulate.noise_draws"] += result.epsilon.size + result.eta.size


def _recursive(c: dict, args: tuple, kwargs: dict, result: Any) -> None:
    steps, m = result.z.shape[0] - 1, result.z.shape[1]
    c["simulate.steps"] += steps
    # computed: one dense m x m matvec per step
    c["simulate.recursive_flops"] += steps * 2 * m * m


def _explicit(c: dict, args: tuple, kwargs: dict, result: Any) -> None:
    c["simulate.steps"] += result.z.shape[0] - 1


def _limit(c: dict, args: tuple, kwargs: dict, result: Any) -> None:
    c["moments.limit_terms"] += result.truncation_terms or 0


def _mc(c: dict, args: tuple, kwargs: dict, result: Any) -> None:
    c["moments.mc_reps"] += kwargs["reps"] if "reps" in kwargs else args[5]


def _cycle_steps(c: dict, args: tuple, kwargs: dict, result: Any) -> None:
    c["cycle.steps"] += len(result) - 2


# (module, function) -> (span bucket, counter).  A bucket's self time is
# reported as "<bucket>_s".
TARGETS: dict[tuple[str, str], tuple[str, Counter | None]] = {
    ("varcycle.cli", "trajectory_csv"): ("cli.write", None),
    ("varcycle.cli", "cycle_csv"): ("cli.write", None),
    ("varcycle.cli", "matrix_csv"): ("cli.write", None),
    ("varcycle.cli", "atomic_write"): ("cli.write", _bytes_written),
    ("varcycle.cli", "emit_report"): ("cli.report", None),
    ("varcycle.model", "build_transition_matrix"): ("model.build", _matrix),
    ("varcycle.spectral", "decompose"): ("spectral.decompose", _basis),
    ("varcycle.spectral", "verify_decomposition"): ("spectral.residual", _residual),
    ("varcycle.simulate", "sample_noise_path"): ("simulate.noise", _noise),
    ("varcycle.simulate", "simulate_recursive"): ("simulate.recursive", _recursive),
    ("varcycle.simulate", "simulate_explicit"): ("simulate.explicit", _explicit),
    ("varcycle.moments", "limiting_moments"): ("moments.limit", _limit),
    ("varcycle.moments", "stationarity_diagnostic"): ("moments.grid", None),
    ("varcycle.moments", "mc_cross_covariance"): ("moments.mc", _mc),
    ("varcycle.cycle", "simulate_cycle"): ("cycle.simulate", _cycle_steps),
    ("varcycle.cycle", "sample_scalar_noise"): ("cycle.noise", None),
    ("varcycle.cycle", "scalar_noise_from_vector"): ("cycle.noise", None),
    ("varcycle.cycle", "dominant_period"): ("cycle.period", None),
}

BUCKETS = sorted({bucket for bucket, _ in TARGETS.values()})
COUNTERS = (
    "cli.bytes_written", "cli.report_bytes",
    "model.build_calls", "model.matrix_bytes",
    "spectral.residual_flops", "spectral.basis_bytes",
    "simulate.noise_calls", "simulate.noise_draws", "simulate.steps",
    "simulate.recursive_flops",
    "moments.limit_terms", "moments.mc_reps",
    "cycle.steps",
)
ROOT = "cli.main"


def span_name(module_name: str, func_name: str) -> str:
    return f"{module_name.removeprefix('varcycle.')}.{func_name}"


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the time its direct children cover (ns).

    Spans come from one thread, so siblings never overlap and a child
    lies inside its parent.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    return {s["id"]: s["end_ns"] - s["start_ns"] - child_ns[s["id"]] for s in spans}


class Tracer:
    """Wrap varcycle's public functions and record one span per call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._next_id = 1
        self._patches: list[tuple[Any, str, Any]] = []

    def _open(self) -> tuple[int, int | None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: int | None, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append({"id": span_id, "name": name, "start_ns": start, "end_ns": end,
                           "parent": parent, "run": self.run_id})

    def _wrap(self, fn: Callable, name: str, counter: Counter | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, name, start)
            if counter is not None:
                counter(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of each target across loaded varcycle modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "varcycle" or k.startswith("varcycle."))]
        for (module_name, func_name), (_, counter) in TARGETS.items():
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(original, span_name(module_name, func_name), counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        """Restore every binding that ``install`` replaced."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def root(self, fn: Callable, *args):
        """Call ``fn`` under a root span (one CLI call)."""
        span_id, parent = self._open()
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._close(span_id, parent, ROOT, start)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, counters and derived rates for this process."""
        bucket_of = {span_name(m, f): b for (m, f), (b, _) in TARGETS.items()}
        selfs = self_times(self.spans)
        out: dict[str, float] = {f"{b}_s": 0.0 for b in BUCKETS}
        covered = 0.0
        wall = 0.0
        for s in self.spans:
            seconds = selfs[s["id"]] / 1e9
            if s["name"] == ROOT:
                wall += (s["end_ns"] - s["start_ns"]) / 1e9
                continue
            out[f"{bucket_of[s['name']]}_s"] += seconds
            covered += seconds
        out.update(self.counters)
        write_s = out["cli.write_s"]
        out["cli.write_mb_per_s"] = out["cli.bytes_written"] / write_s / 1e6 if write_s else 0.0
        steps = out["simulate.steps"]
        step_s = out["simulate.recursive_s"] + out["simulate.explicit_s"]
        out["simulate.step_us"] = step_s / steps * 1e6 if steps else 0.0
        out["trace.coverage"] = covered / wall if wall else 0.0
        return out
