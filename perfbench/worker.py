"""One benchmark operation in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --op K --dir DIR \
        --spawn-ns NS [--trace]

Imports varcycle from the ``src`` directory next to this one, writes the
operation's inputs under DIR, times a fixed reference kernel, calls
``varcycle.cli.main`` once per CLI call of the workload with stdout and
stderr captured, checks the outputs and prints one JSON object on stdout.
``--spawn-ns`` is the CLOCK_MONOTONIC time at which the parent started this
process; set-up time runs from there until the inputs are ready.  run.py
starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

import workloads

SRC = Path(__file__).resolve().parents[1] / "src"


def reference_s() -> float:
    """Time a fixed amount of work that does not involve varcycle.

    About half is interpreter work like that of the Python-bound workloads:
    a scalar recurrence written out as shortest round-trip decimals.  The
    other half is dense BLAS work like that of panel_wide.  On shared VMs
    host speed drifts by up to 2x over minutes; an operation's wall time
    divided by this, timed in the same process just before it, keeps
    little of that drift.
    """
    rng = np.random.default_rng(0)
    square, wide = rng.standard_normal((600, 600)), rng.standard_normal((1200, 1200))
    start = time.perf_counter()
    x0, x1, parts = 0.0, 1.0, []
    for _ in range(150_000):
        x0, x1 = x1, 0.3 * x1 - 0.5 * x0 + 1.0
        parts.append(repr(x1))
    ",".join(parts)
    b = square
    for _ in range(4):
        b = square @ b
        b /= np.abs(b).max()
    v = np.ones(wide.shape[0])
    for _ in range(100):
        v = wide @ v
        v /= np.abs(v).max()
    return time.perf_counter() - start


def invoke(main, call, tracer):
    """Run one CLI call in-process; capture its output, warnings and exit."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(call.argv) if tracer is None else tracer.root(main, call.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
            wall_s = time.perf_counter() - start
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return workloads.CallResult(call.label, code, out.getvalue(), err.getvalue(), runtime, wall_s)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--op", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import varcycle
    from varcycle import cli

    if not Path(varcycle.__file__).resolve().is_relative_to(SRC):
        print(f"error: varcycle imported from {varcycle.__file__}, not {SRC}", file=sys.stderr)
        return 3

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer(run_id=f"{args.workload}-{args.seed}-{args.op}")
        tracer.install()
    workload = workloads.WORKLOADS[args.workload]
    calls = workload.calls(args.seed, args.op, Path(args.dir))
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    ref_s = reference_s()

    results = []
    for call in calls:
        results.append(invoke(cli.main, call, tracer))
        if tracer is not None:
            tracer.counters["cli.report_bytes"] += len(results[-1].stdout.encode())
    # ru_maxrss is in KiB on Linux; taken before the gate reads the outputs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    layers = spans = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        spans = tracer.spans

    checked = []
    for call, res in zip(calls, results):
        try:
            failures = workload.check(call, res)
        except Exception as exc:  # a malformed report must count, not crash the run
            failures = [f"check raised {type(exc).__name__}: {exc}"]
        checked.append({"label": res.label, "failures": failures})

    print(json.dumps({
        "calls": checked,
        "wall_s": sum(r.wall_s for r in results),
        "setup_s": setup_s,
        "ref_s": ref_s,
        "peak_rss_mb": peak_rss_mb,
        "tracer_imported": "tracer" in sys.modules,
        "layers": layers,
        "spans": spans,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
