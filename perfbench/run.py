"""varcycle benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports varcycle from ``src/``.  Each
operation runs in a fresh worker process (``worker.py``) with the BLAS
thread count capped at ``BLAS_THREADS``; the worker calls
``varcycle.cli.main`` on inputs generated from the seed and checks the
outputs.  Operations repeat while the next one should end within S
seconds, and each metric is the median over them.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced operations on the same inputs
and reports the per-layer metrics; the spans go to
``.perfbench_out/trace-<workload>-seed<N>.jsonl``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` and ``failed``
count CLI calls, so fail_frac is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# a run ends within this many seconds even if an operation hangs
RUN_LIMIT_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(dict.fromkeys(BLAS_VARS, str(BLAS_THREADS)))
    return env


def run_op(workload: str, seed: int, op: int, traced: bool, workdir: Path,
           timeout: float) -> tuple[dict | None, str | None]:
    """Run one operation in a fresh worker; return its result or an error."""
    opdir = workdir / f"op{op}{'t' if traced else 'u'}"
    opdir.mkdir()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--op", str(op), "--dir", str(opdir)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd + ["--spawn-ns", str(time.monotonic_ns())], cwd=opdir,
                              env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    finally:
        shutil.rmtree(opdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"worker exited {proc.returncode}: {tail[0]}"
    return json.loads(lines[-1]), None


def git_rev() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unavailable"
    return lines[1]


def src_summary() -> tuple[int, str]:
    """Line count and content hash of the package sources."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()[:16]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    parser = argparse.ArgumentParser(description="varcycle benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "varcycle" / "cli.py").is_file():
        print(f"error: no varcycle sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    import workloads

    n_calls = len(workloads.WORKLOADS[args.workload].labels)
    traced_modes = (False, True) if args.trace else (False,)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    start = time.monotonic()
    pairs: list[dict[bool, dict | None]] = []
    errors: list[str] = []
    pair_s = 0.0
    try:
        # start another operation only if it should end within --seconds
        while not pairs or time.monotonic() - start + pair_s <= args.seconds:
            pair_start = time.monotonic()
            pair: dict[bool, dict | None] = {}
            # alternate which side of a traced pair runs first
            for traced in traced_modes if len(pairs) % 2 == 0 else traced_modes[::-1]:
                left = RUN_LIMIT_S - (time.monotonic() - start)
                if left < 5:
                    break
                pair[traced], err = run_op(args.workload, args.seed, len(pairs), traced,
                                           workdir, left)
                if err:
                    errors.append(err)
            if len(pair) < len(traced_modes):
                break
            pairs.append(pair)
            pair_s = time.monotonic() - pair_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    elapsed = time.monotonic() - start

    results = [r for pair in pairs for r in pair.values()]
    attempted = len(results) * n_calls
    failed = 0
    for r in results:
        if r is None:
            failed += n_calls
            continue
        for call in r["calls"]:
            if call["failures"]:
                failed += 1
                errors.append(f"{call['label']}: {'; '.join(call['failures'])}")
    untraced = [p[False] for p in pairs if p.get(False)]
    traced = [p[True] for p in pairs if p.get(True)]
    if not untraced or (args.trace and not traced):
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        print("error: no operation completed", file=sys.stderr)
        return 1

    samples: dict[str, list[float]] = {}
    if args.trace:
        for r in traced:
            for key, value in r["layers"].items():
                samples.setdefault(key, []).append(value)
        samples["trace.overhead_s"] = [p[True]["wall_s"] - p[False]["wall_s"]
                                       for p in pairs if p.get(True) and p.get(False)]
        declared = bench["per_layer"]
    else:
        samples["wall_ref"] = [r["wall_s"] / r["ref_s"] for r in untraced]
        samples["setup_s"] = [r["setup_s"] for r in untraced]
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in untraced]
        declared = bench["end_to_end"]
    # printed for reading, not reported: raw wall time drifts with host speed
    unreported = {"wall_s": [r["wall_s"] for r in untraced],
                  "ref_s": [r["ref_s"] for r in untraced]}

    lines, digest = src_summary()
    first = untraced[0]
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": round(elapsed, 3), "ops": len(pairs), "git_rev": git_rev(),
        "src_lines": lines, "src_sha256": digest, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "python": first["python"], "numpy": first["numpy"], "platform": platform.platform(),
    }
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for r in traced:
                for span in r["spans"]:
                    fh.write(json.dumps(span) + "\n")
        meta["trace_file"] = str(trace_path.relative_to(ROOT))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(pairs)} ops in {elapsed:.1f} s")
    rows = [(m["name"], m["unit"], samples[m["name"]]) for m in declared]
    rows += [(name, "s", values) for name, values in unreported.items()]
    for name, unit, values in rows:
        q1, med, q3 = quartiles(values)
        print(f"  {name:<26} {med:<14.6g} {unit:<7} "
              f"(median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g})")
    print(f"  {'fail_frac':<26} {failed / attempted:<14.6g} {'1':<7} "
          f"({failed} of {attempted} calls)")
    for err in errors:
        print(f"  failure: {err}")
    print("meta " + json.dumps(meta))
    metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
