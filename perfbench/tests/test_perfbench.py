"""Tests of the benchmark itself: metric names, the correctness gate and the
tracer.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import gate  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from varcycle import cli  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(workload, call, tracer=None):
    return worker.invoke(cli.main, call, tracer)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# metric names and emission

def test_metric_and_workload_names_are_valid_and_unique():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_setup_metric_has_the_largest_bound():
    e2e = {m["name"]: m for m in BENCH["end_to_end"]}
    setup = e2e["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(m["bound"] <= setup["bound"] <= 0.25 for m in e2e.values())


def test_tracer_emits_exactly_the_declared_layer_metrics():
    emitted = set(tracer_mod.Tracer("names").layer_metrics()) | {"trace.overhead_s"}
    assert emitted == {m["name"] for m in BENCH["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_run_emits_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_untraced_worker_does_not_import_the_tracer(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", "cycle_long",
         "--seed", "1", "--op", "0", "--dir", str(tmp_path), "--spawn-ns", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["tracer_imported"] is False and result["layers"] is None


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cycle_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ---------------------------------------------------------------------------
# correctness gate on real outputs, then on corrupted copies

def test_gate_passes_real_outputs(tmp_path):
    for workload in (workloads.CycleLong(T=4000), workloads.PanelWide(n=6, T=60),
                     workloads.PanelLong(T=300), workloads.CovarianceMc(n=3, mc_reps=400)):
        for call in workload.calls(seed=3, op=0, workdir=tmp_path):
            assert workload.check(call, _run(workload, call)) == [], workload.name


def test_gate_fails_on_a_nan_token(tmp_path):
    workload = workloads.CycleLong(T=4000)
    (call,) = workload.calls(seed=3, op=1, workdir=tmp_path)
    result = _run(workload, call)
    doc = json.loads(result.stdout)
    result.stdout = result.stdout.replace(
        json.dumps(doc["payload"]["estimated_period"]), "NaN", 1)
    assert "NaN" in result.stdout
    assert any("strict JSON" in f for f in workload.check(call, result))


def test_gate_fails_on_a_csv_one_row_short(tmp_path):
    for workload in (workloads.CycleLong(T=4000), workloads.PanelLong(T=300)):
        (call,) = workload.calls(seed=3, op=2, workdir=tmp_path)
        result = _run(workload, call)
        path = Path(call.outputs[-1])
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        assert any("rows" in f for f in workload.check(call, result)), workload.name


def test_gate_fails_on_an_mc_entry_shifted_by_ten_se(tmp_path):
    workload = workloads.CovarianceMc(n=3, mc_reps=400)
    (call,) = workload.calls(seed=3, op=3, workdir=tmp_path)
    result = _run(workload, call)
    doc = json.loads(result.stdout)
    entry = doc["payload"]["grid"][2]
    entry["mc_estimate"][1][4] += 10.0 * entry["mc_se"][1][4]
    result.stdout = json.dumps(doc)
    failures = workload.check(call, result)
    assert any("Monte Carlo entries" in f for f in failures), failures


def test_gate_fails_on_exit_code_traceback_and_runtime_warning():
    ok = workloads.CallResult("x", 0, "{}", "", [], 0.1)
    assert gate.report_failures(ok)[1] == []
    bad_exit = workloads.CallResult("x", 2, "{}", "error: ConfigError: no", [], 0.1)
    assert gate.report_failures(bad_exit)[1]
    tb = workloads.CallResult("x", 0, "{}", "Traceback (most recent call last):\n", [], 0.1)
    assert gate.report_failures(tb)[1]
    warned = workloads.CallResult("x", 0, "{}", "", ["overflow encountered"], 0.1)
    assert gate.report_failures(warned)[1]


def test_bonferroni_threshold_separates_noise_from_a_ten_se_shift():
    z = gate.bonferroni_z(9600)
    assert 4.0 < z < 10.0


# ---------------------------------------------------------------------------
# tracer

def _varcycle_bindings() -> dict:
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "varcycle" or name.startswith("varcycle.")
            for attr, value in vars(module).items() if callable(value)}


def test_tracer_wraps_every_binding_and_restores_the_originals(tmp_path):
    import varcycle.moments
    import varcycle.simulate

    before = _varcycle_bindings()
    original = varcycle.simulate.sample_noise_path
    tracer = tracer_mod.Tracer("restore")
    tracer.install()
    try:
        # the defining module, the name cli binds, and the name moments binds
        assert varcycle.simulate.sample_noise_path is not original
        assert cli.sample_noise_path is varcycle.simulate.sample_noise_path
        assert varcycle.moments.sample_noise_path.__wrapped__ is original
        workload = workloads.PanelLong(n=2, T=20)
        (call,) = workload.calls(seed=1, op=0, workdir=tmp_path)
        assert _run(workload, call, tracer).exit_code == 0
    finally:
        tracer.uninstall()
    after = _varcycle_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = [s["name"] for s in tracer.spans]
    assert names.count(tracer_mod.ROOT) == 1
    assert {"simulate.simulate_recursive", "simulate.simulate_explicit",
            "cli.trajectory_csv", "cli.atomic_write"} <= set(names)
    root = next(s["id"] for s in tracer.spans if s["name"] == tracer_mod.ROOT)
    assert all(s["parent"] == root for s in tracer.spans
               if s["name"] == "simulate.simulate_recursive")
    metrics = tracer.layer_metrics()
    assert metrics["simulate.steps"] == 40
    assert metrics["simulate.recursive_flops"] == 20 * 2 * 4 * 4
    assert 0.0 < metrics["trace.coverage"] <= 1.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        {"id": 1, "name": "a", "start_ns": 0, "end_ns": 100, "parent": None},
        {"id": 2, "name": "b", "start_ns": 10, "end_ns": 60, "parent": 1},
        {"id": 3, "name": "c", "start_ns": 20, "end_ns": 30, "parent": 2},
        {"id": 4, "name": "d", "start_ns": 70, "end_ns": 90, "parent": 1},
    ]
    assert tracer_mod.self_times(spans) == {1: 30, 2: 40, 3: 10, 4: 20}
