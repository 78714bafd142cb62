"""The traced benchmark wraps varcycle functions by name and reads fields of
their results; a function or field it uses that is renamed or deleted would
fail only the traced runs."""

import dataclasses
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import varcycle
import varcycle.cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    tracer = load_tracer()
    assert tracer.TARGETS
    for module_name, func_name in tracer.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"


def test_tracer_counter_arguments_and_fields():
    # _residual reads verify_decomposition's M as args[0] or kwargs["M"];
    # _mc reads mc_cross_covariance's reps as kwargs["reps"] or args[5];
    # _limit reads LimitReport.truncation_terms
    residual = list(inspect.signature(varcycle.verify_decomposition).parameters)
    assert residual[0] == "M"
    mc = list(inspect.signature(varcycle.mc_cross_covariance).parameters)
    assert mc.index("reps") == 5
    assert "truncation_terms" in {f.name for f in dataclasses.fields(varcycle.LimitReport)}


def test_package_names_unique_and_resolve():
    assert len(varcycle.__all__) == len(set(varcycle.__all__))
    for name in varcycle.__all__:
        assert hasattr(varcycle, name), name


def test_traced_subcommands_fill_every_layer(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 3, "alpha": 0.1, "beta": 0.9,
                                  "a": [0.2, 0.3, 0.5], "b": [0.4, 0.4, 0.2],
                                  "run": {"T": 50, "seed": 3}}))
    # the paper's benchmark: complex regime, where no Q exists to read
    benchmark = tmp_path / "benchmark.json"
    benchmark.write_text(json.dumps({"n": 3, "alpha": 1.09804, "beta": 0.7,
                                     "a": [1.0 / 3] * 3, "b": [1.0 / 3] * 3}))
    uniform = tmp_path / "uniform.json"
    uniform.write_text(json.dumps({"n": 3, "alpha": 0.1, "beta": 0.9,
                                   "a": [1.0 / 3] * 3, "b": [1.0 / 3] * 3}))
    calls = [
        ["decompose", "--config", str(uniform), "--dump-matrices", str(tmp_path / "mats")],
        ["verify", "--config", str(config)],
        ["simulate", "--config", str(config), "--method", "both",
         "--out", str(tmp_path / "traj.csv")],
        ["moments", "--config", str(config), "--mc-reps", "4"],
        ["cycle", "--analyze", "--T", "100", "--out", str(tmp_path / "cycle.csv")],
        ["moments", "--config", str(benchmark), "--mc-reps", "4"],
        ["simulate", "--config", str(benchmark), "--T", "50", "--method", "both",
         "--out", str(tmp_path / "bench.csv")],
    ]
    tracer = load_tracer().Tracer(run_id="bindings")
    tracer.install()
    try:
        codes = [tracer.root(varcycle.cli.main, argv) for argv in calls]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(calls)
    layers = tracer.layer_metrics()
    for counter in ("model.build_calls", "spectral.residual_flops", "simulate.noise_calls",
                    "moments.mc_reps", "cycle.steps"):
        assert layers[counter] > 0, counter
