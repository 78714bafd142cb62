"""The traced benchmark wraps varcycle functions by name; a function it
names that is renamed or deleted would fail only the traced runs."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, func_name in tracer.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"
