"""The benchmark's declarations stay in step with the engine it traces."""

import importlib.util
import json
from pathlib import Path

from samdistill import tensor

ROOT = Path(__file__).resolve().parents[1]


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_declared_op_count_names_an_engine_op():
    # A traced run reports a declared metric it cannot find as incorrect, so
    # deleting an engine op must come with deleting its declaration.
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    declared = {
        m["name"].removeprefix("tensor.calls.")
        for m in metrics
        if m["name"].startswith("tensor.calls.")
    }
    assert declared
    assert declared - set(_tracing().engine_ops(tensor)) == set()
