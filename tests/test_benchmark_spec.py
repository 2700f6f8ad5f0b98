"""The benchmark's declarations stay in step with the engine it traces."""

import importlib.util
import json
import re
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


def _declared_ops() -> set[str]:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    return {
        m["name"].removeprefix("tensor.calls.")
        for m in metrics
        if m["name"].startswith("tensor.calls.")
    }


def test_every_declared_op_count_names_an_engine_op():
    # A traced run reports a declared metric it cannot find as incorrect, so
    # deleting an engine op must come with deleting its declaration.
    declared = _declared_ops()
    assert declared
    assert declared - set(_tracing().engine_ops(tensor)) == set()


def test_every_engine_op_is_called_or_declared():
    # An op that no pipeline code calls and no benchmark declaration names
    # is dead code; a fused op must delete what it replaces.
    src = ROOT / "src" / "samdistill"
    called = {
        name
        for path in src.glob("*.py")
        for name in re.findall(r"\bT\.(\w+)\(", path.read_text(encoding="utf-8"))
    }
    dead = set(_tracing().engine_ops(tensor)) - called - _declared_ops()
    assert dead == set()
