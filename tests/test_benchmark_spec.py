"""The benchmark's declarations stay in step with the engine it traces."""

import importlib.util
import json
import re
from pathlib import Path

# The tracer wraps every layer module, so each must be imported; train imports the rest.
from samdistill import nn, probe, tensor, train  # noqa: F401 (probe)

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


def test_traced_blobio_bytes_are_the_artifact_size(tmp_path, tiny_arch):
    # The tracer finds blobio's file traffic by function name, so a rename
    # would zero blobio.bytes_written and blobio.bytes_read without a failure.
    tracing = _tracing()
    tracer = tracing.Tracer()
    params = nn.init_params(tiny_arch, seed=0)
    path = tmp_path / "ckpt"
    with tracer.installed(), tracer.root(tracing.CALL_ROOT):
        nn.save_checkpoint(path, params, 3, train.init_opt_state(params))
        nn.load_checkpoint(path)
    writes = [s for s in tracer.spans if s.name in tracing.WRITES]
    reads = [s for s in tracer.spans if s.name in tracing.READS]
    assert [s.name for s in writes] == ["blobio.write_blob"]
    assert [s.name for s in reads] == ["blobio.read_blob"]
    assert writes[0].nbytes == reads[0].nbytes == path.stat().st_size > 0
