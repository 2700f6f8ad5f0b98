"""Spans and engine op counts recorded from outside the samdistill package.

The tracer replaces public functions at every attribute where a caller
looks them up, including names bound with ``from ... import`` (such as
``probe.sam_tokenize`` or ``probe.adamw_step``), so the program itself is
never edited. Each wrapped call becomes a span with a name, start, end
and parent. Calls to public ``samdistill.tensor`` op functions are not
spans: each one creates exactly one graph node, so they are counted and
charged to the innermost open span. Spans stay in memory until the
benchmark writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "samdistill"

# The program's layers, in the order data flows through them.
LAYER_MODULES = ("scene", "tokenizer", "nn", "blobio", "stage1", "stage2", "train", "probe")

# Methods whose cost the per-layer metrics need but which no module-level
# function covers: (module, class, method).
TRACED_METHODS = (("tensor", "Tensor", "backward"), ("nn", "ModelParams", "copy"))

# Functions whose file traffic is recorded on the span: written files are
# measured after the call, read files before it.
WRITES = frozenset({"blobio.write_blob", "blobio.dump_manifest"})
READS = frozenset({"blobio.read_blob", "blobio.load_manifest"})

# The scene a teacher forward runs on, so repeated work on one scene shows.
KEYED = frozenset({"stage2.teacher_forward"})


class Span:
    __slots__ = (
        "index", "name", "parent", "root", "start", "end",
        "nodes", "child_s", "nbytes", "key", "ops",
    )

    def __init__(self, index: int, name: str, parent: "Span | None"):
        self.index = index
        self.name = name
        self.parent = parent
        self.root = self if parent is None else parent.root
        self.start = 0.0
        self.end = 0.0
        self.nodes = 0  # graph nodes created inside the span, children included
        self.child_s = 0.0
        self.nbytes = 0
        self.key = None
        self.ops: Counter | None = Counter() if parent is None else None

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s

    def to_json(self) -> list:
        parent = -1 if self.parent is None else self.parent.index
        return [self.index, parent, self.name, self.start, self.end, self.nodes]


def engine_ops(tensor_module) -> dict[str, object]:
    """Public op functions of the engine: those that record a graph node."""
    ops = {}
    for name, fn in vars(tensor_module).items():
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        if fn.__module__ == tensor_module.__name__ and "_node(" in inspect.getsource(fn):
            ops[name] = fn
    return ops


def _public_functions(module) -> dict[str, object]:
    return {
        name: fn
        for name, fn in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
    }


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Records spans under root spans that the benchmark opens itself."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.nodes += span.nodes
            span.parent.child_s += span.duration_s

    @contextmanager
    def root(self, name: str):
        """Open a root span, such as one workload call, outside any other span."""
        if self._stack:
            raise RuntimeError(f"root span {name!r} opened inside {self._stack[-1].name!r}")
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _span_wrapper(self, name: str, fn):
        measure_write, measure_read, keyed = name in WRITES, name in READS, name in KEYED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                if measure_read:
                    span.nbytes = _file_size(args[0] if args else kwargs["path"])
                if keyed:
                    span.key = id(args[0] if args else kwargs["bundle"])
                result = fn(*args, **kwargs)
                if measure_write:
                    span.nbytes = _file_size(args[0] if args else kwargs["path"])
                return result
            finally:
                self._close(span)

        return traced

    def _op_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack:
                self._stack[-1].nodes += 1
                self._stack[0].ops[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at each attribute that is bound to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        tensor = sys.modules[f"{PACKAGE}.tensor"]
        replacements: dict[int, object] = {}
        for layer in LAYER_MODULES:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for fname, fn in _public_functions(module).items():
                replacements[id(fn)] = self._span_wrapper(f"{layer}.{fname}", fn)
        for op, fn in engine_ops(tensor).items():
            replacements[id(fn)] = self._op_wrapper(op, fn)

        modules = [
            m for name, m in list(sys.modules.items()) if name.startswith(PACKAGE) and m is not None
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for layer, cls_name, method in TRACED_METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._span_wrapper(f"{layer}.{cls_name}.{method}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def to_json(self) -> list:
        return [s.to_json() for s in self.spans]


# ---------------------------------------------------------------------------
# Per-layer metrics

CALL_ROOT = "bench.call"
SETUP_ROOT = "bench.setup"


class _Totals:
    __slots__ = ("seconds", "self_seconds", "calls", "nodes", "nbytes")

    def __init__(self):
        self.seconds = self.self_seconds = 0.0
        self.calls = self.nodes = self.nbytes = 0


def per_layer_metrics(spans: list[Span], units: int, ops: list[str]) -> dict[str, float]:
    """Per-layer figures averaged over the traced workload calls.

    ``_ms`` is a span's total time per unit of work (a training scene-step,
    or one probe call), ``_calls`` is calls per workload call and
    ``_nodes`` is graph nodes per call of the span. Layers a workload does
    not exercise read 0.
    """
    calls = [s for s in spans if s.parent is None and s.name == CALL_ROOT]
    setups = [s for s in spans if s.parent is None and s.name == SETUP_ROOT]
    if not calls or not setups:
        raise ValueError("no traced workload call to summarize")
    n = len(calls)
    totals: dict[str, _Totals] = {}
    setup_totals: dict[str, _Totals] = {}
    teacher_keys: set = set()
    for s in spans:
        if s.parent is None:
            continue
        t = (totals if s.root.name == CALL_ROOT else setup_totals).setdefault(s.name, _Totals())
        t.seconds += s.duration_s
        t.self_seconds += s.self_s
        t.calls += 1
        t.nodes += s.nodes
        t.nbytes += s.nbytes
        if s.key is not None and s.root.name == CALL_ROOT:
            teacher_keys.add((s.root.index, s.key))

    def get(name: str) -> _Totals:
        return totals.get(name, _Totals())

    def ms(name: str) -> float:
        return get(name).seconds * 1e3 / (n * units)

    def per_call(name: str) -> float:
        return get(name).calls / n

    def nodes(name: str) -> float:
        t = get(name)
        return t.nodes / t.calls if t.calls else 0.0

    teacher_calls = get("stage2.teacher_forward").calls
    generate = setup_totals.get("scene.generate_dataset", _Totals())
    run_self = get("train.run_stage1").self_seconds + get("train.run_stage2").self_seconds
    m = {
        "tensor.nodes_per_step": sum(c.nodes for c in calls) / (n * units),
        "tensor.backward_ms": ms("tensor.Tensor.backward"),
    }
    for op in ops:
        m[f"tensor.calls.{op}"] = sum(c.ops[op] for c in calls) / n
    for fn in ("embed_tokens", "pos_embed", "encode", "decode"):
        m[f"nn.{fn}_ms"] = ms(f"nn.{fn}")
        m[f"nn.{fn}_nodes"] = nodes(f"nn.{fn}")
    m.update(
        {
            "nn.save_checkpoint_ms": ms("nn.save_checkpoint"),
            "nn.load_checkpoint_ms": ms("nn.load_checkpoint"),
            "nn.params_copy_calls": per_call("nn.ModelParams.copy"),
            "nn.params_copy_ms": ms("nn.ModelParams.copy"),
            "blobio.bytes_written": sum(get(f).nbytes for f in WRITES) / n,
            "blobio.bytes_read": sum(get(f).nbytes for f in READS) / n,
            "stage1.stage1_loss_ms": ms("stage1.stage1_loss"),
            "stage1.stage1_loss_nodes": nodes("stage1.stage1_loss"),
            "stage1.project_3d_ms": ms("stage1.project_3d"),
            "stage1.project_3d_nodes": nodes("stage1.project_3d"),
            "stage1.build_weight_table_ms": ms("stage1.build_weight_table"),
            "stage1.pool_features_ms": ms("stage1.pool_features_by_region"),
            "stage2.teacher_forward_ms": ms("stage2.teacher_forward"),
            "stage2.teacher_forward_calls": teacher_calls / n,
            "stage2.teacher_reuse": len(teacher_keys) / teacher_calls if teacher_calls else 0.0,
            "stage2.student_forward_ms": ms("stage2.student_forward"),
            "stage2.student_forward_nodes": nodes("stage2.student_forward"),
            "stage2.stage2_loss_ms": ms("stage2.stage2_loss"),
            "train.adamw_step_ms": ms("train.adamw_step"),
            "train.adamw_step_calls": per_call("train.adamw_step"),
            "train.grad_norm_ms": ms("train.grad_norm"),
            "train.run_self_ms": run_self * 1e3 / (n * units),
            "tokenizer.sam_tokenize_ms": ms("tokenizer.sam_tokenize"),
            "tokenizer.sam_tokenize_calls": per_call("tokenizer.sam_tokenize"),
            "probe.extract_features_ms": ms("probe.extract_features"),
            "probe.fit_linear_probe_ms": ms("probe.fit_linear_probe"),
            # Scene generation is set-up work, so it is per set-up.
            "scene.generate_dataset_ms": generate.seconds * 1e3 / len(setups),
        }
    )
    return m
