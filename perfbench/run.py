"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload s1-b1 --seed 0 --seconds 30 --trace 0

Run from the repository root. The program is imported from ``src/`` of
the same checkout. The run repeats set-up, one public call and the
output checks until ``--seconds`` have passed, cycling through the
workload's datasets (seeds ``seed * datasets + j``), covering each at
least once and one twice. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced calls on the same dataset
and reports the per-layer metrics plus the tracing overhead. Untraced
times are scaled to nominal machine speed by a reference computation
timed around each call (``machine.py``). The last
line of standard output is the result object; the line before it holds
the environment and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from machine import NOMINAL_S, reference_s
from tracing import Tracer, engine_ops, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def import_program():
    """Import samdistill from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import samdistill
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import samdistill from {src}: {exc}")
    if Path(samdistill.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: samdistill came from {samdistill.__file__}, not {src}")
    return samdistill


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def git_state() -> dict:
    """HEAD and a dirty flag, or nulls when the checkout is not a git work tree."""
    top = _git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT:
        return {"head": None, "dirty": None}
    status = _git("status", "--porcelain")
    return {"head": _git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git": git_state(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timing_summary(samples: list[float]) -> dict:
    """Sample count, quartiles and the highest percentile with ten samples above it."""
    out: dict = {"n": len(samples)}
    if len(samples) >= 2:
        q1, q2, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, median=q2, q3=q3)
    if len(samples) > 10:
        pct = 100 * (len(samples) - 10) // len(samples)
        out[f"p{pct}"] = statistics.quantiles(samples, n=100)[pct - 1]
    return out


class Run:
    """Repeated set-up, call and check of one workload, with their timings."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer() if trace else None
        self.work = OUT / f"work-{os.getpid()}"
        # Untraced times scaled to nominal machine speed (see machine.py),
        # then the raw times and the reference they were scaled by.
        self.setup_s: list[float] = []
        self.wall_s: list[float] = []
        self.raw_setup_s: list[float] = []
        self.raw_wall_s: list[float] = []
        self.reference_s: list[float] = []
        self.pairs: dict[int, list] = {}  # trace mode: pair index -> [untraced, traced] wall
        self.first: dict[int, object] = {}  # dataset index -> Outcome of its first call
        self.attempted = 0
        self.failed = 0

    def data_seed(self, j: int) -> int:
        return self.seed * self.w.datasets + j

    def execute(self) -> None:
        # Untraced runs cover every dataset and repeat one, so the
        # bit-identity check always has a pair; traced runs need only a
        # few (untraced, traced) pairs on the same dataset.
        per_dataset = 2 if self.trace else 1
        min_calls = 4 if self.trace else self.w.datasets + 1
        deadline = time.perf_counter() + self.seconds
        i = 0
        try:
            while i < min_calls or time.perf_counter() < deadline or i % per_dataset:
                self.attempted += 1
                dataset = (i // per_dataset) % self.w.datasets
                if not self._one(i, dataset, traced=self.trace and i % 2 == 1):
                    self.failed += 1
                i += 1
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _one(self, i: int, j: int, traced: bool) -> bool:
        rep = self.work / f"call{i}"
        inputs_dir, out_dir = rep / "inputs", rep / "run"
        inputs_dir.mkdir(parents=True)
        try:
            if traced:
                with self.tracer.installed():
                    with self.tracer.root("bench.setup"):
                        inputs = self.w.setup(self.data_seed(j), inputs_dir)
                    with self.tracer.root("bench.call"):
                        t0 = time.perf_counter()
                        result = self.w.call(inputs, out_dir)
                        wall = time.perf_counter() - t0
            else:
                before = reference_s()
                t0 = time.perf_counter()
                inputs = self.w.setup(self.data_seed(j), inputs_dir)
                t1 = time.perf_counter()
                result = self.w.call(inputs, out_dir)
                wall = time.perf_counter() - t1
                reference = (before + reference_s()) / 2
                self.raw_setup_s.append(t1 - t0)
                self.raw_wall_s.append(wall)
                self.reference_s.append(reference)
                self.setup_s.append((t1 - t0) * NOMINAL_S / reference)
                self.wall_s.append(wall * NOMINAL_S / reference)
            if self.trace:
                self.pairs.setdefault(i // 2, [None, None])[int(traced)] = wall
            outcome = self.w.check(inputs, result, out_dir)
            earlier = self.first.setdefault(j, outcome)
            if earlier.fingerprint != outcome.fingerprint or earlier.quality != outcome.quality:
                outcome.failures.append(
                    f"dataset {self.data_seed(j)}: result differs from the first call"
                )
            for failure in outcome.failures:
                print(f"perfbench: {self.w.name} call {i}: {failure}", file=sys.stderr)
            return not outcome.failures
        except Exception:
            print(f"perfbench: {self.w.name} call {i} raised:", file=sys.stderr)
            traceback.print_exc()
            return False
        finally:
            shutil.rmtree(rep, ignore_errors=True)

    def quality(self) -> dict[str, float]:
        outcomes = list(self.first.values())
        return {k: statistics.fmean(o.quality[k] for o in outcomes) for k in outcomes[0].quality}

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_s),
            "wall_s": statistics.median(self.wall_s),
            "scene_steps_per_s": statistics.median(self.w.scene_steps / s for s in self.wall_s),
            "peak_rss_mb": peak_rss_mb(),
            **self.quality(),
        }

    def per_layer(self, ops: list[str]) -> dict[str, float]:
        m = per_layer_metrics(self.tracer.spans, self.w.units, ops)
        diffs = [t - u for u, t in self.pairs.values() if u is not None and t is not None]
        if diffs:
            m["trace.overhead_s"] = statistics.median(diffs)
        return m

    def samples(self) -> dict:
        return {
            "setup_s": timing_summary(self.setup_s),
            "wall_s": timing_summary(self.wall_s),
            "raw_setup_s": timing_summary(self.raw_setup_s),
            "raw_wall_s": timing_summary(self.raw_wall_s),
            "reference_s": timing_summary(self.reference_s),
            "traced_calls": sum(1 for s in self.tracer.spans if s.name == "bench.call")
            if self.trace
            else 0,
            "datasets": [self.data_seed(j) for j in sorted(self.first)],
        }


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    program = import_program()
    from workloads import WORKLOADS

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    run.execute()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {}
    if args.trace and any(s.name == "bench.call" for s in run.tracer.spans):
        values = run.per_layer(sorted(engine_ops(program.tensor)))
    elif not args.trace and len(run.first) == run.w.datasets:
        values = run.end_to_end()
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in values
    }
    correct = run.failed == 0 and len(metrics) == len(declared)

    detail = {"env": environment(args.seed), "workload": args.workload, "samples": run.samples()}
    if args.trace:
        OUT.mkdir(parents=True, exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({**detail, "spans": run.tracer.to_json()}, fh)
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
