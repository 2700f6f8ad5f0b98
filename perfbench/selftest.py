"""Checks on the benchmark itself: output contract, span coverage and exact counts.

    python3 perfbench/selftest.py

Run from the repository root; it takes about four minutes on 2 cores.
Each workload runs as its own process with a one-second budget, which
still covers every dataset of the workload (two call pairs when traced).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from functools import lru_cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that must be non-zero on the workload that does that
# layer's work; a zero means a wrapper missed the binding callers use.
MOST_WORK = {
    "s1-b1": [
        "tensor.nodes_per_step",
        "tensor.backward_ms",
        "nn.embed_tokens_ms",
        "nn.embed_tokens_nodes",
        "nn.pos_embed_ms",
        "nn.pos_embed_nodes",
        "nn.encode_ms",
        "nn.encode_nodes",
        "stage1.stage1_loss_ms",
        "stage1.stage1_loss_nodes",
        "stage1.project_3d_ms",
        "stage1.project_3d_nodes",
        "stage1.build_weight_table_ms",
        "stage1.pool_features_ms",
        "train.adamw_step_ms",
        "train.adamw_step_calls",
        "train.grad_norm_ms",
        "train.run_self_ms",
        "scene.generate_dataset_ms",
    ],
    "s2-b8": [
        "tensor.nodes_per_step",
        "tensor.backward_ms",
        "nn.decode_ms",
        "nn.decode_nodes",
        "nn.save_checkpoint_ms",
        "nn.load_checkpoint_ms",
        "nn.params_copy_calls",
        "nn.params_copy_ms",
        "blobio.bytes_written",
        "blobio.bytes_read",
        "stage2.teacher_forward_ms",
        "stage2.teacher_forward_calls",
        "stage2.teacher_reuse",
        "stage2.student_forward_ms",
        "stage2.student_forward_nodes",
        "stage2.stage2_loss_ms",
        "scene.generate_dataset_ms",
    ],
    "probe-c8": [
        "nn.load_checkpoint_ms",
        "blobio.bytes_read",
        "tokenizer.sam_tokenize_ms",
        "tokenizer.sam_tokenize_calls",
        "probe.extract_features_ms",
        "probe.fit_linear_probe_ms",
        "scene.generate_dataset_ms",
    ],
}


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@lru_cache(maxsize=None)
def result(workload: str, seed: int, trace: int) -> dict:
    proc = run_bench(workload, seed, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def values(workload: str, seed: int, trace: int) -> dict[str, float]:
    return {k: v["value"] for k, v in result(workload, seed, trace)["metrics"].items()}


class OutputContract(unittest.TestCase):
    def test_result_lists_every_declared_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    r = result(w["name"], 0, trace)
                    self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    if trace == 0:
                        self.assertGreater(r["attempted"], WORKLOADS[w["name"]].datasets)
                    self.assertEqual({k: v["unit"] for k, v in r["metrics"].items()}, declared)

    def test_workloads_match_the_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))

    def test_second_seed_runs_clean(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                r = result(name, 7, 0)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                for metric, v in values(name, 7, 0).items():
                    self.assertTrue(math.isfinite(v) and v != 0, f"{metric} = {v}")

    def test_fails_without_the_program(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (bare / "perfbench").mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for f in HERE.glob("*.py"):
                shutil.copy(f, bare / "perfbench")
            proc = run_bench("s1-b1", 0, 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class Tracing(unittest.TestCase):
    def test_every_span_fires_on_its_busiest_workload(self):
        for workload, names in MOST_WORK.items():
            v = values(workload, 0, 1)
            for name in names:
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(v[name], 0)

    def test_every_engine_op_is_counted_somewhere(self):
        ops = [m["name"] for m in SPEC["per_layer"] if m["name"].startswith("tensor.calls.")]
        for name in ops:
            with self.subTest(metric=name):
                self.assertTrue(any(values(w, 0, 1)[name] > 0 for w in WORKLOADS), name)

    def test_stage1_nodes_per_scene_step(self):
        v = values("s1-b1", 0, 1)
        expected = {
            "nn.embed_tokens_nodes": 73,
            "nn.pos_embed_nodes": 5,
            "nn.encode_nodes": 142,
            "stage1.project_3d_nodes": 2,
            "stage1.stage1_loss_nodes": 48,
        }
        self.assertEqual({k: v[k] for k in expected}, expected)

    def test_bindings_made_by_from_import_are_traced(self):
        s1, probe = values("s1-b1", 0, 1), values("probe-c8", 0, 1)
        w1, wp = WORKLOADS["s1-b1"], WORKLOADS["probe-c8"]
        # train.sam_tokenize: every training scene, then every held-out scene.
        self.assertEqual(s1["tokenizer.sam_tokenize_calls"], w1.n_train + w1.n_heldout)
        self.assertEqual(s1["train.adamw_step_calls"], w1.scene_steps)
        # probe.sam_tokenize and probe.adamw_step.
        self.assertEqual(probe["tokenizer.sam_tokenize_calls"], wp.n_train + wp.n_test)
        self.assertEqual(probe["train.adamw_step_calls"], wp.probe_epochs)

    def test_teacher_forward_calls(self):
        w = WORKLOADS["s2-b8"]
        v = values("s2-b8", 0, 1)
        # E*8 training calls, 16 each for the initial and final train evals,
        # 12 for the held-out eval.
        self.assertEqual(v["stage2.teacher_forward_calls"], 8 * w.epochs + 44)
        self.assertEqual(v["stage2.teacher_reuse"], (w.n_train + w.n_heldout) / (8 * w.epochs + 44))


if __name__ == "__main__":
    unittest.main(verbosity=2)
