"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs from one dataset seed (``setup``), makes
one call into the package's public entry points (``call``) and checks
what the call produced (``check``). Seed 0 gives the acceptance datasets:
the balanced scene family with held-out scenes at seed + 1_000_003.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from samdistill import nn, probe, scene, train

# The balanced scene family of the acceptance criteria (c5, c6, c8).
SPEC_BALANCED = scene.SceneSpec(
    n_objects=12,
    seed=0,
    imbalance_exponent=0.7,
    n_types=4,
    points_per_object_range=(110, 160),
    depth_levels=2,
)
HELDOUT_SEED_OFFSET = 1_000_003

# Reported where a quality metric has no meaning for the workload, so that
# every workload prints every metric; 1.0 is never a measured value there.
NOT_APPLICABLE = 1.0


@dataclass
class Outcome:
    """What the checks of one call found."""

    quality: dict[str, float]
    fingerprint: str  # equal across calls on one dataset when runs are bit-identical
    failures: list[str] = field(default_factory=list)


def _scalar_metrics_finite(metrics: dict) -> list[str]:
    """Scalar entries only: per-group lists hold NaN for groups absent from held-out scenes."""
    return [
        f"metric {k} = {v!r} is not finite"
        for k, v in metrics.items()
        if isinstance(v, float) and not math.isfinite(v)
    ]


def _read_metrics(out_dir: Path) -> dict:
    with open(out_dir / "metrics.json", encoding="utf-8") as fh:
        return json.load(fh)


def _check_run(
    metrics: dict, ckpt_dir: Path, steps: int, initial: str, final: str
) -> tuple[float, str, list[str]]:
    """Checks shared by both training stages; returns the loss ratio and checkpoint hash."""
    failures = _scalar_metrics_finite(metrics)
    if metrics["steps"] != steps:
        failures.append(f"run made {metrics['steps']} steps, expected {steps}")
    ratio = metrics[final] / metrics[initial]
    if not ratio < 1.0:
        failures.append(f"loss ratio {ratio!r} is not below 1")
    ckpt = nn.load_checkpoint(ckpt_dir)
    if ckpt.step != steps or ckpt.opt_state is None or ckpt.opt_state["t"] != steps:
        failures.append(f"checkpoint at step {ckpt.step}, expected {steps}")
    return ratio, ckpt.params.byte_hash(), failures


class Stage1Workload:
    name = "s1-b1"
    why = "stage-1 run, one AdamW step per scene and the per-region loss loop: engine and optimizer"
    epochs = 3
    n_train, n_heldout = 16, 6
    datasets = 16

    @property
    def scene_steps(self) -> int:
        """Training scene forward/backward passes per call."""
        return self.epochs * self.n_train

    units = scene_steps  # per-layer times are per training scene-step

    def setup(self, data_seed: int, work: Path) -> dict:
        return {
            "seed": data_seed,
            "train": scene.generate_dataset(SPEC_BALANCED, self.n_train, data_seed),
            "heldout": scene.generate_dataset(
                SPEC_BALANCED, self.n_heldout, data_seed + HELDOUT_SEED_OFFSET
            ),
        }

    def call(self, inputs: dict, out_dir: Path):
        cfg = train.TrainConfig(
            epochs=self.epochs, warmup_epochs=1, batch_size=1, seed=inputs["seed"]
        )
        return train.run_stage1(
            inputs["train"],
            inputs["heldout"],
            nn.Arch(),
            cfg,
            train.Stage1Config(k_groups=6),
            out_dir,
        )

    def check(self, inputs: dict, result, out_dir: Path) -> Outcome:
        metrics = _read_metrics(out_dir)
        ratio, digest, failures = _check_run(
            metrics, result.checkpoint_dir, self.scene_steps, "initial_loss", "final_loss"
        )
        quality = {
            "loss_ratio": ratio,
            "heldout_cosine": metrics["heldout_cosine_mean"],
            "probe_accuracy": NOT_APPLICABLE,
        }
        return Outcome(quality, digest, failures)


class Stage2Workload:
    name = "s2-b8"
    why = "stage-2 run, one step per 8 scenes; the frozen teacher forward is half of each forward"
    epochs = 8
    n_train, n_heldout = 8, 6
    datasets = 16

    @property
    def scene_steps(self) -> int:
        return self.epochs * self.n_train

    units = scene_steps  # per-layer times are per training scene-step

    def setup(self, data_seed: int, work: Path) -> dict:
        # Teacher cost depends only on shapes, so a seeded untrained teacher
        # stands in for a stage-1 checkpoint.
        teacher = nn.init_params(nn.Arch(), data_seed)
        teacher.freeze_all()
        teacher_dir = work / "teacher"
        nn.save_checkpoint(teacher_dir, teacher, 0)
        return {
            "seed": data_seed,
            "train": scene.generate_dataset(SPEC_BALANCED, self.n_train, data_seed),
            "heldout": scene.generate_dataset(
                SPEC_BALANCED, self.n_heldout, data_seed + HELDOUT_SEED_OFFSET
            ),
            "teacher": teacher_dir,
        }

    def call(self, inputs: dict, out_dir: Path):
        cfg = train.TrainConfig(
            epochs=self.epochs, warmup_epochs=1, batch_size=8, seed=inputs["seed"]
        )
        return train.run_stage2(
            inputs["train"],
            inputs["heldout"],
            inputs["teacher"],
            cfg,
            train.Stage2Config(mask_ratio=0.6),
            out_dir,
        )

    def check(self, inputs: dict, result, out_dir: Path) -> Outcome:
        metrics = _read_metrics(out_dir)
        steps = self.epochs * math.ceil(self.n_train / 8)
        ratio, digest, failures = _check_run(
            metrics, result.checkpoint_dir, steps, "initial_l_final", "final_l_final"
        )
        if metrics["teacher_hash_unchanged"] is not True:
            failures.append("teacher parameters changed during the run")
        quality = {
            "loss_ratio": ratio,
            "heldout_cosine": metrics["heldout_instance_cosine"],
            "probe_accuracy": NOT_APPLICABLE,
        }
        return Outcome(quality, digest, failures)


class ProbeWorkload:
    name = "probe-c8"
    why = "probe of a scratch encoder: tokenize, load a checkpoint, graph-free forward, small fit"
    probe_epochs = 300
    n_train, n_test = 8, 5
    datasets = 48

    units = 1  # per-layer times are per probe call

    @property
    def scene_steps(self) -> int:
        """Scenes the frozen encoder runs on per call; there is no training step."""
        return self.n_train + self.n_test

    def setup(self, data_seed: int, work: Path) -> dict:
        encoder_dir = work / "encoder"
        nn.save_checkpoint(encoder_dir, nn.init_params(nn.Arch(), data_seed), 0)
        return {
            "seed": data_seed,
            "train": scene.generate_dataset(SPEC_BALANCED, self.n_train, data_seed),
            "test": scene.generate_dataset(
                SPEC_BALANCED, self.n_test, data_seed + HELDOUT_SEED_OFFSET
            ),
            "encoder": encoder_dir,
        }

    def call(self, inputs: dict, out_dir: Path):
        return probe.linear_probe(
            inputs["encoder"],
            inputs["train"],
            inputs["test"],
            epochs=self.probe_epochs,
            seed=inputs["seed"],
            encoder_tag=probe.ENCODER_SCRATCH,
        )

    def check(self, inputs: dict, result, out_dir: Path) -> Outcome:
        failures = []
        if not 0.0 <= result.accuracy <= 1.0:
            failures.append(f"accuracy {result.accuracy!r} outside [0, 1]")
        if result.n_tokens < 1:
            failures.append("probe scored no tokens")
        encoder = nn.load_checkpoint(inputs["encoder"]).params
        expected = nn.init_params(nn.Arch(), inputs["seed"]).byte_hash()
        if encoder.byte_hash() != expected:
            failures.append("encoder checkpoint does not hold the seeded parameters")
        quality = {
            "loss_ratio": NOT_APPLICABLE,
            "heldout_cosine": NOT_APPLICABLE,
            "probe_accuracy": result.accuracy,
        }
        digest = json.dumps(result.to_json(), sort_keys=True)
        return Outcome(quality, digest, failures)


WORKLOADS = {w.name: w for w in (Stage1Workload(), Stage2Workload(), ProbeWorkload())}
