"""Ablation matrix execution and reporting.

Cells cross {tokenizer: sam|knn} x {reweight: on|off} x {stage2: on|off}
plus a scratch-encoder baseline row. Every number in the report is read
back from the per-run metrics files, so reports are recomputable from
persisted artifacts alone.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import blobio, nn, probe
from . import train as train_mod
from .errors import InvalidInputError
from .scene import SceneSpec, generate_dataset
from .tokenizer import MODE_KNN, MODE_SAM


@dataclass(frozen=True)
class PipelineConfig:
    """One config object drives the whole pipeline; JSON file mirrors this shape."""

    seed: int = 0
    n_train_scenes: int = 12
    n_eval_scenes: int = 6
    scene: SceneSpec = field(default_factory=lambda: SceneSpec(n_objects=4))
    arch: nn.Arch = field(default_factory=nn.Arch)
    train: train_mod.TrainConfig = field(default_factory=train_mod.TrainConfig)
    stage1: train_mod.Stage1Config = field(default_factory=train_mod.Stage1Config)
    stage2: train_mod.Stage2Config = field(default_factory=train_mod.Stage2Config)
    stage2_epochs: int = 60
    probe_epochs: int = 300

    @staticmethod
    def from_dict(obj: dict) -> "PipelineConfig":
        cfg = PipelineConfig()
        scene_obj = dict(obj.get("scene", {}))
        for key in ("points_per_object_range", "depth_range"):
            if key in scene_obj:
                scene_obj[key] = tuple(scene_obj[key])
        try:
            return replace(
                cfg,
                seed=obj.get("seed", cfg.seed),
                n_train_scenes=obj.get("n_train_scenes", cfg.n_train_scenes),
                n_eval_scenes=obj.get("n_eval_scenes", cfg.n_eval_scenes),
                scene=replace(cfg.scene, **scene_obj),
                arch=replace(cfg.arch, **obj.get("arch", {})),
                train=replace(cfg.train, **obj.get("train", {})),
                stage1=replace(cfg.stage1, **obj.get("stage1", {})),
                stage2=replace(cfg.stage2, **obj.get("stage2", {})),
                stage2_epochs=obj.get("stage2_epochs", cfg.stage2_epochs),
                probe_epochs=obj.get("probe_epochs", cfg.probe_epochs),
            )
        except TypeError as exc:
            raise InvalidInputError(f"bad config: {exc}") from exc

    @staticmethod
    def from_file(path: str | Path) -> "PipelineConfig":
        return PipelineConfig.from_dict(blobio.load_manifest(path))

    def to_dict(self) -> dict:
        out = asdict(self)
        out["scene"]["points_per_object_range"] = list(out["scene"]["points_per_object_range"])
        out["scene"]["depth_range"] = list(out["scene"]["depth_range"])
        return out


def matrix_cells() -> list[tuple[str, bool, bool]]:
    return [
        (tok, rw, s2)
        for tok in (MODE_SAM, MODE_KNN)
        for rw in (True, False)
        for s2 in (True, False)
    ]


def cell_name(tokenizer: str, reweight: bool, stage2_on: bool) -> str:
    return (
        f"tok-{tokenizer}_rw-{'on' if reweight else 'off'}_s2-{'on' if stage2_on else 'off'}"
    )


REPORT_COLUMNS = [
    "cell",
    "tokenizer",
    "reweight",
    "stage2",
    "probe_accuracy",
    "token_purity",
    "tail_cosine",
    "heldout_cosine",
    "final_stage1_loss",
    "final_stage2_loss",
    "status",
]


def run_matrix(
    config: PipelineConfig,
    out_dir: str | Path,
    cells: list[tuple[str, bool, bool]] | None = None,
    include_scratch: bool = True,
) -> None:
    """Execute the requested matrix cells, sharing datasets and stage-1 runs."""
    out_dir = Path(out_dir)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    blobio.dump_manifest(out_dir / "config.json", config.to_dict())

    train_bundles = generate_dataset(config.scene, config.n_train_scenes, config.seed)
    eval_bundles = generate_dataset(
        config.scene, config.n_eval_scenes, config.seed + 1_000_003
    )

    if include_scratch:
        scratch_dir = runs_dir / "scratch"
        scratch_dir.mkdir(exist_ok=True)
        encoder = nn.init_params(config.arch, config.train.seed)
        result = probe.linear_probe(
            encoder,
            train_bundles,
            eval_bundles,
            epochs=config.probe_epochs,
            seed=config.seed,
            encoder_tag=probe.ENCODER_SCRATCH,
        )
        blobio.dump_manifest(scratch_dir / "probe.json", result.to_json())

    stage1_cache: dict[tuple[str, bool], train_mod.RunResult] = {}
    for tokenizer, reweight, stage2_on in cells or matrix_cells():
        cell = cell_name(tokenizer, reweight, stage2_on)
        cell_dir = runs_dir / cell
        cell_dir.mkdir(exist_ok=True)

        s1_key = (tokenizer, reweight)
        if s1_key not in stage1_cache:
            s1_cfg = replace(config.stage1, tokenizer_mode=tokenizer, reweight=reweight)
            stage1_cache[s1_key] = train_mod.run_stage1(
                train_bundles,
                eval_bundles,
                config.arch,
                config.train,
                s1_cfg,
                cell_dir / "stage1",
            )
        else:
            _link_run(stage1_cache[s1_key], cell_dir / "stage1")
        s1_result = stage1_cache[s1_key]

        encoder_path = s1_result.checkpoint_dir
        tag = probe.ENCODER_STAGE1
        if stage2_on:
            s2_result = train_mod.run_stage2(
                train_bundles,
                eval_bundles,
                s1_result.checkpoint_dir,
                replace(config.train, epochs=config.stage2_epochs),
                config.stage2,
                cell_dir / "stage2",
            )
            encoder_path = s2_result.checkpoint_dir
            tag = probe.ENCODER_STAGE2

        result = probe.linear_probe(
            encoder_path,
            train_bundles,
            eval_bundles,
            epochs=config.probe_epochs,
            seed=config.seed,
            encoder_tag=tag,
        )
        blobio.dump_manifest(cell_dir / "probe.json", result.to_json())


def _link_run(result: train_mod.RunResult, dest: Path) -> None:
    """Record where a shared stage-1 run lives instead of re-running it."""
    dest.mkdir(parents=True, exist_ok=True)
    blobio.dump_manifest(
        dest / "metrics.json",
        {**result.metrics, "shared_from": str(result.checkpoint_dir.parent)},
    )


def _read_json(path: Path) -> dict | None:
    return blobio.load_manifest(path) if path.exists() else None


def report_ablation(out_dir: str | Path) -> list[dict]:
    """Assemble the report from persisted metrics; missing cells are reported, not faked."""
    out_dir = Path(out_dir)
    runs_dir = out_dir / "runs"
    rows: list[dict] = []

    scratch = _read_json(runs_dir / "scratch" / "probe.json")
    if scratch is not None:
        rows.append(
            {
                "cell": "scratch",
                "tokenizer": "",
                "reweight": "",
                "stage2": "",
                "probe_accuracy": scratch["accuracy"],
                "token_purity": "",
                "tail_cosine": "",
                "heldout_cosine": "",
                "final_stage1_loss": "",
                "final_stage2_loss": "",
                "status": "ok",
            }
        )

    for tokenizer, reweight, stage2_on in matrix_cells():
        cell = cell_name(tokenizer, reweight, stage2_on)
        cell_dir = runs_dir / cell
        s1 = _read_json(cell_dir / "stage1" / "metrics.json")
        s2 = _read_json(cell_dir / "stage2" / "metrics.json") if stage2_on else None
        pr = _read_json(cell_dir / "probe.json")
        missing = s1 is None or pr is None or (stage2_on and s2 is None)
        row = {
            "cell": cell,
            "tokenizer": tokenizer,
            "reweight": "on" if reweight else "off",
            "stage2": "on" if stage2_on else "off",
            "probe_accuracy": "" if pr is None else pr["accuracy"],
            "token_purity": "" if s1 is None else s1.get("train_token_purity", ""),
            "tail_cosine": "" if s1 is None else s1.get("heldout_tail_cosine", ""),
            "heldout_cosine": "" if s1 is None else s1.get("heldout_cosine_mean", ""),
            "final_stage1_loss": "" if s1 is None else s1.get("final_loss", ""),
            "final_stage2_loss": "" if s2 is None else s2.get("final_l_final", ""),
            "status": "missing" if missing else "ok",
        }
        rows.append(row)

    with open(out_dir / "report.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    _write_summary(out_dir / "report.txt", rows)
    return rows


def _fmt(value) -> str:
    if value == "" or value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _write_summary(path: Path, rows: list[dict]) -> None:
    lines = ["Ablation report", "=" * 78]
    header = f"{'cell':28s} {'probe_acc':>9s} {'purity':>7s} {'tail_cos':>8s} {'held_cos':>8s} {'status':>8s}"
    lines.append(header)
    lines.append("-" * 78)
    for row in rows:
        lines.append(
            f"{row['cell']:28s} {_fmt(row['probe_accuracy']):>9s} {_fmt(row['token_purity']):>7s} "
            f"{_fmt(row['tail_cosine']):>8s} {_fmt(row['heldout_cosine']):>8s} {row['status']:>8s}"
        )

    def get(cell: str, key: str):
        for row in rows:
            if row["cell"] == cell and row[key] != "":
                return row[key]
        return None

    lines.append("")
    sam_cell = cell_name("sam", True, True)
    knn_cell = cell_name("knn", True, True)
    rw_on = get(cell_name("sam", True, False), "tail_cosine")
    rw_off = get(cell_name("sam", False, False), "tail_cosine")
    comparisons = [
        ("purity sam vs knn", get(sam_cell, "token_purity"), get(knn_cell, "token_purity")),
        ("tail cosine reweight on vs off", rw_on, rw_off),
        (
            "probe accuracy stage2 on vs off",
            get(cell_name("sam", True, True), "probe_accuracy"),
            get(cell_name("sam", True, False), "probe_accuracy"),
        ),
    ]
    for label, a, b in comparisons:
        if a is None or b is None:
            lines.append(f"{label}: (incomplete)")
        else:
            lines.append(f"{label}: {_fmt(a)} vs {_fmt(b)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
