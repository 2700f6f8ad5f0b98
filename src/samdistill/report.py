"""Ablation matrix execution and reporting.

Cells cross {tokenizer: sam|knn} x {reweight: on|off} x {stage2: on|off}
plus a scratch-encoder baseline row. Every number in the report is read
back from the per-run metrics files, so reports are recomputable from
persisted artifacts alone.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from . import blobio, nn, probe
from . import train as train_mod
from .errors import InvalidInputError, MalformedManifestError
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

    def __post_init__(self) -> None:
        """Checked once, here, after each section checked itself when it was built.

        ``dataclasses.replace`` runs this again, so a config file or a flag
        out of range is refused before a command does any work.
        """
        if self.seed < 0:
            raise InvalidInputError("seed must be >= 0")
        if self.n_train_scenes < 1 or self.n_eval_scenes < 1:  # the probe needs a test split
            raise InvalidInputError("need n_train_scenes >= 1 and n_eval_scenes >= 1")
        if self.probe_epochs < 1:
            raise InvalidInputError("probe_epochs must be >= 1")
        if self.arch.proj_dim != self.scene.feature_dim:  # stage 1 regresses the 2D features
            raise InvalidInputError(
                f"arch.proj_dim {self.arch.proj_dim} != scene.feature_dim {self.scene.feature_dim}"
            )
        try:  # the stage-2 schedule that run_matrix and `samdistill stage2` build
            replace(self.train, epochs=self.stage2_epochs)
        except InvalidInputError as exc:
            raise InvalidInputError(f"stage2_epochs {self.stage2_epochs}: {exc}") from None

    @staticmethod
    def from_dict(obj: dict) -> "PipelineConfig":
        """Config from its JSON shape; a key that nothing would read is refused.

        Each value must have its field's type: an int field takes an int
        but not a bool, a float field an int or a float, and bool and str
        fields only their own type. A range takes a two-item list, each item
        checked against the default's. ``scene.seed`` is refused too:
        ``generate_dataset`` derives every scene's seed from the dataset
        seed (``seed``). A value out of range is refused when ``replace``
        builds its section.
        """
        if isinstance(obj.get("scene"), dict) and "seed" in obj["scene"]:
            raise InvalidInputError("bad config: scene.seed is unused; set the top-level seed")
        return _from_json(PipelineConfig(), obj)

    @staticmethod
    def from_file(path: str | Path) -> "PipelineConfig":
        return PipelineConfig.from_dict(blobio.load_manifest(path))

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["scene"]["seed"]
        out["scene"]["points_per_object_range"] = list(out["scene"]["points_per_object_range"])
        out["scene"]["depth_range"] = list(out["scene"]["depth_range"])
        return out


def _fits(default, value) -> bool:
    """Whether ``value`` has the type a field with default ``default`` takes."""
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return type(value) is type(default)


def _from_json(defaults, obj, section: str = ""):
    """``defaults`` with the entries of ``obj``, the JSON of ``section``, each checked."""
    where = section or "the config"
    if not isinstance(obj, dict):
        raise InvalidInputError(f"bad config: {where} is not an object")
    unknown = sorted(set(obj) - {f.name for f in fields(defaults)})
    if unknown:
        raise InvalidInputError(f"bad config: unknown keys {unknown} in {where}")
    values = {}
    for key, value in obj.items():
        default, name = getattr(defaults, key), f"{section}.{key}" if section else key
        if is_dataclass(default):
            value = _from_json(default, value, name)
        elif isinstance(default, tuple):
            if not (
                isinstance(value, (list, tuple))
                and len(value) == len(default)
                and all(map(_fits, default, value))
            ):
                raise InvalidInputError(f"bad config: {name} must be a list like {list(default)}")
            value = tuple(value)
        elif not _fits(default, value):
            kind = type(default).__name__
            raise InvalidInputError(f"bad config: {name} must be of type {kind}, not {value!r}")
        values[key] = value
    return replace(defaults, **values)


def matrix_cells() -> list[tuple[str, bool, bool]]:
    return [
        (tok, rw, s2)
        for tok in (MODE_SAM, MODE_KNN)
        for rw in (True, False)
        for s2 in (True, False)
    ]


def _onoff(flag: bool) -> str:
    return "on" if flag else "off"


def stage1_name(tokenizer: str, reweight: bool) -> str:
    """The directory of the stage-1 run that every cell of this pair starts from."""
    return f"stage1_tok-{tokenizer}_rw-{_onoff(reweight)}"


def cell_name(tokenizer: str, reweight: bool, stage2_on: bool) -> str:
    return f"tok-{tokenizer}_rw-{_onoff(reweight)}_s2-{_onoff(stage2_on)}"


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

# Each metric column of a report row: the run it is read from, and its key there.
_METRIC_SOURCES = {
    "probe_accuracy": ("probe", "accuracy"),
    "token_purity": ("stage1", "train_token_purity"),
    "tail_cosine": ("stage1", "heldout_tail_cosine"),
    "heldout_cosine": ("stage1", "heldout_cosine_mean"),
    "final_stage1_loss": ("stage1", "final_loss"),
    "final_stage2_loss": ("stage2", "final_l_final"),
}


def run_matrix(
    config: PipelineConfig,
    out_dir: str | Path,
    cells: list[tuple[str, bool, bool]] | None = None,
) -> None:
    """Execute the requested matrix cells, sharing datasets and stage-1 runs.

    Under ``out_dir/runs``: ``scratch/probe.json``, one ``stage1_tok-*_rw-*``
    run per (tokenizer, reweight) pair that a cell needs, and per cell a
    directory with its ``probe.json`` and, if stage 2 is on, its ``stage2`` run.
    """
    out_dir = Path(out_dir)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    blobio.dump_manifest(out_dir / "config.json", config.to_dict())

    train_bundles = generate_dataset(config.scene, config.n_train_scenes, config.seed)
    eval_bundles = generate_dataset(
        config.scene, config.n_eval_scenes, config.seed + 1_000_003
    )

    def run_probe(encoder, tag: str, cell_dir: Path) -> None:
        result = probe.linear_probe(
            encoder, train_bundles, eval_bundles, epochs=config.probe_epochs,
            seed=config.seed, encoder_tag=tag,
        )
        cell_dir.mkdir(exist_ok=True)
        blobio.dump_manifest(cell_dir / "probe.json", result.to_json())

    scratch = nn.init_params(config.arch, config.train.seed)
    run_probe(scratch, probe.ENCODER_SCRATCH, runs_dir / "scratch")

    stage1_runs: dict[tuple[str, bool], train_mod.RunResult] = {}
    for tokenizer, reweight, stage2_on in cells or matrix_cells():
        cell_dir = runs_dir / cell_name(tokenizer, reweight, stage2_on)
        pair = (tokenizer, reweight)
        if pair not in stage1_runs:
            stage1_runs[pair] = train_mod.run_stage1(
                train_bundles,
                eval_bundles,
                config.arch,
                config.train,
                replace(config.stage1, tokenizer_mode=tokenizer, reweight=reweight),
                runs_dir / stage1_name(*pair),
            )
        encoder_path, tag = stage1_runs[pair].checkpoint_dir, probe.ENCODER_STAGE1
        if stage2_on:
            s2_result = train_mod.run_stage2(
                train_bundles,
                eval_bundles,
                encoder_path,
                replace(config.train, epochs=config.stage2_epochs),
                config.stage2,
                cell_dir / "stage2",
            )
            encoder_path, tag = s2_result.checkpoint_dir, probe.ENCODER_STAGE2
        run_probe(encoder_path, tag, cell_dir)


def _read_json(path: Path) -> dict | None:
    return blobio.load_manifest(path) if path.exists() else None


def _row(cell: str, runs: dict[str, dict | None], **labels: str) -> dict:
    """One report row; a run that is None is missing, and leaves its columns blank."""
    row = dict.fromkeys(REPORT_COLUMNS, "")
    row.update(labels, cell=cell, status="missing" if None in runs.values() else "ok")
    for column, (run, key) in _METRIC_SOURCES.items():
        row[column] = (runs.get(run) or {}).get(key, "")
    return row


def report_ablation(out_dir: str | Path) -> list[dict]:
    """Assemble the report from persisted metrics; missing cells are reported, not faked.

    A cell's stage-1 columns come from its pair's stage-1 run, whether or
    not the cell itself ran. With no ``runs`` directory under ``out_dir``
    this raises MalformedManifestError and writes nothing.
    """
    out_dir = Path(out_dir)
    runs_dir = out_dir / "runs"
    if not runs_dir.is_dir():
        raise MalformedManifestError(f"{runs_dir}: no ablation runs; run `report --run` first")
    rows: list[dict] = []
    scratch = _read_json(runs_dir / "scratch" / "probe.json")
    if scratch is not None:
        rows.append(_row("scratch", {"probe": scratch}))
    for tokenizer, reweight, stage2_on in matrix_cells():
        cell = cell_name(tokenizer, reweight, stage2_on)
        runs = {
            "stage1": _read_json(runs_dir / stage1_name(tokenizer, reweight) / "metrics.json"),
            "probe": _read_json(runs_dir / cell / "probe.json"),
        }
        if stage2_on:
            runs["stage2"] = _read_json(runs_dir / cell / "stage2" / "metrics.json")
        labels = {"reweight": _onoff(reweight), "stage2": _onoff(stage2_on)}
        rows.append(_row(cell, runs, tokenizer=tokenizer, **labels))

    blobio.dump_text(out_dir / "report.csv", csv_text(REPORT_COLUMNS, rows))
    blobio.dump_text(out_dir / "report.txt", _summary(rows))
    return rows


def csv_text(columns: list[str], rows: list[dict]) -> str:
    """``rows`` as CSV text with a ``columns`` header, in the ``csv`` module's dialect."""
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=columns)
    writer.writeheader()
    writer.writerows(rows)
    return text.getvalue()


def _fmt(value) -> str:
    if value == "" or value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _summary(rows: list[dict]) -> str:
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
    return "\n".join(lines) + "\n"
