"""Command-line surface: full pipeline, config overrides, error exit codes."""

import csv
import json
import math
from pathlib import Path

import pytest

from samdistill import blobio, cli, nn, report
from samdistill.scene import read_scene_dir

QUICK_CONFIG = {
    "seed": 0,
    "n_train_scenes": 3,
    "n_eval_scenes": 2,
    "scene": {
        "n_objects": 3,
        "points_per_object_range": [20, 30],
        "feature_dim": 5,
        "n_types": 3,
    },
    "arch": {
        "embed_dim": 8,
        "n_heads": 2,
        "n_enc_layers": 1,
        "n_dec_layers": 1,
        "pointnet_hidden": 6,
        "max_points_per_token": 16,
        "mlp_ratio": 1,
        "proj_dim": 5,
    },
    "train": {"epochs": 2, "warmup_epochs": 1, "batch_size": 2},
    "stage1": {"k_groups": 3},
    "stage2_epochs": 2,
    "probe_epochs": 30,
}


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(QUICK_CONFIG))
    return path


def test_full_pipeline_through_cli(tmp_path, config_file, capsys):
    out = tmp_path / "out"
    base = ["--config", str(config_file), "--out-dir", str(out)]

    assert cli.main(base + ["scene", "--out", str(out / "train")]) == 0
    assert cli.main(base + ["--seed", "99", "scene", "--out", str(out / "eval"), "--n-scenes", "2"]) == 0
    assert len(read_scene_dir(out / "train")) == 3
    assert len(read_scene_dir(out / "eval")) == 2

    audit = out / "audit.csv"
    assert cli.main(base + ["tokenize", "--scenes", str(out / "train"), "--audit", str(audit)]) == 0
    with open(audit) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert all(float(r["purity"]) == 1.0 for r in rows)

    assert (
        cli.main(
            base
            + [
                "stage1",
                "--scenes", str(out / "train"),
                "--eval-scenes", str(out / "eval"),
                "--out", str(out / "s1"),
            ]
        )
        == 0
    )
    assert (out / "s1" / "checkpoint").is_file()
    assert (out / "s1" / "weight_table").is_file()

    assert (
        cli.main(
            base
            + [
                "stage2",
                "--scenes", str(out / "train"),
                "--eval-scenes", str(out / "eval"),
                "--teacher-ckpt", str(out / "s1" / "checkpoint"),
                "--out", str(out / "s2"),
            ]
        )
        == 0
    )
    metrics = json.loads((out / "s2" / "metrics.json").read_text())
    assert metrics["teacher_hash_unchanged"] is True

    assert (
        cli.main(
            base
            + [
                "probe",
                "--encoder-ckpt", str(out / "s2" / "checkpoint"),
                "--train-scenes", str(out / "train"),
                "--test-scenes", str(out / "eval"),
                "--out", str(out / "probe.json"),
            ]
        )
        == 0
    )
    result = json.loads((out / "probe.json").read_text())
    assert 0.0 <= result["accuracy"] <= 1.0
    assert result["encoder_tag"] == "stage2"
    capsys.readouterr()


def test_knn_audit_mode(tmp_path, config_file, capsys):
    out = tmp_path / "out"
    base = ["--config", str(config_file), "--out-dir", str(out)]
    assert cli.main(base + ["scene", "--out", str(out / "train")]) == 0
    audit = out / "knn_audit.csv"
    assert (
        cli.main(
            base
            + ["tokenize", "--scenes", str(out / "train"), "--mode", "knn", "--audit", str(audit)]
        )
        == 0
    )
    with open(audit) as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["mode"] == "knn" for r in rows)
    capsys.readouterr()


def test_error_exit_code_on_missing_scenes(tmp_path, capsys):
    code = cli.main(
        ["--out-dir", str(tmp_path), "tokenize", "--scenes", str(tmp_path / "nope")]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_error_exit_code_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # Unknown keys, among them four that older configs had.
    for section, key in (
        ("train", "unknown_field"),
        ("train", "beta1"),
        ("stage1", "knn_k"),
        ("stage1", "scale_mode"),
        ("stage2", "normalize_targets"),
    ):
        bad.write_text(json.dumps({section: {key: 3}}))
        code = cli.main(
            ["--config", str(bad), "--out-dir", str(tmp_path), "scene"]
        )
        assert code == 2, key
    capsys.readouterr()


@pytest.mark.parametrize(
    "config",
    [
        {"seeed": 5},  # a misspelt top-level key
        {"probe_epoch": 3},
        {"scene": {"seed": 7}},  # generate_dataset derives every scene seed
        {"scene": 5},  # sections and their tuples must have their JSON shape
        {"scene": "ab"},
        {"train": [1]},
        {"scene": {"depth_range": 5}},
        {"train": {"epochs": "3"}},  # every value must have its field's type
        {"stage1": {"k_groups": 2.5}},
        {"arch": {"embed_dim": 8.0}},
        {"seed": "1"},
        {"train": {"epochs": True}},  # an int field takes no bool
        {"stage1": {"reweight": 1}},
        {"scene": {"points_per_object_range": [20, 30.5]}},
        {"scene": {"depth_range": [2.5]}},
    ],
)
def test_config_keys_nothing_reads_and_malformed_sections_are_refused(tmp_path, config, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert cli.main(["--config", str(bad), "--out-dir", str(tmp_path), "scene"]) == 2
    assert "bad config" in capsys.readouterr().err


def test_a_float_field_takes_an_int():
    obj = {"train": {"base_lr": 1}, "scene": {"depth_range": [2, 5]}}
    cfg = report.PipelineConfig.from_dict(obj)
    assert cfg.train.base_lr == 1 and cfg.scene.depth_range == (2, 5)


@pytest.mark.parametrize("obj", [{}, QUICK_CONFIG])
def test_config_round_trips_through_its_json(obj):
    cfg = report.PipelineConfig.from_dict(obj)
    assert report.PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@pytest.mark.parametrize(
    "argv",
    [
        ["stage1", "--scenes", "s", "--scale-mode", "paper-literal"],
        ["stage1", "--scenes", "s", "--paper-defaults"],
        ["stage2", "--scenes", "s", "--teacher-ckpt", "t", "--paper-defaults"],
    ],
)
def test_removed_flags_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_scene_flag_overrides_config(tmp_path, config_file, capsys):
    out = tmp_path / "scenes"
    assert (
        cli.main(
            [
                "--config", str(config_file), "--out-dir", str(tmp_path),
                "scene", "--out", str(out), "--n-objects", "2", "--n-scenes", "1",
            ]
        )
        == 0
    )
    bundles = read_scene_dir(out)
    assert len(bundles) == 1
    assert bundles[0].region_count == 2
    capsys.readouterr()


def test_report_run_full_matrix_via_cli(tmp_path, config_file, capsys):
    out = tmp_path / "full"
    code = cli.main(
        ["--config", str(config_file), "--out-dir", str(out), "report", "--run"]
    )
    assert code == 0
    rows = list(csv.DictReader(open(out / "report.csv")))
    assert len(rows) == 9  # scratch + full 2x2x2 matrix
    assert all(r["status"] == "ok" for r in rows)
    sam_rows = [r for r in rows if r["tokenizer"] == "sam"]
    assert all(float(r["token_purity"]) == 1.0 for r in sam_rows)
    capsys.readouterr()


def test_report_matrix_and_recompute(tmp_path, capsys):
    cfg = report.PipelineConfig.from_dict(QUICK_CONFIG)
    out = tmp_path / "matrix"
    # One non-stage2 cell plus one stage2 cell keeps the runtime small.
    report.run_matrix(cfg, out, cells=[("sam", True, False), ("sam", True, True)])
    assert report.PipelineConfig.from_file(out / "config.json") == cfg
    rows = report.report_ablation(out)
    by_cell = {r["cell"]: r for r in rows}
    assert by_cell["scratch"]["status"] == "ok"
    assert by_cell["tok-sam_rw-on_s2-off"]["status"] == "ok"
    assert by_cell["tok-sam_rw-on_s2-on"]["status"] == "ok"
    assert by_cell["tok-knn_rw-on_s2-off"]["status"] == "missing"
    assert by_cell["tok-sam_rw-on_s2-off"]["token_purity"] == 1.0

    # The report is recomputable from persisted artifacts alone.
    rows_again = report.report_ablation(out)
    assert rows_again == rows
    assert (out / "report.csv").exists() and (out / "report.txt").exists()

    code = cli.main(["--out-dir", str(out), "report"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "Ablation report" in stdout

    # Each stage-1 run is stored once, by its pair; a cell holds its stage 2 and its probe.
    runs = out / "runs"
    assert sorted(p.name for p in runs.iterdir()) == [
        "scratch", "stage1_tok-sam_rw-on", "tok-sam_rw-on_s2-off", "tok-sam_rw-on_s2-on",
    ]
    assert sorted(p.name for p in (runs / "tok-sam_rw-on_s2-on").iterdir()) == [
        "probe.json", "stage2",
    ]

    # A tree from before the pair-named stage-1 runs kept a copy in each cell: it reads as missing.
    (runs / "stage1_tok-sam_rw-on").rename(runs / "tok-sam_rw-on_s2-off" / "stage1")
    old = {r["cell"]: r for r in report.report_ablation(out)}
    assert old["tok-sam_rw-on_s2-off"]["status"] == "missing"
    assert old["tok-sam_rw-on_s2-off"]["token_purity"] == ""


def test_a_cell_that_did_not_run_shows_its_pairs_stage1_run(tmp_path):
    for tokenizer, purity in (("sam", 1.0), ("knn", 0.75)):
        run = tmp_path / "runs" / report.stage1_name(tokenizer, True)
        run.mkdir(parents=True)
        blobio.dump_manifest(run / "metrics.json", {"train_token_purity": purity})
    rows = {r["cell"]: r for r in report.report_ablation(tmp_path)}
    for cell in ("tok-knn_rw-on_s2-on", "tok-knn_rw-on_s2-off"):
        assert rows[cell]["token_purity"] == 0.75 and rows[cell]["status"] == "missing"
    assert "purity sam vs knn: 1.0000 vs 0.7500" in (tmp_path / "report.txt").read_text()


def test_report_without_runs_exits_2_and_writes_nothing(tmp_path, capsys):
    assert cli.main(["--out-dir", str(tmp_path), "report"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and str(tmp_path / "runs") in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def _cut_open(path, *args, **kwargs):
    """``open``, whose file raises after writing the first half of a ``write``."""
    fh = open(path, *args, **kwargs)
    write = fh.write

    def half(text):
        write(text[: len(text) // 2])
        raise OSError("injected: disk full")

    fh.write = half
    return fh


def _refuse_replace(*args):
    raise OSError("injected: replace failed")


@pytest.mark.parametrize("fault", ["write", "replace"])
def test_a_failed_report_write_keeps_the_last_report(tmp_path, monkeypatch, fault):
    scratch = tmp_path / "runs" / "scratch"
    scratch.mkdir(parents=True)
    blobio.dump_manifest(scratch / "probe.json", {"accuracy": 0.5})
    report.report_ablation(tmp_path)
    blobio.dump_manifest(scratch / "probe.json", {"accuracy": 0.75})
    before = _tree(tmp_path)
    if fault == "write":
        monkeypatch.setattr(blobio, "open", _cut_open, raising=False)
    else:
        monkeypatch.setattr(blobio.os, "replace", _refuse_replace)
    with pytest.raises(OSError, match="injected"):
        report.report_ablation(tmp_path)
    assert _tree(tmp_path) == before


def _with(overrides: dict) -> dict:
    """QUICK_CONFIG with ``overrides`` merged in, section by section."""
    cfg = json.loads(json.dumps(QUICK_CONFIG))
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    return cfg


def _tree(*roots: Path) -> dict:
    """Every path under ``roots``, with a file's bytes and None for a directory."""
    return {p: p.read_bytes() if p.is_file() else None for root in roots for p in root.rglob("*")}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, config_file):
    """Train and held-out scenes and a stage-1 checkpoint, made with QUICK_CONFIG."""
    ws = tmp_path_factory.mktemp("ws")
    base = ["--config", str(config_file), "--out-dir", str(ws)]
    assert cli.main(base + ["scene", "--out", str(ws / "train")]) == 0
    assert cli.main(base + ["--seed", "5", "scene", "--out", str(ws / "eval")]) == 0
    assert cli.main(base + ["stage1", "--scenes", str(ws / "train"), "--out", str(ws / "s1")]) == 0
    return ws


def _command(ws: Path, out: Path, name: str) -> list[str]:
    """The arguments of command ``name`` on ``workspace``, writing under ``out``."""
    scenes = ["--scenes", str(ws / "train"), "--eval-scenes", str(ws / "eval")]
    ckpt = str(ws / "s1" / "checkpoint")
    return {
        "scene": ["scene", "--out", str(out / "scenes")],
        "stage1": ["stage1", *scenes, "--out", str(out / "s1")],
        "stage2": ["stage2", *scenes, "--teacher-ckpt", ckpt, "--out", str(out / "s2")],
        "probe": [
            "probe", "--encoder-ckpt", ckpt, "--train-scenes", str(ws / "train"),
            "--test-scenes", str(ws / "eval"), "--out", str(out / "probe.json"),
        ],
        "report": ["report", "--run"],
        "tokenize": ["tokenize", "--scenes", str(ws / "train"), "--audit", str(out / "audit.csv")],
    }[name]


def _assert_refused(argv: list[str], out: Path, roots: tuple, capsys) -> None:
    """The command exits 2 with an error line, and changes no file or directory."""
    before = _tree(*roots)
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2, argv
    assert "error:" in err and "Traceback" not in err, err
    assert _tree(*roots) == before, argv
    assert not out.exists(), argv


COMMANDS = ("scene", "stage1", "stage2", "probe", "report")


@pytest.mark.parametrize(
    "overrides",
    [
        {"seed": -1},
        {"n_train_scenes": -3},
        {"n_train_scenes": 0},
        {"n_eval_scenes": -1},
        {"n_eval_scenes": 0},  # the probe refuses an empty test split
        {"probe_epochs": 0},
        {"stage2_epochs": -1},
        {"train": {"epochs": 10, "warmup_epochs": 5}, "stage2_epochs": 3},
        {"scene": {"n_objects": 0}},
        {"scene": {"n_objects": 2000}},
        {"scene": {"feature_dim": 1}},
        {"scene": {"points_per_object_range": [30, 20]}},
        {"scene": {"n_types": 0}},
        {"scene": {"depth_levels": -2}},
        {"scene": {"depth_range": [0.5, 3.0]}},
        {"scene": {"noise_sigma": -0.1}},
        {"arch": {"embed_dim": 0}},
        {"arch": {"n_heads": 0}},
        {"arch": {"n_heads": 5}},
        {"arch": {"pointnet_hidden": 0}},
        {"arch": {"proj_dim": 0}},
        {"arch": {"proj_dim": 4}},  # QUICK_CONFIG's scenes have 5-dim features
        {"arch": {"n_enc_layers": -1}},
        {"arch": {"n_dec_layers": -1}},
        {"arch": {"max_points_per_token": 0}},
        {"arch": {"mlp_ratio": 0}},
        {"arch": {"ln_eps": 0.0}},
        {"train": {"base_lr": -1.0}},
        {"train": {"epochs": -1}},
        {"train": {"warmup_epochs": -1}},
        {"train": {"warmup_epochs": 3}},
        {"train": {"batch_size": 0}},
        {"train": {"weight_decay": -0.05}},
        {"train": {"min_lr_ratio": 1.5}},
        {"train": {"seed": -1}},
        {"stage1": {"k_groups": 0}},
        {"stage1": {"tokenizer_mode": "voxel"}},
        {"stage2": {"mask_ratio": 1.5}},
        {"stage2": {"mask_ratio": -0.1}},
        {"scene": {"min_points_per_object": -5}},
        {"scene": {"min_points_per_object": 0}},
        {"scene": {"noise_sigma": math.nan}},
        {"scene": {"noise_sigma": math.inf}},
        {"scene": {"imbalance_exponent": math.nan}},
        {"scene": {"imbalance_exponent": -math.inf}},
        {"scene": {"depth_range": [2.5, math.inf]}},
    ],
)
def test_a_config_file_out_of_range_is_refused_before_any_write(
    workspace, tmp_path, overrides, capsys
):
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(_with(overrides)))
    for name in COMMANDS:
        argv = ["--config", str(config), "--out-dir", str(out), *_command(workspace, out, name)]
        _assert_refused(argv, out, (workspace, tmp_path), capsys)


@pytest.mark.parametrize(
    "name, flags",
    [
        *[(name, ["--seed", "-1"]) for name in COMMANDS],
        ("scene", ["--n-scenes", "-3"]),
        ("scene", ["--n-scenes", "0"]),
        ("scene", ["--n-objects", "0"]),
        ("scene", ["--noise-sigma", "-1"]),
        ("stage1", ["--lr", "-1"]),
        ("stage1", ["--wd", "-1"]),
        ("stage1", ["--batch", "0"]),
        ("stage1", ["--epochs", "-1"]),
        ("stage1", ["--k-groups", "0"]),
        ("stage2", ["--mask-ratio", "1.5"]),
        ("stage2", ["--epochs", "-1"]),
        ("probe", ["--epochs", "0"]),
        ("tokenize", ["--min-points", "-3"]),
        ("tokenize", ["--mode", "knn", "--n", "-2"]),
        ("tokenize", ["--mode", "knn", "--k", "-9"]),
        ("scene", ["--noise-sigma", "nan"]),
        ("scene", ["--noise-sigma", "inf"]),
        ("scene", ["--imbalance", "nan"]),
        ("scene", ["--imbalance", "inf"]),
    ],
)
def test_a_flag_out_of_range_is_refused_before_any_write(
    workspace, config_file, tmp_path, name, flags, capsys
):
    out = tmp_path / "out"
    argv = ["--config", str(config_file), "--out-dir", str(out)]
    command = _command(workspace, out, name)
    if flags[0] == "--seed":  # a global flag goes before the command
        argv += flags + command
    else:
        argv += command + flags
    _assert_refused(argv, out, (workspace, tmp_path), capsys)


@pytest.mark.parametrize(
    "config", [None, {"seed": -1}, {"train": {"seed": -1}}], ids=["flag", "top", "train"]
)
def test_a_negative_seed_exits_2_without_a_traceback(tmp_path, config, capsys):
    argv = ["--out-dir", str(tmp_path / "out")]
    if config is None:
        argv += ["--seed", "-1"]
    else:
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "c.json")]
    assert cli.main(argv + ["scene"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "seed" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("epochs, warmup", [(5, 5), (12, 10)])
def test_epochs_caps_the_default_warmup(tmp_path, epochs, warmup, capsys):
    """With no config file the warmup is 10 epochs; ``--epochs`` below it lowers it."""
    scenes, run = tmp_path / "scenes", tmp_path / "run"
    make = ["scene", "--out", str(scenes), "--n-scenes", "2"]
    assert cli.main(["--out-dir", str(tmp_path), *make]) == 0
    argv = ["stage1", "--scenes", str(scenes), "--out", str(run), "--k-groups", "2"]
    assert cli.main(["--out-dir", str(tmp_path), *argv, "--epochs", str(epochs)]) == 0
    ckpt = nn.load_checkpoint(run / "checkpoint")
    assert ckpt.fingerprint["train"]["epochs"] == epochs
    assert ckpt.fingerprint["train"]["warmup_epochs"] == warmup
    capsys.readouterr()
