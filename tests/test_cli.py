"""Command-line surface: full pipeline, config overrides, error exit codes."""

import csv
import json

import pytest

from samdistill import cli, report
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
    ],
)
def test_config_keys_nothing_reads_and_malformed_sections_are_refused(tmp_path, config, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert cli.main(["--config", str(bad), "--out-dir", str(tmp_path), "scene"]) == 2
    assert "bad config" in capsys.readouterr().err


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
