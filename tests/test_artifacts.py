"""Malformed artifact files of every format fail with typed errors only."""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import edit_header, read_artifact, write_artifact
from hypothesis import given
from hypothesis import strategies as st

from samdistill import blobio, cli, nn, scene, stage1, train
from samdistill.errors import DimensionMismatchError, MalformedManifestError, SamDistillError

# A checkpoint of this size keeps each example's copy to a few kilobytes.
SMALL_ARCH = nn.Arch(
    embed_dim=2, n_heads=1, n_enc_layers=0, n_dec_layers=0,
    pointnet_hidden=2, max_points_per_token=4, mlp_ratio=1, proj_dim=2,
)

LOADERS = {
    "scene-bundle": scene.read_bundle,
    "weight-table": stage1.load_weight_table,
    "model-checkpoint": nn.load_checkpoint,
}

BAD_VALUES = [None, "x", "", -1, 0, 2.5, True, [], {}, [1, "a"], [-3], {"t": -1}]
BAD_DTYPES = ["zz", "O", "", "<U3", "V8", "f8,i4", "<f4", "<i8", "|u1", 5, None]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, small_bundle):
    root = tmp_path_factory.mktemp("artifacts")
    scene.write_bundle(small_bundle, root / "scene-bundle")
    k, tau, w = stage1.weights_from_counts(np.array([4, 2]))
    table = stage1.WeightTable(
        group_of_region=np.array([0, 1, 0]), counts=np.array([4, 2]), k=k, tau=tau, w=w,
        n_groups=2, seed=0,
    )
    stage1.save_weight_table(root / "weight-table", table, np.ones((2, 3)))
    params = nn.init_params(SMALL_ARCH, seed=0)
    nn.save_checkpoint(root / "model-checkpoint", params, 5, train.init_opt_state(params))
    for fmt, load in LOADERS.items():
        load(root / fmt)  # every pristine artifact loads
    return root


def _draw_path(data, manifest: dict) -> list:
    """A path from the manifest root to one of its values, at least one key deep."""
    obj, path = manifest, []
    while isinstance(obj, (dict, list)) and obj and (not path or data.draw(st.booleans())):
        key = data.draw(st.sampled_from(sorted(obj) if isinstance(obj, dict) else range(len(obj))))
        path.append(key)
        obj = obj[key]
    return path


def _mutate(data, root: Path) -> None:
    manifest, payload = read_artifact(root)
    blob = data.draw(st.sampled_from(sorted(manifest["blobs"])), label="blob")
    kind = data.draw(
        st.sampled_from(["drop", "retype", "dtype", "shape", "truncate", "extend"]), label="kind"
    )
    if kind in ("drop", "retype"):
        path = _draw_path(data, manifest)
        parent = manifest
        for key in path[:-1]:
            parent = parent[key]
        if kind == "drop" and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(st.sampled_from(BAD_VALUES), label="value")
    elif kind == "dtype":
        manifest["blobs"][blob]["dtype"] = data.draw(st.sampled_from(BAD_DTYPES), label="dtype")
    elif kind == "shape":
        shape = manifest["blobs"][blob]["shape"]
        if shape and data.draw(st.booleans()):
            shape[data.draw(st.integers(0, len(shape) - 1))] = data.draw(st.integers(-5, -1))
        else:
            shape.append(data.draw(st.integers(-5, 3), label="extra dim"))
    elif kind == "extend":
        payload += b"\0" * data.draw(st.integers(1, 16), label="pad")
    write_artifact(root, manifest, payload)
    if kind == "truncate":  # anywhere, the prefix and the header included
        raw = root.read_bytes()
        root.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")])


@pytest.mark.parametrize("fmt", sorted(LOADERS))
@given(data=st.data())
def test_only_typed_errors_escape(artifacts, fmt, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / fmt
        shutil.copy(artifacts / fmt, root)
        _mutate(data, root)
        try:
            LOADERS[fmt](root)
        except SamDistillError:
            pass


@pytest.mark.parametrize(
    "mutation",
    [
        lambda m: m["blobs"]["points"].pop("shape"),
        lambda m: m["blobs"].update(points="f4"),
        lambda m: m["blobs"]["points"].update(dtype="zz"),
        lambda m: m["blobs"]["points"].update(shape=[-1, 3]),
        lambda m: m.update(blobs=[]),
    ],
    ids=["no-shape", "string-record", "bad-dtype", "negative-shape", "blobs-list"],
)
def test_bad_blob_records_are_malformed(artifacts, tmp_path, mutation):
    root = tmp_path / "bundle"
    shutil.copy(artifacts / "scene-bundle", root)
    edit_header(root, mutation)
    with pytest.raises(MalformedManifestError):
        scene.read_bundle(root)


@pytest.mark.parametrize(
    "mutation, error",
    [
        (lambda m: m["params"][0].pop("name"), MalformedManifestError),
        (lambda m: m.update(params=3), MalformedManifestError),
        (lambda m: m["params"][0].pop("shape"), MalformedManifestError),
        (lambda m: m["params"][0]["shape"].__setitem__(0, -3), MalformedManifestError),
        # The records then describe a longer buffer than the blobs hold.
        (lambda m: m["params"][0]["shape"].__setitem__(0, 4), DimensionMismatchError),
    ],
    ids=[
        "record-without-name", "params-not-a-list", "record-without-shape", "negative-dim",
        "shapes-not-summing-to-the-blob",
    ],
)
def test_bad_param_records_are_malformed(artifacts, tmp_path, mutation, error):
    root = tmp_path / "ckpt"
    shutil.copy(artifacts / "model-checkpoint", root)
    edit_header(root, mutation)
    with pytest.raises(error):
        nn.load_checkpoint(root)


def test_integer_checkpoint_blob_is_refused(artifacts, tmp_path):
    root = tmp_path / "ckpt"
    shutil.copy(artifacts / "model-checkpoint", root)
    # Same size, so only the dtype is wrong.
    edit_header(root, lambda m: m["blobs"]["params"].update(dtype="<i8"))
    with pytest.raises(MalformedManifestError):
        nn.load_checkpoint(root)


@pytest.mark.parametrize("with_shapes", [False, True])
def test_per_parameter_checkpoint_is_refused(tmp_path, with_shapes):
    """The layout before flat-buffer checkpoints: one blob per parameter."""
    params = nn.init_params(SMALL_ARCH, seed=0)
    records = [{"name": name, "frozen": False} for name in params.names()]
    if with_shapes:
        for rec in records:
            rec["shape"] = list(params.tensors[rec["name"]].shape)
    meta = {"arch": SMALL_ARCH.to_json(), "step": 0, "params": records, "optimizer": None}
    arrays = {name: t.data for name, t in params.tensors.items()}
    blobio.save_arrays(tmp_path / "ckpt", "model-checkpoint", meta, arrays)
    with pytest.raises(MalformedManifestError):
        nn.load_checkpoint(tmp_path / "ckpt")


def test_cli_exits_2_on_a_malformed_checkpoint(artifacts, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    shutil.copy(artifacts / "model-checkpoint", ckpt)
    edit_header(ckpt, lambda m: m["blobs"].update(params="f8"))
    scenes = tmp_path / "scenes"
    make_scene = ["--out-dir", str(tmp_path), "scene", "--out", str(scenes), "--n-scenes", "1"]
    assert cli.main(make_scene) == 0
    code = cli.main(
        [
            "--out-dir", str(tmp_path), "probe", "--encoder-ckpt", str(ckpt),
            "--train-scenes", str(scenes), "--test-scenes", str(scenes),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", sorted(LOADERS))
def test_a_directory_artifact_predates_the_format(tmp_path, fmt):
    # Every artifact written before the one-file format is a directory.
    (tmp_path / fmt).mkdir()
    (tmp_path / fmt / "manifest.json").write_text('{"format": "%s", "version": 1}' % fmt)
    with pytest.raises(MalformedManifestError, match="predates the one-file artifact format"):
        LOADERS[fmt](tmp_path / fmt)


def test_cli_exits_2_on_a_directory_teacher(artifacts, tmp_path, capsys):
    old = tmp_path / "old_checkpoint"
    old.mkdir()
    (old / "manifest.json").write_text('{"format": "model-checkpoint", "version": 1}')
    scenes = tmp_path / "scenes"
    make_scene = ["--out-dir", str(tmp_path), "scene", "--out", str(scenes), "--n-scenes", "1"]
    assert cli.main(make_scene) == 0
    code = cli.main(
        [
            "--out-dir", str(tmp_path), "stage2", "--scenes", str(scenes),
            "--teacher-ckpt", str(old), "--epochs", "1",
        ]
    )
    assert code == 2
    assert "predates the one-file artifact format" in capsys.readouterr().err
