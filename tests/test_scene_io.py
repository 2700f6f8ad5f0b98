"""Bundle storage: lossless round trips and distinct failure modes."""

import json
import struct

import numpy as np
import pytest

from samdistill import blobio, scene, stage1
from samdistill.errors import (
    DimensionMismatchError,
    MagicMismatchError,
    MalformedManifestError,
    TruncatedBlobError,
)


@pytest.fixture()
def stored(tmp_path, small_bundle):
    path = tmp_path / "bundle"
    scene.write_bundle(small_bundle, path)
    return path


def test_round_trip_bit_exact(stored, small_bundle):
    loaded = scene.read_bundle(stored)
    assert loaded.equals(small_bundle)


def test_double_round_trip(stored, tmp_path):
    loaded = scene.read_bundle(stored)
    scene.write_bundle(loaded, tmp_path / "again")
    assert scene.read_bundle(tmp_path / "again").equals(loaded)


def test_wrong_magic(stored):
    blob = stored / "points.bin"
    raw = bytearray(blob.read_bytes())
    raw[:8] = b"BADMAGIC"
    blob.write_bytes(bytes(raw))
    with pytest.raises(MagicMismatchError):
        scene.read_bundle(stored)


def test_truncated_blob(stored):
    blob = stored / "feat2d.bin"
    raw = blob.read_bytes()
    blob.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(TruncatedBlobError):
        scene.read_bundle(stored)


def test_oversized_blob(stored):
    blob = stored / "mask.bin"
    blob.write_bytes(blob.read_bytes() + b"\x00" * 16)
    with pytest.raises(DimensionMismatchError):
        scene.read_bundle(stored)


def test_missing_blob_file(stored):
    (stored / "gt_region.bin").unlink()
    with pytest.raises(TruncatedBlobError):
        scene.read_bundle(stored)


def test_mask_feat2d_dimension_inconsistency(stored):
    manifest = json.loads((stored / "manifest.json").read_text())
    manifest["blobs"]["feat2d"]["shape"][0] += 1
    (stored / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DimensionMismatchError):
        scene.read_bundle(stored)


@pytest.mark.parametrize("edit", ["unknown", "missing"])
def test_blob_entries_must_match_the_format(stored, edit):
    manifest = json.loads((stored / "manifest.json").read_text())
    if edit == "unknown":
        manifest["blobs"]["extra"] = {"dtype": "<f4", "shape": [1]}
    else:
        del manifest["blobs"]["gt_region"]
    (stored / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(MalformedManifestError):
        scene.read_bundle(stored)


def test_bundle_with_a_prototypes_blob_is_refused(tmp_path, small_bundle):
    # Bundles once stored each region's type prototype and the noise level.
    (stored,) = scene.write_scene_dir([small_bundle], tmp_path / "scenes")
    prototypes = np.stack(
        [scene.type_prototype(int(t), small_bundle.feature_dim) for t in small_bundle.region_types]
    )
    blobio.write_blob(stored / "prototypes.bin", prototypes)
    manifest = json.loads((stored / "manifest.json").read_text())
    manifest["blobs"]["prototypes"] = {"dtype": "<f8", "shape": list(prototypes.shape)}
    manifest["noise_sigma"] = 0.02
    (stored / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(MalformedManifestError, match="unknown blob 'prototypes'"):
        scene.read_scene_dir(tmp_path / "scenes")


def test_other_format_rejected(tmp_path):
    counts = np.array([3, 1])
    k, tau, w = stage1.weights_from_counts(counts)
    table = stage1.WeightTable(
        group_of_region=np.array([0, 1]), counts=counts, k=k, tau=tau, w=w, n_groups=2, seed=0
    )
    stage1.save_weight_table(tmp_path / "table", table, np.zeros((2, 3)))
    with pytest.raises(MalformedManifestError):
        scene.read_bundle(tmp_path / "table")


def test_rewrite_replaces_directory_whole(stored, tmp_path):
    other = scene.generate_scene(scene.SceneSpec(n_objects=2, seed=5))
    (stored / "stray.txt").write_text("left by an older writer")
    scene.write_bundle(other, stored)
    assert scene.read_bundle(stored).equals(other)
    assert not (stored / "stray.txt").exists()
    assert [p.name for p in tmp_path.iterdir()] == ["bundle"]


def test_failed_manifest_write_keeps_old_file(tmp_path):
    path = tmp_path / "metrics.json"
    blobio.dump_manifest(path, {"loss": 1.0})
    with pytest.raises(TypeError):
        blobio.dump_manifest(path, {"loss": object()})
    assert blobio.load_manifest(path) == {"loss": 1.0}
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]


def test_malformed_manifest_json(stored):
    (stored / "manifest.json").write_text("{not json")
    with pytest.raises(MalformedManifestError):
        scene.read_bundle(stored)


def test_missing_manifest_key(stored):
    manifest = json.loads((stored / "manifest.json").read_text())
    del manifest["region_count"]
    (stored / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(MalformedManifestError):
        scene.read_bundle(stored)


def test_unsupported_blob_version(stored):
    blob = stored / "points.bin"
    raw = bytearray(blob.read_bytes())
    raw[8:12] = struct.pack("<I", 99)
    blob.write_bytes(bytes(raw))
    with pytest.raises(MalformedManifestError):
        scene.read_bundle(stored)


def test_blob_header_too_short(tmp_path):
    path = tmp_path / "tiny.bin"
    path.write_bytes(b"S3D")
    with pytest.raises(TruncatedBlobError):
        blobio.read_blob(path, "f4", (1,))


def test_scene_dir_round_trip(tmp_path):
    bundles = scene.generate_dataset(scene.SceneSpec(n_objects=2, seed=3), 3, 0)
    scene.write_scene_dir(bundles, tmp_path / "scenes")
    loaded = scene.read_scene_dir(tmp_path / "scenes")
    assert len(loaded) == 3
    assert all(a.equals(b) for a, b in zip(loaded, bundles))


def test_empty_scene_dir(tmp_path):
    (tmp_path / "scenes").mkdir()
    with pytest.raises(MalformedManifestError):
        scene.read_scene_dir(tmp_path / "scenes")
