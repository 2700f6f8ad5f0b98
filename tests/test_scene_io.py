"""Bundle storage: lossless round trips and distinct failure modes."""

import struct

import numpy as np
import pytest
from conftest import blob_spans, edit_header, read_artifact, write_artifact

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
    raw = bytearray(stored.read_bytes())
    raw[:8] = b"BADMAGIC"
    stored.write_bytes(bytes(raw))
    with pytest.raises(MagicMismatchError):
        scene.read_bundle(stored)


def test_truncated_blob(stored):
    start, stop = blob_spans(stored)["feat2d"]
    stored.write_bytes(stored.read_bytes()[: (start + stop) // 2])
    with pytest.raises(TruncatedBlobError):
        scene.read_bundle(stored)


def test_oversized_blob(stored):
    stored.write_bytes(stored.read_bytes() + b"\x00" * 16)
    with pytest.raises(DimensionMismatchError):
        scene.read_bundle(stored)


def test_missing_blob_file(stored):
    # The file ends where its last array should start.
    start, _ = blob_spans(stored)["points"]
    assert list(read_artifact(stored)[0]["blobs"])[-1] == "points"
    stored.write_bytes(stored.read_bytes()[:start])
    with pytest.raises(TruncatedBlobError):
        scene.read_bundle(stored)


def test_mask_feat2d_dimension_inconsistency(stored):
    def grow_feat2d(header):
        header["blobs"]["feat2d"]["shape"][0] += 1

    edit_header(stored, grow_feat2d)
    with pytest.raises(DimensionMismatchError):
        scene.read_bundle(stored)


@pytest.mark.parametrize("edit", ["unknown", "missing"])
def test_blob_entries_must_match_the_format(stored, edit):
    def change(header):
        if edit == "unknown":
            header["blobs"]["extra"] = {"dtype": "<f4", "shape": [1]}
        else:
            del header["blobs"]["gt_region"]

    edit_header(stored, change)
    with pytest.raises(MalformedManifestError):
        scene.read_bundle(stored)


def test_bundle_with_a_prototypes_blob_is_refused(tmp_path, small_bundle):
    # Bundles once stored each region's type prototype and the noise level.
    (stored,) = scene.write_scene_dir([small_bundle], tmp_path / "scenes")
    prototypes = np.stack(
        [scene.type_prototype(int(t), small_bundle.feature_dim) for t in small_bundle.region_types]
    )
    header, payload = read_artifact(stored)
    header["blobs"]["prototypes"] = {"dtype": "<f8", "shape": list(prototypes.shape)}
    header["noise_sigma"] = 0.02
    write_artifact(stored, header, payload + prototypes.astype("<f8").tobytes())
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


def test_rewrite_replaces_directory_whole(stored, tmp_path, small_bundle):
    # The new file has fewer and smaller arrays; nothing of the old one is left.
    other = scene.generate_scene(scene.SceneSpec(n_objects=2, seed=5))
    other.colors = None
    assert small_bundle.colors is not None
    scene.write_bundle(other, stored)
    assert scene.read_bundle(stored).equals(other)
    assert "colors" not in read_artifact(stored)[0]["blobs"]
    assert [p.name for p in tmp_path.iterdir()] == ["bundle"]


def test_failed_manifest_write_keeps_old_file(tmp_path):
    path = tmp_path / "metrics.json"
    blobio.dump_manifest(path, {"loss": 1.0})
    with pytest.raises(TypeError):
        blobio.dump_manifest(path, {"loss": object()})
    assert blobio.load_manifest(path) == {"loss": 1.0}
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]


def test_malformed_manifest_json(stored):
    _, payload = read_artifact(stored)
    text = b"{not json"
    stored.write_bytes(blobio.MAGIC + struct.pack("<IQ", 2, len(text)) + text + payload)
    with pytest.raises(MalformedManifestError):
        scene.read_bundle(stored)


def test_missing_manifest_key(stored):
    edit_header(stored, lambda h: h.pop("region_count"))
    with pytest.raises(MalformedManifestError):
        scene.read_bundle(stored)


def test_unsupported_blob_version(stored):
    raw = bytearray(stored.read_bytes())
    raw[8:12] = struct.pack("<I", 99)
    stored.write_bytes(bytes(raw))
    with pytest.raises(MalformedManifestError):
        scene.read_bundle(stored)


def test_blob_header_too_short(stored):
    # The file ends inside the 20-byte prefix, or inside the JSON header.
    raw = stored.read_bytes()
    for cut in (3, 19, 40):
        stored.write_bytes(raw[:cut])
        with pytest.raises(TruncatedBlobError):
            scene.read_bundle(stored)


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
