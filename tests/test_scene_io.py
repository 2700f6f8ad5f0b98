"""Bundle storage: lossless round trips and distinct failure modes."""

import struct
from dataclasses import replace

import numpy as np
import pytest
from conftest import blob_spans, edit_header, read_artifact, write_artifact

from samdistill import blobio, cli, scene, stage1
from samdistill.errors import (
    DimensionMismatchError,
    InconsistencyError,
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
    # A self-consistent file whose feat2d has one raster row more than its mask.
    header, payload = read_artifact(stored)
    record = header["blobs"]["feat2d"]
    row = np.zeros(record["shape"][1:], "<f4").tobytes()
    cut = blob_spans(stored)["feat2d"][1] - (stored.stat().st_size - len(payload))
    record["shape"][0] += 1
    write_artifact(stored, header, payload[:cut] + row + payload[cut:])
    with pytest.raises(DimensionMismatchError, match="feat2d"):
        scene.read_bundle(stored)


@pytest.mark.parametrize(
    "field, change",
    [
        ("points", lambda b: np.zeros((b.n_points, 4), np.float32)),
        ("gt_region", lambda b: np.zeros(b.n_points + 1, np.int32)),
        ("colors", lambda b: np.zeros((b.n_points, 2), np.float32)),
        ("feat2d", lambda b: b.feat2d[..., None]),
        ("feat2d", lambda b: b.feat2d[:-1]),  # a mask whose H x W is not feat2d's
    ],
)
def test_validate_is_the_one_shape_check(small_bundle, tmp_path, field, change):
    bundle = replace(small_bundle, **{field: change(small_bundle)})
    with pytest.raises(DimensionMismatchError, match=field):
        bundle.validate()
    with pytest.raises(DimensionMismatchError, match=field):
        scene.write_bundle(bundle, tmp_path / "bundle")
    assert not any(tmp_path.iterdir())


def test_headers_with_the_older_keys_load_the_same(stored, small_bundle, tmp_path):
    # Earlier files also held the sizes their blobs and camera give, and the
    # weight table its derived weights, seed and per-region groups.
    edit_header(stored, lambda header: header.update(
        n_points=small_bundle.n_points, width=128, height=128,
        feature_dim=small_bundle.feature_dim, region_count=small_bundle.region_count,
    ))
    assert scene.read_bundle(stored).equals(small_bundle)

    table = stage1.WeightTable(np.arange(6.0).reshape(3, 2), np.array([5, 2, 1]))
    stage1.save_weight_table(tmp_path / "table", table)
    k, tau, w = (v.tolist() for v in stage1.weights_from_counts(table.counts))
    edit_header(tmp_path / "table", lambda header: header.update(
        n_groups=3, seed=0, k=k, tau=tau, w=w, group_of_region=[0, 1, 2, 0]
    ))
    loaded = stage1.load_weight_table(tmp_path / "table")
    for name in ("centroids", "counts", "w"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(table, name))


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


def test_mask_values_below_minus_one_are_refused(tmp_path, small_bundle, capsys):
    (stored,) = scene.write_scene_dir([small_bundle], tmp_path / "scenes")
    start, stop = blob_spans(stored)["mask"]
    raw = bytearray(stored.read_bytes())
    mask = np.frombuffer(raw[start:stop], dtype="<i4").copy()
    mask[mask == small_bundle.mask.max()] = -7
    raw[start:stop] = mask.tobytes()
    stored.write_bytes(bytes(raw))
    with pytest.raises(InconsistencyError, match="mask"):
        scene.read_bundle(stored)
    argv = ["--out-dir", str(tmp_path / "out"), "tokenize", "--scenes", str(tmp_path / "scenes")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_other_format_rejected(tmp_path):
    table = stage1.WeightTable(np.zeros((2, 3)), np.array([3, 1]))
    stage1.save_weight_table(tmp_path / "table", table)
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
    edit_header(stored, lambda h: h.pop("region_types"))
    with pytest.raises(MalformedManifestError):
        scene.read_bundle(stored)


def test_header_ints_past_their_dtype_are_malformed(stored, tmp_path):
    edit_header(stored, lambda h: h.update(region_types=[2**40, 0, 1]))
    with pytest.raises(MalformedManifestError):
        scene.read_bundle(stored)
    table = stage1.WeightTable(np.zeros((2, 1)), np.array([1, 1]))
    stage1.save_weight_table(tmp_path / "table", table)
    edit_header(tmp_path / "table", lambda h: h.update(counts=[2**70, 1]))
    with pytest.raises(MalformedManifestError):
        stage1.load_weight_table(tmp_path / "table")


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


def test_scene_dir_rewrite_leaves_no_stale_bundles(tmp_path):
    spec = scene.SceneSpec(n_objects=2)
    scene.write_scene_dir(scene.generate_dataset(spec, 4, 0), tmp_path / "scenes")
    fewer = scene.generate_dataset(spec, 2, 1)
    scene.write_scene_dir(fewer, tmp_path / "scenes")
    loaded = scene.read_scene_dir(tmp_path / "scenes")
    assert len(loaded) == 2
    assert all(a.equals(b) for a, b in zip(loaded, fewer))
    assert sorted(p.name for p in (tmp_path / "scenes").iterdir()) == ["scene_0000", "scene_0001"]


def test_empty_scene_dir(tmp_path):
    (tmp_path / "scenes").mkdir()
    with pytest.raises(MalformedManifestError):
        scene.read_scene_dir(tmp_path / "scenes")
