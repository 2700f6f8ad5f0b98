import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from samdistill import blobio, nn, scene

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=40)
settings.load_profile("ci")


TINY_ARCH = nn.Arch(
    embed_dim=8,
    n_heads=2,
    n_enc_layers=1,
    n_dec_layers=1,
    pointnet_hidden=6,
    max_points_per_token=16,
    mlp_ratio=1,
    proj_dim=5,
)


@pytest.fixture(scope="session")
def small_bundle() -> scene.SceneBundle:
    return scene.generate_scene(scene.SceneSpec(n_objects=3, seed=11))


@pytest.fixture(scope="session")
def tiny_arch() -> nn.Arch:
    return TINY_ARCH


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


# Artifact files, taken apart and put together again by hand so a test can
# damage one part: 8 magic bytes, a uint32 version, a uint64 header length,
# the JSON header, then the arrays, each padded to 8 bytes.
_PREFIX = 20


def read_artifact(path) -> tuple[dict, bytes]:
    """An artifact file's JSON header and every byte after it."""
    raw = Path(path).read_bytes()
    (n_header,) = struct.unpack_from("<Q", raw, 12)
    return json.loads(raw[_PREFIX : _PREFIX + n_header]), raw[_PREFIX + n_header :]


def write_artifact(path, header: dict, payload: bytes) -> None:
    """Write ``header`` and ``payload`` in the artifact layout, whatever they hold."""
    text = json.dumps(header).encode()
    text += b" " * (-(_PREFIX + len(text)) % 8)
    prefix = blobio.MAGIC + struct.pack("<IQ", blobio.FORMAT_VERSION, len(text))
    Path(path).write_bytes(prefix + text + payload)


def edit_header(path, edit) -> None:
    """Rewrite an artifact file with ``edit(header)`` applied and its arrays' bytes kept."""
    header, payload = read_artifact(path)
    edit(header)
    write_artifact(path, header, payload)


def blob_spans(path) -> dict[str, tuple[int, int]]:
    """Each array's [start, stop) byte range in an artifact file."""
    header, payload = read_artifact(path)
    start, spans = Path(path).stat().st_size - len(payload), {}
    for name, rec in header["blobs"].items():
        n_bytes = math.prod(rec["shape"]) * np.dtype(rec["dtype"]).itemsize
        spans[name] = (start, start + n_bytes)
        start += n_bytes + -n_bytes % 8
    return spans
