"""Raw binary blob and JSON manifest I/O, and the one artifact directory format.

Blobs are little-endian arrays prefixed by 8 magic bytes and a 4-byte
version, so corrupt or foreign files fail loudly instead of decoding
into garbage. Scene bundles, weight tables and model checkpoints are
all directories written by :func:`save_arrays` and read by
:func:`load_arrays`: a ``manifest.json`` naming the format plus one
``<name>.bin`` blob per array, side by side in the one directory.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    MagicMismatchError,
    MalformedManifestError,
    TruncatedBlobError,
)

MAGIC = b"S3DBLOB\x00"
BLOB_VERSION = 1
FORMAT_VERSION = 1

_HEADER_LEN = len(MAGIC) + 4


def write_blob(path: str | Path, arr: np.ndarray) -> None:
    """Write ``arr`` as magic + version + raw little-endian bytes."""
    arr = np.ascontiguousarray(arr)
    le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", BLOB_VERSION))
        fh.write(le.data)


def _check_payload(path: Path, n_bytes: int, dtype: np.dtype, shape: tuple[int, ...]) -> None:
    expected = math.prod(shape) * dtype.itemsize
    if n_bytes < expected:
        raise TruncatedBlobError(f"{path}: expected {expected} payload bytes, got {n_bytes}")
    if n_bytes > expected:
        raise DimensionMismatchError(f"{path}: blob larger than manifest shape {shape}")


def read_blob(path: str | Path, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    """Read a blob written by :func:`write_blob` as a native-order array; validates its size."""
    path = Path(path)
    if not path.exists():
        raise TruncatedBlobError(f"missing blob file: {path}")
    raw = path.read_bytes()
    if len(raw) < _HEADER_LEN:
        raise TruncatedBlobError(f"{path}: too short for a blob header")
    if raw[: len(MAGIC)] != MAGIC:
        raise MagicMismatchError(f"{path}: bad magic bytes")
    (version,) = struct.unpack("<I", raw[len(MAGIC) : _HEADER_LEN])
    if version != BLOB_VERSION:
        raise MalformedManifestError(f"{path}: unsupported blob version {version}")
    dt = np.dtype(dtype).newbyteorder("<")
    _check_payload(path, len(raw) - _HEADER_LEN, dt, shape)
    arr = np.frombuffer(raw, dtype=dt, offset=_HEADER_LEN).reshape(shape)
    # Native byte order, writable copy.
    return arr.astype(arr.dtype.newbyteorder("="))


def dump_manifest(path: str | Path, manifest: dict) -> None:
    """Write ``manifest`` as JSON, replacing ``path`` atomically."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_manifest(path: str | Path, required_keys: tuple[str, ...] = ()) -> dict:
    path = Path(path)
    if not path.exists():
        raise MalformedManifestError(f"missing manifest: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedManifestError(f"{path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise MalformedManifestError(f"{path}: manifest is not a JSON object")
    missing = [k for k in required_keys if k not in manifest]
    if missing:
        raise MalformedManifestError(f"{path}: missing keys {missing}")
    return manifest


def save_arrays(path: str | Path, fmt: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``arrays`` as ``<name>.bin`` blobs plus ``manifest.json``, replacing ``path``.

    The directory is built under a dot-prefixed sibling name and renamed
    into place; an existing one is moved aside first and deleted afterwards,
    or moved back if the new one does not reach its place.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    old = tmp.with_suffix(".old")
    path.parent.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(tmp, ignore_errors=True)  # left behind by a killed process with this pid
    tmp.mkdir()
    try:
        blobs = {}
        for name, arr in arrays.items():
            write_blob(tmp / f"{name}.bin", arr)
            blobs[name] = {"dtype": arr.dtype.newbyteorder("<").str, "shape": list(arr.shape)}
        meta = {**meta, "format": fmt, "version": FORMAT_VERSION, "blobs": blobs}
        dump_manifest(tmp / "manifest.json", meta)
        if path.exists():
            # An ``old`` here was left by a process with this pid killed
            # between the two renames; ``path`` is newer than it.
            shutil.rmtree(old, ignore_errors=True)
            os.rename(path, old)
        os.rename(tmp, path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        if old.exists() and not path.exists():
            os.rename(old, path)
        raise
    shutil.rmtree(old, ignore_errors=True)


@contextmanager
def manifest_fields(path: str | Path):
    """Report a missing or mistyped manifest field read in the block as MalformedManifestError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise MalformedManifestError(f"{path}: bad manifest field: {exc!r}") from exc


def _blob_record(path: Path, name: str, meta) -> tuple[np.dtype, tuple[int, ...]]:
    """The dtype and shape of a ``blobs`` entry: a numeric dtype and non-negative ints."""
    if isinstance(meta, dict) and isinstance(meta.get("dtype"), str):
        try:
            dtype = np.dtype(meta["dtype"])
        except (TypeError, ValueError):
            dtype = None
        shape = meta.get("shape")
        if (
            dtype is not None
            and dtype.kind in "biuf"
            and isinstance(shape, list)
            and all(type(d) is int and d >= 0 for d in shape)
        ):
            return dtype.newbyteorder("<"), tuple(shape)
    raise MalformedManifestError(f"{path}: bad record for blob {name!r}: {meta!r}")


def load_arrays(
    path: str | Path, fmt: str, required_keys: tuple[str, ...], expect: Callable[[dict], dict]
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a directory written by :func:`save_arrays`; returns (manifest, arrays).

    ``expect(manifest)`` maps every blob the format holds to its shape, or
    to None for any shape; it runs after every ``blobs`` record is checked.
    The blob list, the expected shapes and each blob file's size are
    checked before any blob is read.
    """
    path = Path(path)
    manifest = load_manifest(path / "manifest.json", ("format", "version", "blobs", *required_keys))
    if manifest["format"] != fmt or manifest["version"] != FORMAT_VERSION:
        raise MalformedManifestError(f"{path}: not a {fmt} version {FORMAT_VERSION} manifest")
    if not isinstance(manifest["blobs"], dict):
        raise MalformedManifestError(f"{path}: blobs is not an object")
    records = {name: _blob_record(path, name, meta) for name, meta in manifest["blobs"].items()}
    with manifest_fields(path):
        expected = expect(manifest)
    for name, (_, shape) in records.items():
        if name not in expected:
            raise MalformedManifestError(f"{path}: unknown blob {name!r}")
        if expected[name] is not None and list(shape) != list(expected[name]):
            raise DimensionMismatchError(
                f"{path}: blob {name!r} shape {list(shape)} != expected {expected[name]}"
            )
    missing = [name for name in expected if name not in records]
    if missing:
        raise MalformedManifestError(f"{path}: missing blob entries {missing}")
    for name, (dtype, shape) in records.items():
        blob = path / f"{name}.bin"
        if not blob.is_file():
            raise TruncatedBlobError(f"missing blob file: {blob}")
        _check_payload(blob, blob.stat().st_size - _HEADER_LEN, dtype, shape)
    arrays = {
        name: read_blob(path / f"{name}.bin", dtype.str, shape)
        for name, (dtype, shape) in records.items()
    }
    return manifest, arrays
