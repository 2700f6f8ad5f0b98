"""Artifact files and JSON manifests, each put in place by one ``os.replace``.

Scene bundles, weight tables and model checkpoints are each one file,
written by :func:`save_arrays` and read by :func:`load_arrays`: the magic
bytes ``S3DBLOB\\0``, a uint32 format version and a uint64 header length,
a JSON header (``format``, ``version``, the format's own keys and ``blobs:
{name: {dtype, shape}}``), then each array's bytes in header order, each
padded to 8 bytes. Everything is little-endian.
"""

from __future__ import annotations

import json
import math
import os
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
FORMAT_VERSION = 2

_PREFIX = struct.Struct("<8sIQ")  # magic, format version, header length


def _replace_with(path: Path, write: Callable[[Path], None]) -> None:
    """Run ``write`` on a dot-prefixed sibling of ``path``, then move it over ``path``."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_blob(path: str | Path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write one artifact file: ``header`` plus the arrays' records, then their bytes."""
    arrays = {
        k: np.ascontiguousarray(a, a.dtype.newbyteorder("<")) for k, a in sorted(arrays.items())
    }
    blobs = {k: {"dtype": a.dtype.str, "shape": list(a.shape)} for k, a in arrays.items()}
    text = json.dumps({**header, "blobs": blobs}, sort_keys=True).encode()
    text += b" " * (-(_PREFIX.size + len(text)) % 8)  # so the first array starts aligned
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(MAGIC, FORMAT_VERSION, len(text)))
        fh.write(text)
        for arr in arrays.values():
            fh.write(arr.data)
            fh.write(bytes(-arr.nbytes % 8))


def read_blob(path: str | Path, records: dict, offset: int) -> dict[str, np.ndarray]:
    """Read the arrays ``records`` gives as ``{name: (dtype, shape)}``, the first at ``offset``."""
    arrays = {}
    with open(path, "rb") as fh:
        fh.seek(offset)
        for name, (dtype, shape) in records.items():
            arr = np.empty(shape, dtype)
            if fh.readinto(arr) != arr.nbytes:
                raise TruncatedBlobError(f"{path}: ends inside blob {name!r}")
            fh.seek(-arr.nbytes % 8, os.SEEK_CUR)
            arrays[name] = arr.astype(arr.dtype.newbyteorder("="), copy=False)  # native order
    return arrays


def dump_manifest(path: str | Path, manifest: dict) -> None:
    """Write ``manifest`` as JSON, replacing ``path`` atomically."""

    def write(tmp: Path) -> None:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    _replace_with(Path(path), write)


def load_manifest(path: str | Path, required_keys: tuple[str, ...] = ()) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedManifestError(f"{path}: {exc}") from exc
    return _with_keys(path, manifest, required_keys)


def _with_keys(path: Path, manifest, required_keys: tuple[str, ...]) -> dict:
    if not isinstance(manifest, dict):
        raise MalformedManifestError(f"{path}: manifest is not a JSON object")
    missing = [k for k in required_keys if k not in manifest]
    if missing:
        raise MalformedManifestError(f"{path}: missing keys {missing}")
    return manifest


def save_arrays(path: str | Path, fmt: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``meta`` and ``arrays`` as one ``fmt`` artifact file, replacing ``path``.

    The file is written under a dot-prefixed sibling name and moved over
    ``path`` by one ``os.replace``, so ``path`` holds the old or the new file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {**meta, "format": fmt, "version": FORMAT_VERSION}
    _replace_with(path, lambda tmp: write_blob(tmp, header, arrays))


@contextmanager
def manifest_fields(path: str | Path):
    """Report a missing or mistyped manifest field read in the block as MalformedManifestError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise MalformedManifestError(f"{path}: bad manifest field: {exc!r}") from exc


def _blob_record(path: Path, name: str, meta) -> tuple[np.dtype, tuple[int, ...]]:
    """The dtype and shape of a ``blobs`` entry: a numeric dtype and non-negative ints."""
    try:
        dtype, shape = np.dtype(meta["dtype"]), meta["shape"]
        if (
            isinstance(meta["dtype"], str)
            and dtype.kind in "biuf"
            and isinstance(shape, list)
            and all(type(d) is int and d >= 0 for d in shape)
        ):
            return dtype.newbyteorder("<"), tuple(shape)
    except (KeyError, TypeError, ValueError):
        pass
    raise MalformedManifestError(f"{path}: bad record for blob {name!r}: {meta!r}")


def _read_header(path: Path) -> tuple[object, int, int]:
    """An artifact file's parsed header, the offset of its first array and the file's size."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            prefix = fh.read(_PREFIX.size)
            if len(prefix) < _PREFIX.size:
                raise TruncatedBlobError(f"{path}: too short for an artifact header")
            magic, version, n_header = _PREFIX.unpack(prefix)
            if magic != MAGIC:
                raise MagicMismatchError(f"{path}: bad magic bytes")
            if version != FORMAT_VERSION:
                raise MalformedManifestError(f"{path}: unsupported artifact version {version}")
            if _PREFIX.size + n_header > size:
                raise TruncatedBlobError(f"{path}: ends inside its {n_header}-byte header")
            text = fh.read(n_header)
    except IsADirectoryError as exc:
        raise MalformedManifestError(
            f"{path} is a directory: it predates the one-file artifact format; regenerate it"
        ) from exc
    except OSError as exc:
        raise MalformedManifestError(f"{path}: {exc}") from exc
    try:
        return json.loads(text), _PREFIX.size + n_header, size
    except ValueError as exc:  # a UnicodeDecodeError too
        raise MalformedManifestError(f"{path}: {exc}") from exc


def load_arrays(
    path: str | Path, fmt: str, required_keys: tuple[str, ...], expect: Callable[[dict], dict]
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a file written by :func:`save_arrays`; returns (header, arrays).

    ``expect(header)`` maps every blob the format holds to its shape, or to
    None for any shape; it runs after every ``blobs`` record is checked. The
    blob list, the shapes and the file's size are checked before any read.
    """
    path = Path(path)
    header, offset, size = _read_header(path)
    manifest = _with_keys(path, header, ("format", "version", "blobs", *required_keys))
    if manifest["format"] != fmt or manifest["version"] != FORMAT_VERSION:
        raise MalformedManifestError(f"{path}: not a {fmt} version {FORMAT_VERSION} artifact")
    if not isinstance(manifest["blobs"], dict):
        raise MalformedManifestError(f"{path}: blobs is not an object")
    records = {name: _blob_record(path, name, meta) for name, meta in manifest["blobs"].items()}
    with manifest_fields(path):
        expected = expect(manifest)
    for name, (_, shape) in records.items():
        if name not in expected:
            raise MalformedManifestError(f"{path}: unknown blob {name!r}")
        if expected[name] is not None and list(shape) != list(expected[name]):
            raise DimensionMismatchError(f"{path}: blob {name!r} shape {shape} != {expected[name]}")
    missing = [name for name in expected if name not in records]
    if missing:
        raise MalformedManifestError(f"{path}: missing blob entries {missing}")
    nbytes = [math.prod(shape) * dtype.itemsize for dtype, shape in records.values()]
    end = offset + sum(n - n % -8 for n in nbytes)
    if size < end:
        raise TruncatedBlobError(f"{path}: {size} bytes, its records need {end}")
    if size > end:
        raise DimensionMismatchError(f"{path}: {size} bytes, longer than its records' {end}")
    return manifest, read_blob(path, records, offset)
