"""Model components: token embedder, positional MLP, transformer stacks.

Every forward runs on a :class:`TokenBatch`, the tokens of one or more
scenes stacked row after row; attention stays within each scene of the
batch's scene layout, so the scenes of an optimizer batch share one graph,
and a forward without gradients packs up to :data:`EVAL_CHUNK` scenes.

Parameters are named views into one flat float64 buffer. Every model is
frozen when it is built, copied or loaded, with no gradient buffer; only
a training loop makes one trainable. A checkpoint holds weights only: one
artifact file with a JSON header and one raw float64 blob per flat buffer
(the parameters and, if saved, the two AdamW moments). It round-trips
bit-exact, optimizer state included.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import blobio, tensor as T
from .errors import InvalidInputError, MalformedManifestError
from .tokenizer import TokenSet

_MASK_STREAM = 0x3A5C

# Scenes per packed forward without gradients: dataset metrics, held-out
# evals, stage-2 teacher targets and probe features, whatever a run's
# batch_size. A packed forward is cheaper than one forward per scene.
EVAL_CHUNK = 16


@dataclass(frozen=True)
class Arch:
    """Desk-scale architecture hyperparameters."""

    embed_dim: int = 64
    n_heads: int = 4
    n_enc_layers: int = 3
    n_dec_layers: int = 1
    pointnet_hidden: int = 64
    max_points_per_token: int = 128
    mlp_ratio: int = 4
    proj_dim: int = 32
    ln_eps: float = 1e-5

    def validate(self) -> None:
        if self.embed_dim % self.n_heads != 0:
            raise InvalidInputError("embed_dim must divide evenly into heads")
        if min(self.embed_dim, self.n_heads, self.pointnet_hidden, self.proj_dim) < 1:
            raise InvalidInputError("arch dimensions must be positive")
        if self.n_enc_layers < 0 or self.n_dec_layers < 0 or self.max_points_per_token < 1:
            raise InvalidInputError("bad arch layer/point counts")

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(obj: dict) -> "Arch":
        arch = Arch(**obj)
        arch.validate()
        return arch


def no_decay(name: str) -> bool:
    """Parameters excluded from weight decay: layer-norm affines and the mask query."""
    return ".ln" in name or name == "mask_query"


class ModelParams:
    """Named parameters stored as views into one flat float64 buffer.

    ``data`` holds every parameter; each named ``Tensor`` is a reshaped
    view of its slice. The buffer puts decayed parameters before the
    :func:`no_decay` ones, so AdamW runs over at most two contiguous
    ranges. A new model is frozen and has no ``grad`` buffer. A leaf's
    ``requires_grad`` is the one record of trainability, and
    :meth:`set_trainable` is the one switch: it allocates ``grad`` while
    any parameter is trainable, binds each trainable leaf's ``grad`` to
    its view of it, zeroes the frozen slots and records the
    :meth:`trainable_ranges`. Nothing writes to a frozen slot afterwards,
    so ``grad`` is zero outside those ranges.
    """

    def __init__(
        self,
        shapes: dict[str, tuple[int, ...]],
        arch: Arch | None = None,
        data: np.ndarray | None = None,
    ):
        self.arch = arch
        # Buffer order: stable sort, decayed names first.
        self._slices: dict[str, tuple[slice, tuple[int, ...]]] = {}
        offset = 0
        for name in sorted(shapes, key=no_decay):
            size = math.prod(shapes[name])
            self._slices[name] = (slice(offset, offset + size), tuple(shapes[name]))
            offset += size
        self.n_decay = sum(math.prod(shape) for n, shape in shapes.items() if not no_decay(n))
        self.data = np.zeros(offset) if data is None else data
        self.grad: np.ndarray | None = None
        self._ranges: tuple[tuple[int, int, bool], ...] = ()
        views = self.views(self.data)
        self.tensors = {name: T.Tensor(views[name]) for name in shapes}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], arch: Arch | None = None) -> "ModelParams":
        """Frozen parameters holding copies of ``arrays``."""
        params = cls({name: np.shape(a) for name, a in arrays.items()}, arch)
        for name, a in arrays.items():
            params.tensors[name].data[...] = a
        return params

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's view into ``flat``, a vector laid out like ``data``."""
        return {name: flat[sl].reshape(shape) for name, (sl, shape) in self._slices.items()}

    def names(self) -> list[str]:
        return list(self.tensors)

    def trainable_names(self) -> list[str]:
        return [n for n, t in self.tensors.items() if t.requires_grad]

    def trainable_ranges(self) -> tuple[tuple[int, int, bool], ...]:
        """Maximal runs of trainable elements of ``data`` as (start, stop, decays).

        Recorded by :meth:`set_trainable`, which alone changes trainability.
        """
        return self._ranges

    def set_trainable(self, trainable: bool, names: Iterable[str] | None = None) -> None:
        """Make ``names`` (default: all) trainable or frozen, and bind the gradients."""
        for name in self.tensors if names is None else names:
            self.tensors[name].requires_grad = trainable
        if not self.trainable_names():
            self.grad = None
        elif self.grad is None:
            self.grad = np.zeros(self.data.size)
        views = {} if self.grad is None else self.views(self.grad)
        runs: list[tuple[int, int, bool]] = []
        for name, (sl, _) in self._slices.items():
            t = self.tensors[name]
            if not t.requires_grad:
                t.grad = None
                if views:
                    views[name][...] = 0.0  # zero_grad skips it; grad_norm sums it
                continue
            t.grad = views[name]
            decays = sl.start < self.n_decay
            if runs and runs[-1][1] == sl.start and runs[-1][2] == decays:
                runs[-1] = (runs[-1][0], sl.stop, decays)
            elif sl.start < sl.stop:
                runs.append((sl.start, sl.stop, decays))
        self._ranges = tuple(runs)

    def freeze_all(self) -> None:
        self.set_trainable(False)

    def zero_grad(self) -> None:
        """Zero the trainable ranges of ``grad``; the frozen slots hold zeros already."""
        for start, stop, _ in self._ranges:
            self.grad[start:stop].fill(0.0)

    def copy(self) -> "ModelParams":
        """A frozen model with a copy of ``data``."""
        shapes = {n: t.shape for n, t in self.tensors.items()}
        return ModelParams(shapes, self.arch, self.data.copy())

    def byte_hash(self) -> str:
        digest = hashlib.sha256()
        for name in self.tensors:
            digest.update(name.encode())
            digest.update(self.tensors[name].data.tobytes())
        return digest.hexdigest()


def init_params(arch: Arch, seed: int) -> ModelParams:
    """Seeded initialization; the positional MLP's final layer starts at zero."""
    arch.validate()
    rng = np.random.default_rng(np.random.SeedSequence([0x1417, seed]))
    arrays: dict[str, np.ndarray] = {}

    def linear(name: str, fan_in: int, fan_out: int, zero: bool = False) -> None:
        if zero:
            w = np.zeros((fan_in, fan_out))
        else:
            w = rng.normal(0.0, 1.0 / math.sqrt(fan_in), (fan_in, fan_out))
        arrays[f"{name}.w"] = w
        arrays[f"{name}.b"] = np.zeros(fan_out)

    def layernorm(name: str, dim: int) -> None:
        arrays[f"{name}.g"] = np.ones(dim)
        arrays[f"{name}.b"] = np.zeros(dim)

    L, H = arch.embed_dim, arch.pointnet_hidden
    linear("embed.l1", 3, H)
    linear("embed.l2", H, L)
    linear("pos.l1", 3, H)
    linear("pos.l2", H, L, zero=True)

    def block(prefix: str) -> None:
        layernorm(f"{prefix}.ln1", L)
        # Query/key/value projections carry no bias (a key bias would shift
        # every softmax row by a constant and never affect the output).
        for piece in ("wq", "wk", "wv", "wo"):
            arrays[f"{prefix}.attn.{piece}"] = rng.normal(0.0, 1.0 / math.sqrt(L), (L, L))
        arrays[f"{prefix}.attn.bo"] = np.zeros(L)
        layernorm(f"{prefix}.ln2", L)
        linear(f"{prefix}.mlp.l1", L, L * arch.mlp_ratio)
        linear(f"{prefix}.mlp.l2", L * arch.mlp_ratio, L)

    for i in range(arch.n_enc_layers):
        block(f"enc{i}")
    if arch.n_enc_layers > 0:
        layernorm("enc.ln_f", L)
    for i in range(arch.n_dec_layers):
        block(f"dec{i}")
    if arch.n_dec_layers > 0:
        layernorm("dec.ln_f", L)

    arrays["mask_query"] = rng.normal(0.0, 0.02, L)
    linear("proj", L, arch.proj_dim)
    linear("pred.l1", L, L)
    linear("pred.l2", L, L)

    return ModelParams.from_arrays(arrays, arch)


# ---------------------------------------------------------------------------
# Forward building blocks


@dataclass(frozen=True, eq=False)
class TokenBatch:
    """The tokens of one or more scenes, stacked row after row for one forward.

    Two layouts describe the rows: ``tokens`` gives each token its segment
    of ``members`` (its subsampled points minus its centroid) and ``scenes``
    each scene its segment of token rows. :meth:`of_scene` builds a scene's
    batch once; :meth:`stack` and :meth:`select` only copy rows and counts.
    """

    members: np.ndarray  # (P, 3) float64
    tokens: T.Segments  # one segment of members per token
    centroids: np.ndarray  # (N, 3) float64
    scenes: T.Segments  # one segment of tokens per scene

    @classmethod
    def of_scene(cls, bundle, tokens: TokenSet, max_points: int) -> "TokenBatch":
        """One scene's tokens, each cut to at most ``max_points`` members."""
        if tokens.segments.any_empty:
            raise InvalidInputError("cannot embed an empty token")
        indices, segments = tokens.subsampled(max_points)
        members = bundle.points[indices] - np.repeat(tokens.centroids, segments.counts, axis=0)
        return cls(members, segments, tokens.centroids, T.Segments.of_counts([len(tokens)]))

    @classmethod
    def stack(cls, batches: Sequence["TokenBatch"]) -> "TokenBatch":
        """The scenes of ``batches``, in order, as one batch."""
        if len(batches) == 1:
            return batches[0]
        return cls(
            np.concatenate([b.members for b in batches]),
            T.Segments.of_counts(np.concatenate([b.tokens.counts for b in batches])),
            np.concatenate([b.centroids for b in batches]),
            T.Segments.of_counts([len(b) for b in batches]),
        )

    def __len__(self) -> int:
        return len(self.centroids)

    def select(self, rows: np.ndarray) -> "TokenBatch":
        """The tokens at ``rows``, in that order; rows must keep the scenes in order."""
        rows = np.asarray(rows, dtype=np.int64)
        scene = self.scenes.ids[rows]
        if np.any(scene[1:] < scene[:-1]):
            raise InvalidInputError("selected rows must keep the scenes in order")
        tokens = T.Segments.of_counts(self.tokens.counts[rows])
        starts = np.repeat(self.tokens.bounds[rows], tokens.counts)
        return TokenBatch(
            self.members[starts + tokens.positions],
            tokens,
            self.centroids[rows],
            T.Segments.of_counts(np.bincount(scene, minlength=len(self.scenes))),
        )


def embed_tokens(batch: TokenBatch, params: ModelParams) -> T.Tensor:
    """Mini-PointNet: shared two-layer MLP over centered members, max-pool over points.

    The MLP runs once over every member row of the batch, and the max
    runs over each token's segment of them, as one engine node whose
    backward touches only each token's argmax rows.
    """
    weights = [params.tensors[f"embed.{name}"] for name in ("l1.w", "l1.b", "l2.w", "l2.b")]
    return T.mlp_max_pool(batch.members, *weights, batch.tokens)


def pos_embed(centroids: np.ndarray, params: ModelParams) -> T.Tensor:
    """Two-layer MLP on raw centroid coordinates."""
    p = params.tensors
    x = T.constant(np.asarray(centroids, dtype=np.float64).reshape(-1, 3))
    h = T.gelu(T.linear(x, p["pos.l1.w"], p["pos.l1.b"]))
    return T.linear(h, p["pos.l2.w"], p["pos.l2.b"])


def _attention(x: T.Tensor, params: ModelParams, prefix: str, scenes: T.Segments) -> T.Tensor:
    p = params.tensors
    q = T.matmul(x, p[f"{prefix}.attn.wq"])
    k = T.matmul(x, p[f"{prefix}.attn.wk"])
    v = T.matmul(x, p[f"{prefix}.attn.wv"])
    heads = T.attention(q, k, v, params.arch.n_heads, scenes)
    return T.linear(heads, p[f"{prefix}.attn.wo"], p[f"{prefix}.attn.bo"])


def _mlp(x: T.Tensor, params: ModelParams, prefix: str) -> T.Tensor:
    p = params.tensors
    h = T.gelu(T.linear(x, p[f"{prefix}.mlp.l1.w"], p[f"{prefix}.mlp.l1.b"]))
    return T.linear(h, p[f"{prefix}.mlp.l2.w"], p[f"{prefix}.mlp.l2.b"])


def _transformer(
    x: T.Tensor, params: ModelParams, name: str, n_layers: int, scenes: T.Segments
) -> T.Tensor:
    """``n_layers`` pre-norm blocks and a final layer norm; identity when empty."""
    if n_layers == 0:
        return x
    p, eps = params.tensors, params.arch.ln_eps
    for i in range(n_layers):
        prefix = f"{name}{i}"
        normed = T.layer_norm(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"], eps=eps)
        x = T.add(x, _attention(normed, params, prefix, scenes))
        normed = T.layer_norm(x, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"], eps=eps)
        x = T.add(x, _mlp(normed, params, prefix))
    return T.layer_norm(x, p[f"{name}.ln_f.g"], p[f"{name}.ln_f.b"], eps=eps)


def encode(features: T.Tensor, params: ModelParams, scenes: T.Segments) -> T.Tensor:
    """Pre-norm self-attention stack over stacked scenes; each row attends within its scene."""
    return _transformer(features, params, "enc", params.arch.n_enc_layers, scenes)


def decode(features: T.Tensor, params: ModelParams, scenes: T.Segments) -> T.Tensor:
    return _transformer(features, params, "dec", params.arch.n_dec_layers, scenes)


def forward_tokens(batch: TokenBatch, params: ModelParams) -> T.Tensor:
    """Encoder features of every token: token plus positional embedding, then the encoder."""
    h = T.add(embed_tokens(batch, params), pos_embed(batch.centroids, params))
    return encode(h, params, batch.scenes)


# ---------------------------------------------------------------------------
# Mask plans


@dataclass
class MaskPlan:
    visible: np.ndarray  # sorted token indices
    masked: np.ndarray

    @property
    def n_tokens(self) -> int:
        return len(self.visible) + len(self.masked)


def make_mask_plan(m: int, r_w: float, seed: int, scene_id: int, epoch: int) -> MaskPlan:
    """Uniform without-replacement masking from a counter-based generator.

    The plan is a pure function of (seed, scene_id, epoch); the masked
    count is round(r_w * m) with half rounding up.
    """
    if m < 1:
        raise InvalidInputError("mask plan needs at least one token")
    if not (0.0 <= r_w < 1.0):
        raise InvalidInputError(f"mask ratio {r_w} outside [0, 1)")
    key = np.random.SeedSequence([_MASK_STREAM, seed, scene_id, epoch]).generate_state(
        2, np.uint64
    )
    rng = np.random.Generator(np.random.Philox(key=key))
    n_masked = int(math.floor(r_w * m + 0.5))
    perm = rng.permutation(m)
    return MaskPlan(
        visible=np.sort(perm[n_masked:]).astype(np.int64),
        masked=np.sort(perm[:n_masked]).astype(np.int64),
    )


def fill_masked_positions(
    enc_visible: T.Tensor, visible_rows: np.ndarray, n_tokens: int, params: ModelParams
) -> T.Tensor:
    """Arrange visible encodings and the shared mask query back into token order.

    Row ``visible_rows[i]`` of the ``n_tokens`` output rows is
    ``enc_visible[i]``; every other row is the mask query.
    """
    n_visible = len(visible_rows)
    if enc_visible.shape[0] != n_visible:
        raise InvalidInputError("visible encodings do not match the mask plan")
    query = T.reshape(params.tensors["mask_query"], (1, params.arch.embed_dim))
    pool = T.concat([enc_visible, query], axis=0)
    index = np.full(n_tokens, n_visible, dtype=np.int64)
    index[visible_rows] = np.arange(n_visible)
    return T.gather_rows(pool, index)


# ---------------------------------------------------------------------------
# Checkpoints


@dataclass
class Checkpoint:
    params: ModelParams
    step: int
    # {"t": int, "m": array, "v": array}; the moments are laid out like params.data.
    opt_state: dict | None = None
    # What a resume must match, e.g. a stage-2 run's teacher hash; None if not recorded.
    fingerprint: dict | None = None


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    step: int,
    opt_state: dict | None = None,
    fingerprint: dict | None = None,
) -> None:
    """Write ``params.data``, and the AdamW moments if given, as one blob each of one file."""
    arrays = {"params": params.data}
    if opt_state is not None:
        arrays |= {"m": opt_state["m"], "v": opt_state["v"]}
    meta = {
        "arch": params.arch.to_json(),
        "step": int(step),
        "params": [{"name": name, "shape": list(t.shape)} for name, t in params.tensors.items()],
        "optimizer": None if opt_state is None else {"t": int(opt_state["t"])},
    }
    if fingerprint is not None:
        meta["fingerprint"] = fingerprint
    blobio.save_arrays(path, "model-checkpoint", meta, arrays)


def _param_records(manifest: dict) -> dict[str, list[int]]:
    """``{name: shape}`` from the manifest's ``params`` list, in order.

    A ``frozen`` key, which checkpoints held until trainability stopped
    being saved, is ignored.
    """
    records = manifest["params"]
    if not isinstance(records, list) or not all(
        isinstance(rec, dict)
        and isinstance(rec.get("name"), str)
        and isinstance(rec.get("shape"), list)
        and all(type(d) is int and d >= 0 for d in rec["shape"])
        for rec in records
    ):
        raise MalformedManifestError("checkpoint params must be {name, shape} records")
    parsed = {rec["name"]: rec["shape"] for rec in records}
    if len(parsed) != len(records):
        raise MalformedManifestError("checkpoint params repeat a name")
    return parsed


def _checkpoint_blobs(manifest: dict) -> dict[str, list[int]]:
    """The flat buffers, each as long as all parameters together, all ``<f8``."""
    if any(rec["dtype"] != "<f8" for rec in manifest["blobs"].values()):
        raise MalformedManifestError("checkpoint blobs must be <f8")
    total = [sum(math.prod(shape) for shape in _param_records(manifest).values())]
    if manifest["optimizer"] is None:
        return {"params": total}
    return {"params": total, "m": total, "v": total}


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint; its blobs become the flat buffers of a frozen model."""
    manifest, arrays = blobio.load_arrays(
        path, "model-checkpoint", ("arch", "step", "params", "optimizer"), _checkpoint_blobs
    )
    records = _param_records(manifest)
    with blobio.manifest_fields(path):
        arch = Arch.from_json(manifest["arch"])
        step = int(manifest["step"])
        t = None if manifest["optimizer"] is None else int(manifest["optimizer"]["t"])
    params = ModelParams(records, arch, data=arrays["params"])
    opt_state = None if t is None else {"t": t, "m": arrays["m"], "v": arrays["v"]}
    return Checkpoint(params, step, opt_state, manifest.get("fingerprint"))
