"""Model components: token embedder, positional MLP, transformer stacks.

Parameters live in a flat named map with per-name freeze flags so that a
whole model can serve as a frozen teacher. Checkpoints are a JSON
manifest plus one raw float64 blob per parameter and round-trip
bit-exact, optimizer state included.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import blobio, tensor as T
from .errors import InvalidInputError
from .tokenizer import Token, TokenSet

_MASK_STREAM = 0x3A5C


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


@dataclass
class ModelParams:
    """Named parameter collection with freeze flags."""

    arch: Arch
    tensors: dict[str, T.Tensor]
    frozen: dict[str, bool]

    def names(self) -> list[str]:
        return list(self.tensors)

    def trainable_names(self) -> list[str]:
        return [n for n in self.tensors if not self.frozen[n]]

    def freeze_all(self) -> None:
        for name, t in self.tensors.items():
            self.frozen[name] = True
            t.requires_grad = False
            t.grad = None

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def copy(self) -> "ModelParams":
        out = ModelParams(arch=self.arch, tensors={}, frozen=dict(self.frozen))
        for name, t in self.tensors.items():
            clone = T.Tensor(t.data.copy(), requires_grad=t.requires_grad)
            out.tensors[name] = clone
        return out

    def byte_hash(self) -> str:
        digest = hashlib.sha256()
        for name in self.tensors:
            digest.update(name.encode())
            digest.update(self.tensors[name].data.tobytes())
        return digest.hexdigest()


def no_decay(name: str) -> bool:
    """Parameters excluded from weight decay: layer-norm affines and the mask query."""
    return ".ln" in name or name == "mask_query"


def init_params(arch: Arch, seed: int) -> ModelParams:
    """Seeded initialization; the positional MLP's final layer starts at zero."""
    arch.validate()
    rng = np.random.default_rng(np.random.SeedSequence([0x1417, seed]))
    tensors: dict[str, T.Tensor] = {}

    def linear(name: str, fan_in: int, fan_out: int, zero: bool = False) -> None:
        if zero:
            w = np.zeros((fan_in, fan_out))
        else:
            w = rng.normal(0.0, 1.0 / math.sqrt(fan_in), (fan_in, fan_out))
        tensors[f"{name}.w"] = T.parameter(w)
        tensors[f"{name}.b"] = T.parameter(np.zeros(fan_out))

    def layernorm(name: str, dim: int) -> None:
        tensors[f"{name}.g"] = T.parameter(np.ones(dim))
        tensors[f"{name}.b"] = T.parameter(np.zeros(dim))

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
            tensors[f"{prefix}.attn.{piece}"] = T.parameter(
                rng.normal(0.0, 1.0 / math.sqrt(L), (L, L))
            )
        tensors[f"{prefix}.attn.bo"] = T.parameter(np.zeros(L))
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

    tensors["mask_query"] = T.parameter(rng.normal(0.0, 0.02, L))
    linear("proj", L, arch.proj_dim)
    linear("pred.l1", L, L)
    linear("pred.l2", L, L)

    return ModelParams(arch=arch, tensors=tensors, frozen={n: False for n in tensors})


# ---------------------------------------------------------------------------
# Forward building blocks


def _subsample(indices: np.ndarray, max_points: int) -> np.ndarray:
    """Deterministic stride sampling over sorted indices down to max_points."""
    idx = np.sort(np.asarray(indices, dtype=np.int64))
    if len(idx) <= max_points:
        return idx
    stride = math.ceil(len(idx) / max_points)
    return idx[::stride]


def _tokens_of(tokens: TokenSet | Sequence[Token]) -> list[Token]:
    return list(tokens.tokens) if isinstance(tokens, TokenSet) else list(tokens)


def centroids_of(tokens: TokenSet | Sequence[Token]) -> np.ndarray:
    return np.stack([t.centroid for t in _tokens_of(tokens)])


def embed_tokens(bundle, tokens: TokenSet | Sequence[Token], params: ModelParams) -> T.Tensor:
    """Mini-PointNet: center members, shared two-layer MLP, max-pool over points."""
    toks = _tokens_of(tokens)
    if any(len(t.point_indices) == 0 for t in toks):
        raise InvalidInputError("cannot embed an empty token")
    p = params.tensors
    points = np.asarray(bundle.points, dtype=np.float64)
    rows = []
    for tok in toks:
        idx = _subsample(tok.point_indices, params.arch.max_points_per_token)
        local = T.constant(points[idx] - tok.centroid)
        h = T.relu(T.add(T.matmul(local, p["embed.l1.w"]), p["embed.l1.b"]))
        h = T.add(T.matmul(h, p["embed.l2.w"]), p["embed.l2.b"])
        rows.append(T.max_pool(h, axis=0))
    return T.stack(rows)


def pos_embed(centroids: np.ndarray, params: ModelParams) -> T.Tensor:
    """Two-layer MLP on raw centroid coordinates."""
    p = params.tensors
    x = T.constant(np.asarray(centroids, dtype=np.float64).reshape(-1, 3))
    h = T.gelu(T.add(T.matmul(x, p["pos.l1.w"]), p["pos.l1.b"]))
    return T.add(T.matmul(h, p["pos.l2.w"]), p["pos.l2.b"])


def _attention(x: T.Tensor, params: ModelParams, prefix: str) -> T.Tensor:
    p = params.tensors
    n_heads = params.arch.n_heads
    dh = params.arch.embed_dim // n_heads
    q = T.matmul(x, p[f"{prefix}.attn.wq"])
    k = T.matmul(x, p[f"{prefix}.attn.wk"])
    v = T.matmul(x, p[f"{prefix}.attn.wv"])
    heads = []
    for h_i in range(n_heads):
        lo, hi = h_i * dh, (h_i + 1) * dh
        qh = T.slice_axis(q, 1, lo, hi)
        kh = T.slice_axis(k, 1, lo, hi)
        vh = T.slice_axis(v, 1, lo, hi)
        scores = T.mul(T.matmul(qh, T.transpose(kh)), 1.0 / math.sqrt(dh))
        heads.append(T.matmul(T.softmax(scores, axis=1), vh))
    cat = heads[0] if len(heads) == 1 else T.concat(heads, axis=1)
    return T.add(T.matmul(cat, p[f"{prefix}.attn.wo"]), p[f"{prefix}.attn.bo"])


def _mlp(x: T.Tensor, params: ModelParams, prefix: str) -> T.Tensor:
    p = params.tensors
    h = T.gelu(T.add(T.matmul(x, p[f"{prefix}.mlp.l1.w"]), p[f"{prefix}.mlp.l1.b"]))
    return T.add(T.matmul(h, p[f"{prefix}.mlp.l2.w"]), p[f"{prefix}.mlp.l2.b"])


def _block(x: T.Tensor, params: ModelParams, prefix: str) -> T.Tensor:
    p, eps = params.tensors, params.arch.ln_eps
    normed = T.layer_norm(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"], eps=eps)
    x = T.add(x, _attention(normed, params, prefix))
    normed = T.layer_norm(x, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"], eps=eps)
    return T.add(x, _mlp(normed, params, prefix))


def encode(features: T.Tensor, params: ModelParams) -> T.Tensor:
    """Pre-norm self-attention stack; identity when the stack is empty."""
    x = features
    if params.arch.n_enc_layers == 0:
        return x
    for i in range(params.arch.n_enc_layers):
        x = _block(x, params, f"enc{i}")
    p = params.tensors
    return T.layer_norm(x, p["enc.ln_f.g"], p["enc.ln_f.b"], eps=params.arch.ln_eps)


def decode(features: T.Tensor, params: ModelParams) -> T.Tensor:
    x = features
    if params.arch.n_dec_layers == 0:
        return x
    for i in range(params.arch.n_dec_layers):
        x = _block(x, params, f"dec{i}")
    p = params.tensors
    return T.layer_norm(x, p["dec.ln_f.g"], p["dec.ln_f.b"], eps=params.arch.ln_eps)


def forward_tokens(bundle, tokens: TokenSet, params: ModelParams) -> T.Tensor:
    """Encoder features of every token: token plus positional embedding, then the encoder."""
    h = T.add(embed_tokens(bundle, tokens, params), pos_embed(centroids_of(tokens), params))
    return encode(h, params)


# ---------------------------------------------------------------------------
# Mask plans


@dataclass
class MaskPlan:
    visible: np.ndarray  # sorted token indices
    masked: np.ndarray
    ratio: float

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
        ratio=r_w,
    )


def fill_masked_positions(enc_visible: T.Tensor, plan: MaskPlan, params: ModelParams) -> T.Tensor:
    """Arrange visible encodings and the shared mask query back into token order."""
    n_visible = len(plan.visible)
    if enc_visible.shape[0] != n_visible:
        raise InvalidInputError("visible encodings do not match the mask plan")
    query = T.reshape(params.tensors["mask_query"], (1, params.arch.embed_dim))
    pool = T.concat([enc_visible, query], axis=0)
    index = np.full(plan.n_tokens, n_visible, dtype=np.int64)
    index[plan.visible] = np.arange(n_visible)
    return T.gather_rows(pool, index)


# ---------------------------------------------------------------------------
# Checkpoints


@dataclass
class Checkpoint:
    params: ModelParams
    step: int
    opt_state: dict | None = None  # {"t": int, "m": {name: arr}, "v": {name: arr}}


def save_checkpoint(
    path: str | Path, params: ModelParams, step: int, opt_state: dict | None = None
) -> None:
    arrays = {f"params/{name}": t.data for name, t in params.tensors.items()}
    if opt_state is not None:
        arrays |= {f"opt/{name}.{k}": opt_state[k][name] for name in params.tensors for k in "mv"}
    meta = {
        "arch": params.arch.to_json(),
        "step": int(step),
        "params": [{"name": name, "frozen": bool(params.frozen[name])} for name in params.tensors],
        "optimizer": None if opt_state is None else {"t": int(opt_state["t"])},
    }
    blobio.save_arrays(path, "model-checkpoint", meta, arrays)


def _checkpoint_blobs(manifest: dict) -> dict[str, None]:
    names = [rec["name"] for rec in manifest["params"]]
    blobs = dict.fromkeys(f"params/{name}" for name in names)
    if manifest["optimizer"] is not None:
        blobs |= dict.fromkeys(f"opt/{name}.{k}" for name in names for k in "mv")
    return blobs


def load_checkpoint(path: str | Path) -> Checkpoint:
    manifest, arrays = blobio.load_arrays(
        path, "model-checkpoint", ("arch", "step", "params", "optimizer"), _checkpoint_blobs
    )
    frozen = {rec["name"]: bool(rec["frozen"]) for rec in manifest["params"]}
    tensors = {
        name: T.Tensor(arrays[f"params/{name}"], requires_grad=not is_frozen)
        for name, is_frozen in frozen.items()
    }
    params = ModelParams(arch=Arch.from_json(manifest["arch"]), tensors=tensors, frozen=frozen)

    opt_state = None
    if manifest["optimizer"] is not None:
        opt_state = {k: {name: arrays[f"opt/{name}.{k}"] for name in tensors} for k in "mv"}
        opt_state["t"] = int(manifest["optimizer"]["t"])
    return Checkpoint(params=params, step=int(manifest["step"]), opt_state=opt_state)
