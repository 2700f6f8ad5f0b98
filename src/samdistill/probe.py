"""Linear probe: token-level object-type classification on frozen features.

Stands in for full downstream fine-tuning. Token features come from a
frozen encoder; the probe trains one linear layer with softmax
cross-entropy on train-scene tokens and reports held-out accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from . import tensor as T
from .errors import BadSplitError, InvalidInputError, NonFiniteError, ShapeMismatchError
from .scene import SceneBundle
from .tokenizer import TokenSet, sam_tokenize, token_regions
from .train import TrainConfig, adamw_step, init_opt_state, lr_at

ENCODER_SCRATCH = "scratch"
ENCODER_STAGE1 = "stage1"
ENCODER_STAGE2 = "stage2"

_PROBE_LR = 0.05


@dataclass
class ProbeResult:
    accuracy: float
    per_class: list[float]  # accuracy per type id; NaN where the class is absent
    n_tokens: int
    encoder_tag: str

    def to_json(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class": [None if np.isnan(a) else a for a in self.per_class],
            "n_tokens": self.n_tokens,
            "encoder_tag": self.encoder_tag,
        }


def token_type_labels(bundle: SceneBundle, tokens: TokenSet) -> np.ndarray:
    """Object type of each token's region (its majority region for baseline tokens)."""
    return bundle.region_types[token_regions(tokens, bundle)].astype(np.int64)


def extract_features(
    bundles: list[SceneBundle], params: nn.ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Frozen encoder features and type labels for every token across scenes.

    The scenes run in packed forwards of at most ``nn.EVAL_CHUNK`` scenes.
    Attention stays within each scene, and scenes with one token count (as
    in the mask-guided acceptance datasets, 12 tokens each) get the bits of
    one forward per scene; with unequal counts a padded softmax sum may
    round differently in the last bits.
    """
    max_points = params.arch.max_points_per_token
    feats, labels = [], []
    with T.no_grad():
        for start in range(0, len(bundles), nn.EVAL_CHUNK):
            chunk = bundles[start : start + nn.EVAL_CHUNK]
            tokens = [sam_tokenize(bundle) for bundle in chunk]
            batch = nn.TokenBatch.stack(
                [nn.TokenBatch.of_scene(b, t, max_points) for b, t in zip(chunk, tokens)]
            )
            feats.append(nn.forward_tokens(batch, params).data)
            labels += [token_type_labels(b, t) for b, t in zip(chunk, tokens)]
    return np.concatenate(feats), np.concatenate(labels)


def fit_linear_probe(
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    n_classes: int,
    epochs: int,
    seed: int,
) -> tuple[float, list[float]]:
    """Train a single linear classifier full-batch and score the held-out tokens.

    Each epoch computes the mean softmax cross-entropy gradient in closed
    form, ``(softmax(logits) - onehot) / n``, and builds no graph. The
    steps repeat the arithmetic of ``tensor.linear`` and
    ``tensor.cross_entropy`` and their backwards op for op, so the weights
    have the bits of the graph-based fit: ``p - 0.0`` is exact off the label
    column and the loss's seed gradient is 1.0. Every epoch overwrites
    buffers allocated once. Non-finite features, and non-finite logits in
    any epoch, raise NonFiniteError("linear") as the engine's per-op check
    would; finite logits give a finite loss, which nothing reads and so is
    not computed. The logit check is elementwise, because a sum of the
    logits warns on +inf and -inf together.
    """
    if epochs < 1:
        raise InvalidInputError("probe epochs must be >= 1")
    missing = sorted(set(np.unique(test_y)) - set(np.unique(train_y)))
    if missing:
        raise BadSplitError(f"classes {missing} absent from the probe training split")
    y = np.asarray(train_y, dtype=np.int64)
    n = len(train_x)
    if y.shape != (n,):
        raise ShapeMismatchError("fit_linear_probe", np.shape(train_x), y.shape)
    if n and (y.min() < 0 or y.max() >= n_classes):
        raise InvalidInputError("probe labels out of range")
    if not (np.isfinite(train_x).all() and np.isfinite(test_x).all()):
        raise NonFiniteError("linear", "probe features")

    mean = train_x.mean(axis=0)
    std = np.maximum(train_x.std(axis=0), 1e-6)
    xt = (train_x - mean) / std
    xe = (test_x - mean) / std

    rng = np.random.default_rng(np.random.SeedSequence([0x9B0E, seed]))
    params = nn.ModelParams.from_arrays(
        {"probe.w": rng.normal(0.0, 0.01, (xt.shape[1], n_classes)), "probe.b": np.zeros(n_classes)}
    )
    params.set_trainable(True)
    w, b = params.tensors["probe.w"], params.tensors["probe.b"]
    cfg = TrainConfig(
        base_lr=_PROBE_LR, weight_decay=0.0, epochs=epochs, warmup_epochs=0, seed=seed
    )
    state = init_opt_state(params)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    logits, p = np.empty((n, n_classes)), np.empty((n, n_classes))
    row_max, row_log_sum = np.empty((n, 1)), np.empty((n, 1))
    xt_t = xt.T
    for epoch in range(epochs):
        np.matmul(xt, w.data, out=logits)
        logits += b.data
        if not np.isfinite(logits).all():
            raise NonFiniteError("linear")
        np.maximum.reduce(logits, axis=1, keepdims=True, out=row_max)
        logits -= row_max  # the shifted logits
        np.exp(logits, out=p)
        np.add.reduce(p, axis=1, keepdims=True, out=row_log_sum)
        np.log(row_log_sum, out=row_log_sum)
        np.subtract(logits, row_log_sum, out=p)
        np.exp(p, out=p)
        p -= onehot
        p /= n
        np.matmul(xt_t, p, out=w.grad)
        np.add.reduce(p, axis=0, out=b.grad)
        adamw_step(params, state, lr_at(epoch, epochs, cfg), 0.0)

    logits = xe @ w.data + b.data
    pred = logits.argmax(axis=1)
    correct = pred == test_y
    accuracy = float(correct.mean())
    per_class = [
        float(correct[test_y == c].mean()) if np.any(test_y == c) else float("nan")
        for c in range(n_classes)
    ]
    return accuracy, per_class


def linear_probe(
    encoder: nn.ModelParams | str | Path,
    train_bundles: list[SceneBundle],
    test_bundles: list[SceneBundle],
    epochs: int = 300,
    seed: int = 0,
    encoder_tag: str = ENCODER_STAGE1,
) -> ProbeResult:
    """Probe a frozen encoder (a ModelParams or a checkpoint path).

    The features come from forwards without gradients, so a ModelParams
    passed in keeps its trainability and gradient buffer. An empty split
    raises BadSplitError before any scene is tokenized.
    """
    for split, bundles in (("train", train_bundles), ("test", test_bundles)):
        if not bundles:
            raise BadSplitError(f"the probe {split} split has no scenes")
    if not isinstance(encoder, nn.ModelParams):
        encoder = nn.load_checkpoint(encoder).params

    train_x, train_y = extract_features(train_bundles, encoder)
    test_x, test_y = extract_features(test_bundles, encoder)
    n_classes = int(max(train_y.max(), test_y.max())) + 1
    accuracy, per_class = fit_linear_probe(
        train_x, train_y, test_x, test_y, n_classes, epochs, seed
    )
    return ProbeResult(
        accuracy=accuracy,
        per_class=per_class,
        n_tokens=len(test_y),
        encoder_tag=encoder_tag,
    )
