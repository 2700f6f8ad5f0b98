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
from .errors import BadSplitError, InvalidInputError
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
    """Train a single linear classifier full-batch and score the held-out tokens."""
    if epochs < 1:
        raise InvalidInputError("probe epochs must be >= 1")
    missing = sorted(set(np.unique(test_y)) - set(np.unique(train_y)))
    if missing:
        raise BadSplitError(f"classes {missing} absent from the probe training split")

    mean = train_x.mean(axis=0)
    std = np.maximum(train_x.std(axis=0), 1e-6)
    xt = (train_x - mean) / std
    xe = (test_x - mean) / std

    rng = np.random.default_rng(np.random.SeedSequence([0x9B0E, seed]))
    params = nn.ModelParams.from_arrays(
        {"probe.w": rng.normal(0.0, 0.01, (xt.shape[1], n_classes)), "probe.b": np.zeros(n_classes)}
    )
    w, b = params.tensors["probe.w"], params.tensors["probe.b"]
    cfg = TrainConfig(
        base_lr=_PROBE_LR, weight_decay=0.0, epochs=epochs, warmup_epochs=0, seed=seed
    )
    state = init_opt_state(params)
    x_const = T.constant(xt)
    for epoch in range(epochs):
        params.zero_grad()
        loss = T.cross_entropy(T.linear(x_const, w, b), train_y)
        loss.backward()
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
    """Probe a frozen encoder (a ModelParams or a checkpoint path)."""
    if not isinstance(encoder, nn.ModelParams):
        encoder = nn.load_checkpoint(encoder).params
    encoder.freeze_all()

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
