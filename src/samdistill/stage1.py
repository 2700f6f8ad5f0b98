"""Region-level 2D-to-3D dense distillation with group-balanced re-weighting.

Region targets are pooled from the 2D feature raster per mask region.
An offline pass clusters max-pooled region features into K groups with
k-means. The weight table keeps the centroids, which give each region its
group, and each group's training count n_i, from which over-represented
groups weigh less: k_i = (n_i - n_min) / n_max, tau_i = 1 - k_i, w_i = tau_i / sum(tau).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import blobio
from . import tensor as T
from .errors import DimensionMismatchError, InconsistencyError, InvalidCountError, InvalidInputError
from .nn import ModelParams


class RegionFeatures(NamedTuple):
    """A scene's pooled 2D features: mean rows are stage-1 targets, max rows the k-means input."""

    ids: np.ndarray  # (R,) region ids, ascending
    mean: np.ndarray  # (R, L) float64
    max: np.ndarray  # (R, L) float64

    def select(self, region_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The mean and max rows of the listed regions, in order.

        Raises InconsistencyError for a region with no masked pixels.
        """
        region_ids = np.asarray(region_ids).reshape(-1)
        missing = region_ids[~np.isin(region_ids, self.ids)]
        if missing.size:
            raise InconsistencyError(f"region {missing[0]} has no masked pixels")
        which = np.searchsorted(self.ids, region_ids)
        return self.mean[which], self.max[which]


def pool_features_by_region(feat2d: np.ndarray, mask: np.ndarray) -> RegionFeatures:
    """Mean- and max-pool raster features over the pixels of every mask region.

    One stable sort groups the labelled pixels by region, in raster order
    within each, and every region pools at once. Each max row has the bits
    of ``feat[mask == rid].max(0)``, and each mean row those of ``.mean(0)``
    for features wider than one column (:meth:`tensor.Segments.mean_rows`).
    """
    feat = np.asarray(feat2d)
    labels = np.asarray(mask).reshape(-1)
    pixels, ids, regions = T.Segments.group_labels(labels)
    rows = feat.reshape(labels.size, -1)[pixels].astype(np.float64, copy=False)
    maxima = np.maximum.reduceat(rows, regions.bounds[:-1], axis=0)
    return RegionFeatures(ids, regions.mean_rows(rows), maxima)


def project_3d(h: T.Tensor, params: ModelParams) -> T.Tensor:
    """Linear map from encoder features to the 2D feature dimension."""
    p = params.tensors
    return T.linear(h, p["proj.w"], p["proj.b"])


def trains(name: str) -> bool:
    """Whether stage 1 trains parameter ``name``: whether its loss reaches it.

    The loss reaches the token and positional embedders, the encoder and
    the projection head. The decoder, the predictor and the mask query
    come into play only in stage 2.
    """
    return name.startswith(("embed.", "pos.", "enc", "proj."))


# ---------------------------------------------------------------------------
# k-means with deterministic k-means++ seeding


def _plusplus_seed(
    x: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: first pick uniform, later picks with prob proportional to D^2."""
    n = len(x)
    centroids = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = x[first]
    d2 = np.sum((x - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # All points coincide with chosen centroids; any pick is equivalent.
            pick = int(rng.integers(n))
        else:
            cum = np.cumsum(d2 / total)
            pick = int(np.searchsorted(cum, rng.random(), side="right"))
            pick = min(pick, n - 1)
        centroids[j] = x[pick]
        d2 = np.minimum(d2, np.sum((x - centroids[j]) ** 2, axis=1))
    return centroids


def _assign(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)  # first minimum: lowest centroid index on ties


def _sse(x: np.ndarray, centroids: np.ndarray, assign: np.ndarray) -> float:
    return float(((x - centroids[assign]) ** 2).sum())


_KMEANS_MAX_ITER = 100
_KMEANS_RESTARTS = 8


@dataclass
class KMeansResult:
    centroids: np.ndarray  # K x L
    assignment: np.ndarray  # N int64
    sse: float
    converged: bool


def kmeans(features: np.ndarray, k: int, seed: int) -> KMeansResult:
    """Lloyd iterations to an assignment fixpoint from k-means++ seeds.

    Runs ``_KMEANS_RESTARTS`` seeded restarts of at most
    ``_KMEANS_MAX_ITER`` iterations each and keeps the lowest
    within-cluster SSE. An empty cluster re-seeds, deterministically,
    from the point farthest from its assigned centroid.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidInputError(f"features must be N x L, got {x.shape}")
    if not (1 <= k <= len(x)):
        raise InvalidCountError(f"cannot form {k} clusters from {len(x)} points")

    best: KMeansResult | None = None
    for restart in range(_KMEANS_RESTARTS):
        rng = np.random.default_rng(np.random.SeedSequence([0xC1A5, seed, restart]))
        centroids = _plusplus_seed(x, k, rng)
        assignment = _assign(x, centroids)
        converged = False
        for _ in range(_KMEANS_MAX_ITER):
            for j in range(k):
                members = assignment == j
                if members.any():
                    centroids[j] = x[members].mean(axis=0)
                else:
                    # Re-seed the empty cluster from the farthest point.
                    d2 = ((x - centroids[assignment]) ** 2).sum(axis=1)
                    centroids[j] = x[int(np.argmax(d2))]
            new_assignment = _assign(x, centroids)
            if np.array_equal(new_assignment, assignment):
                converged = True
                break
            assignment = new_assignment
        result = KMeansResult(
            centroids=centroids,
            assignment=assignment.astype(np.int64),
            sse=_sse(x, centroids, assignment),
            converged=converged,
        )
        if best is None or result.sse < best.sse - 1e-12:
            best = result
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Weight table


@dataclass(frozen=True, eq=False)
class WeightTable:
    """Per-group distillation weights: the k-means centroids and each group's count.

    The centroids give each region its group (:func:`assign_groups`), and
    the counts give each group its weight (:func:`weights_from_counts`).
    """

    centroids: np.ndarray  # K x L float64
    counts: np.ndarray  # K int64

    def __post_init__(self) -> None:
        """Computes ``w`` once, which refuses a non-positive count, then checks the shapes."""
        if np.ndim(self.centroids) != 2 or len(self.centroids) != len(self.w):
            shape = np.shape(self.centroids)
            raise DimensionMismatchError(f"{len(self.w)} group counts, centroids {shape}")

    @property
    def n_groups(self) -> int:
        return len(self.counts)

    @cached_property
    def w(self) -> np.ndarray:
        """K float64 normalized group weights, summing to 1."""
        return weights_from_counts(self.counts)[2]


def weights_from_counts(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weight formulas on group counts: k, tau, and normalized w."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or len(counts) == 0 or np.any(counts <= 0):
        raise InvalidInputError("group counts must be a non-empty positive vector")
    k = (counts - counts.min()) / counts.max()
    tau = 1.0 - k
    return k, tau, tau / tau.sum()


def build_weight_table(region_features: np.ndarray, n_groups: int, seed: int) -> WeightTable:
    """Cluster max-pooled region features into ``n_groups`` groups and count each group.

    Computed once per dataset before stage-1 training; each region's group
    is then its nearest centroid (:func:`assign_groups`).
    """
    feats = np.asarray(region_features, dtype=np.float64)
    if len(feats) < n_groups:
        raise InvalidCountError(
            f"dataset has {len(feats)} regions, fewer than {n_groups} groups"
        )
    result = kmeans(feats, n_groups, seed)
    counts = np.bincount(result.assignment, minlength=n_groups).astype(np.int64)
    return WeightTable(result.centroids, counts)


def assign_groups(region_features: np.ndarray, table: WeightTable) -> np.ndarray:
    """Nearest centroid of ``table`` per region feature (ties to the lowest group)."""
    return _assign(
        np.asarray(region_features, dtype=np.float64),
        np.asarray(table.centroids, dtype=np.float64),
    ).astype(np.int64)


def save_weight_table(path: str | Path, table: WeightTable) -> None:
    meta = {"counts": np.asarray(table.counts).tolist()}
    centroids = np.asarray(table.centroids, np.float64)
    blobio.save_arrays(path, "weight-table", meta, {"centroids": centroids})


def load_weight_table(path: str | Path) -> WeightTable:
    """Read a weight table; the header keys that older files also hold are not read."""
    manifest, arrays = blobio.load_arrays(
        path, "weight-table", ("counts",), lambda _: {"centroids": None}
    )
    with blobio.manifest_fields(path):
        return WeightTable(arrays["centroids"], np.array(manifest["counts"], dtype=np.int64))


# ---------------------------------------------------------------------------
# Loss


def stage1_loss(
    f2d: np.ndarray,
    f3d: T.Tensor,
    table: WeightTable,
    groups: np.ndarray,
    scenes: T.Segments | None = None,
    reweight: bool = True,
) -> T.Tensor:
    """Weighted mean of per-region smooth L1 between pooled 2D and projected 3D features.

    Region i weighs ``K * w[group_i]``: the paper's normalized weights
    times K, so they average 1 and the logged loss stays on the scale of
    the unweighted loss. The factor is not a learning-rate choice, as
    AdamW ignores a constant loss scale except through its epsilon.
    Without ``reweight`` (the re-weighting ablation) every region weighs
    1. With ``scenes``, the layout of stacked scenes' rows, the loss is
    the mean over scenes of each scene's loss.
    """
    targets = np.asarray(f2d, dtype=np.float64)
    groups = np.asarray(groups, dtype=np.int64)
    m = targets.shape[0]
    if f3d.shape != targets.shape or groups.shape != (m,):
        raise InvalidInputError(
            f"misaligned stage-1 loss inputs: {targets.shape}, {f3d.shape}, {groups.shape}"
        )
    if groups.min() < 0 or groups.max() >= table.n_groups:
        raise InconsistencyError("region group index outside the weight table")

    weights = float(table.n_groups) * table.w[groups] if reweight else np.ones(m)
    return T.smooth_l1(f3d, T.constant(targets), weights, scenes)


def region_cosines(f2d: np.ndarray, f3d: np.ndarray) -> np.ndarray:
    """Cosine similarity of each pair of rows; a pair with a zero-norm row gives 0."""
    a = np.asarray(f2d, dtype=np.float64)
    b = np.asarray(f3d, dtype=np.float64)
    num = (a * b).sum(axis=1)
    den = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    return num / np.maximum(den, 1e-12)
