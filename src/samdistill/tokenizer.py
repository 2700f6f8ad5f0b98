"""Point tokenizers: the FPS+KNN baseline and the mask-guided tokenizer.

The baseline groups the k nearest points around farthest-point-sampled
centroids, which can mix points from different mask regions. The
mask-guided tokenizer assigns each point to the region its projection
lands on, so tokens are region-pure by construction. ``purity``
quantifies the difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyTokenizationError, InvalidCountError, InvalidInputError
from .scene import SceneBundle, pixels
from .tensor import Segments

# Tokenizer modes, as stored in TokenSet.mode, configs and run metrics.
MODE_SAM = "sam"
MODE_KNN = "knn"


@dataclass(eq=False)
class TokenSet:
    """The tokens of one scene as a struct of arrays.

    Token i owns the point indices in segment i of ``indices``, as laid out
    by ``segments``; ``centroids[i]`` is their mean and ``region_ids[i]``
    their mask region (-1 for baseline tokens). ``dropped_points`` are the
    scene points the tokenizer left out.
    """

    indices: np.ndarray  # int64 member indices into the bundle's points, token after token
    segments: Segments  # one segment of indices per token
    centroids: np.ndarray  # (M, 3) float64
    region_ids: np.ndarray  # (M,) int64
    mode: str
    dropped_points: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @classmethod
    def from_members(
        cls,
        members: list[np.ndarray],
        points: np.ndarray,
        region_ids: np.ndarray,
        mode: str,
        dropped_points: np.ndarray | None = None,
    ) -> "TokenSet":
        """Pack per-token member index arrays; each centroid is its members' mean."""
        pts = np.asarray(points, dtype=np.float64)
        members = [np.asarray(m, dtype=np.int64) for m in members]
        indices = np.concatenate(members) if members else np.empty(0, dtype=np.int64)
        segments = Segments.of_counts([len(m) for m in members])
        return cls(
            indices=indices,
            segments=segments,
            centroids=segments.mean_rows(pts[indices]),
            region_ids=np.asarray(region_ids, dtype=np.int64),
            mode=mode,
            dropped_points=(
                np.empty(0, dtype=np.int64) if dropped_points is None else dropped_points
            ),
        )

    def __len__(self) -> int:
        return len(self.segments)

    def subsampled(self, max_points: int) -> tuple[np.ndarray, Segments]:
        """``(indices, segments)`` with at most ``max_points`` members per token.

        Each token's members are sorted, and a token with n > max_points
        keeps every ceil(n / max_points)-th one.
        """
        counts, seg = self.segments.counts, self.segments.ids
        ordered = self.indices[np.lexsort((self.indices, seg))]
        stride = np.maximum(-(-counts // max_points), 1)
        kept = ordered[self.segments.positions % stride[seg] == 0]
        return kept, Segments.of_counts(-(-counts // stride))


def _label_counts(
    tokens: TokenSet, labels: np.ndarray, keep: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct member labels and an (M, U) count of each label in each token."""
    seg = tokens.segments.ids
    if keep is not None:
        seg, labels = seg[keep], labels[keep]
    ids, inverse = np.unique(labels, return_inverse=True)
    counts = np.bincount(seg * len(ids) + inverse, minlength=len(tokens) * len(ids))
    return ids, counts.reshape(len(tokens), len(ids))


def _as_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidInputError(f"points must be N x 3, got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("points contain non-finite coordinates")
    return pts


def nearest_to_mean(points: np.ndarray) -> int:
    """Index of the point closest to the cloud mean; ties take the lowest index."""
    pts = _as_points(points)
    d = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
    return int(np.argmin(d))


def fps(points: np.ndarray, n: int, start_index: int) -> np.ndarray:
    """Greedy farthest point sampling.

    The first pick is ``start_index``; each later pick maximises the
    minimum Euclidean distance to the points already picked, ties broken
    by the lowest index.
    """
    pts = _as_points(points)
    n_points = len(pts)
    if not (1 <= n <= n_points):
        raise InvalidCountError(f"cannot pick {n} centroids from {n_points} points")
    if not (0 <= start_index < n_points):
        raise InvalidCountError(f"start index {start_index} out of range")

    picked = np.empty(n, dtype=np.int64)
    picked[0] = start_index
    min_d = np.linalg.norm(pts - pts[start_index], axis=1)
    for i in range(1, n):
        nxt = int(np.argmax(min_d))  # argmax takes the first maximum: lowest index
        picked[i] = nxt
        min_d = np.minimum(min_d, np.linalg.norm(pts - pts[nxt], axis=1))
    return picked


def knn_tokenize(
    points: np.ndarray, n: int, k: int, start_index: int | None = None
) -> TokenSet:
    """Baseline tokenizer: k nearest points around each FPS centroid.

    Neighborhoods may overlap, so a point can belong to several tokens;
    each centroid is the member mean, not the FPS pick. Token order
    follows FPS pick order.
    """
    pts = _as_points(points)
    n_points = len(pts)
    if not (1 <= k <= n_points):
        raise InvalidCountError(f"cannot take k={k} neighbors from {n_points} points")
    if start_index is None:
        start_index = nearest_to_mean(pts)
    centers = fps(pts, n, start_index)

    members = []
    covered = np.zeros(n_points, dtype=bool)
    for c in centers:
        d = np.linalg.norm(pts - pts[c], axis=1)
        group = np.argsort(d, kind="stable")[:k].astype(np.int64)
        group.sort()
        covered[group] = True
        members.append(group)
    dropped = np.nonzero(~covered)[0].astype(np.int64)
    return TokenSet.from_members(members, pts, np.full(n, -1), MODE_KNN, dropped)


def point_regions(bundle: SceneBundle) -> np.ndarray:
    """Mask region id on each point's pixel (``scene.pixels``); -1 where unmapped.

    A point maps to -1 when it has no pixel (behind the camera or off the
    raster) or lands on an unmasked pixel.
    """
    pix = pixels(bundle.points, bundle.camera)
    return np.where(pix >= 0, bundle.mask.reshape(-1)[pix], np.int64(-1))


def sam_tokenize(bundle: SceneBundle, min_points: int = 8) -> TokenSet:
    """Mask-guided tokenizer: one token per mask region with enough points.

    A point joins the token of the region its pixel lies in. Points with
    no pixel, on unmasked pixels, or in regions below ``min_points`` are
    dropped.

    One stable sort groups the labelled points by region: tokens follow
    region id, each token's members ascend, and ``dropped_points``
    ascend. Each centroid has the bits of its members' ``.mean(0)``.
    """
    pts = np.asarray(bundle.points, dtype=np.float64)
    region_of_point = point_regions(bundle)
    labelled, ids, regions = Segments.group_labels(region_of_point)
    counts = regions.counts
    keep = counts >= min_points
    if not keep.any():
        raise EmptyTokenizationError("no region produced a token; skip this scene")
    kept = np.repeat(keep, counts)
    dropped = np.concatenate((np.flatnonzero(region_of_point < 0), labelled[~kept]))
    indices = labelled[kept]
    segments = Segments.of_counts(counts[keep])
    return TokenSet(
        indices=indices,
        segments=segments,
        centroids=segments.mean_rows(pts[indices]),
        region_ids=ids[keep],
        mode=MODE_SAM,
        dropped_points=np.sort(dropped),
    )


def tokenize(
    bundle: SceneBundle, mode: str, min_points: int = 8, knn_tokens: int = 0, knn_k: int = 0
) -> TokenSet:
    """Tokenize one scene with the named tokenizer.

    For the baseline, ``knn_tokens`` 0 means one token per mask region
    and ``knn_k`` 0 means ceil(n_points / n_tokens) neighbors.
    """
    if min(min_points, knn_tokens, knn_k) < 0:
        raise InvalidCountError(
            f"counts must be >= 0, got min_points={min_points}, "
            f"knn_tokens={knn_tokens}, knn_k={knn_k}"
        )
    if mode == MODE_SAM:
        return sam_tokenize(bundle, min_points=min_points)
    if mode == MODE_KNN:
        n = knn_tokens if knn_tokens > 0 else bundle.region_count
        k = knn_k if knn_k > 0 else math.ceil(bundle.n_points / n)
        return knn_tokenize(bundle.points, n=n, k=k)
    raise InvalidInputError(f"unknown tokenizer mode {mode!r}")


def majority_regions(tokens: TokenSet, regions_of_points: np.ndarray) -> np.ndarray:
    """Per-token majority mask region among members; ties take the lowest id."""
    labels = np.asarray(regions_of_points)[tokens.indices]
    ids, counts = _label_counts(tokens, labels, keep=labels >= 0)
    if not counts.any(axis=1).all():
        raise InvalidInputError("token has no members on masked pixels")
    return ids[np.argmax(counts, axis=1)].astype(np.int64)


def token_regions(tokens: TokenSet, bundle: SceneBundle) -> np.ndarray:
    """The mask region of each token: its own for mask-guided tokens, else its majority."""
    if tokens.mode == MODE_SAM:
        return tokens.region_ids
    return majority_regions(tokens, point_regions(bundle))


def purity(tokens: TokenSet, gt_region: np.ndarray) -> float:
    """Mean over tokens of the largest single-label share among members."""
    if len(tokens) == 0:
        raise InvalidInputError("purity of an empty token set is undefined")
    _, counts = _label_counts(tokens, np.asarray(gt_region)[tokens.indices])
    return float(np.mean(counts.max(axis=1) / tokens.segments.counts))
