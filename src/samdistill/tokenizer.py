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
from .scene import SceneBundle, pixel_round, project

# Tokenizer modes, as stored in TokenSet.mode, configs and run metrics.
MODE_SAM = "sam"
MODE_KNN = "knn"


@dataclass
class Token:
    point_indices: np.ndarray  # int64 indices into the bundle's points
    centroid: np.ndarray  # (3,) float64 mean of member coordinates
    region_id: int  # -1 for baseline tokens


@dataclass
class TokenSet:
    tokens: list[Token]
    mode: str
    dropped_points: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.tokens)

    def member_counts(self) -> np.ndarray:
        return np.array([len(t.point_indices) for t in self.tokens], dtype=np.int64)

    def region_ids(self) -> np.ndarray:
        return np.array([t.region_id for t in self.tokens], dtype=np.int64)


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
    the centroid field is recomputed as the member mean. Token order
    follows FPS pick order.
    """
    pts = _as_points(points)
    n_points = len(pts)
    if k > n_points:
        raise InvalidCountError(f"k={k} exceeds {n_points} points")
    if start_index is None:
        start_index = nearest_to_mean(pts)
    centers = fps(pts, n, start_index)

    tokens = []
    covered = np.zeros(n_points, dtype=bool)
    for c in centers:
        d = np.linalg.norm(pts - pts[c], axis=1)
        members = np.argsort(d, kind="stable")[:k].astype(np.int64)
        members.sort()
        covered[members] = True
        tokens.append(
            Token(point_indices=members, centroid=pts[members].mean(axis=0), region_id=-1)
        )
    dropped = np.nonzero(~covered)[0].astype(np.int64)
    return TokenSet(tokens=tokens, mode=MODE_KNN, dropped_points=dropped)


def point_regions(bundle: SceneBundle) -> np.ndarray:
    """Mask region id under each point's rounded projection; -1 where unmapped.

    A point maps to -1 when it is behind the camera, projects outside
    the raster (including rounding past the last pixel), or lands on an
    unmasked pixel.
    """
    pts = np.asarray(bundle.points, dtype=np.float64)
    proj = project(pts, bundle.camera)
    region_of_point = np.full(len(pts), -1, dtype=np.int64)

    inside = proj.inside
    pu = pixel_round(proj.uv[inside, 0])
    pv = pixel_round(proj.uv[inside, 1])
    h, w = bundle.mask.shape
    on_raster = (pu >= 0) & (pu < w) & (pv >= 0) & (pv < h)
    idx_inside = np.nonzero(inside)[0]
    valid = idx_inside[on_raster]
    region_of_point[valid] = bundle.mask[pv[on_raster], pu[on_raster]]
    return region_of_point


def sam_tokenize(bundle: SceneBundle, min_points: int = 8) -> TokenSet:
    """Mask-guided tokenizer: one token per mask region with enough points.

    A point joins the token of the region its rounded projection lands
    on. Points that fall behind the camera, outside the raster, on
    unmasked pixels, or in regions below ``min_points`` are dropped.
    Tokens are ordered by region id.
    """
    pts = np.asarray(bundle.points, dtype=np.float64)
    region_of_point = point_regions(bundle)

    tokens = []
    dropped = list(np.nonzero(region_of_point < 0)[0])
    for rid in np.unique(region_of_point[region_of_point >= 0]):
        members = np.nonzero(region_of_point == rid)[0].astype(np.int64)
        if len(members) < min_points:
            dropped.extend(members)
            continue
        tokens.append(
            Token(
                point_indices=members,
                centroid=pts[members].mean(axis=0),
                region_id=int(rid),
            )
        )
    if not tokens:
        raise EmptyTokenizationError("no region produced a token; skip this scene")
    dropped_arr = np.array(sorted(int(i) for i in dropped), dtype=np.int64)
    return TokenSet(tokens=tokens, mode=MODE_SAM, dropped_points=dropped_arr)


def tokenize(
    bundle: SceneBundle, mode: str, min_points: int = 8, knn_tokens: int = 0, knn_k: int = 0
) -> TokenSet:
    """Tokenize one scene with the named tokenizer.

    For the baseline, ``knn_tokens`` 0 means one token per mask region
    and ``knn_k`` 0 means ceil(n_points / n_tokens) neighbors.
    """
    if mode == MODE_SAM:
        return sam_tokenize(bundle, min_points=min_points)
    if mode == MODE_KNN:
        n = knn_tokens if knn_tokens > 0 else bundle.region_count
        k = knn_k if knn_k > 0 else math.ceil(bundle.n_points / n)
        return knn_tokenize(bundle.points, n=n, k=k)
    raise InvalidInputError(f"unknown tokenizer mode {mode!r}")


def majority_regions(tokens: TokenSet, regions_of_points: np.ndarray) -> np.ndarray:
    """Per-token majority mask region among members; ties take the lowest id."""
    out = np.empty(len(tokens), dtype=np.int64)
    for i, tok in enumerate(tokens.tokens):
        labels = regions_of_points[tok.point_indices]
        labels = labels[labels >= 0]
        if len(labels) == 0:
            raise InvalidInputError("token has no members on masked pixels")
        ids, counts = np.unique(labels, return_counts=True)
        out[i] = ids[np.argmax(counts)]
    return out


def purity(tokens: TokenSet, gt_region: np.ndarray) -> float:
    """Mean over tokens of the largest single-label share among members."""
    if len(tokens) == 0:
        raise InvalidInputError("purity of an empty token set is undefined")
    gt = np.asarray(gt_region)
    shares = []
    for tok in tokens.tokens:
        labels = gt[tok.point_indices]
        _, counts = np.unique(labels, return_counts=True)
        shares.append(counts.max() / len(labels))
    return float(np.mean(shares))
