"""Synthetic scenes: geometry, mask oracle, 2D feature rasters, and storage.

A scene bundle stands in for one RGB-D frame plus the outputs of a 2D
segmenter and a 2D feature extractor. Objects are axis-aligned boxes
placed so that their pixel footprints never overlap, which makes the
mask raster an exact oracle: every point's rounded pixel carries its own
region id. Region feature prototypes come from a global object-type
catalog so that the mapping from shape to feature is learnable across
scenes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import blobio
from .errors import (
    DimensionMismatchError,
    InconsistencyError,
    InvalidInputError,
    InvalidSpecError,
    MalformedManifestError,
)

# Distinct entropy stream tags so different draws never alias.
_SCENE_STREAM = 0x5CE7E
_PROTO_STREAM = 0x9807
_DATASET_STREAM = 0xDA7A

# Pixel margin kept between an object's footprint and its cell border.
_CELL_MARGIN = 3.0
_DEPTH_EPS = 1e-6

PROJ_OK = 0
PROJ_OUTSIDE = 1
PROJ_BEHIND = 2

# Each object type combines an interior fill pattern (a structural cue that
# random features barely see, since every pattern includes the box corners)
# with a mildly distinctive box aspect ratio (a weak geometric cue). Type id
# t maps to pattern t % 4 and box t % 4; extra types recombine them.
N_FILL_PATTERNS = 4  # solid, hollow shell, x slabs, y slabs

BOX_ARCHETYPES = np.array(
    [
        [0.36, 0.27, 0.22],
        [0.27, 0.36, 0.22],
        [0.22, 0.27, 0.36],
        [0.30, 0.30, 0.26],
    ],
    dtype=np.float64,
)


@dataclass(frozen=True)
class Camera:
    """Pinhole camera with a rigid world-to-camera transform."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        """Checked once, here: the rotation and translation become read-only float64 copies."""
        for name in ("rotation", "translation"):
            value = np.array(getattr(self, name), dtype=np.float64)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if not (self.fx > 0 and self.fy > 0):
            raise InvalidInputError("camera focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise InvalidInputError("camera principal point must lie inside the raster")
        rot = self.rotation
        if rot.shape != (3, 3):
            raise InvalidInputError("camera rotation must be 3x3")
        if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-9):
            raise InvalidInputError("camera rotation must be orthonormal")
        if not math.isclose(float(np.linalg.det(rot)), 1.0, abs_tol=1e-9):
            raise InvalidInputError("camera rotation must have determinant +1")

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        return points @ self.rotation.T + self.translation


def default_camera(width: int = 128, height: int = 128) -> Camera:
    f = float(max(width, height))
    return Camera(fx=f, fy=f, cx=width / 2.0, cy=height / 2.0, width=width, height=height)


@dataclass
class Projection:
    """Result of projecting N points: continuous pixel coords plus a status per point."""

    uv: np.ndarray  # N x 2 float64; valid only where status == PROJ_OK
    status: np.ndarray  # N int32

    @property
    def inside(self) -> np.ndarray:
        return self.status == PROJ_OK


def project(points: np.ndarray, camera: Camera) -> Projection:
    """Project world points through ``camera``.

    A point is ``behind`` when its camera-frame depth is <= 1e-6 m, and
    ``outside`` when its continuous pixel coordinates leave
    [0, width) x [0, height).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidInputError(f"points must be N x 3, got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("points contain non-finite coordinates")

    cam_pts = camera.world_to_camera(pts)
    z = cam_pts[:, 2]
    status = np.full(len(pts), PROJ_OK, dtype=np.int32)
    uv = np.zeros((len(pts), 2), dtype=np.float64)

    behind = z <= _DEPTH_EPS
    status[behind] = PROJ_BEHIND
    safe_z = np.where(behind, 1.0, z)
    uv[:, 0] = camera.fx * cam_pts[:, 0] / safe_z + camera.cx
    uv[:, 1] = camera.fy * cam_pts[:, 1] / safe_z + camera.cy

    outside = (
        (uv[:, 0] < 0)
        | (uv[:, 0] >= camera.width)
        | (uv[:, 1] < 0)
        | (uv[:, 1] >= camera.height)
    )
    status[outside & ~behind] = PROJ_OUTSIDE
    return Projection(uv=uv, status=status)


def pixel_round(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer pixel, ties round half-up."""
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5).astype(np.int64)


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of one synthetic scene. Identical spec + seed gives a bit-identical bundle.

    ``depth_levels`` > 0 snaps object depths to that many discrete levels
    so object positions recur across scenes; together with shuffled cell
    assignment this keeps position from identifying an object, which
    matters for small pretraining datasets.
    """

    n_objects: int
    points_per_object_range: tuple[int, int] = (60, 120)
    feature_dim: int = 32
    imbalance_exponent: float = 0.0
    seed: int = 0
    noise_sigma: float = 0.02
    n_types: int = 4
    depth_range: tuple[float, float] = (2.5, 5.5)
    depth_levels: int = 0
    min_points_per_object: int = 12


@dataclass
class SceneBundle:
    """One synthetic frame: points, camera, mask oracle, and 2D feature raster.

    The raster holds what a 2D feature extractor would give. The values
    that generated it are not stored: region r's pixels are
    ``type_prototype(region_types[r], feature_dim)`` plus noise of the
    spec's ``noise_sigma``, and every stage reads only the raster.
    """

    points: np.ndarray  # N x 3 float32
    colors: np.ndarray | None  # N x 3 float32 in [0, 1]
    camera: Camera
    gt_region: np.ndarray  # N int32, -1 = background
    mask: np.ndarray  # H x W int32 region ids, -1 = no mask
    feat2d: np.ndarray  # H x W x L float32
    region_count: int
    region_types: np.ndarray  # region_count int32, global object-type ids

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.feat2d.shape[2])

    def validate(self) -> None:
        if self.n_points < 1:
            raise InconsistencyError("bundle must contain at least one point")
        if self.mask.shape != self.feat2d.shape[:2]:
            raise DimensionMismatchError(
                f"mask dims {self.mask.shape} != feat2d dims {self.feat2d.shape[:2]}"
            )
        if (self.mask.shape[1], self.mask.shape[0]) != (self.camera.width, self.camera.height):
            raise DimensionMismatchError("mask dims do not match the camera raster")
        ids = np.unique(self.mask)
        ids = ids[ids >= 0]
        if ids.size and (ids.min() < 0 or ids.max() >= self.region_count):
            raise InconsistencyError("mask contains region ids outside [0, region_count)")
        if len(self.region_types) != self.region_count:
            raise DimensionMismatchError("region_types length != region_count")
        if not np.all(np.isfinite(self.feat2d)):
            raise InconsistencyError("feat2d contains non-finite values")

    def equals(self, other: "SceneBundle") -> bool:
        """Bit-exact equality across every stored field."""
        same_colors = (self.colors is None) == (other.colors is None) and (
            self.colors is None or np.array_equal(self.colors, other.colors)
        )
        cam_a, cam_b = self.camera, other.camera
        same_camera = (
            (cam_a.fx, cam_a.fy, cam_a.cx, cam_a.cy, cam_a.width, cam_a.height)
            == (cam_b.fx, cam_b.fy, cam_b.cx, cam_b.cy, cam_b.width, cam_b.height)
            and np.array_equal(cam_a.rotation, cam_b.rotation)
            and np.array_equal(cam_a.translation, cam_b.translation)
        )
        return (
            same_camera
            and same_colors
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.gt_region, other.gt_region)
            and np.array_equal(self.mask, other.mask)
            and np.array_equal(self.feat2d, other.feat2d)
            and self.region_count == other.region_count
            and np.array_equal(self.region_types, other.region_types)
        )


def type_prototype(type_id: int, dim: int) -> np.ndarray:
    """Deterministic unit feature vector for a global object type."""
    rng = np.random.default_rng(np.random.SeedSequence([_PROTO_STREAM, type_id, dim]))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def type_extents(type_id: int) -> np.ndarray:
    boxes = len(BOX_ARCHETYPES)
    return BOX_ARCHETYPES[(type_id + type_id // boxes) % boxes].copy()


def type_pattern(type_id: int) -> int:
    return type_id % N_FILL_PATTERNS


def _pattern_unit_points(rng: np.random.Generator, count: int, pattern: int) -> np.ndarray:
    """Sample ``count`` points in [-1, 1]^3 realizing an interior fill pattern."""
    pts = rng.uniform(-1.0, 1.0, (count, 3))
    if pattern == 1:  # hollow shell: each point snaps to a random face
        axes = rng.integers(0, 3, count)
        signs = rng.choice(np.array([-1.0, 1.0]), count)
        pts[np.arange(count), axes] = signs
    elif pattern in (2, 3):  # two parallel slabs along x or y
        axis = pattern - 2
        mag = rng.uniform(0.55, 1.0, count)
        signs = rng.choice(np.array([-1.0, 1.0]), count)
        pts[:, axis] = mag * signs
    return pts


def _validate_spec(spec: SceneSpec) -> None:
    if spec.n_objects < 1:
        raise InvalidSpecError("n_objects must be >= 1")
    if spec.feature_dim < 2:
        raise InvalidSpecError("feature_dim must be >= 2")
    lo, hi = spec.points_per_object_range
    if not (1 <= lo <= hi):
        raise InvalidSpecError(f"bad points_per_object_range {spec.points_per_object_range}")
    if spec.n_types < 1:
        raise InvalidSpecError("n_types must be >= 1")
    zlo, zhi = spec.depth_range
    if not (0.5 < zlo <= zhi):
        raise InvalidSpecError(f"bad depth_range {spec.depth_range}")
    if spec.noise_sigma < 0:
        raise InvalidSpecError("noise_sigma must be >= 0")
    if spec.seed < 0:
        raise InvalidSpecError("seed must be a non-negative integer")


def _footprint_fits(
    camera: Camera,
    center: np.ndarray,
    half_extents: np.ndarray,
    bounds: tuple[float, float, float, float],
) -> bool:
    """True when every corner of the box projects inside pixel ``bounds``."""
    u0, u1, v0, v1 = bounds
    xs = (center[0] - half_extents[0], center[0] + half_extents[0])
    ys = (center[1] - half_extents[1], center[1] + half_extents[1])
    zs = (center[2] - half_extents[2], center[2] + half_extents[2])
    if zs[0] <= 0.5:
        return False
    for x in xs:
        for z in zs:
            u = camera.fx * x / z + camera.cx
            if not (u0 <= u <= u1):
                return False
    for y in ys:
        for z in zs:
            v = camera.fy * y / z + camera.cy
            if not (v0 <= v <= v1):
                return False
    return True


def _fit_scale(
    camera: Camera,
    center: np.ndarray,
    half_extents: np.ndarray,
    bounds: tuple[float, float, float, float],
) -> float:
    """Largest scale in (0, 1] keeping the box footprint inside ``bounds``; 0 if none fits."""
    if _footprint_fits(camera, center, half_extents, bounds):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _footprint_fits(camera, center, half_extents * mid, bounds):
            lo = mid
        else:
            hi = mid
    return lo


def _sample_counts(rng: np.random.Generator, spec: SceneSpec) -> np.ndarray:
    """Per-object point counts: uniform draws damped by a rank power law."""
    lo, hi = spec.points_per_object_range
    raw = rng.uniform(lo, hi, spec.n_objects)
    damp = np.arange(1, spec.n_objects + 1, dtype=np.float64) ** (-spec.imbalance_exponent)
    return np.maximum(spec.min_points_per_object, np.rint(raw * damp)).astype(np.int64)


def _sample_types(rng: np.random.Generator, spec: SceneSpec) -> np.ndarray:
    """Per-object types drawn with probability proportional to (t+1)^-exponent."""
    weights = np.arange(1, spec.n_types + 1, dtype=np.float64) ** (-spec.imbalance_exponent)
    probs = weights / weights.sum()
    return rng.choice(spec.n_types, size=spec.n_objects, p=probs).astype(np.int32)


def generate_scene(spec: SceneSpec) -> SceneBundle:
    """Build one synthetic scene bundle.

    Objects occupy disjoint pixel-grid cells, so masks partition the
    raster and the oracle invariant holds exactly: a point with region r
    always lands on a pixel whose mask value is r. Draw order is fixed
    (types, counts, then per-object geometry and colors, then feature
    noise) so identical specs are bit-identical.
    """
    _validate_spec(spec)
    camera = default_camera()
    rng = np.random.default_rng(np.random.SeedSequence([_SCENE_STREAM, spec.seed]))

    grid = math.ceil(math.sqrt(spec.n_objects))
    cell_w = camera.width / grid
    cell_h = camera.height / grid
    if cell_w - 2 * _CELL_MARGIN < 4 or cell_h - 2 * _CELL_MARGIN < 4:
        raise InvalidSpecError(
            f"{spec.n_objects} objects cannot fit a {camera.width}x{camera.height} frustum"
        )

    types = _sample_types(rng, spec)
    counts = _sample_counts(rng, spec)
    cells = rng.permutation(grid * grid)[: spec.n_objects]

    all_points: list[np.ndarray] = []
    all_colors: list[np.ndarray] = []
    gt_region = np.concatenate(
        [np.full(int(c), r, dtype=np.int32) for r, c in enumerate(counts)]
    )

    zlo, zhi = spec.depth_range
    for i in range(spec.n_objects):
        row, col = divmod(int(cells[i]), grid)
        u0 = col * cell_w + _CELL_MARGIN
        u1 = (col + 1) * cell_w - _CELL_MARGIN
        v0 = row * cell_h + _CELL_MARGIN
        v1 = (row + 1) * cell_h - _CELL_MARGIN
        uc, vc = 0.5 * (u0 + u1), 0.5 * (v0 + v1)

        if spec.depth_levels > 0:
            level = int(rng.integers(spec.depth_levels))
            z0 = zlo + (level + 0.5) * (zhi - zlo) / spec.depth_levels
        else:
            z0 = rng.uniform(zlo, zhi)
        he = type_extents(int(types[i])) * rng.uniform(0.92, 1.08)
        ray = np.array([(uc - camera.cx) / camera.fx, (vc - camera.cy) / camera.fy, 1.0])
        center = ray * z0

        alpha = _fit_scale(camera, center, he, (u0, u1, v0, v1))
        if alpha <= 1e-6:
            raise InvalidSpecError(f"object {i} cannot fit its frustum cell")
        he = he * alpha

        unit = _pattern_unit_points(rng, int(counts[i]), type_pattern(int(types[i])))
        pts = center + unit * he
        base = rng.uniform(0.1, 0.9, 3)
        cols = np.clip(base + rng.normal(0.0, 0.03, (int(counts[i]), 3)), 0.0, 1.0)
        all_points.append(pts)
        all_colors.append(cols)

    points = np.concatenate(all_points).astype(np.float32)
    colors = np.concatenate(all_colors).astype(np.float32)

    # Rasterize the oracle mask from the stored float32 coordinates so that
    # readers recomputing projections see exactly the same pixels.
    proj = project(points.astype(np.float64), camera)
    if not np.all(proj.inside):
        raise InconsistencyError("generated points must project inside the raster")
    pu = pixel_round(proj.uv[:, 0])
    pv = pixel_round(proj.uv[:, 1])
    mask = np.full((camera.height, camera.width), -1, dtype=np.int32)
    mask[pv, pu] = gt_region
    if not np.array_equal(mask[pv, pu], gt_region):
        raise InconsistencyError("object footprints overlap in pixel space")

    prototypes = np.stack([type_prototype(int(t), spec.feature_dim) for t in types])
    feat2d = np.zeros((camera.height, camera.width, spec.feature_dim), dtype=np.float32)
    ys, xs = np.nonzero(mask >= 0)
    noise = rng.normal(0.0, spec.noise_sigma, (len(ys), spec.feature_dim))
    feat2d[ys, xs] = (prototypes[mask[ys, xs]] + noise).astype(np.float32)

    bundle = SceneBundle(
        points=points,
        colors=colors,
        camera=camera,
        gt_region=gt_region,
        mask=mask,
        feat2d=feat2d,
        region_count=spec.n_objects,
        region_types=types,
    )
    bundle.validate()
    return bundle


def scene_seed(dataset_seed: int, index: int) -> int:
    """Stable per-scene seed derived from a dataset seed and scene index."""
    ss = np.random.SeedSequence([_DATASET_STREAM, dataset_seed, index])
    return int(ss.generate_state(1, np.uint32)[0])


def generate_dataset(template: SceneSpec, n_scenes: int, dataset_seed: int) -> list[SceneBundle]:
    """Generate ``n_scenes`` bundles from one spec template with derived seeds."""
    return [
        generate_scene(replace(template, seed=scene_seed(dataset_seed, i)))
        for i in range(n_scenes)
    ]


# ---------------------------------------------------------------------------
# Bundle files


def _camera_to_json(camera: Camera) -> dict:
    return {
        "fx": camera.fx,
        "fy": camera.fy,
        "cx": camera.cx,
        "cy": camera.cy,
        "width": camera.width,
        "height": camera.height,
        "rotation": np.asarray(camera.rotation, dtype=np.float64).tolist(),
        "translation": np.asarray(camera.translation, dtype=np.float64).tolist(),
    }


def _camera_from_json(obj: dict) -> Camera:
    try:
        return Camera(
            fx=float(obj["fx"]),
            fy=float(obj["fy"]),
            cx=float(obj["cx"]),
            cy=float(obj["cy"]),
            width=int(obj["width"]),
            height=int(obj["height"]),
            rotation=np.array(obj["rotation"], dtype=np.float64),
            translation=np.array(obj["translation"], dtype=np.float64),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedManifestError(f"bad camera record: {exc}") from exc


def write_bundle(bundle: SceneBundle, path: str | Path) -> None:
    """Persist a bundle losslessly: reading it back compares bit-exact."""
    bundle.validate()
    arrays = {
        "points": np.asarray(bundle.points, np.float32),
        "gt_region": np.asarray(bundle.gt_region, np.int32),
        "mask": np.asarray(bundle.mask, np.int32),
        "feat2d": np.asarray(bundle.feat2d, np.float32),
    }
    if bundle.colors is not None:
        arrays["colors"] = np.asarray(bundle.colors, np.float32)
    meta = {
        "n_points": bundle.n_points,
        "width": bundle.camera.width,
        "height": bundle.camera.height,
        "feature_dim": bundle.feature_dim,
        "region_count": bundle.region_count,
        "region_types": [int(t) for t in bundle.region_types],
        "camera": _camera_to_json(bundle.camera),
    }
    blobio.save_arrays(path, "scene-bundle", meta, arrays)


_BUNDLE_KEYS = (
    "n_points", "width", "height", "feature_dim",
    "region_count", "region_types", "camera",
)


def _bundle_blob_shapes(manifest: dict) -> dict[str, list[int]]:
    n = int(manifest["n_points"])
    width, height = int(manifest["width"]), int(manifest["height"])
    dim = int(manifest["feature_dim"])
    shapes = {
        "points": [n, 3],
        "gt_region": [n],
        "mask": [height, width],
        "feat2d": [height, width, dim],
    }
    if "colors" in manifest["blobs"]:
        shapes["colors"] = [n, 3]
    return shapes


def read_bundle(path: str | Path) -> SceneBundle:
    """Load a bundle file, validating its header and blob consistency."""
    manifest, arrays = blobio.load_arrays(path, "scene-bundle", _BUNDLE_KEYS, _bundle_blob_shapes)
    with blobio.manifest_fields(path):
        bundle = SceneBundle(
            points=arrays["points"],
            colors=arrays.get("colors"),
            camera=_camera_from_json(manifest["camera"]),
            gt_region=arrays["gt_region"],
            mask=arrays["mask"],
            feat2d=arrays["feat2d"],
            region_count=int(manifest["region_count"]),
            region_types=np.array(manifest["region_types"], dtype=np.int32),
        )
        bundle.validate()
    return bundle


def write_scene_dir(bundles: list[SceneBundle], path: str | Path) -> list[Path]:
    """Write a list of bundles as scene_0000, scene_0001, ... under ``path``."""
    path = Path(path)
    out = []
    for i, bundle in enumerate(bundles):
        scene_path = path / f"scene_{i:04d}"
        write_bundle(bundle, scene_path)
        out.append(scene_path)
    return out


def read_scene_dir(path: str | Path) -> list[SceneBundle]:
    path = Path(path)
    if not path.is_dir():
        raise MalformedManifestError(f"{path}: not a scene directory")
    scene_paths = sorted(path.glob("scene_*"))
    if not scene_paths:
        raise MalformedManifestError(f"{path}: no scene_* bundle files")
    return [read_bundle(p) for p in scene_paths]

