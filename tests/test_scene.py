"""Scene generation and projection: oracles, invariants, determinism."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samdistill import scene
from samdistill.errors import InvalidInputError, InvalidSpecError


def _identity_camera(f=100.0, c=50.0, size=100):
    return scene.Camera(fx=f, fy=f, cx=c, cy=c, width=size, height=size)


class TestProject:
    def test_principal_axis_point(self):
        proj = scene.project(np.array([[0.0, 0.0, 2.0]]), _identity_camera())
        assert proj.status[0] == scene.PROJ_OK
        np.testing.assert_allclose(proj.uv[0], [50.0, 50.0])

    def test_hand_evaluated_pinhole(self):
        # u = fx * x / z + cx = 100 * 1 / 2 + 50 = 100, just inside the raster
        cam = scene.Camera(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=101, height=101)
        proj = scene.project(np.array([[1.0, 0.0, 2.0]]), cam)
        np.testing.assert_allclose(proj.uv[0], [100.0, 50.0])

    def test_negative_depth_is_behind(self):
        proj = scene.project(np.array([[0.0, 0.0, -1.0]]), _identity_camera())
        assert proj.status[0] == scene.PROJ_BEHIND

    def test_outside_raster(self):
        proj = scene.project(np.array([[5.0, 0.0, 2.0]]), _identity_camera())
        assert proj.status[0] == scene.PROJ_OUTSIDE

    def test_non_finite_input_rejected(self):
        with pytest.raises(InvalidInputError):
            scene.project(np.array([[np.nan, 0.0, 1.0]]), _identity_camera())

    @given(
        st.floats(0.1, 50.0),
        st.floats(-0.45, 0.45),
        st.floats(-0.45, 0.45),
        st.floats(0.5, 10.0),
    )
    def test_scale_consistency(self, lam, x_ratio, y_ratio, z):
        cam = _identity_camera()
        base = np.array([[x_ratio * z, y_ratio * z, z]])
        a = scene.project(base, cam)
        b = scene.project(lam * base, cam)
        assert a.status[0] == b.status[0] == scene.PROJ_OK
        np.testing.assert_allclose(a.uv, b.uv, atol=1e-9)

    def test_camera_validation(self):
        # A camera is checked once, when it is built.
        with pytest.raises(InvalidInputError):
            scene.Camera(fx=-1, fy=1, cx=0, cy=0, width=10, height=10)
        with pytest.raises(InvalidInputError):
            scene.Camera(fx=1, fy=1, cx=10, cy=0, width=10, height=10)
        with pytest.raises(InvalidInputError):
            scene.Camera(fx=1, fy=1, cx=0, cy=0, width=10, height=10, rotation=np.eye(3) * 2)
        with pytest.raises(InvalidInputError):
            scene.Camera(fx=1, fy=1, cx=0, cy=0, width=10, height=10, rotation=np.eye(2))
        # The checked pose cannot change afterwards, nor through the arrays it was given.
        rotation = np.eye(3)
        cam = scene.Camera(fx=1, fy=1, cx=0, cy=0, width=10, height=10, rotation=rotation)
        rotation[0, 0] = 2.0
        assert cam.rotation[0, 0] == 1.0
        for pose in (cam.rotation, cam.translation):
            assert pose.dtype == np.float64
            with pytest.raises(ValueError):
                pose[0] = 5.0


class TestPixelRound:
    def test_ties_round_half_up(self):
        np.testing.assert_array_equal(
            scene.pixel_round(np.array([0.5, 1.49, 1.5, -0.5])), [1, 1, 2, 0]
        )


def _region_prototypes(bundle):
    """Row r: the type prototype of region r, the raster's noise-free value."""
    return np.stack(
        [scene.type_prototype(int(t), bundle.feature_dim) for t in bundle.region_types]
    )


def _bisected_scale(camera, center, half_extents, bounds):
    """The largest scale that 60 halvings of a corner-by-corner footprint check accept."""

    def fits(he):
        u0, u1, v0, v1 = bounds
        xs = (center[0] - he[0], center[0] + he[0])
        ys = (center[1] - he[1], center[1] + he[1])
        zs = (center[2] - he[2], center[2] + he[2])
        if zs[0] <= 0.5:
            return False
        for z in zs:
            if not all(u0 <= camera.fx * x / z + camera.cx <= u1 for x in xs):
                return False
            if not all(v0 <= camera.fy * y / z + camera.cy <= v1 for y in ys):
                return False
        return True

    if fits(half_extents):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if fits(half_extents * mid):
            lo = mid
        else:
            hi = mid
    return lo


def _scalar_fit_scale(camera, center, half_extents, bounds):
    """One box's closed-form scale, computed on its own: the oracle of the batched fit."""
    z, hz = center[2], half_extents[2]
    side = np.array([[-1.0], [1.0], [-1.0], [1.0]])
    f = np.repeat([camera.fx, camera.fy], 2)[:, None]
    k = np.subtract(bounds, np.repeat([camera.cx, camera.cy], 2))[:, None]
    lateral = np.repeat(center[:2], 2)[:, None]
    h = np.repeat(half_extents[:2], 2)[:, None]
    s = np.array([1.0, 1.0, -1.0, -1.0])
    t = np.array([1.0, -1.0, 1.0, -1.0])
    coef = side * (f * s * h - k * t * hz)
    rhs = side * (k * z - f * lateral)
    caps = np.divide(rhs, coef, out=np.full(coef.shape, np.inf), where=coef > 0)
    alpha = float(min(1.0, (z - 0.5) / hz, caps.min()))
    while z - hz * alpha <= 0.5:
        alpha = float(np.nextafter(alpha, 0.0))
    return alpha


def _cell_box(camera, n_objects, cell, depth):
    """The pixel bounds of grid cell ``cell`` and the center at ``depth`` on its central ray."""
    grid = math.ceil(math.sqrt(n_objects))
    row, col = divmod(cell % (grid * grid), grid)
    cell_w, cell_h = camera.width / grid, camera.height / grid
    margin = scene._CELL_MARGIN
    bounds = (
        col * cell_w + margin,
        (col + 1) * cell_w - margin,
        row * cell_h + margin,
        (row + 1) * cell_h - margin,
    )
    uc, vc = 0.5 * (bounds[0] + bounds[1]), 0.5 * (bounds[2] + bounds[3])
    center = np.array([(uc - camera.cx) / camera.fx, (vc - camera.cy) / camera.fy, 1.0]) * depth
    return bounds, center


_HALF = st.lists(st.floats(0.05, 0.6, exclude_min=True, exclude_max=True), min_size=3, max_size=3)


class TestFitScale:
    @settings(max_examples=300)
    @given(
        st.integers(1, 144),
        st.integers(0, 143),
        st.floats(0.6, 8.0, exclude_min=True, exclude_max=True),
        _HALF,
    )
    def test_closed_form_fits_the_cell_and_matches_bisection(self, n_objects, cell, depth, half):
        camera = scene.default_camera()
        bounds, center = _cell_box(camera, n_objects, cell, depth)
        half_extents = np.array(half)

        (alpha,) = scene._fit_scale(camera, center[None], half_extents[None], np.array([bounds]))
        assert 0.0 <= alpha <= 1.0
        signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
        corners = center + signs * (half_extents * alpha)
        assert np.all(corners[:, 2] > 0.5)
        u = camera.fx * corners[:, 0] / corners[:, 2] + camera.cx
        v = camera.fy * corners[:, 1] / corners[:, 2] + camera.cy
        tol = 1e-9
        assert np.all((u >= bounds[0] - tol) & (u <= bounds[1] + tol)), u
        assert np.all((v >= bounds[2] - tol) & (v <= bounds[3] + tol)), v
        oracle = _bisected_scale(camera, center, half_extents, bounds)
        assert abs(alpha - oracle) <= 1e-12 * oracle

    @settings(max_examples=100)
    @given(
        st.integers(1, 144),
        st.lists(
            st.tuples(
                st.integers(0, 143),
                # Depths just past the near plane, where its cap binds and is stepped, and beyond.
                st.one_of(st.floats(0.5005, 0.56), st.floats(0.56, 8.0)),
                _HALF,
            ),
            min_size=1,
            max_size=24,
        ),
    )
    def test_batched_scales_equal_each_box_fitted_alone(self, n_objects, boxes):
        camera = scene.default_camera()
        rows = [_cell_box(camera, n_objects, cell, depth) for cell, depth, _ in boxes]
        bounds = np.array([b for b, _ in rows])
        centers = np.array([c for _, c in rows])
        halves = np.array([half for _, _, half in boxes])
        alphas = scene._fit_scale(camera, centers, halves, bounds)
        expected = [_scalar_fit_scale(camera, *row) for row in zip(centers, halves, bounds)]
        assert alphas.tobytes() == np.array(expected).tobytes()
        for i in range(len(boxes)):
            one = scene._fit_scale(camera, centers[i : i + 1], halves[i : i + 1], bounds[i : i + 1])
            assert one.tobytes() == alphas[i : i + 1].tobytes()


class TestGenerateScene:
    def test_single_object_single_region(self):
        bundle = scene.generate_scene(scene.SceneSpec(n_objects=1, seed=7))
        ids = np.unique(bundle.mask)
        assert set(ids[ids >= 0]) == {0}

    def test_zero_exponent_counts_within_range_width(self):
        spec = scene.SceneSpec(n_objects=3, imbalance_exponent=0.0, seed=1)
        bundle = scene.generate_scene(spec)
        counts = np.bincount(bundle.gt_region, minlength=3)
        lo, hi = spec.points_per_object_range
        assert counts.max() - counts.min() <= hi - lo

    def test_power_law_counts_match_direct_sampling_oracle(self):
        spec = scene.SceneSpec(n_objects=5, imbalance_exponent=2.0, seed=3)
        bundle = scene.generate_scene(spec)
        counts = np.bincount(bundle.gt_region, minlength=5)

        # Oracle: replay the documented draw order (types, then counts)
        # straight from the same seeded stream.
        rng = np.random.default_rng(
            np.random.SeedSequence([scene._SCENE_STREAM, spec.seed])
        )
        weights = np.arange(1, spec.n_types + 1, dtype=float) ** (-2.0)
        rng.choice(spec.n_types, size=5, p=weights / weights.sum())
        lo, hi = spec.points_per_object_range
        raw = rng.uniform(lo, hi, 5)
        damp = np.arange(1, 6, dtype=float) ** (-2.0)
        expected = np.maximum(spec.min_points_per_object, np.rint(raw * damp)).astype(int)
        np.testing.assert_array_equal(counts, expected)

        ordered = np.sort(counts)[::-1]
        assert ordered[0] / ordered[4] >= 4

    def test_mask_oracle_consistency(self, small_bundle):
        proj = scene.project(small_bundle.points.astype(np.float64), small_bundle.camera)
        assert np.all(proj.inside)
        pu = scene.pixel_round(proj.uv[:, 0])
        pv = scene.pixel_round(proj.uv[:, 1])
        np.testing.assert_array_equal(
            small_bundle.mask[pv, pu], small_bundle.gt_region
        )

    def test_feature_raster_matches_prototypes(self):
        bundle = scene.generate_scene(scene.SceneSpec(n_objects=2, seed=5, noise_sigma=0.0))
        ys, xs = np.nonzero(bundle.mask >= 0)
        feats = bundle.feat2d[ys, xs].astype(np.float64)
        protos = _region_prototypes(bundle)[bundle.mask[ys, xs]]
        cos = (feats * protos).sum(axis=1) / (
            np.linalg.norm(feats, axis=1) * np.linalg.norm(protos, axis=1)
        )
        np.testing.assert_allclose(cos, 1.0, atol=1e-7)

    def test_noisy_feature_raster_cosine_floor(self):
        sigma = 0.05
        bundle = scene.generate_scene(
            scene.SceneSpec(n_objects=2, seed=5, noise_sigma=sigma)
        )
        ys, xs = np.nonzero(bundle.mask >= 0)
        feats = bundle.feat2d[ys, xs].astype(np.float64)
        protos = _region_prototypes(bundle)[bundle.mask[ys, xs]]
        cos = (feats * protos).sum(axis=1) / (
            np.linalg.norm(feats, axis=1) * np.linalg.norm(protos, axis=1)
        )
        # Expected degradation ~ L * sigma^2 / 2 with generous slack.
        dim = bundle.feature_dim
        assert cos.mean() >= 1.0 - 3.0 * dim * sigma**2

    def test_unmasked_pixels_are_zero(self, small_bundle):
        empty = small_bundle.mask < 0
        assert np.all(small_bundle.feat2d[empty] == 0.0)

    def test_determinism_bit_identical(self):
        spec = scene.SceneSpec(n_objects=4, seed=21, imbalance_exponent=1.0)
        a = scene.generate_scene(spec)
        b = scene.generate_scene(spec)
        assert a.equals(b)

    def test_distinct_seeds_differ(self):
        a = scene.generate_scene(scene.SceneSpec(n_objects=2, seed=1))
        b = scene.generate_scene(scene.SceneSpec(n_objects=2, seed=2))
        assert not a.equals(b)

    def test_rejects_unfit_spec(self):
        with pytest.raises(InvalidSpecError):
            scene.SceneSpec(n_objects=2000, seed=0)

    def test_rejects_bad_fields(self):
        for bad in (
            {"n_objects": 0},
            {"feature_dim": 1},
            {"points_per_object_range": (5, 2)},
            {"n_types": 0},
            {"depth_levels": -2},
            {"depth_range": (0.5, 3.0)},
            {"noise_sigma": -0.1},
            {"noise_sigma": math.nan},
            {"noise_sigma": math.inf},
            {"imbalance_exponent": math.nan},
            {"imbalance_exponent": math.inf},
            {"imbalance_exponent": -math.inf},
            {"depth_range": (2.5, math.inf)},
            {"depth_range": (math.inf, math.inf)},
            {"depth_range": (math.nan, 3.0)},
            {"seed": -1},
            {"min_points_per_object": 0},
        ):
            with pytest.raises(InvalidSpecError):
                scene.SceneSpec(**{"n_objects": 1, "seed": 0, **bad})

    @given(st.integers(0, 50), st.integers(1, 9))
    def test_mask_ids_in_range_property(self, seed, n_objects):
        bundle = scene.generate_scene(scene.SceneSpec(n_objects=n_objects, seed=seed))
        ids = np.unique(bundle.mask)
        ids = ids[ids >= 0]
        assert ids.min() >= 0 and ids.max() < bundle.region_count

    def test_type_prototypes_are_unit_and_stable(self):
        a = scene.type_prototype(3, 32)
        b = scene.type_prototype(3, 32)
        np.testing.assert_array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-9)
        assert not np.allclose(a, scene.type_prototype(4, 32))
        # Cached once per (type, dim) and shared, so no caller may write to it.
        assert a is b and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0

    def test_default_camera_is_one_shared_frozen_value_per_size(self):
        camera = scene.default_camera()
        assert camera is scene.default_camera(128, 128) is scene.default_camera(width=128)
        assert scene.generate_scene(scene.SceneSpec(n_objects=2, seed=3)).camera is camera
        other = scene.default_camera(64, 32)
        assert other is scene.default_camera(64, 32) and other is not camera
        assert (other.fx, other.cx, other.cy) == (64.0, 32.0, 16.0)
        for pose in (camera.rotation, camera.translation):
            with pytest.raises(ValueError):
                pose[0] = 5.0
        with pytest.raises(AttributeError):
            camera.fx = 1.0

    def test_depth_levels_quantize(self):
        spec = scene.SceneSpec(n_objects=4, seed=9, depth_levels=2, depth_range=(2.0, 6.0))
        bundle = scene.generate_scene(spec)
        depths = np.array(
            [bundle.points[bundle.gt_region == r][:, 2].mean() for r in range(4)]
        )
        # Object centers sit near one of the two level depths (3.0 or 5.0).
        nearest = np.minimum(np.abs(depths - 3.0), np.abs(depths - 5.0))
        assert np.all(nearest < 0.3)


# The scenes the three benchmark workloads build at --seed 0: data seeds 0-15
# with 16 train and 6 held-out scenes (s1-b1; s2-b8 uses the first 8 train
# scenes) and 16-47 with 8 and 5 (probe-c8), held-out at seed + 1_000_003.
_BENCHMARK_DATASETS = [(j, 16, 6) for j in range(16)] + [(j, 8, 5) for j in range(16, 48)]
SPEC_BALANCED = scene.SceneSpec(
    n_objects=12,
    seed=0,
    imbalance_exponent=0.7,
    n_types=4,
    points_per_object_range=(110, 160),
    depth_levels=2,
)


def _bundle_digest(datasets) -> str:
    """sha256 over each bundle's arrays (dtype, shape and bytes) and its region count."""
    h = hashlib.sha256()
    for spec, n_scenes, dataset_seed in datasets:
        for b in scene.generate_dataset(spec, n_scenes, dataset_seed):
            for a in (b.points, b.colors, b.gt_region, b.mask, b.feat2d, b.region_types):
                h.update(f"{a.dtype.str}{a.shape}".encode())
                h.update(a.tobytes())
            h.update(str(b.region_count).encode())
    return h.hexdigest()


class TestGoldenBundles:
    """Generated bundles stay byte-equal to those the benchmark and its history were measured on."""

    def test_benchmark_datasets(self):
        datasets = [
            (SPEC_BALANCED, n, seed)
            for j, n_train, n_heldout in _BENCHMARK_DATASETS
            for n, seed in ((n_train, j), (n_heldout, j + 1_000_003))
        ]
        expected = "ae1221e15677117f8893dfc383560ef6684d84ecf3e2b66f829206360fd4a69c"
        assert _bundle_digest(datasets) == expected

    def test_depths_just_past_the_near_plane(self):
        # Depth levels 0.53 and 0.58 m: the near-plane cap binds, and is stepped, on 14 of 96 boxes.
        spec = replace(SPEC_BALANCED, depth_range=(0.505, 0.605))
        expected = "c685506cc0f9b6f08ee36c5c43eb8664bc1a59b4f9eba8d1961d2ba3e544c565"
        assert _bundle_digest([(spec, 8, 0)]) == expected
