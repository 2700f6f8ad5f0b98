"""Scene generation and projection: oracles, invariants, determinism."""

import math

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


class TestFitScale:
    @settings(max_examples=300)
    @given(
        st.integers(1, 144),
        st.integers(0, 143),
        st.floats(0.6, 8.0, exclude_min=True, exclude_max=True),
        st.lists(st.floats(0.05, 0.6, exclude_min=True, exclude_max=True), min_size=3, max_size=3),
    )
    def test_closed_form_fits_the_cell_and_matches_bisection(self, n_objects, cell, depth, half):
        camera = scene.default_camera()
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
        half_extents = np.array(half)

        alpha = scene._fit_scale(camera, center, half_extents, bounds)
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

    def test_depth_levels_quantize(self):
        spec = scene.SceneSpec(n_objects=4, seed=9, depth_levels=2, depth_range=(2.0, 6.0))
        bundle = scene.generate_scene(spec)
        depths = np.array(
            [bundle.points[bundle.gt_region == r][:, 2].mean() for r in range(4)]
        )
        # Object centers sit near one of the two level depths (3.0 or 5.0).
        nearest = np.minimum(np.abs(depths - 3.0), np.abs(depths - 5.0))
        assert np.all(nearest < 0.3)

