"""Tokenizers: FPS greediness, KNN grouping, mask-guided partition, purity."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from samdistill import scene, tokenizer
from samdistill.errors import (
    EmptyTokenizationError,
    InvalidCountError,
    InvalidInputError,
)


def members(ts):
    """Each token's member indices, token by token."""
    return np.split(ts.indices, ts.offsets[1:-1])


def brute_force_fps(points: np.ndarray, n: int, start: int) -> list[int]:
    """Independent greedy reference: literal distance recomputation each pick."""
    picked = [start]
    while len(picked) < n:
        best_idx, best_dist = None, -1.0
        for i in range(len(points)):
            d = min(float(np.linalg.norm(points[i] - points[j])) for j in picked)
            if d > best_dist + 1e-15:
                best_idx, best_dist = i, d
        picked.append(best_idx)
    return picked


class TestFps:
    def test_three_point_example(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.1, 0, 0]])
        np.testing.assert_array_equal(tokenizer.fps(pts, 2, 0), [0, 1])

    def test_exhaustion_returns_all(self, rng):
        pts = rng.normal(0, 1, (7, 3))
        assert set(tokenizer.fps(pts, 7, 2)) == set(range(7))

    def test_single_pick_is_start(self, rng):
        pts = rng.normal(0, 1, (5, 3))
        np.testing.assert_array_equal(tokenizer.fps(pts, 1, 3), [3])

    def test_count_validation(self):
        pts = np.zeros((3, 3))
        with pytest.raises(InvalidCountError):
            tokenizer.fps(pts, 4, 0)
        with pytest.raises(InvalidCountError):
            tokenizer.fps(pts, 1, 5)

    @given(st.integers(0, 1000))
    def test_matches_brute_force_reference(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0, 1, (rng.integers(2, 10), 3))
        n = int(rng.integers(1, len(pts) + 1))
        start = int(rng.integers(0, len(pts)))
        np.testing.assert_array_equal(
            tokenizer.fps(pts, n, start), brute_force_fps(pts, n, start)
        )

    @given(st.integers(0, 500))
    def test_permutation_stability(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0, 1, (8, 3))
        n = int(rng.integers(1, 9))
        start = int(rng.integers(0, 8))
        baseline = set(tokenizer.fps(pts, n, start).tolist())

        perm = rng.permutation(8)
        permuted = pts[perm]
        # Same start point under the relabeling.
        new_start = int(np.nonzero(perm == start)[0][0])
        relabeled = tokenizer.fps(permuted, n, new_start)
        mapped_back = set(perm[relabeled].tolist())
        assert mapped_back == baseline


class TestKnnTokenize:
    def test_two_point_token_example(self):
        pts = np.array([[0.0, 0, 0], [0.1, 0, 0], [5.0, 0, 0]])
        ts = tokenizer.knn_tokenize(pts, n=1, k=2, start_index=0)
        assert set(members(ts)[0].tolist()) == {0, 1}
        # Default start (closest to mean) picks the same token here.
        ts2 = tokenizer.knn_tokenize(pts, n=1, k=2)
        assert set(members(ts2)[0].tolist()) == {0, 1}

    def test_k_one_tokens_contain_their_centroid_point(self, rng):
        pts = rng.normal(0, 1, (9, 3))
        ts = tokenizer.knn_tokenize(pts, n=4, k=1)
        centers = tokenizer.fps(pts, 4, tokenizer.nearest_to_mean(pts))
        for tok, c in zip(members(ts), centers):
            np.testing.assert_array_equal(tok, [c])

    def test_well_separated_clusters_give_pure_tokens(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.05, (10, 3))
        b = rng.normal(0, 0.05, (10, 3)) + np.array([10.0, 0, 0])
        pts = np.concatenate([a, b])
        labels = np.array([0] * 10 + [1] * 10)
        ts = tokenizer.knn_tokenize(pts, n=2, k=10)
        assert tokenizer.purity(ts, labels) == 1.0

    def test_centroid_is_member_mean(self, rng):
        pts = rng.normal(0, 1, (12, 3))
        ts = tokenizer.knn_tokenize(pts, n=3, k=5)
        for tok, centroid in zip(members(ts), ts.centroids):
            np.testing.assert_allclose(centroid, pts[tok].mean(axis=0), atol=1e-6)

    def test_mode_and_region_ids(self, rng):
        ts = tokenizer.knn_tokenize(rng.normal(0, 1, (6, 3)), n=2, k=3)
        assert ts.mode == tokenizer.MODE_KNN
        assert all(ts.region_ids == -1)

    def test_k_too_large(self):
        with pytest.raises(InvalidCountError):
            tokenizer.knn_tokenize(np.zeros((3, 3)), n=1, k=4)


class TestSamTokenize:
    def test_perfect_purity_on_synthetic(self, small_bundle):
        ts = tokenizer.sam_tokenize(small_bundle)
        assert ts.mode == tokenizer.MODE_SAM
        assert tokenizer.purity(ts, small_bundle.gt_region) == 1.0

    def test_small_region_dropped(self, small_bundle):
        counts = np.bincount(small_bundle.gt_region)
        threshold = counts.max() + 1
        with pytest.raises(EmptyTokenizationError):
            tokenizer.sam_tokenize(small_bundle, min_points=threshold)
        ts = tokenizer.sam_tokenize(small_bundle, min_points=counts.max())
        surviving = set(ts.region_ids.tolist())
        assert surviving == {int(np.argmax(counts))} or counts.max() == counts.min()

    def test_min_points_boundary_drops_into_dropped_points(self):
        bundle = scene.generate_scene(scene.SceneSpec(n_objects=3, seed=2))
        counts = np.bincount(bundle.gt_region)
        smallest = int(np.argmin(counts))
        ts = tokenizer.sam_tokenize(bundle, min_points=int(counts[smallest]) + 1)
        assert smallest not in set(ts.region_ids.tolist())
        dropped_regions = set(bundle.gt_region[ts.dropped_points].tolist())
        assert smallest in dropped_regions

    def test_token_count_and_membership_sum(self):
        bundle = scene.generate_scene(scene.SceneSpec(n_objects=3, seed=9))
        ts = tokenizer.sam_tokenize(bundle, min_points=1)
        assert len(ts) == 3
        # Oracle: count in-raster masked projections directly.
        regions = tokenizer.point_regions(bundle)
        assert sum(len(t) for t in members(ts)) == int((regions >= 0).sum())

    def test_tokens_sorted_by_region_id(self, small_bundle):
        ts = tokenizer.sam_tokenize(small_bundle)
        ids = ts.region_ids.tolist()
        assert ids == sorted(ids)

    @given(st.integers(0, 300), st.integers(1, 6))
    def test_partition_property(self, seed, n_objects):
        bundle = scene.generate_scene(scene.SceneSpec(n_objects=n_objects, seed=seed))
        ts = tokenizer.sam_tokenize(bundle, min_points=8)
        seen = list(ts.dropped_points)
        for tok, region_id, centroid in zip(members(ts), ts.region_ids, ts.centroids):
            seen.extend(tok.tolist())
            # Region homogeneity under the oracle mask.
            assert np.all(bundle.gt_region[tok] == region_id)
            np.testing.assert_allclose(
                centroid, bundle.points[tok].astype(np.float64).mean(axis=0), atol=1e-6
            )
        assert sorted(seen) == list(range(bundle.n_points))

    def test_points_behind_camera_dropped(self, small_bundle):
        import dataclasses

        flipped = dataclasses.replace(
            small_bundle.camera,
            rotation=np.diag([1.0, -1.0, -1.0]),  # look the other way
        )
        bundle = dataclasses.replace(small_bundle, camera=flipped)
        with pytest.raises(EmptyTokenizationError):
            tokenizer.sam_tokenize(bundle)


class TestPurity:
    def test_two_thirds_example(self):
        ts = tokenizer.TokenSet.from_members(
            [np.array([0, 1, 2])], np.zeros((3, 3)), [0], tokenizer.MODE_KNN
        )
        assert tokenizer.purity(ts, np.array([7, 7, 8])) == pytest.approx(2 / 3)

    def test_all_single_label(self):
        ts = tokenizer.TokenSet.from_members(
            [np.array([0, 1]), np.array([2])], np.zeros((3, 3)), [0, 1], tokenizer.MODE_SAM
        )
        assert tokenizer.purity(ts, np.array([4, 4, 9])) == 1.0

    def test_empty_token_set_rejected(self):
        ts = tokenizer.TokenSet.from_members([], np.zeros((0, 3)), [], tokenizer.MODE_KNN)
        with pytest.raises(InvalidInputError):
            tokenizer.purity(ts, np.array([0]))

    def test_knn_impure_on_adjacent_objects(self):
        # Two close objects at matched depth; k spans across the boundary.
        spec = scene.SceneSpec(
            n_objects=2, seed=4, depth_range=(3.9, 4.1), points_per_object_range=(60, 80)
        )
        bundle = scene.generate_scene(spec)
        k = int(0.75 * bundle.n_points)
        ts = tokenizer.knn_tokenize(bundle.points, n=2, k=k)
        assert tokenizer.purity(ts, bundle.gt_region) < 1.0
        sam_ts = tokenizer.sam_tokenize(bundle)
        assert tokenizer.purity(sam_ts, bundle.gt_region) == 1.0


def _per_token_purity(ts, gt_region):
    """The per-token loop that purity replaced."""
    shares = []
    for tok in members(ts):
        _, counts = np.unique(gt_region[tok], return_counts=True)
        shares.append(counts.max() / len(tok))
    return float(np.mean(shares))


def _per_token_majority(ts, regions_of_points):
    out = []
    for tok in members(ts):
        labels = regions_of_points[tok]
        ids, counts = np.unique(labels[labels >= 0], return_counts=True)
        out.append(ids[np.argmax(counts)])
    return np.array(out, dtype=np.int64)


class TestPackedTokenSet:
    @given(st.integers(0, 200), st.integers(2, 6))
    def test_segment_reductions_match_per_token_loops(self, seed, n_objects):
        bundle = scene.generate_scene(scene.SceneSpec(n_objects=n_objects, seed=seed))
        regions = tokenizer.point_regions(bundle)
        for ts in (
            tokenizer.sam_tokenize(bundle, min_points=1),
            tokenizer.knn_tokenize(bundle.points, n=n_objects, k=bundle.n_points // n_objects),
        ):
            assert tokenizer.purity(ts, bundle.gt_region) == _per_token_purity(
                ts, bundle.gt_region
            )
            np.testing.assert_array_equal(
                ts.member_counts(), [len(tok) for tok in members(ts)]
            )
            if all((regions[tok] >= 0).any() for tok in members(ts)):
                np.testing.assert_array_equal(
                    tokenizer.majority_regions(ts, regions), _per_token_majority(ts, regions)
                )

    def test_majority_ties_take_lowest_id_and_unmapped_tokens_fail(self):
        ts = tokenizer.TokenSet.from_members(
            [np.array([0, 1, 2, 3]), np.array([4, 5])], np.zeros((6, 3)), [0, 0],
            tokenizer.MODE_KNN,
        )
        np.testing.assert_array_equal(
            tokenizer.majority_regions(ts, np.array([5, 3, 5, 3, -1, 2])), [3, 2]
        )
        with pytest.raises(InvalidInputError):
            tokenizer.majority_regions(ts, np.array([5, 3, 5, 3, -1, -1]))

    def test_token_regions_are_stored_for_mask_guided_tokens_else_the_majority(
        self, monkeypatch
    ):
        bundle = scene.generate_scene(scene.SceneSpec(n_objects=4, seed=3))
        regions = tokenizer.point_regions(bundle)
        knn = tokenizer.tokenize(bundle, tokenizer.MODE_KNN)
        np.testing.assert_array_equal(
            tokenizer.token_regions(knn, bundle), tokenizer.majority_regions(knn, regions)
        )
        sam = tokenizer.sam_tokenize(bundle)
        np.testing.assert_array_equal(tokenizer.majority_regions(sam, regions), sam.region_ids)
        # Mask-guided tokens keep the region they were built from; no point is re-projected.
        monkeypatch.setattr(tokenizer, "point_regions", None)
        assert tokenizer.token_regions(sam, bundle) is sam.region_ids

    def test_subsampled_view_strides_sorted_members_once(self):
        pts = np.zeros((40, 3))
        ts = tokenizer.TokenSet.from_members(
            [np.arange(39, -1, -1), np.array([7, 3]), np.arange(10)], pts, [0, 1, 2],
            tokenizer.MODE_KNN,
        )
        indices, offsets = ts.subsampled(8)
        # 40 members at stride ceil(40 / 8) = 5; the others fit as they are.
        np.testing.assert_array_equal(offsets, [0, 8, 10, 15])
        np.testing.assert_array_equal(indices[:8], np.arange(0, 40, 5))
        np.testing.assert_array_equal(indices[8:10], [3, 7])
        np.testing.assert_array_equal(indices[10:], np.arange(0, 10, 2))
