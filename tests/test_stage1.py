"""Dense distillation: pooling, weight formulas, k-means oracle, weighted loss."""

import gc
import weakref
from itertools import product

import numpy as np
import pytest
from conftest import edit_header
from hypothesis import given
from hypothesis import strategies as st

from samdistill import nn, scene, stage1, tokenizer
from samdistill import tensor as T
from samdistill.errors import (
    DimensionMismatchError,
    InconsistencyError,
    InvalidCountError,
    InvalidInputError,
)

count_vectors = st.lists(st.integers(1, 1000), min_size=1, max_size=24)


def straight_line_weights(counts):
    """Independent re-evaluation of the weighting formulas, scalar by scalar."""
    n_min, n_max = min(counts), max(counts)
    k = [(n - n_min) / n_max for n in counts]
    tau = [1.0 - ki for ki in k]
    total = sum(tau)
    return k, tau, [t / total for t in tau]


def brute_force_two_partition_sse(x: np.ndarray) -> float:
    """Minimum within-cluster SSE over every nonempty 2-partition."""
    n = len(x)
    best = np.inf
    for bits in range(1, 2 ** (n - 1)):
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        sse = 0.0
        for part in (x[mask], x[~mask]):
            sse += float(((part - part.mean(axis=0)) ** 2).sum())
        best = min(best, sse)
    return best



def _per_region_pool(feat, mask, region_ids, pooling):
    """The per-region loop the segment form replaced: one ``np.nonzero`` scan per region."""
    rows = []
    for rid in region_ids:
        ys, xs = np.nonzero(mask == rid)
        pixels = feat[ys, xs].astype(np.float64, copy=False)
        rows.append(pixels.mean(axis=0) if pooling == "mean" else pixels.max(axis=0))
    return np.stack(rows)


def _random_pooling_case(rng, width, dtype):
    """Features, a mask and region ids to pool.

    The mask has background -1, non-contiguous ids and a one-pixel region;
    the region ids are unsorted, repeated and cover every region.
    """
    h, w = (int(n) for n in rng.integers(2, 30, 2))
    ids = rng.choice(10_000, int(rng.integers(1, 9)), replace=False)
    labelled = rng.random((h, w)) < rng.uniform(0.02, 1.0)
    mask = np.where(labelled, rng.choice(ids, (h, w)), -1).astype(np.int32)
    mask[rng.integers(h), rng.integers(w)] = 10_000  # a one-pixel region
    present = np.unique(mask[mask >= 0])
    region_ids = rng.permutation(np.concatenate([present, rng.choice(present, len(present))]))
    feat = (rng.normal(0.0, 1.0, (h, w, width)) * 10.0 ** rng.integers(-3, 4)).astype(dtype)
    return feat, mask, region_ids


class TestPooling:
    def test_mean_of_two_pixels(self):
        feat = np.zeros((1, 2, 2))
        feat[0, 0] = [1.0, 1.0]
        feat[0, 1] = [3.0, 3.0]
        mask = np.array([[4, 4]])
        pooled = stage1.pool_features_by_region(feat, mask)
        np.testing.assert_array_equal(pooled.ids, [4])
        np.testing.assert_allclose(pooled.mean, [[2.0, 2.0]])

    def test_max_of_two_pixels(self):
        feat = np.zeros((1, 2, 2))
        feat[0, 0] = [1.0, 4.0]
        feat[0, 1] = [3.0, 2.0]
        mask = np.array([[4, 4]])
        pooled = stage1.pool_features_by_region(feat, mask)
        np.testing.assert_array_equal(pooled.ids, [4])
        np.testing.assert_allclose(pooled.max, [[3.0, 4.0]])

    def test_noise_free_mean_recovers_prototype(self):
        bundle = scene.generate_scene(scene.SceneSpec(n_objects=2, seed=6, noise_sigma=0.0))
        tokens = tokenizer.sam_tokenize(bundle)
        region_ids = tokens.region_ids
        means, _ = stage1.pool_features_by_region(bundle.feat2d, bundle.mask).select(region_ids)
        for row, rid in zip(means, region_ids):
            np.testing.assert_allclose(
                row, scene.type_prototype(int(bundle.region_types[rid]), bundle.feature_dim),
                atol=1e-6,
            )

    def test_region_without_pixels_is_inconsistent(self):
        pooled = stage1.pool_features_by_region(np.zeros((1, 1, 2)), np.full((1, 1), -1, int))
        assert pooled.ids.size == 0 and pooled.mean.shape == pooled.max.shape == (0, 2)
        with pytest.raises(InconsistencyError):
            pooled.select(np.array([0]))

    @pytest.mark.parametrize("pooling", ["mean", "max"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_region_oracle_bit_for_bit(self, pooling, dtype):
        rng = np.random.default_rng(5)
        for _ in range(40):
            feat, mask, region_ids = _random_pooling_case(rng, int(rng.choice([2, 5, 32])), dtype)
            pooled = stage1.pool_features_by_region(feat, mask)
            np.testing.assert_array_equal(pooled.ids, np.unique(mask[mask >= 0]))
            means, maxes = pooled.select(region_ids)
            out = means if pooling == "mean" else maxes
            expected = _per_region_pool(feat, mask, region_ids, pooling)
            assert out.shape == expected.shape
            assert out.tobytes() == expected.tobytes()

    def test_single_column_mean_agrees_to_rounding(self):
        # numpy sums one column pairwise, so only the last bits may differ.
        rng = np.random.default_rng(6)
        for _ in range(20):
            feat, mask, region_ids = _random_pooling_case(rng, 1, np.float64)
            out, _ = stage1.pool_features_by_region(feat, mask).select(region_ids)
            expected = _per_region_pool(feat, mask, region_ids, "mean")
            np.testing.assert_allclose(out, expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("missing", [0, 5, 99])
    def test_missing_region_among_present_ones_is_inconsistent(self, missing):
        mask = np.array([[3, -1, 7], [7, 3, -1]], dtype=np.int32)
        pooled = stage1.pool_features_by_region(np.ones((2, 3, 2)), mask)
        with pytest.raises(InconsistencyError, match=f"region {missing} "):
            pooled.select(np.array([7, missing, 3]))


class TestWeightFormulas:
    def test_hand_evaluated_example(self):
        k, tau, w = stage1.weights_from_counts(np.array([10, 5, 1]))
        np.testing.assert_allclose(k, [0.9, 0.4, 0.0])
        np.testing.assert_allclose(tau, [0.1, 0.6, 1.0])
        np.testing.assert_allclose(w, [0.1 / 1.7, 0.6 / 1.7, 1.0 / 1.7])
        np.testing.assert_allclose(w, [0.0588, 0.3529, 0.5882], atol=1e-4)

    def test_single_group(self):
        _, _, w = stage1.weights_from_counts(np.array([7]))
        np.testing.assert_allclose(w, [1.0])

    def test_equal_counts_equal_weights(self):
        _, _, w = stage1.weights_from_counts(np.array([5, 5]))
        np.testing.assert_allclose(w, [0.5, 0.5])

    @given(count_vectors)
    def test_matches_straight_line_oracle(self, counts):
        k, tau, w = stage1.weights_from_counts(np.array(counts))
        ok, otau, ow = straight_line_weights(counts)
        np.testing.assert_allclose(k, ok, atol=1e-12)
        np.testing.assert_allclose(tau, otau, atol=1e-12)
        np.testing.assert_allclose(w, ow, atol=1e-12)
        assert abs(w.sum() - 1.0) <= 1e-12

    @given(count_vectors)
    def test_monotone_nonincreasing_in_counts(self, counts):
        counts = np.array(counts)
        _, _, w = stage1.weights_from_counts(counts)
        order = np.argsort(counts)
        sorted_w = w[order]
        assert np.all(np.diff(sorted_w) <= 1e-15)

    def test_rejects_empty_or_nonpositive(self):
        with pytest.raises(InvalidInputError):
            stage1.weights_from_counts(np.array([]))
        with pytest.raises(InvalidInputError):
            stage1.weights_from_counts(np.array([3, 0]))


class TestKMeans:
    def test_two_well_separated_1d_clusters(self):
        x = np.array([[0.0], [0.1], [10.0], [10.1]])
        result = stage1.kmeans(x, 2, seed=0)
        groups = [set(np.nonzero(result.assignment == g)[0].tolist()) for g in range(2)]
        assert {frozenset(g) for g in groups} == {frozenset({0, 1}), frozenset({2, 3})}
        np.testing.assert_allclose(sorted(result.centroids[:, 0]), [0.05, 10.05])

    def test_postconditions_at_fixpoint(self, rng):
        x = rng.normal(0, 1, (40, 4))
        result = stage1.kmeans(x, 5, seed=1)
        assert result.converged
        d2 = ((x[:, None, :] - result.centroids[None]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(result.assignment, np.argmin(d2, axis=1))
        for g in range(5):
            members = x[result.assignment == g]
            assert len(members) > 0
            np.testing.assert_allclose(result.centroids[g], members.mean(axis=0), atol=1e-9)

    def test_determinism(self, rng):
        x = rng.normal(0, 1, (30, 3))
        a = stage1.kmeans(x, 4, seed=9)
        b = stage1.kmeans(x, 4, seed=9)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_duplicate_points_more_clusters_than_distinct(self):
        x = np.zeros((5, 2))
        result = stage1.kmeans(x, 3, seed=0)
        assert result.sse == 0.0

    def test_count_validation(self):
        with pytest.raises(InvalidCountError):
            stage1.kmeans(np.zeros((2, 2)), 3, seed=0)

    def test_matches_brute_force_on_small_instances(self):
        failures = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.normal(0, 1, (int(rng.integers(3, 9)), int(rng.integers(1, 4))))
            result = stage1.kmeans(x, 2, seed=seed)
            optimum = brute_force_two_partition_sse(x)
            if result.sse > optimum + 1e-9:
                failures += 1
        assert failures <= 5


class TestWeightTable:
    def test_build_and_assign_round_trip(self, rng, tmp_path):
        feats = np.concatenate(
            [rng.normal(c, 0.05, (10 + 5 * c, 4)) for c in range(3)]
        )
        table = stage1.build_weight_table(feats, 3, seed=0)
        assert sorted(table.counts.tolist()) == [10, 15, 20]
        assert abs(table.w.sum() - 1.0) <= 1e-12
        groups = stage1.assign_groups(feats, table)
        np.testing.assert_array_equal(np.bincount(groups, minlength=3), table.counts)

        stage1.save_weight_table(tmp_path / "wt", table)
        loaded = stage1.load_weight_table(tmp_path / "wt")
        np.testing.assert_array_equal(loaded.counts, table.counts)
        np.testing.assert_array_equal(loaded.w, table.w)
        np.testing.assert_array_equal(loaded.centroids, table.centroids)

    def test_determinism(self, rng):
        feats = rng.normal(0, 1, (30, 5))
        a = stage1.build_weight_table(feats, 4, seed=2)
        b = stage1.build_weight_table(feats, 4, seed=2)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_requires_enough_regions(self, rng):
        with pytest.raises(InvalidCountError):
            stage1.build_weight_table(rng.normal(0, 1, (3, 2)), 5, seed=0)

    @pytest.mark.parametrize(
        "counts, error",
        [
            ([4, 0, 2], InvalidInputError),
            ([4, -1, 2], InvalidInputError),
            ([4, 2], DimensionMismatchError),
            ([4, 2, 1, 1], DimensionMismatchError),
        ],
    )
    def test_load_refuses_counts_the_weights_cannot_use(self, tmp_path, counts, error):
        # Three centroid rows: a zero or negative count has no weight, and
        # every row needs one count.
        path = tmp_path / "wt"
        stage1.save_weight_table(path, stage1.WeightTable(np.zeros((3, 2)), np.array([4, 3, 2])))
        edit_header(path, lambda header: header.update(counts=counts))
        with pytest.raises(error):
            stage1.load_weight_table(path)


def _table(counts) -> stage1.WeightTable:
    """A table with these group counts; the loss reads only their weights."""
    return stage1.WeightTable(np.zeros((len(counts), 1)), np.array(counts))


def _uniform_table(k: int) -> stage1.WeightTable:
    return _table([10] * k)


class TestStage1Loss:
    def test_zero_residual(self, rng):
        f2d = rng.normal(0, 1, (3, 4))
        table = _uniform_table(2)
        loss = stage1.stage1_loss(f2d, T.constant(f2d.copy()), table, np.array([0, 1, 0]))
        assert loss.item() == 0.0

    def test_mean_one_with_uniform_groups_equals_unweighted(self, rng):
        f2d = rng.normal(0, 1, (4, 5))
        f3d = rng.normal(0, 1, (4, 5))
        table = _uniform_table(3)
        groups = np.array([0, 1, 2, 0])
        weighted = stage1.stage1_loss(f2d, T.constant(f3d), table, groups)
        plain = stage1.stage1_loss(f2d, T.constant(f3d), table, groups, reweight=False)
        assert weighted.item() == pytest.approx(plain.item(), rel=1e-12)

    def test_permutation_invariance(self, rng):
        f2d = rng.normal(0, 1, (5, 3))
        f3d = rng.normal(0, 1, (5, 3))
        table = _table([12, 3])
        groups = np.array([0, 1, 0, 1, 0])
        base = stage1.stage1_loss(f2d, T.constant(f3d), table, groups)
        perm = rng.permutation(5)
        shuffled = stage1.stage1_loss(
            f2d[perm], T.constant(f3d[perm]), table, groups[perm]
        )
        assert shuffled.item() == pytest.approx(base.item(), rel=1e-12)

    def test_tail_group_upweighted(self, rng):
        f2d = np.zeros((2, 3))
        f3d = np.ones((2, 3))
        table = _table([100, 1])
        head_only = stage1.stage1_loss(f2d[:1], T.constant(f3d[:1]), table, np.array([0]))
        tail_only = stage1.stage1_loss(f2d[1:], T.constant(f3d[1:]), table, np.array([1]))
        assert tail_only.item() > head_only.item()

    def test_group_out_of_range_asserted(self, rng):
        table = _uniform_table(2)
        with pytest.raises(InconsistencyError):
            stage1.stage1_loss(
                np.zeros((1, 2)), T.constant(np.zeros((1, 2))), table, np.array([5])
            )

    def test_misaligned_inputs_rejected(self):
        table = _uniform_table(2)
        with pytest.raises(InvalidInputError):
            stage1.stage1_loss(
                np.zeros((2, 3)), T.constant(np.zeros((3, 3))), table, np.array([0, 1])
            )

    def test_gradient_against_finite_differences(self, rng, tiny_arch):
        params = nn.init_params(tiny_arch, seed=2)
        params.set_trainable(True)
        bundle = scene.generate_scene(
            scene.SceneSpec(n_objects=3, seed=5, feature_dim=tiny_arch.proj_dim)
        )
        tokens = tokenizer.sam_tokenize(bundle)
        f2d, _ = stage1.pool_features_by_region(bundle.feat2d, bundle.mask).select(
            tokens.region_ids
        )
        table = _table([4, 2])
        groups = np.array([0, 1, 0])
        inputs = [params.tensors[n] for n in params.trainable_names()]

        batch = nn.TokenBatch.of_scene(bundle, tokens, tiny_arch.max_points_per_token)

        def f():
            f3d = stage1.project_3d(nn.forward_tokens(batch, params), params)
            return stage1.stage1_loss(f2d, f3d, table, groups)

        assert T.grad_check(f, inputs) < 1e-4


def _per_region_stage1_loss(f2d, f3d, table, groups):
    """The unfused loss: one smooth-L1 node per region, weighted and chained."""
    scale = float(table.n_groups)
    total = None
    for i in range(len(f2d)):
        term = T.smooth_l1(T.slice_axis(f3d, 0, i, i + 1), T.constant(f2d[i : i + 1]))
        term = T.mul(term, scale * float(table.w[groups[i]]))
        total = term if total is None else T.add(total, term)
    return T.mul(total, 1.0 / len(f2d))


class TestStage1LossOracle:
    @pytest.mark.parametrize("m", [1, 7, 22])
    def test_matches_per_region_loop_bit_for_bit(self, rng, m):
        table = _table([9, 4, 1])
        groups = rng.integers(0, 3, m)
        f2d = rng.normal(0, 1, (m, 32))
        data = rng.normal(0, 1, (m, 32))
        results = []
        for loss_fn in (stage1.stage1_loss, _per_region_stage1_loss):
            f3d = T.parameter(data)
            loss = loss_fn(f2d, f3d, table, groups)
            # Scaled as in a batch mean, so the upstream gradient is not 1.
            T.mul(loss, 1.0 / 3).backward()
            results.append((loss.data.tobytes(), f3d.grad.tobytes()))
        assert results[0] == results[1]

    def test_scene_graph_freed_without_the_garbage_collector(self, tiny_arch):
        params = nn.init_params(tiny_arch, seed=2)
        params.set_trainable(True)
        bundle = scene.generate_scene(
            scene.SceneSpec(n_objects=3, seed=5, feature_dim=tiny_arch.proj_dim)
        )
        tokens = tokenizer.sam_tokenize(bundle)
        f2d, _ = stage1.pool_features_by_region(bundle.feat2d, bundle.mask).select(
            tokens.region_ids
        )
        table = _uniform_table(2)
        groups = np.arange(len(tokens)) % 2
        batch = nn.TokenBatch.of_scene(bundle, tokens, tiny_arch.max_points_per_token)
        gc.disable()
        try:
            f3d = stage1.project_3d(nn.forward_tokens(batch, params), params)
            node = weakref.ref(f3d)
            loss = stage1.stage1_loss(f2d, f3d, table, groups)
            del f3d
            loss.backward()
            assert node() is not None
            del loss
            assert node() is None
        finally:
            gc.enable()


GRAD_ARCH = nn.Arch(
    embed_dim=6, n_heads=2, n_enc_layers=1, n_dec_layers=1,
    pointnet_hidden=4, mlp_ratio=1, proj_dim=4, max_points_per_token=12,
)


def _packed_scenes(arch, n_scenes, points=(14, 20)):
    """Scenes with unequal token counts, their tokens, targets and random groups."""
    scenes = []
    for i in range(n_scenes):
        bundle = scene.generate_scene(
            scene.SceneSpec(
                n_objects=2 + i, seed=60 + i, feature_dim=arch.proj_dim,
                points_per_object_range=points,
            )
        )
        tokens = tokenizer.sam_tokenize(bundle)
        f2d, _ = stage1.pool_features_by_region(bundle.feat2d, bundle.mask).select(
            tokens.region_ids
        )
        groups = np.random.default_rng(i).integers(0, 3, len(tokens))
        batch = nn.TokenBatch.of_scene(bundle, tokens, arch.max_points_per_token)
        scenes.append((batch, f2d, groups))
    return scenes


def _stage1_scene_oracle(scenes, params, table, reweight):
    """The per-scene path: one graph per scene, their losses averaged by a node chain."""
    losses = []
    for batch, f2d, groups in scenes:
        f3d = stage1.project_3d(nn.forward_tokens(batch, params), params)
        losses.append(stage1.stage1_loss(f2d, f3d, table, groups, reweight=reweight))
    total = losses[0]
    for loss in losses[1:]:
        total = T.add(total, loss)
    return T.mul(total, 1.0 / len(losses))


def _stage1_packed(scenes, params, table, reweight):
    batch = nn.TokenBatch.stack([b for b, _, _ in scenes])
    f3d = stage1.project_3d(nn.forward_tokens(batch, params), params)
    f2d = np.concatenate([f for _, f, _ in scenes])
    groups = np.concatenate([g for _, _, g in scenes])
    return stage1.stage1_loss(
        f2d, f3d, table, groups, scenes=batch.scenes, reweight=reweight
    )


def _loss_and_grads(loss_fn, params):
    params.zero_grad()
    loss = loss_fn()
    loss.backward()
    return loss.item(), params.grad.copy()


class TestPackedStage1Loss:
    """One graph over stacked scenes equals the mean of per-scene losses."""

    @pytest.mark.parametrize("reweight", [True, False])
    def test_three_scenes_match_the_per_scene_oracle(self, reweight):
        scenes = _packed_scenes(GRAD_ARCH, 3)
        assert len({len(b) for b, _, _ in scenes}) == 3
        params, table = nn.init_params(GRAD_ARCH, seed=7), _uniform_table(3)
        params.set_trainable(True)
        packed, packed_grad = _loss_and_grads(
            lambda: _stage1_packed(scenes, params, table, reweight), params
        )
        oracle, oracle_grad = _loss_and_grads(
            lambda: _stage1_scene_oracle(scenes, params, table, reweight), params
        )
        assert packed == pytest.approx(oracle, rel=1e-12)
        assert np.abs(packed_grad - oracle_grad).max() <= 1e-12 * np.abs(oracle_grad).max()

    @pytest.mark.parametrize("reweight", [True, False])
    def test_one_scene_is_bit_identical_to_the_oracle(self, reweight):
        scenes = _packed_scenes(GRAD_ARCH, 1)
        params, table = nn.init_params(GRAD_ARCH, seed=7), _uniform_table(3)
        params.set_trainable(True)
        packed = _loss_and_grads(lambda: _stage1_packed(scenes, params, table, reweight), params)
        oracle = _loss_and_grads(
            lambda: _stage1_scene_oracle(scenes, params, table, reweight), params
        )
        assert packed[0] == oracle[0]
        assert packed[1].tobytes() == oracle[1].tobytes()

    def test_grad_check_two_scenes(self):
        scenes = _packed_scenes(GRAD_ARCH, 2)
        assert len(scenes[0][0]) != len(scenes[1][0])
        params, table = nn.init_params(GRAD_ARCH, seed=8), _uniform_table(3)
        params.set_trainable(True)
        inputs = [params.tensors[n] for n in params.trainable_names()]
        err = T.grad_check(
            lambda: _stage1_packed(scenes, params, table, True),
            inputs,
            h=1e-4,
            refine_above=1e-5,
        )
        assert err < 1e-4


class TestProject3d:
    def test_identity_projection(self):
        arch = nn.Arch(embed_dim=4, n_heads=2, proj_dim=4, n_enc_layers=0, n_dec_layers=0)
        params = nn.init_params(arch, seed=0)
        params.tensors["proj.w"].data[:] = np.eye(4)
        params.tensors["proj.b"].data[:] = 0.0
        h = T.constant(np.arange(8.0).reshape(2, 4))
        np.testing.assert_array_equal(stage1.project_3d(h, params).data, h.data)

    def test_zero_weights_zero_output(self, tiny_arch, rng):
        params = nn.init_params(tiny_arch, seed=0)
        params.tensors["proj.w"].data[:] = 0.0
        params.tensors["proj.b"].data[:] = 0.0
        h = T.constant(rng.normal(0, 1, (3, tiny_arch.embed_dim)))
        np.testing.assert_array_equal(
            stage1.project_3d(h, params).data, np.zeros((3, tiny_arch.proj_dim))
        )


class TestRegionCosines:
    def test_perfect_alignment(self, rng):
        f = rng.normal(0, 1, (4, 6))
        np.testing.assert_allclose(stage1.region_cosines(f, 2.5 * f), 1.0, atol=1e-12)

    def test_orthogonal_vectors(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        np.testing.assert_allclose(stage1.region_cosines(a, b), 0.0, atol=1e-12)

    def test_zero_norm_row_gives_zero(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[1.0, 2.0], [2.0, 2.0]])
        np.testing.assert_allclose(stage1.region_cosines(a, b), [0.0, 1.0], atol=1e-12)
