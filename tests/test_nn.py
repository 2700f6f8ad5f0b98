"""Model components: embedder invariances, transformer properties, mask plans, checkpoints."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest
from conftest import blob_spans, edit_header, read_artifact
from hypothesis import given
from hypothesis import strategies as st

from samdistill import blobio, nn, scene, stage1, tokenizer, train
from samdistill import tensor as T
from samdistill.errors import InvalidInputError
from samdistill.tokenizer import MODE_SAM, TokenSet


class _PointsOnly:
    def __init__(self, points):
        self.points = np.asarray(points, dtype=np.float64)


def _tokens(points, *members):
    return TokenSet.from_members(list(members), points, np.zeros(len(members)), MODE_SAM)


def _batch(bundle, tokens, params):
    return nn.TokenBatch.of_scene(bundle, tokens, params.arch.max_points_per_token)


def _embed(bundle, tokens, params):
    return nn.embed_tokens(_batch(bundle, tokens, params), params)


def _one_scene(x):
    return T.Segments.of_counts([x.shape[0]])


@pytest.fixture(scope="module")
def params(tiny_arch):
    return nn.init_params(tiny_arch, seed=3)


class TestEmbedder:
    def test_degenerate_token_embeds_like_origin(self, params, rng):
        pts = np.vstack([np.full((4, 3), 2.5), np.full((2, 3), -7.0)])
        holder = _PointsOnly(pts)
        toks = _tokens(pts, [0, 1, 2, 3], [4, 5])
        out = _embed(holder, toks, params)
        # Both collapse to the centered zero cloud, so rows match exactly.
        np.testing.assert_array_equal(out.data[0], out.data[1])

    def test_member_order_permutation_invariance(self, params, rng):
        pts = rng.normal(0, 1, (10, 3))
        holder = _PointsOnly(pts)
        a = _embed(holder, _tokens(pts, [0, 3, 5, 7]), params)
        b = _embed(holder, _tokens(pts, [7, 0, 5, 3]), params)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_member_duplication_invariance(self, params, rng):
        pts = rng.normal(0, 1, (6, 3))
        holder = _PointsOnly(pts)
        a = _embed(holder, _tokens(pts, [0, 1, 2]), params)
        b = _embed(holder, _tokens(pts, [0, 0, 1, 1, 2, 2]), params)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_duplication_invariance_through_subsampling(self, params, rng):
        max_pts = params.arch.max_points_per_token
        pts = rng.normal(0, 1, (max_pts, 3))
        holder = _PointsOnly(pts)
        idx = np.arange(max_pts)
        a = _embed(holder, _tokens(pts, idx), params)
        b = _embed(holder, _tokens(pts, np.repeat(idx, 2)), params)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_oversized_token_subsampled_to_cap(self, params, rng):
        max_pts = params.arch.max_points_per_token
        tokens = _tokens(np.zeros((3 * max_pts, 3)), np.arange(3 * max_pts), np.arange(5))
        _, segments = tokens.subsampled(max_pts)
        assert segments.counts[0] <= max_pts
        assert segments.counts[1] == 5

    def test_empty_token_rejected(self, params):
        pts = np.zeros((2, 3))
        tok = TokenSet(
            indices=np.array([], dtype=np.int64),
            segments=T.Segments.of_counts([0]),
            centroids=np.zeros((1, 3)),
            region_ids=np.zeros(1, dtype=np.int64),
            mode=MODE_SAM,
        )
        with pytest.raises(InvalidInputError):
            _embed(_PointsOnly(pts), tok, params)


def _per_token_embed(bundle, tokens, params):
    """The unpacked embedder: one MLP graph per token, rows concatenated."""
    p = params.tensors
    max_points = params.arch.max_points_per_token
    points = np.asarray(bundle.points, dtype=np.float64)
    rows = []
    for i, members in enumerate(np.split(tokens.indices, tokens.segments.bounds[1:-1])):
        idx = np.sort(members)
        if len(idx) > max_points:
            idx = idx[:: math.ceil(len(idx) / max_points)]
        local = T.constant(points[idx] - tokens.centroids[i])
        h = T.relu(T.add(T.matmul(local, p["embed.l1.w"]), p["embed.l1.b"]))
        h = T.add(T.matmul(h, p["embed.l2.w"]), p["embed.l2.b"])
        rows.append(T.max_pool(h, T.Segments.of_counts([len(idx)])))
    return T.concat(rows, axis=0)


class TestPackedEmbedOracle:
    """The packed embedder equals a per-token graph: forward bits and weight gradients."""

    @pytest.mark.parametrize("mode", [tokenizer.MODE_SAM, tokenizer.MODE_KNN])
    def test_matches_per_token_graph(self, tiny_arch, mode):
        bundle = scene.generate_scene(scene.SceneSpec(n_objects=5, seed=21))
        tokens = tokenizer.tokenize(bundle, mode)
        # The tiny arch keeps 16 points per token, so every token is subsampled.
        assert tokens.segments.counts.min() > tiny_arch.max_points_per_token
        names = ["embed.l1.w", "embed.l1.b", "embed.l2.w", "embed.l2.b"]
        target = T.constant(np.random.default_rng(0).normal(0, 1, (len(tokens), 8)))
        results = []
        for embed in (_embed, _per_token_embed):
            params = nn.init_params(tiny_arch, seed=4)
            params.set_trainable(True)
            out = embed(bundle, tokens, params)
            T.mse(out, target).backward()
            results.append((out.data.tobytes(), [params.tensors[n].grad.copy() for n in names]))
        (packed, packed_grads), (oracle, oracle_grads) = results
        assert packed == oracle
        for name, a, b in zip(names, packed_grads, oracle_grads):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name

    def test_visible_selection_embeds_like_the_full_set(self, params):
        bundle = scene.generate_scene(scene.SceneSpec(n_objects=5, seed=21))
        tokens = tokenizer.sam_tokenize(bundle)
        batch = _batch(bundle, tokens, params)
        full = nn.embed_tokens(batch, params).data
        rows = np.array([3, 0, 4])
        picked = nn.embed_tokens(batch.select(rows), params).data
        assert picked.tobytes() == full[rows].tobytes()


def _unfused_embed(batch, params):
    """The embedder as four nodes, linear -> relu -> linear -> max_pool."""
    p = params.tensors
    h = T.relu(T.linear(T.constant(batch.members), p["embed.l1.w"], p["embed.l1.b"]))
    h = T.linear(h, p["embed.l2.w"], p["embed.l2.b"])
    return T.max_pool(h, batch.tokens)


class TestFusedEmbedder:
    """The one-node embedder equals the unfused graph on stacked scenes of the default Arch."""

    @pytest.mark.parametrize("n_scenes", [1, 2])
    def test_matches_the_unfused_graph(self, n_scenes):
        params = nn.init_params(nn.Arch(), seed=0)
        params.set_trainable(True)
        parts = []
        for seed in range(n_scenes):
            bundle = scene.generate_scene(scene.SceneSpec(n_objects=5, seed=30 + seed))
            parts.append(_batch(bundle, tokenizer.sam_tokenize(bundle), params))
        batch = nn.TokenBatch.stack(parts)
        names = ["embed.l1.w", "embed.l1.b", "embed.l2.w", "embed.l2.b"]
        target = T.constant(np.random.default_rng(1).normal(0, 1, (len(batch), 64)))
        results = []
        for embed in (nn.embed_tokens, _unfused_embed):
            params.zero_grad()
            out = embed(batch, params)
            T.mse(out, target).backward()
            results.append((out.data.tobytes(), [params.tensors[n].grad.copy() for n in names]))
        (fused, fused_grads), (oracle, oracle_grads) = results
        assert fused == oracle
        for name, a, b in zip(names, fused_grads, oracle_grads):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name


def _scenes(tiny_arch, n):
    """``n`` small scenes with unequal token counts, and their mask-guided tokens."""
    bundles = [
        scene.generate_scene(
            scene.SceneSpec(n_objects=3 + i, seed=40 + i, feature_dim=tiny_arch.proj_dim)
        )
        for i in range(n)
    ]
    return bundles, [tokenizer.sam_tokenize(b) for b in bundles]


class TestTokenBatch:
    def test_select_keeps_rows_and_member_rows(self, small_bundle, params):
        tokens = tokenizer.sam_tokenize(small_bundle)
        one = _batch(small_bundle, tokens, params)
        batch = nn.TokenBatch.stack([one, one])
        n = len(tokens)
        rows = np.array([2, 0, n + 1]) if n > 2 else np.array([0, n])
        picked = batch.select(rows)
        assert len(picked) == len(rows)
        np.testing.assert_array_equal(picked.scenes.bounds, [0, np.sum(rows < n), len(rows)])
        np.testing.assert_array_equal(picked.centroids, batch.centroids[rows])
        for i, row in enumerate(rows):
            got = picked.members[picked.tokens.bounds[i] : picked.tokens.bounds[i + 1]]
            lo, hi = batch.tokens.bounds[row], batch.tokens.bounds[row + 1]
            assert got.tobytes() == batch.members[lo:hi].tobytes()

    def test_stack_keeps_each_scene(self, tiny_arch, params):
        bundles, token_sets = _scenes(tiny_arch, 3)
        parts = [_batch(b, t, params) for b, t in zip(bundles, token_sets)]
        batch = nn.TokenBatch.stack(parts)
        assert len(batch.scenes) == 3
        np.testing.assert_array_equal(batch.scenes.counts, [len(t) for t in token_sets])
        np.testing.assert_array_equal(batch.members, np.concatenate([b.members for b in parts]))
        assert batch.tokens.bounds[-1] == len(batch.members)

    def test_select_must_keep_scene_order(self, small_bundle, params):
        one = _batch(small_bundle, tokenizer.sam_tokenize(small_bundle), params)
        batch = nn.TokenBatch.stack([one, one])
        with pytest.raises(InvalidInputError):
            batch.select(np.array([len(one), 0]))


class TestPackedForward:
    """Stacked scenes run as one graph; each scene's rows see only that scene."""

    def test_matches_per_scene_forward(self, tiny_arch, params):
        bundles, token_sets = _scenes(tiny_arch, 3)
        parts = [_batch(b, t, params) for b, t in zip(bundles, token_sets)]
        assert len({len(t) for t in token_sets}) == 3
        packed = nn.forward_tokens(nn.TokenBatch.stack(parts), params).data
        oracle = np.concatenate([nn.forward_tokens(b, params).data for b in parts])
        np.testing.assert_allclose(packed, oracle, rtol=1e-12, atol=1e-14)

    def test_one_scene_perturbed_leaves_the_others_unchanged(self, tiny_arch, params):
        bundles, token_sets = _scenes(tiny_arch, 3)
        parts = [_batch(b, t, params) for b, t in zip(bundles, token_sets)]
        moved = dataclasses.replace(bundles[1], points=bundles[1].points + 0.05)
        moved_parts = [parts[0], _batch(moved, token_sets[1], params), parts[2]]
        batch = nn.TokenBatch.stack(parts)
        before = nn.forward_tokens(batch, params).data
        after = nn.forward_tokens(nn.TokenBatch.stack(moved_parts), params).data
        lo, hi = batch.scenes.bounds[1], batch.scenes.bounds[2]
        assert np.delete(after, np.s_[lo:hi], 0).tobytes() == np.delete(
            before, np.s_[lo:hi], 0
        ).tobytes()
        assert not np.array_equal(after[lo:hi], before[lo:hi])


class TestPosEmbed:
    def test_identical_centroids_identical_embeddings(self, params):
        cents = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        out = nn.pos_embed(cents, params)
        np.testing.assert_array_equal(out.data[0], out.data[1])

    def test_zero_init_final_layer_gives_zero_at_init(self, params):
        out = nn.pos_embed(np.array([[0.3, -1.0, 4.0]]), params)
        np.testing.assert_array_equal(out.data, np.zeros((1, params.arch.embed_dim)))

    def test_translation_changes_trained_embeddings(self, tiny_arch, rng):
        params = nn.init_params(tiny_arch, seed=3)
        # Give the zero-initialized final layer nonzero weights.
        params.tensors["pos.l2.w"].data[:] = rng.normal(0, 0.5, params.tensors["pos.l2.w"].shape)
        cents = rng.normal(0, 1, (3, 3))
        a = nn.pos_embed(cents, params)
        b = nn.pos_embed(cents + np.array([0.5, 0.0, 0.0]), params)
        assert not np.allclose(a.data, b.data)


class TestEncoderDecoder:
    def test_zero_layers_is_identity(self, rng):
        arch = nn.Arch(embed_dim=8, n_heads=2, n_enc_layers=0, n_dec_layers=0)
        params = nn.init_params(arch, seed=0)
        x = T.constant(rng.normal(0, 1, (3, 8)))
        assert nn.encode(x, params, _one_scene(x)) is x
        assert nn.decode(x, params, _one_scene(x)) is x

    def test_single_token_softmax_weight_is_one(self, rng):
        scores = T.softmax(T.constant(rng.normal(0, 1, (1, 1))), axis=1)
        assert scores.data[0, 0] == 1.0

    def test_forward_preserves_shape(self, params, rng):
        for m in (1, 2, 5):
            x = T.constant(rng.normal(0, 1, (m, params.arch.embed_dim)))
            assert nn.encode(x, params, _one_scene(x)).shape == (m, params.arch.embed_dim)
            assert nn.decode(x, params, _one_scene(x)).shape == (m, params.arch.embed_dim)

    def test_permutation_equivariance(self, params, rng):
        m, dim = 5, params.arch.embed_dim
        feats = rng.normal(0, 1, (m, dim))
        perm = rng.permutation(m)
        out = nn.encode(T.constant(feats), params, _one_scene(feats)).data
        out_perm = nn.encode(T.constant(feats[perm]), params, _one_scene(feats)).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-9)

    def test_decoder_permutation_equivariance(self, params, rng):
        m, dim = 4, params.arch.embed_dim
        feats = rng.normal(0, 1, (m, dim))
        perm = rng.permutation(m)
        out = nn.decode(T.constant(feats), params, _one_scene(feats)).data
        out_perm = nn.decode(T.constant(feats[perm]), params, _one_scene(feats)).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-9)

    def test_grad_check_one_attention_block(self, rng):
        arch = nn.Arch(
            embed_dim=6, n_heads=2, n_enc_layers=1, n_dec_layers=0,
            pointnet_hidden=4, mlp_ratio=1, proj_dim=3,
        )
        params = nn.init_params(arch, seed=1)
        params.set_trainable(True)
        x = T.constant(rng.normal(0, 1, (3, 6)))
        target = rng.normal(0, 1, (3, 6))
        inputs = [params.tensors[n] for n in params.trainable_names() if n.startswith("enc")]

        def f():
            return T.mse(nn.encode(x, params, _one_scene(x)), T.constant(target))

        assert T.grad_check(f, inputs) < 1e-4



def _unfused_encode(x, params, scenes):
    """The encoder with each linear layer as a matmul node plus a bias add node."""
    p, eps = params.tensors, params.arch.ln_eps

    def affine(h, name, bias):
        return T.add(T.matmul(h, p[name]), p[bias])

    for i in range(params.arch.n_enc_layers):
        pre = f"enc{i}"
        normed = T.layer_norm(x, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"], eps=eps)
        q, k, v = (T.matmul(normed, p[f"{pre}.attn.{w}"]) for w in ("wq", "wk", "wv"))
        heads = T.attention(q, k, v, params.arch.n_heads, scenes)
        x = T.add(x, affine(heads, f"{pre}.attn.wo", f"{pre}.attn.bo"))
        normed = T.layer_norm(x, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"], eps=eps)
        h = T.gelu(affine(normed, f"{pre}.mlp.l1.w", f"{pre}.mlp.l1.b"))
        x = T.add(x, affine(h, f"{pre}.mlp.l2.w", f"{pre}.mlp.l2.b"))
    return T.layer_norm(x, p["enc.ln_f.g"], p["enc.ln_f.b"], eps=eps)


class TestFusedLinearLayers:
    """The encoder's ``linear`` nodes against the unfused matmul-plus-add graph."""

    @pytest.mark.parametrize("offsets", [[0, 3], [0, 3, 5]])
    def test_encode_matches_unfused_graph_and_passes_grad_check(self, offsets, rng):
        arch = nn.Arch(
            embed_dim=6, n_heads=2, n_enc_layers=2, n_dec_layers=0,
            pointnet_hidden=4, mlp_ratio=2, proj_dim=3,
        )
        params = nn.init_params(arch, seed=1)
        params.set_trainable(True)
        scenes = T.Segments.of_bounds(offsets)
        x = T.parameter(rng.normal(0, 1, (offsets[-1], 6)))
        target = T.constant(rng.normal(0, 1, (offsets[-1], 6)))
        names = [n for n in params.trainable_names() if n.startswith("enc")]
        results = []
        for encode in (nn.encode, _unfused_encode):
            params.zero_grad()
            x.zero_grad()
            out = encode(x, params, scenes)
            T.mse(out, target).backward()
            grads = [x.grad] + [params.tensors[n].grad for n in names]
            results.append([out.data.tobytes()] + [g.tobytes() for g in grads])
        assert results[0] == results[1]

        def f():
            return T.mse(nn.encode(x, params, scenes), target)

        assert T.grad_check(f, [x] + [params.tensors[n] for n in names]) < 1e-4


class TestMaskPlan:
    def test_sixty_percent_of_ten(self):
        plan = nn.make_mask_plan(10, 0.6, seed=0, scene_id=0, epoch=0)
        assert len(plan.masked) == 6 and len(plan.visible) == 4

    def test_zero_ratio_all_visible(self):
        plan = nn.make_mask_plan(7, 0.0, seed=1, scene_id=2, epoch=3)
        assert len(plan.masked) == 0
        np.testing.assert_array_equal(plan.visible, np.arange(7))

    def test_determinism_and_key_sensitivity(self):
        a = nn.make_mask_plan(20, 0.6, seed=5, scene_id=3, epoch=9)
        b = nn.make_mask_plan(20, 0.6, seed=5, scene_id=3, epoch=9)
        np.testing.assert_array_equal(a.masked, b.masked)
        c = nn.make_mask_plan(20, 0.6, seed=5, scene_id=3, epoch=10)
        assert not np.array_equal(a.masked, c.masked)

    @given(st.integers(1, 40), st.floats(0.0, 0.99), st.integers(0, 100))
    def test_partition_and_count(self, m, r_w, seed):
        plan = nn.make_mask_plan(m, r_w, seed=seed, scene_id=1, epoch=2)
        assert len(plan.masked) == int(np.floor(r_w * m + 0.5))
        merged = sorted(plan.visible.tolist() + plan.masked.tolist())
        assert merged == list(range(m))

    def test_single_token_full_mask(self):
        plan = nn.make_mask_plan(1, 0.6, seed=0, scene_id=0, epoch=0)
        assert len(plan.masked) == 1 and len(plan.visible) == 0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            nn.make_mask_plan(0, 0.5, 0, 0, 0)
        with pytest.raises(InvalidInputError):
            nn.make_mask_plan(5, 1.0, 0, 0, 0)


class TestFillMaskedPositions:
    def test_token_order_restored(self, params, rng):
        dim = params.arch.embed_dim
        plan = nn.make_mask_plan(5, 0.6, seed=1, scene_id=0, epoch=0)
        enc_vis = T.constant(rng.normal(0, 1, (len(plan.visible), dim)))
        out = nn.fill_masked_positions(enc_vis, plan.visible, plan.n_tokens, params)
        assert out.shape == (5, dim)
        for rank, token_idx in enumerate(plan.visible):
            np.testing.assert_array_equal(out.data[token_idx], enc_vis.data[rank])
        for token_idx in plan.masked:
            np.testing.assert_array_equal(
                out.data[token_idx], params.tensors["mask_query"].data
            )

    def test_mismatched_visible_count_rejected(self, params, rng):
        plan = nn.make_mask_plan(5, 0.6, seed=1, scene_id=0, epoch=0)
        enc_vis = T.constant(rng.normal(0, 1, (len(plan.visible) + 1, params.arch.embed_dim)))
        with pytest.raises(InvalidInputError):
            nn.fill_masked_positions(enc_vis, plan.visible, plan.n_tokens, params)


class TestParamsAndCheckpoints:
    def test_init_determinism(self, tiny_arch):
        a = nn.init_params(tiny_arch, seed=4)
        b = nn.init_params(tiny_arch, seed=4)
        assert a.byte_hash() == b.byte_hash()
        c = nn.init_params(tiny_arch, seed=5)
        assert a.byte_hash() != c.byte_hash()

    def test_no_decay_tags(self):
        assert nn.no_decay("enc0.ln1.g")
        assert nn.no_decay("dec.ln_f.b")
        assert nn.no_decay("mask_query")
        assert not nn.no_decay("embed.l1.w")
        assert not nn.no_decay("proj.b")

    def test_checkpoint_round_trip_bit_exact(self, tmp_path, tiny_arch):
        params = nn.init_params(tiny_arch, seed=8)
        params.set_trainable(True)
        params.set_trainable(False, ["proj.w"])
        n = params.data.size
        opt = {
            "t": 17,
            "m": np.random.default_rng(1).normal(0, 1, n),
            "v": np.abs(np.random.default_rng(2).normal(0, 1, n)),
        }
        nn.save_checkpoint(tmp_path / "ckpt", params, step=42, opt_state=opt)
        loaded = nn.load_checkpoint(tmp_path / "ckpt")
        assert loaded.step == 42
        assert loaded.params.byte_hash() == params.byte_hash()
        # Checkpoints hold weights only: a loaded model is frozen.
        assert "frozen" not in json.dumps(read_artifact(tmp_path / "ckpt")[0])
        assert loaded.params.trainable_names() == []
        assert loaded.params.grad is None
        assert loaded.opt_state["t"] == 17
        np.testing.assert_array_equal(loaded.opt_state["m"], opt["m"])
        np.testing.assert_array_equal(loaded.opt_state["v"], opt["v"])

    @pytest.mark.parametrize("frozen", [False, True])
    def test_checkpoint_with_frozen_records_loads_frozen(self, tmp_path, tiny_arch, frozen):
        """Checkpoints written while trainability was saved hold a ``frozen`` bool per record."""
        params = nn.init_params(tiny_arch, seed=8)
        nn.save_checkpoint(tmp_path / "ckpt", params, step=5)

        def add_frozen(manifest):
            for rec in manifest["params"]:
                rec["frozen"] = frozen

        edit_header(tmp_path / "ckpt", add_frozen)
        loaded = nn.load_checkpoint(tmp_path / "ckpt")
        assert loaded.step == 5
        assert loaded.params.byte_hash() == params.byte_hash()
        assert loaded.params.trainable_names() == []
        assert loaded.params.grad is None

    def test_checkpoint_without_optimizer(self, tmp_path, tiny_arch):
        params = nn.init_params(tiny_arch, seed=8)
        nn.save_checkpoint(tmp_path / "ckpt", params, step=0)
        loaded = nn.load_checkpoint(tmp_path / "ckpt")
        assert loaded.opt_state is None
        assert loaded.params.arch == tiny_arch

    def test_checkpoint_blobs_are_the_flat_buffers(self, tmp_path, tiny_arch):
        params = nn.init_params(tiny_arch, seed=8)
        params.set_trainable(False, ["proj.w", "enc0.ln1.g"])
        names = params.names()
        # The buffer puts decayed parameters first, so its order is not name order.
        assert any(nn.no_decay(a) and not nn.no_decay(b) for a, b in zip(names, names[1:]))
        opt = train.init_opt_state(params)
        opt["m"] += np.arange(params.data.size)
        opt["v"] += 0.5
        path = tmp_path / "ckpt"
        nn.save_checkpoint(path, params, step=1, opt_state=opt)
        raw, spans = path.read_bytes(), blob_spans(path)
        assert list(spans) == ["m", "params", "v"]
        for blob, flat in [("params", params.data), ("m", opt["m"]), ("v", opt["v"])]:
            start, stop = spans[blob]
            assert start % 8 == 0 and raw[start:stop] == flat.tobytes()
        assert spans["v"][1] == len(raw)
        nn.save_checkpoint(path, params, step=1)
        assert list(blob_spans(path)) == ["params"]
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]

    @pytest.mark.parametrize("fails", ["params", "m", "v", "manifest"])
    def test_failed_save_leaves_previous_checkpoint(
        self, tmp_path, tiny_arch, monkeypatch, fails
    ):
        """The disk fills up while the new file's header, or one of its arrays, is written."""
        old = nn.init_params(tiny_arch, seed=8)
        nn.save_checkpoint(tmp_path / "ckpt", old, step=3, opt_state=train.init_opt_state(old))
        new = nn.init_params(tiny_arch, seed=9)
        write = blobio.write_blob

        def disk_full(path, header, arrays):
            write(path, header, arrays)
            stop = 40 if fails == "manifest" else blob_spans(path)[fails][0] + 8
            with open(path, "r+b") as fh:
                fh.truncate(stop)
            raise OSError("disk full")

        monkeypatch.setattr(blobio, "write_blob", disk_full)
        with pytest.raises(OSError):
            nn.save_checkpoint(tmp_path / "ckpt", new, step=7, opt_state=train.init_opt_state(new))
        loaded = nn.load_checkpoint(tmp_path / "ckpt")
        assert loaded.step == 3
        assert loaded.params.byte_hash() == old.byte_hash()
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]

    def test_built_frozen_without_a_gradient_buffer(self, tiny_arch):
        params = nn.init_params(tiny_arch, seed=8)
        assert params.trainable_names() == []
        assert params.grad is None
        probe = nn.ModelParams.from_arrays({"w": np.ones((2, 3))})
        assert probe.trainable_names() == [] and probe.grad is None

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_replace_keeps_old_checkpoint(self, tmp_path, tiny_arch, monkeypatch, error):
        """The new file is complete, but the ``os.replace`` that puts it in place fails."""
        old = nn.init_params(tiny_arch, seed=8)
        nn.save_checkpoint(tmp_path / "ckpt", old, step=3, opt_state=train.init_opt_state(old))
        new = nn.init_params(tiny_arch, seed=9)

        def failing_replace(src, dst):
            raise error("replace failed")

        monkeypatch.setattr(blobio.os, "replace", failing_replace)
        with pytest.raises(error):
            nn.save_checkpoint(tmp_path / "ckpt", new, step=7, opt_state=train.init_opt_state(new))
        monkeypatch.undo()
        loaded = nn.load_checkpoint(tmp_path / "ckpt")
        assert loaded.step == 3
        assert loaded.params.byte_hash() == old.byte_hash()
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]

    def test_save_over_a_stale_tmp_file(self, tmp_path, tiny_arch):
        """A writer killed before its ``os.replace`` leaves a part-written ``.<name>.<pid>.tmp``.

        A later save from a process with the same pid writes over it.
        """
        old = nn.init_params(tiny_arch, seed=8)
        nn.save_checkpoint(tmp_path / "ckpt", old, step=3, opt_state=train.init_opt_state(old))
        stale = tmp_path / f".ckpt.{os.getpid()}.tmp"
        stale.write_bytes((tmp_path / "ckpt").read_bytes()[:100])
        new = nn.init_params(tiny_arch, seed=9)
        nn.save_checkpoint(tmp_path / "ckpt", new, step=7, opt_state=train.init_opt_state(new))
        loaded = nn.load_checkpoint(tmp_path / "ckpt")
        assert loaded.step == 7
        assert loaded.params.byte_hash() == new.byte_hash()
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]

    def test_copy_is_deep(self, tiny_arch):
        params = nn.init_params(tiny_arch, seed=8)
        clone = params.copy()
        clone.tensors["proj.w"].data += 1.0
        assert params.byte_hash() != clone.byte_hash()

    def test_freeze_all_disables_grad(self, tiny_arch):
        params = nn.init_params(tiny_arch, seed=8)
        params.set_trainable(True)
        params.freeze_all()
        assert params.grad is None
        assert params.trainable_names() == []
        assert not any(t.requires_grad for t in params.tensors.values())


class TestFlatStore:
    """Every leaf views its slice of the flat ``data``; trainable leaves also of ``grad``."""

    @staticmethod
    def _assert_bound(params):
        for name, t in params.tensors.items():
            assert np.shares_memory(t.data, params.data), name
            if t.requires_grad:
                assert np.shares_memory(t.grad, params.grad), name
            else:
                assert t.grad is None, name

    def test_grads_stay_views_through_backward_zero_grad_and_grad_check(self, tiny_arch):
        params = nn.init_params(tiny_arch, seed=2)
        params.set_trainable(True)
        bundle = scene.generate_scene(
            scene.SceneSpec(n_objects=3, seed=5, feature_dim=tiny_arch.proj_dim)
        )
        tokens = tokenizer.sam_tokenize(bundle)
        f2d, _ = stage1.pool_features_by_region(bundle.feat2d, bundle.mask).select(
            tokens.region_ids
        )
        batch = _batch(bundle, tokens, params)
        table, _ = stage1.build_weight_table(f2d, 1, 0)
        groups = np.zeros(len(f2d), int)

        def f():
            f3d = stage1.project_3d(nn.forward_tokens(batch, params), params)
            return stage1.stage1_loss(f2d, f3d, table, groups, reweight=False)

        f().backward()
        self._assert_bound(params)
        assert np.any(params.grad != 0.0)
        params.zero_grad()
        self._assert_bound(params)
        assert not np.any(params.grad)
        inputs = [params.tensors["embed.l2.b"], params.tensors["proj.b"]]
        assert T.grad_check(f, inputs, h=1e-4, refine_above=1e-5) < 1e-4
        self._assert_bound(params)

    def test_copy_owns_its_buffers(self, tiny_arch):
        params = nn.init_params(tiny_arch, seed=8)
        params.set_trainable(True)
        params.set_trainable(False, ["proj.w"])
        clone = params.copy()
        self._assert_bound(clone)
        # A copy is frozen, whatever its source.
        assert clone.trainable_names() == []
        assert clone.grad is None
        assert not np.shares_memory(clone.data, params.data)
        clone.set_trainable(True)
        assert not np.shares_memory(clone.grad, params.grad)
        clone.grad[...] = 1.0
        assert not np.any(params.grad)

    def test_frozen_leaves_have_no_grad(self, tiny_arch):
        teacher = nn.init_params(tiny_arch, seed=1)
        assert teacher.grad is None
        self._assert_bound(teacher)
        student = teacher.copy()
        student.set_trainable(True)
        self._assert_bound(student)
        self._assert_bound(teacher)
        student.set_trainable(False, ["mask_query"])
        self._assert_bound(student)

    @staticmethod
    def _ranges_from_scratch(params):
        """Maximal runs of trainable elements as (start, stop, decays), from each leaf's flag."""
        index = params.views(np.arange(params.data.size))
        spans = sorted(
            (int(index[name].min()), int(index[name].max()) + 1, not nn.no_decay(name))
            for name, t in params.tensors.items()
            if t.requires_grad and t.size
        )
        runs = []
        for start, stop, decays in spans:
            if runs and runs[-1][1] == start and runs[-1][2] == decays:
                runs[-1] = (runs[-1][0], stop, decays)
            else:
                runs.append((start, stop, decays))
        return tuple(runs)

    @given(data=st.data())
    def test_cached_ranges_match_a_recompute(self, tiny_arch, data):
        """After any sequence of switches: the cached ranges, zeroed frozen slots, zero_grad."""
        params = nn.init_params(tiny_arch, seed=0)
        names = params.names()
        calls = data.draw(
            st.lists(
                st.tuples(
                    st.booleans(),
                    st.none() | st.lists(st.sampled_from(names), unique=True, max_size=12),
                ),
                min_size=1,
                max_size=8,
            )
        )
        for trainable, chosen in calls:
            for name in params.trainable_names():
                params.tensors[name].grad[...] = 1.0  # what a backward leaves
            params.set_trainable(trainable, chosen)
            assert params.trainable_ranges() == self._ranges_from_scratch(params)
            if params.grad is None:
                assert params.trainable_names() == []
                continue
            inside = np.zeros(params.data.size, bool)
            for start, stop, _ in params.trainable_ranges():
                inside[start:stop] = True
            assert not np.any(params.grad[~inside])
            params.zero_grad()
            assert not np.any(params.grad)

    def test_decayed_parameters_come_first(self, tiny_arch):
        params = nn.init_params(tiny_arch, seed=1)
        views = params.views(np.arange(params.data.size))
        for name, view in views.items():
            assert (view.min() >= params.n_decay) == nn.no_decay(name), name


class TestEndToEndForward:
    def test_whole_scene_forward_shapes(self, tiny_arch):
        bundle = scene.generate_scene(scene.SceneSpec(n_objects=3, seed=13))
        params = nn.init_params(tiny_arch, seed=0)
        tokens = tokenizer.sam_tokenize(bundle)
        batch = _batch(bundle, tokens, params)
        h = T.add(nn.embed_tokens(batch, params), nn.pos_embed(batch.centroids, params))
        out = nn.encode(h, params, batch.scenes)
        assert out.shape == (len(tokens), tiny_arch.embed_dim)
