"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion. Heavy training runs are shared through module-scoped
fixtures; every run is seeded and bit-reproducible.
"""

import numpy as np
import pytest

from samdistill import nn, probe, scene, stage1, stage2, tokenizer, train
from samdistill import tensor as T

# Dataset families used by the relative-improvement criteria.
SPEC_BALANCED = scene.SceneSpec(
    n_objects=12,
    seed=0,
    imbalance_exponent=0.7,
    n_types=4,
    points_per_object_range=(110, 160),
    depth_levels=2,
)
SPEC_IMBALANCED = scene.SceneSpec(
    n_objects=9,
    seed=0,
    imbalance_exponent=2.0,
    n_types=4,
    points_per_object_range=(110, 150),
    depth_levels=2,
)

GRAD_ARCH = nn.Arch(
    embed_dim=6,
    n_heads=2,
    n_enc_layers=1,
    n_dec_layers=1,
    pointnet_hidden=4,
    mlp_ratio=1,
    proj_dim=4,
    max_points_per_token=12,
)


def _report(line: str) -> None:
    print(f"\n[PASS] {line}")


# ---------------------------------------------------------------------------
# Shared heavy runs


@pytest.fixture(scope="module")
def c5_dataset():
    train_b = scene.generate_dataset(SPEC_BALANCED, 16, 0)
    eval_b = scene.generate_dataset(SPEC_BALANCED, 6, 1_000_003)
    return train_b, eval_b


@pytest.fixture(scope="module")
def c5_run(c5_dataset, tmp_path_factory):
    train_b, eval_b = c5_dataset
    cfg = train.TrainConfig(epochs=200, seed=0, batch_size=1)
    return train.run_stage1(
        train_b,
        eval_b,
        nn.Arch(),
        cfg,
        train.Stage1Config(k_groups=6),
        tmp_path_factory.mktemp("c5"),
    )


@pytest.fixture(scope="module")
def c6_run(c5_dataset, c5_run, tmp_path_factory):
    train_b, eval_b = c5_dataset
    cfg = train.TrainConfig(epochs=200, seed=0, batch_size=8)  # 8 scenes -> 200 steps
    return train.run_stage2(
        train_b[:8],
        eval_b,
        c5_run.checkpoint_dir,
        cfg,
        train.Stage2Config(mask_ratio=0.6),
        tmp_path_factory.mktemp("c6"),
    )


# ---------------------------------------------------------------------------
# Criterion 1: tokenization purity


def test_c1_tokenization_purity():
    sam_purities = []
    for seed in range(50):
        spec = scene.SceneSpec(n_objects=2 + seed % 5, seed=seed)
        bundle = scene.generate_scene(spec)
        tokens = tokenizer.sam_tokenize(bundle)
        sam_purities.append(tokenizer.purity(tokens, bundle.gt_region))
    assert all(p == 1.0 for p in sam_purities)

    knn_purities, sam_adv = [], []
    for seed in range(100, 120):
        spec = scene.SceneSpec(
            n_objects=2, seed=seed, depth_range=(3.9, 4.1), points_per_object_range=(60, 80)
        )
        bundle = scene.generate_scene(spec)
        k = int(0.75 * bundle.n_points)
        knn = tokenizer.knn_tokenize(bundle.points, n=2, k=k)
        knn_purities.append(tokenizer.purity(knn, bundle.gt_region))
        sam_adv.append(tokenizer.purity(tokenizer.sam_tokenize(bundle), bundle.gt_region))
    mean_knn = float(np.mean(knn_purities))
    mean_sam = float(np.mean(sam_adv))
    assert mean_knn < 1.0
    assert mean_knn < mean_sam
    _report(
        f"criterion 1: mask-guided purity 1.0 on 50 scenes; adversarial knn mean "
        f"{mean_knn:.4f} < sam mean {mean_sam:.4f}"
    )


# ---------------------------------------------------------------------------
# Criterion 2: weight formula oracle


def test_c2_weight_formula_oracle():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(1000):
        size = int(rng.integers(1, 25))
        if rng.random() < 0.1:
            counts = np.full(size, int(rng.integers(1, 500)))  # degenerate n_min = n_max
        else:
            counts = rng.integers(1, 1000, size)
        k, tau, w = stage1.weights_from_counts(counts)

        n_min, n_max = counts.min(), counts.max()
        ok = [(int(n) - int(n_min)) / int(n_max) for n in counts]
        otau = [1.0 - x for x in ok]
        ow = [x / sum(otau) for x in otau]
        np.testing.assert_allclose(k, ok, atol=1e-12)
        np.testing.assert_allclose(tau, otau, atol=1e-12)
        np.testing.assert_allclose(w, ow, atol=1e-12)
        assert abs(w.sum() - 1.0) <= 1e-12
        order = np.argsort(counts, kind="stable")
        assert np.all(np.diff(w[order]) <= 1e-15)
        checked += 1
    assert checked == 1000
    _report("criterion 2: 1000 weight vectors match the straight-line oracle at 1e-12")


# ---------------------------------------------------------------------------
# Criterion 3: k-means brute-force oracle


def _brute_force_sse(x: np.ndarray) -> float:
    best = np.inf
    n = len(x)
    for bits in range(1, 2 ** (n - 1)):
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        sse = 0.0
        for part in (x[mask], x[~mask]):
            sse += float(((part - part.mean(axis=0)) ** 2).sum())
        best = min(best, sse)
    return best


def test_c3_kmeans_brute_force_oracle():
    flagged = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        dim = int(rng.integers(1, 4))
        x = rng.normal(0, 1, (n, dim))
        result = stage1.kmeans(x, 2, seed=seed)
        if result.sse > _brute_force_sse(x) + 1e-9:
            flagged += 1
    rate = flagged / 100
    assert rate <= 0.05
    _report(f"criterion 3: k-means local-optimum rate {rate:.0%} (<= 5%) on 100 instances")


# ---------------------------------------------------------------------------
# Criterion 4: gradient checks for both stage losses


def _grad_seed_setup(seed: int):
    spec = scene.SceneSpec(
        n_objects=3,
        seed=seed,
        feature_dim=GRAD_ARCH.proj_dim,
        points_per_object_range=(14, 20),
    )
    bundle = scene.generate_scene(spec)
    tokens = tokenizer.sam_tokenize(bundle)
    return bundle, tokens


def test_c4_gradient_checks_stage1():
    worst = 0.0
    for seed in range(20):
        bundle, tokens = _grad_seed_setup(seed)
        params = nn.init_params(GRAD_ARCH, seed=seed + 100)
        params.set_trainable(True)
        targets, _ = stage1.pool_features_by_region(bundle.feat2d, bundle.mask).select(
            tokens.region_ids
        )
        counts = np.array([5, 2])
        k, tau, w = stage1.weights_from_counts(counts)
        table = stage1.WeightTable(
            group_of_region=np.zeros(3, np.int64), counts=counts, k=k, tau=tau, w=w,
            n_groups=2, seed=seed,
        )
        rng = np.random.default_rng(seed)
        groups = rng.integers(0, 2, len(tokens))
        inputs = [params.tensors[n] for n in params.trainable_names()]
        batch = nn.TokenBatch.of_scene(bundle, tokens, GRAD_ARCH.max_points_per_token)

        def f():
            f3d = stage1.project_3d(nn.forward_tokens(batch, params), params)
            return stage1.stage1_loss(targets, f3d, table, groups, scenes=batch.scenes)

        worst = max(worst, T.grad_check(f, inputs, h=1e-4, refine_above=1e-5))
    assert worst < 1e-4
    _report(f"criterion 4a: stage-1 loss gradients max rel err {worst:.2e} over 20 seeds")


def test_c4_gradient_checks_stage2():
    worst = 0.0
    for seed in range(20):
        bundle, tokens = _grad_seed_setup(seed + 50)
        teacher = nn.init_params(GRAD_ARCH, seed=seed + 200)
        student = nn.init_params(GRAD_ARCH, seed=seed + 300)
        student.set_trainable(True)
        plan = nn.make_mask_plan(len(tokens), 0.6, seed=seed, scene_id=0, epoch=0)
        inputs = [student.tensors[n] for n in student.trainable_names()]
        batch = nn.TokenBatch.of_scene(bundle, tokens, GRAD_ARCH.max_points_per_token)
        masked = T.Segments.of_counts([len(plan.masked)])
        # The frozen teacher's outputs do not depend on the inputs, so they stay outside f.
        f_ins_teacher, dec_out = stage2.teacher_forward(batch, teacher)

        def f():
            f_ins, preds = stage2.student_forward(batch, [plan], student)
            pred_ins = stage2.predict_instance(f_ins, student)
            return stage2.stage2_loss(
                pred_ins, preds, f_ins_teacher, dec_out[plan.masked], masked
            )[2]

        worst = max(worst, T.grad_check(f, inputs, h=1e-4, refine_above=1e-5))
    assert worst < 1e-4
    _report(f"criterion 4b: stage-2 loss gradients max rel err {worst:.2e} over 20 seeds")


# ---------------------------------------------------------------------------
# Criterion 5: stage-1 convergence and held-out alignment


def test_c5_stage1_convergence(c5_run):
    m = c5_run.metrics
    ratio = m["final_loss"] / m["initial_loss"]
    assert ratio < 0.1
    assert m["heldout_cosine_mean"] >= 0.9
    _report(
        f"criterion 5: stage-1 loss ratio {ratio:.5f} (< 0.1), held-out cosine "
        f"{m['heldout_cosine_mean']:.4f} (>= 0.9) on 16 scenes / 200 epochs"
    )


# ---------------------------------------------------------------------------
# Criterion 6: stage-2 convergence, freeze, and instance alignment


def test_c6_stage2_convergence_and_freeze(c6_run):
    m = c6_run.metrics
    ratio = m["final_l_final"] / m["initial_l_final"]
    assert m["steps"] == 200
    assert ratio < 0.1
    assert m["teacher_hash_unchanged"] is True
    assert m["heldout_instance_cosine"] >= 0.8
    _report(
        f"criterion 6: stage-2 L_final ratio {ratio:.5f} (< 0.1) over 200 steps, "
        f"teacher bytes frozen, held-out instance cosine "
        f"{m['heldout_instance_cosine']:.4f} (>= 0.8) at mask ratio 0.6"
    )


# ---------------------------------------------------------------------------
# Criterion 7: balanced re-weighting helps the tail group


def test_c7_reweighting_tail_effect(tmp_path_factory):
    out = tmp_path_factory.mktemp("c7")
    margins = []
    for seed in (0, 1, 2):
        train_b = scene.generate_dataset(SPEC_IMBALANCED, 10, seed)
        eval_b = scene.generate_dataset(SPEC_IMBALANCED, 5, seed + 1_000_003)
        cfg = train.TrainConfig(epochs=120, seed=seed, batch_size=2)
        on = train.run_stage1(
            train_b, eval_b, nn.Arch(), cfg,
            train.Stage1Config(k_groups=6), out / f"{seed}_on",
        )
        off = train.run_stage1(
            train_b, eval_b, nn.Arch(), cfg,
            train.Stage1Config(k_groups=6, reweight=False), out / f"{seed}_off",
        )
        margins.append(
            on.metrics["heldout_tail_cosine"] - off.metrics["heldout_tail_cosine"]
        )
    mean_margin = float(np.mean(margins))
    assert mean_margin > 0.0
    _report(
        f"criterion 7: tail-group cosine margin (reweight on - off) "
        f"{mean_margin:+.4f} over 3 seeds {[f'{m:+.3f}' for m in margins]}"
    )


# ---------------------------------------------------------------------------
# Criterion 8: component ablation ordering


def test_c8_component_ablation_ordering(tmp_path_factory):
    out = tmp_path_factory.mktemp("c8")
    arch = nn.Arch()
    accs = {"scratch": [], "stage1_knn": [], "stage1_sam": [], "stage2": []}
    for seed in (0, 1, 2):
        train_b = scene.generate_dataset(SPEC_BALANCED, 8, seed)
        eval_b = scene.generate_dataset(SPEC_BALANCED, 5, seed + 1_000_003)
        cfg = train.TrainConfig(epochs=150, seed=seed, batch_size=2)
        sam = train.run_stage1(
            train_b, eval_b, arch, cfg, train.Stage1Config(k_groups=6), out / f"{seed}_sam"
        )
        knn = train.run_stage1(
            train_b, eval_b, arch, cfg,
            train.Stage1Config(k_groups=6, tokenizer_mode=tokenizer.MODE_KNN),
            out / f"{seed}_knn",
        )
        s2 = train.run_stage2(
            train_b, eval_b, sam.checkpoint_dir, cfg, train.Stage2Config(), out / f"{seed}_s2"
        )

        def acc(encoder, tag):
            return probe.linear_probe(
                encoder, train_b, eval_b, epochs=300, seed=seed, encoder_tag=tag
            ).accuracy

        accs["scratch"].append(acc(nn.init_params(arch, seed), probe.ENCODER_SCRATCH))
        accs["stage1_knn"].append(acc(knn.checkpoint_dir, probe.ENCODER_STAGE1))
        accs["stage1_sam"].append(acc(sam.checkpoint_dir, probe.ENCODER_STAGE1))
        accs["stage2"].append(acc(s2.checkpoint_dir, probe.ENCODER_STAGE2))

    means = {k: float(np.mean(v)) for k, v in accs.items()}
    assert means["scratch"] <= means["stage1_knn"]
    assert means["stage1_knn"] <= means["stage1_sam"]
    assert means["stage1_sam"] <= means["stage2"]
    assert means["stage2"] - means["scratch"] >= 0.10
    _report(
        "criterion 8: probe accuracy ordering "
        f"scratch {means['scratch']:.3f} <= stage1-knn {means['stage1_knn']:.3f} "
        f"<= stage1-sam {means['stage1_sam']:.3f} <= stage2 {means['stage2']:.3f}; "
        f"margin over scratch {means['stage2'] - means['scratch']:+.3f} (>= 0.10)"
    )


# ---------------------------------------------------------------------------
# Criterion 9: determinism and formats


def test_c9_determinism_and_formats(tmp_path_factory, tiny_arch):
    out = tmp_path_factory.mktemp("c9")
    spec = scene.SceneSpec(
        n_objects=3, seed=0, feature_dim=tiny_arch.proj_dim, points_per_object_range=(20, 30)
    )
    train_b = scene.generate_dataset(spec, 4, 7)
    eval_b = scene.generate_dataset(spec, 2, 9)
    cfg = train.TrainConfig(epochs=3, warmup_epochs=1, batch_size=2, seed=0)

    a = train.run_stage1(train_b, eval_b, tiny_arch, cfg, train.Stage1Config(k_groups=3), out / "a")
    b = train.run_stage1(train_b, eval_b, tiny_arch, cfg, train.Stage1Config(k_groups=3), out / "b")
    ckpt_a = nn.load_checkpoint(a.checkpoint_dir)
    ckpt_b = nn.load_checkpoint(b.checkpoint_dir)
    assert ckpt_a.params.byte_hash() == ckpt_b.params.byte_hash()
    # The whole files: header, parameters and both AdamW moments.
    assert a.checkpoint_dir.read_bytes() == b.checkpoint_dir.read_bytes()

    bundle = train_b[0]
    scene.write_bundle(bundle, out / "bundle")
    assert scene.read_bundle(out / "bundle").equals(bundle)

    nn.save_checkpoint(out / "ck", ckpt_a.params, ckpt_a.step, ckpt_a.opt_state)
    again = nn.load_checkpoint(out / "ck")
    assert again.params.byte_hash() == ckpt_a.params.byte_hash()

    for m in range(1, 41):
        plan = nn.make_mask_plan(m, 0.6, seed=1, scene_id=2, epoch=3)
        assert len(plan.masked) == round(0.6 * m)
    _report(
        "criterion 9: bit-identical checkpoints on repeated seeds, bit-exact bundle "
        "and checkpoint round trips, mask counts equal round(0.6 * M)"
    )
