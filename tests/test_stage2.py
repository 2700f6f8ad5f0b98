"""Masked token prediction: freeze contract, loss structure, gradient flow."""

import csv

import numpy as np
import pytest

from samdistill import nn, scene, stage2, tokenizer, train
from samdistill import tensor as T
from samdistill.errors import DegeneratePlanError, InconsistencyError


@pytest.fixture(scope="module")
def setup(tiny_arch):
    bundle = scene.generate_scene(
        scene.SceneSpec(n_objects=5, seed=17, feature_dim=tiny_arch.proj_dim)
    )
    tokens = tokenizer.sam_tokenize(bundle)
    teacher = nn.init_params(tiny_arch, seed=1)
    teacher.freeze_all()
    student = nn.init_params(tiny_arch, seed=2)
    return bundle, tokens, teacher, student


def _plan(tokens, ratio=0.6, epoch=0):
    return nn.make_mask_plan(len(tokens), ratio, seed=0, scene_id=0, epoch=epoch)


def _per_plan_teacher_forward(bundle, tokens, plan, teacher):
    """The teacher path before its outputs were cached: a full forward per mask plan.

    Kept as an oracle; it computes the positional embedding twice.
    """
    with T.no_grad():
        centroids = tokens.centroids
        h = T.add(nn.embed_tokens(bundle, tokens, teacher), nn.pos_embed(centroids, teacher))
        enc_out = nn.encode(h, teacher)
        f_ins = T.mean_pool(enc_out, axis=0)
        dec_in = T.add(enc_out, nn.pos_embed(centroids, teacher))
        dec_out = nn.decode(dec_in, teacher)
    return f_ins.data.copy(), dec_out.data[plan.masked].copy()


def _losses(bundle, tokens, plan, teacher_out, student):
    f_ins_teacher, dec_out = teacher_out
    f_ins, preds = stage2.student_forward(bundle, tokens, plan, student)
    pred_ins = stage2.predict_instance(f_ins, student)
    return stage2.stage2_loss(pred_ins, preds, f_ins_teacher, dec_out[plan.masked])


class TestTeacherForward:
    def test_zero_ratio_gives_empty_targets(self, setup):
        bundle, tokens, teacher, _ = setup
        f_ins, dec_out = stage2.teacher_forward(bundle, tokens, teacher)
        assert f_ins.shape == (teacher.arch.embed_dim,)
        assert dec_out.shape == (len(tokens), teacher.arch.embed_dim)
        assert dec_out[_plan(tokens, ratio=0.0).masked].shape == (0, teacher.arch.embed_dim)

    def test_deterministic_outputs(self, setup):
        bundle, tokens, teacher, _ = setup
        a = stage2.teacher_forward(bundle, tokens, teacher)
        b = stage2.teacher_forward(bundle, tokens, teacher)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_requires_frozen_teacher(self, setup):
        bundle, tokens, _, student = setup
        with pytest.raises(InconsistencyError):
            stage2.teacher_forward(bundle, tokens, student)

    def test_hash_unchanged_by_forward(self, setup):
        bundle, tokens, teacher, _ = setup
        before = teacher.byte_hash()
        stage2.teacher_forward(bundle, tokens, teacher)
        assert teacher.byte_hash() == before

    def test_targets_align_with_masked_positions(self, setup):
        bundle, tokens, teacher, _ = setup
        plan = _plan(tokens)
        _, dec_out = stage2.teacher_forward(bundle, tokens, teacher)
        assert dec_out[plan.masked].shape == (len(plan.masked), teacher.arch.embed_dim)

    @pytest.mark.parametrize("epoch", [0, 1, 2])
    def test_selected_rows_equal_per_plan_forward(self, setup, epoch):
        bundle, tokens, teacher, _ = setup
        plan = _plan(tokens, epoch=epoch)
        f_ins, dec_out = stage2.teacher_forward(bundle, tokens, teacher)
        f_old, targets_old = _per_plan_teacher_forward(bundle, tokens, plan, teacher)
        assert f_ins.tobytes() == f_old.tobytes()
        assert dec_out[plan.masked].tobytes() == targets_old.tobytes()

    def test_outputs_are_read_only(self, setup):
        bundle, tokens, teacher, _ = setup
        f_ins, dec_out = stage2.teacher_forward(bundle, tokens, teacher)
        normed = stage2.normalize_rows(dec_out)
        for arr in (f_ins, dec_out, normed):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(ValueError):
            dec_out *= 2.0

    def test_normalize_all_rows_then_select_equals_select_then_normalize(self, setup):
        bundle, tokens, teacher, _ = setup
        _, dec_out = stage2.teacher_forward(bundle, tokens, teacher)
        rng = np.random.default_rng(0)
        scales = 10.0 ** rng.integers(-6, 6, size=200)
        cases = [dec_out] + [rng.normal(0.0, scale, (9, 8)) for scale in scales]
        for rows in cases:
            masked = np.sort(rng.permutation(len(rows))[: rng.integers(1, len(rows) + 1)])
            sel = rows[masked]
            expected = sel / np.maximum(np.linalg.norm(sel, axis=1, keepdims=True), 1e-12)
            assert stage2.normalize_rows(rows)[masked].tobytes() == expected.tobytes()


class TestStudentForward:
    def test_zero_visible_is_degenerate(self, setup):
        bundle, tokens, _, student = setup
        bad = nn.MaskPlan(
            visible=np.array([], dtype=np.int64),
            masked=np.arange(len(tokens)),
            ratio=0.99,
        )
        with pytest.raises(DegeneratePlanError):
            stage2.student_forward(bundle, tokens, bad, student)

    def test_single_token_full_ratio_plan_is_degenerate(self, tiny_arch):
        bundle = scene.generate_scene(
            scene.SceneSpec(n_objects=1, seed=3, feature_dim=tiny_arch.proj_dim)
        )
        tokens = tokenizer.sam_tokenize(bundle)
        assert len(tokens) == 1
        plan = nn.make_mask_plan(1, 0.6, seed=0, scene_id=0, epoch=0)
        student = nn.init_params(tiny_arch, seed=2)
        with pytest.raises(DegeneratePlanError):
            stage2.student_forward(bundle, tokens, plan, student)

    def test_plan_token_count_mismatch(self, setup):
        bundle, tokens, _, student = setup
        plan = nn.make_mask_plan(len(tokens) + 1, 0.5, seed=0, scene_id=0, epoch=0)
        with pytest.raises(InconsistencyError):
            stage2.student_forward(bundle, tokens, plan, student)

    def test_zero_ratio_equals_plain_forward(self, setup):
        bundle, tokens, _, student = setup
        plan = _plan(tokens, ratio=0.0)
        f_ins, preds = stage2.student_forward(bundle, tokens, plan, student)
        with T.no_grad():
            h = T.add(
                nn.embed_tokens(bundle, tokens, student),
                nn.pos_embed(tokens.centroids, student),
            )
            expected = T.mean_pool(nn.encode(h, student), axis=0)
        np.testing.assert_allclose(f_ins.data, expected.data, atol=1e-12)
        assert preds.shape[0] == 0

    def test_prediction_permutation_equivariance(self, setup, tiny_arch):
        bundle, tokens, _, student = setup
        plan = _plan(tokens)
        _, preds = stage2.student_forward(bundle, tokens, plan, student)

        perm = np.random.default_rng(5).permutation(len(tokens))
        inv = np.argsort(perm)
        permuted_tokens = tokens.select(perm)
        perm_plan = nn.MaskPlan(
            visible=np.sort(inv[plan.visible]),
            masked=np.sort(inv[plan.masked]),
            ratio=plan.ratio,
        )
        _, preds_perm = stage2.student_forward(bundle, permuted_tokens, perm_plan, student)

        # Match rows by original token id on both sides.
        by_token = {int(tok): row for tok, row in zip(plan.masked, preds.data)}
        by_token_perm = {
            int(perm[tok]): row for tok, row in zip(perm_plan.masked, preds_perm.data)
        }
        assert by_token.keys() == by_token_perm.keys()
        for token_id, row in by_token.items():
            np.testing.assert_allclose(by_token_perm[token_id], row, atol=1e-9)


class TestStage2Loss:
    def test_instance_loss_zero_when_predictor_rigged(self, setup, tiny_arch):
        bundle, tokens, teacher, student = setup
        plan = _plan(tokens)
        teacher_out = stage2.teacher_forward(bundle, tokens, teacher)
        rigged = student.copy()
        # Constant predictor output equal to the teacher's pooled feature.
        rigged.tensors["pred.l1.w"].data[:] = 0.0
        rigged.tensors["pred.l1.b"].data[:] = 0.0
        rigged.tensors["pred.l2.w"].data[:] = 0.0
        rigged.tensors["pred.l2.b"].data[:] = teacher_out[0]
        l_ins, _, _ = _losses(bundle, tokens, plan, teacher_out, rigged)
        assert l_ins.item() == pytest.approx(0.0, abs=1e-24)

    def test_token_loss_zero_when_preds_equal_targets(self, setup):
        bundle, tokens, teacher, student = setup
        plan = _plan(tokens)
        f_ins_teacher, dec_out = stage2.teacher_forward(bundle, tokens, teacher)
        targets = dec_out[plan.masked]
        pred_ins = T.constant(np.zeros_like(f_ins_teacher))
        _, l_token, _ = stage2.stage2_loss(pred_ins, T.constant(targets), f_ins_teacher, targets)
        assert l_token.item() == 0.0

    def test_token_loss_quadratic_in_target_scale(self, setup):
        bundle, tokens, teacher, _ = setup
        plan = _plan(tokens)
        f_ins_teacher, dec_out = stage2.teacher_forward(bundle, tokens, teacher)
        targets = dec_out[plan.masked]
        pred_ins = T.constant(np.zeros_like(f_ins_teacher))
        zeros = T.constant(np.zeros_like(targets))
        _, l1, _ = stage2.stage2_loss(pred_ins, zeros, f_ins_teacher, targets)
        _, l2, _ = stage2.stage2_loss(pred_ins, zeros, f_ins_teacher, 2.0 * targets)
        assert l2.item() == pytest.approx(4.0 * l1.item(), rel=1e-12)

    def test_misaligned_predictions_rejected(self, setup):
        bundle, tokens, teacher, _ = setup
        f_ins_teacher, dec_out = stage2.teacher_forward(bundle, tokens, teacher)
        pred_ins = T.constant(np.zeros_like(f_ins_teacher))
        with pytest.raises(InconsistencyError):
            stage2.stage2_loss(pred_ins, T.constant(dec_out[:1]), f_ins_teacher, dec_out[:2])

    def test_final_is_sum_and_nonnegative(self, setup):
        bundle, tokens, teacher, student = setup
        teacher_out = stage2.teacher_forward(bundle, tokens, teacher)
        l_ins, l_token, l_final = _losses(bundle, tokens, _plan(tokens), teacher_out, student)
        assert l_final.item() == pytest.approx(l_ins.item() + l_token.item(), rel=1e-12)
        assert l_final.item() >= 0.0

    def test_zero_masked_token_loss_defined_zero(self, setup):
        bundle, tokens, teacher, student = setup
        teacher_out = stage2.teacher_forward(bundle, tokens, teacher)
        _, l_token, _ = _losses(bundle, tokens, _plan(tokens, ratio=0.0), teacher_out, student)
        assert l_token.item() == 0.0

    def test_normalize_targets_flag(self, setup):
        bundle, tokens, teacher, student = setup
        plan = _plan(tokens)
        f_ins_teacher, dec_out = stage2.teacher_forward(bundle, tokens, teacher)
        normed = (f_ins_teacher, stage2.normalize_rows(dec_out))
        _, plain, _ = _losses(bundle, tokens, plan, (f_ins_teacher, dec_out), student)
        _, normalized, _ = _losses(bundle, tokens, plan, normed, student)
        assert plain.item() != pytest.approx(normalized.item())
        np.testing.assert_allclose(np.linalg.norm(normed[1], axis=1), 1.0, rtol=1e-12)

    def test_no_gradient_leaks_into_teacher(self, setup):
        bundle, tokens, teacher, student = setup
        student = student.copy()
        student.zero_grad()
        teacher_out = stage2.teacher_forward(bundle, tokens, teacher)
        before = teacher.byte_hash()
        _, _, l_final = _losses(bundle, tokens, _plan(tokens), teacher_out, student)
        l_final.backward()
        assert teacher.byte_hash() == before
        assert all(t.grad is None for t in teacher.tensors.values())
        assert any(
            t.grad is not None and np.any(t.grad != 0)
            for t in student.tensors.values()
        )

    def test_identical_student_at_zero_ratio_isolates_predictor_gap(self, setup):
        bundle, tokens, teacher, _ = setup
        student = teacher.copy()
        student.set_trainable(True)
        plan = _plan(tokens, ratio=0.0)
        f_ins_teacher, dec_out = stage2.teacher_forward(bundle, tokens, teacher)
        l_ins, l_token, _ = _losses(bundle, tokens, plan, (f_ins_teacher, dec_out), student)
        assert l_token.item() == 0.0
        f_ins_student, _ = stage2.student_forward(bundle, tokens, plan, student)
        np.testing.assert_allclose(f_ins_student.data, f_ins_teacher, atol=1e-12)
        pred = stage2.predict_instance(f_ins_student, student)
        manual_gap = float(np.mean((pred.data - f_ins_teacher) ** 2))
        assert l_ins.item() == pytest.approx(manual_gap, rel=1e-12)

    def test_gradient_against_finite_differences(self):
        arch = nn.Arch(
            embed_dim=6, n_heads=2, n_enc_layers=1, n_dec_layers=1,
            pointnet_hidden=4, mlp_ratio=1, proj_dim=4, max_points_per_token=12,
        )
        bundle = scene.generate_scene(
            scene.SceneSpec(
                n_objects=3, seed=23, feature_dim=4, points_per_object_range=(14, 20)
            )
        )
        tokens = tokenizer.sam_tokenize(bundle)
        teacher = nn.init_params(arch, seed=1)
        teacher.freeze_all()
        student = nn.init_params(arch, seed=2)
        plan = _plan(tokens)
        inputs = [student.tensors[n] for n in student.trainable_names()]
        # The teacher is frozen, so its outputs stay outside f.
        teacher_out = stage2.teacher_forward(bundle, tokens, teacher)

        def f():
            return _losses(bundle, tokens, plan, teacher_out, student)[2]

        # h = 1e-4 balances truncation against round-off through this deep
        # composite; smaller steps drown near-zero derivatives in noise.
        assert T.grad_check(f, inputs, h=1e-4) < 1e-4


def _csv_without_timings(path):
    with open(path, newline="") as fh:
        return [{k: v for k, v in r.items() if not k.endswith("_ms")} for r in csv.DictReader(fh)]


class TestPerPlanTeacherOracle:
    """A run on cached teacher outputs equals one that reruns the teacher at every plan."""

    @pytest.mark.parametrize("normalize", [False, True])
    def test_run_matches_per_plan_teacher_path(self, tiny_arch, tmp_path, monkeypatch, normalize):
        spec = scene.SceneSpec(
            n_objects=3, seed=0, feature_dim=tiny_arch.proj_dim, points_per_object_range=(20, 30)
        )
        tb, eb = scene.generate_dataset(spec, 4, 7), scene.generate_dataset(spec, 2, 9)
        teacher = nn.init_params(tiny_arch, seed=1)
        teacher.freeze_all()
        nn.save_checkpoint(tmp_path / "teacher", teacher, 0)
        train_cfg = train.TrainConfig(epochs=3, warmup_epochs=1, batch_size=2, seed=0)
        cfg = train.Stage2Config(mask_ratio=0.5, normalize_targets=normalize)

        def per_plan_scene(prepared, plan, student):
            f_ins_teacher, targets = _per_plan_teacher_forward(
                prepared.bundle, prepared.tokens, plan, teacher
            )
            if normalize and len(targets):
                norms = np.linalg.norm(targets, axis=1, keepdims=True)
                targets = targets / np.maximum(norms, 1e-12)
            f_ins, preds = stage2.student_forward(prepared.bundle, prepared.tokens, plan, student)
            pred_ins = stage2.predict_instance(f_ins, student)
            return f_ins, pred_ins, stage2.stage2_loss(pred_ins, preds, f_ins_teacher, targets)

        runs = {}
        for name in ("cached", "per_plan"):
            if name == "per_plan":
                monkeypatch.setattr(train, "_stage2_scene", per_plan_scene)
            result = train.run_stage2(tb, eb, tmp_path / "teacher", train_cfg, cfg, tmp_path / name)
            runs[name] = (
                nn.load_checkpoint(result.checkpoint_dir).params.byte_hash(),
                (tmp_path / name / "metrics.json").read_bytes(),
                _csv_without_timings(tmp_path / name / "metrics.csv"),
            )
        assert runs["cached"] == runs["per_plan"]
