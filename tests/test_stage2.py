"""Masked token prediction: freeze contract, loss structure, gradient flow."""

import numpy as np
import pytest

from samdistill import nn, scene, stage2, tokenizer
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


class TestTeacherForward:
    def test_zero_ratio_gives_empty_targets(self, setup):
        bundle, tokens, teacher, _ = setup
        plan = _plan(tokens, ratio=0.0)
        f_ins, targets = stage2.teacher_forward(bundle, tokens, plan, teacher)
        assert f_ins.shape == (teacher.arch.embed_dim,)
        assert targets.shape == (0, teacher.arch.embed_dim)

    def test_deterministic_outputs(self, setup):
        bundle, tokens, teacher, _ = setup
        plan = _plan(tokens)
        a = stage2.teacher_forward(bundle, tokens, plan, teacher)
        b = stage2.teacher_forward(bundle, tokens, plan, teacher)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_requires_frozen_teacher(self, setup):
        bundle, tokens, _, student = setup
        with pytest.raises(InconsistencyError):
            stage2.teacher_forward(bundle, tokens, _plan(tokens), student)

    def test_hash_unchanged_by_forward(self, setup):
        bundle, tokens, teacher, _ = setup
        before = teacher.byte_hash()
        stage2.teacher_forward(bundle, tokens, _plan(tokens), teacher)
        assert teacher.byte_hash() == before

    def test_targets_align_with_masked_positions(self, setup):
        bundle, tokens, teacher, _ = setup
        plan = _plan(tokens)
        _, targets = stage2.teacher_forward(bundle, tokens, plan, teacher)
        assert targets.shape == (len(plan.masked), teacher.arch.embed_dim)


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
                nn.pos_embed(nn.centroids_of(tokens), student),
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
        permuted_tokens = tokenizer.TokenSet(
            tokens=[tokens.tokens[i] for i in perm], mode=tokens.mode
        )
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
        rec = stage2.build_stage2_scene(bundle, tokens, plan, teacher, student.copy())
        rigged = student.copy()
        # Constant predictor output equal to the teacher's pooled feature.
        rigged.tensors["pred.l1.w"].data[:] = 0.0
        rigged.tensors["pred.l1.b"].data[:] = 0.0
        rigged.tensors["pred.l2.w"].data[:] = 0.0
        rigged.tensors["pred.l2.b"].data[:] = rec.f_ins_teacher
        l_ins, _, _ = stage2.stage2_loss(rec, rigged)
        assert l_ins.item() == pytest.approx(0.0, abs=1e-24)

    def test_token_loss_zero_when_preds_equal_targets(self, setup):
        bundle, tokens, teacher, student = setup
        plan = _plan(tokens)
        rec = stage2.build_stage2_scene(bundle, tokens, plan, teacher, student)
        rec.token_preds = T.constant(rec.token_targets.copy())
        _, l_token, _ = stage2.stage2_loss(rec, student)
        assert l_token.item() == 0.0

    def test_token_loss_quadratic_in_target_scale(self, setup):
        bundle, tokens, teacher, student = setup
        plan = _plan(tokens)
        rec = stage2.build_stage2_scene(bundle, tokens, plan, teacher, student)
        zeros = T.constant(np.zeros_like(rec.token_targets))
        rec.token_preds = zeros
        _, l1, _ = stage2.stage2_loss(rec, student)
        rec.token_targets = 2.0 * rec.token_targets
        _, l2, _ = stage2.stage2_loss(rec, student)
        assert l2.item() == pytest.approx(4.0 * l1.item(), rel=1e-12)

    def test_final_is_sum_and_nonnegative(self, setup):
        bundle, tokens, teacher, student = setup
        rec = stage2.build_stage2_scene(bundle, tokens, _plan(tokens), teacher, student)
        l_ins, l_token, l_final = stage2.stage2_loss(rec, student)
        assert l_final.item() == pytest.approx(l_ins.item() + l_token.item(), rel=1e-12)
        assert l_final.item() >= 0.0

    def test_zero_masked_token_loss_defined_zero(self, setup):
        bundle, tokens, teacher, student = setup
        rec = stage2.build_stage2_scene(
            bundle, tokens, _plan(tokens, ratio=0.0), teacher, student
        )
        _, l_token, _ = stage2.stage2_loss(rec, student)
        assert l_token.item() == 0.0

    def test_normalize_targets_flag(self, setup):
        bundle, tokens, teacher, student = setup
        plan = _plan(tokens)
        rec = stage2.build_stage2_scene(bundle, tokens, plan, teacher, student)
        _, plain, _ = stage2.stage2_loss(rec, student, normalize_targets=False)
        _, normed, _ = stage2.stage2_loss(rec, student, normalize_targets=True)
        assert plain.item() != pytest.approx(normed.item())

    def test_no_gradient_leaks_into_teacher(self, setup):
        bundle, tokens, teacher, student = setup
        student = student.copy()
        student.zero_grad()
        rec = stage2.build_stage2_scene(bundle, tokens, _plan(tokens), teacher, student)
        before = teacher.byte_hash()
        _, _, l_final = stage2.stage2_loss(rec, student)
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
        rec = stage2.build_stage2_scene(bundle, tokens, plan, teacher, student)
        l_ins, l_token, _ = stage2.stage2_loss(rec, student)
        assert l_token.item() == 0.0
        np.testing.assert_allclose(rec.f_ins_student.data, rec.f_ins_teacher, atol=1e-12)
        pred = stage2.predict_instance(rec.f_ins_student, student)
        manual_gap = float(np.mean((pred.data - rec.f_ins_teacher) ** 2))
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

        def f():
            rec = stage2.build_stage2_scene(bundle, tokens, plan, teacher, student)
            _, _, l_final = stage2.stage2_loss(rec, student)
            return l_final

        # h = 1e-4 balances truncation against round-off through this deep
        # composite; smaller steps drown near-zero derivatives in noise.
        assert T.grad_check(f, inputs, h=1e-4) < 1e-4
