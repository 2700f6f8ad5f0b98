"""Masked token prediction: freeze contract, loss structure, gradient flow."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from samdistill import nn, scene, stage2, tokenizer, train
from samdistill import tensor as T
from samdistill.errors import DegeneratePlanError, InconsistencyError


def _batch(bundle, arch):
    return nn.TokenBatch.of_scene(bundle, tokenizer.sam_tokenize(bundle), arch.max_points_per_token)


@pytest.fixture(scope="module")
def setup(tiny_arch):
    bundle = scene.generate_scene(
        scene.SceneSpec(n_objects=5, seed=17, feature_dim=tiny_arch.proj_dim)
    )
    batch = _batch(bundle, tiny_arch)
    teacher = nn.init_params(tiny_arch, seed=1)
    teacher.freeze_all()
    student = nn.init_params(tiny_arch, seed=2)
    return batch, teacher, student


def _plan(batch, ratio=0.6, epoch=0, scene_id=0):
    return nn.make_mask_plan(len(batch), ratio, seed=0, scene_id=scene_id, epoch=epoch)


def _per_plan_teacher_forward(batch, plan, teacher):
    """The teacher path before its outputs were cached: a full forward per mask plan.

    Kept as an oracle; it computes the positional embedding twice.
    """
    with T.no_grad():
        centroids, scenes = batch.centroids, batch.scenes
        h = T.add(nn.embed_tokens(batch, teacher), nn.pos_embed(centroids, teacher))
        enc_out = nn.encode(h, teacher, scenes)
        f_ins = T.mean_pool(enc_out, scenes)
        dec_in = T.add(enc_out, nn.pos_embed(centroids, teacher))
        dec_out = nn.decode(dec_in, teacher, scenes)
    return f_ins.data.copy(), dec_out.data[plan.masked].copy()


def _losses(batch, plan, teacher_out, student):
    """One scene's losses at one plan."""
    f_ins_teacher, dec_out = teacher_out
    f_ins, preds = stage2.student_forward(batch, [plan], student)
    pred_ins = stage2.predict_instance(f_ins, student)
    masked = T.Segments.of_counts([len(plan.masked)])
    return stage2.stage2_loss(pred_ins, preds, f_ins_teacher, dec_out[plan.masked], masked)


def _token_loss(pred_ins, preds, f_ins_teacher, targets):
    masked = T.Segments.of_counts([len(targets)])
    return stage2.stage2_loss(pred_ins, preds, f_ins_teacher, targets, masked)


class TestTeacherForward:
    def test_zero_ratio_gives_empty_targets(self, setup):
        batch, teacher, _ = setup
        f_ins, dec_out = stage2.teacher_forward(batch, teacher)
        assert f_ins.shape == (1, teacher.arch.embed_dim)
        assert dec_out.shape == (len(batch), teacher.arch.embed_dim)
        assert dec_out[_plan(batch, ratio=0.0).masked].shape == (0, teacher.arch.embed_dim)

    def test_deterministic_outputs(self, setup):
        batch, teacher, _ = setup
        a = stage2.teacher_forward(batch, teacher)
        b = stage2.teacher_forward(batch, teacher)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_requires_frozen_teacher(self, setup):
        batch, _, student = setup
        with pytest.raises(InconsistencyError):
            stage2.teacher_forward(batch, student)

    def test_hash_unchanged_by_forward(self, setup):
        batch, teacher, _ = setup
        before = teacher.byte_hash()
        stage2.teacher_forward(batch, teacher)
        assert teacher.byte_hash() == before

    def test_targets_align_with_masked_positions(self, setup):
        batch, teacher, _ = setup
        plan = _plan(batch)
        _, dec_out = stage2.teacher_forward(batch, teacher)
        assert dec_out[plan.masked].shape == (len(plan.masked), teacher.arch.embed_dim)

    @pytest.mark.parametrize("epoch", [0, 1, 2])
    def test_selected_rows_equal_per_plan_forward(self, setup, epoch):
        batch, teacher, _ = setup
        plan = _plan(batch, epoch=epoch)
        f_ins, dec_out = stage2.teacher_forward(batch, teacher)
        f_old, targets_old = _per_plan_teacher_forward(batch, plan, teacher)
        assert f_ins.tobytes() == f_old.tobytes()
        assert dec_out[plan.masked].tobytes() == targets_old.tobytes()

    def test_outputs_are_read_only(self, setup):
        batch, teacher, _ = setup
        f_ins, dec_out = stage2.teacher_forward(batch, teacher)
        for arr in (f_ins, dec_out):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(ValueError):
            dec_out *= 2.0


class TestStudentForward:
    def test_zero_visible_is_degenerate(self, setup):
        batch, _, student = setup
        bad = nn.MaskPlan(
            visible=np.array([], dtype=np.int64),
            masked=np.arange(len(batch)),
        )
        with pytest.raises(DegeneratePlanError):
            stage2.student_forward(batch, [bad], student)

    def test_single_token_full_ratio_plan_is_degenerate(self, tiny_arch):
        bundle = scene.generate_scene(
            scene.SceneSpec(n_objects=1, seed=3, feature_dim=tiny_arch.proj_dim)
        )
        batch = _batch(bundle, tiny_arch)
        assert len(batch) == 1
        plan = nn.make_mask_plan(1, 0.6, seed=0, scene_id=0, epoch=0)
        student = nn.init_params(tiny_arch, seed=2)
        with pytest.raises(DegeneratePlanError):
            stage2.student_forward(batch, [plan], student)

    def test_plan_token_count_mismatch(self, setup):
        batch, _, student = setup
        plan = nn.make_mask_plan(len(batch) + 1, 0.5, seed=0, scene_id=0, epoch=0)
        with pytest.raises(InconsistencyError):
            stage2.student_forward(batch, [plan], student)

    def test_zero_ratio_equals_plain_forward(self, setup):
        batch, _, student = setup
        plan = _plan(batch, ratio=0.0)
        f_ins, preds = stage2.student_forward(batch, [plan], student)
        with T.no_grad():
            h = T.add(nn.embed_tokens(batch, student), nn.pos_embed(batch.centroids, student))
            expected = T.mean_pool(nn.encode(h, student, batch.scenes), batch.scenes)
        np.testing.assert_allclose(f_ins.data, expected.data, atol=1e-12)
        assert preds.shape[0] == 0

    def test_prediction_permutation_equivariance(self, setup, tiny_arch):
        batch, _, student = setup
        plan = _plan(batch)
        _, preds = stage2.student_forward(batch, [plan], student)

        perm = np.random.default_rng(5).permutation(len(batch))
        inv = np.argsort(perm)
        permuted = batch.select(perm)
        perm_plan = nn.MaskPlan(
            visible=np.sort(inv[plan.visible]),
            masked=np.sort(inv[plan.masked]),
        )
        _, preds_perm = stage2.student_forward(permuted, [perm_plan], student)

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
        batch, teacher, student = setup
        plan = _plan(batch)
        teacher_out = stage2.teacher_forward(batch, teacher)
        rigged = student.copy()
        # Constant predictor output equal to the teacher's pooled feature.
        rigged.tensors["pred.l1.w"].data[:] = 0.0
        rigged.tensors["pred.l1.b"].data[:] = 0.0
        rigged.tensors["pred.l2.w"].data[:] = 0.0
        rigged.tensors["pred.l2.b"].data[:] = teacher_out[0]
        l_ins, _, _ = _losses(batch, plan, teacher_out, rigged)
        assert l_ins.item() == pytest.approx(0.0, abs=1e-24)

    def test_token_loss_zero_when_preds_equal_targets(self, setup):
        batch, teacher, student = setup
        plan = _plan(batch)
        f_ins_teacher, dec_out = stage2.teacher_forward(batch, teacher)
        targets = dec_out[plan.masked]
        pred_ins = T.constant(np.zeros_like(f_ins_teacher))
        _, l_token, _ = _token_loss(pred_ins, T.constant(targets), f_ins_teacher, targets)
        assert l_token.item() == 0.0

    def test_token_loss_quadratic_in_target_scale(self, setup):
        batch, teacher, _ = setup
        plan = _plan(batch)
        f_ins_teacher, dec_out = stage2.teacher_forward(batch, teacher)
        targets = dec_out[plan.masked]
        pred_ins = T.constant(np.zeros_like(f_ins_teacher))
        zeros = T.constant(np.zeros_like(targets))
        _, l1, _ = _token_loss(pred_ins, zeros, f_ins_teacher, targets)
        _, l2, _ = _token_loss(pred_ins, zeros, f_ins_teacher, 2.0 * targets)
        assert l2.item() == pytest.approx(4.0 * l1.item(), rel=1e-12)

    def test_misaligned_predictions_rejected(self, setup):
        batch, teacher, _ = setup
        f_ins_teacher, dec_out = stage2.teacher_forward(batch, teacher)
        pred_ins = T.constant(np.zeros_like(f_ins_teacher))
        with pytest.raises(InconsistencyError):
            _token_loss(pred_ins, T.constant(dec_out[:1]), f_ins_teacher, dec_out[:2])

    def test_final_is_sum_and_nonnegative(self, setup):
        batch, teacher, student = setup
        teacher_out = stage2.teacher_forward(batch, teacher)
        l_ins, l_token, l_final = _losses(batch, _plan(batch), teacher_out, student)
        assert l_final.item() == pytest.approx(l_ins.item() + l_token.item(), rel=1e-12)
        assert l_final.item() >= 0.0

    def test_zero_masked_token_loss_defined_zero(self, setup):
        batch, teacher, student = setup
        teacher_out = stage2.teacher_forward(batch, teacher)
        _, l_token, _ = _losses(batch, _plan(batch, ratio=0.0), teacher_out, student)
        assert l_token.item() == 0.0

    def test_no_gradient_leaks_into_teacher(self, setup):
        batch, teacher, student = setup
        student = student.copy()
        student.zero_grad()
        teacher_out = stage2.teacher_forward(batch, teacher)
        before = teacher.byte_hash()
        _, _, l_final = _losses(batch, _plan(batch), teacher_out, student)
        l_final.backward()
        assert teacher.byte_hash() == before
        assert all(t.grad is None for t in teacher.tensors.values())
        assert any(
            t.grad is not None and np.any(t.grad != 0)
            for t in student.tensors.values()
        )

    def test_identical_student_at_zero_ratio_isolates_predictor_gap(self, setup):
        batch, teacher, _ = setup
        student = teacher.copy()
        student.set_trainable(True)
        plan = _plan(batch, ratio=0.0)
        f_ins_teacher, dec_out = stage2.teacher_forward(batch, teacher)
        l_ins, l_token, _ = _losses(batch, plan, (f_ins_teacher, dec_out), student)
        assert l_token.item() == 0.0
        f_ins_student, _ = stage2.student_forward(batch, [plan], student)
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
        batch = _batch(bundle, arch)
        teacher = nn.init_params(arch, seed=1)
        teacher.freeze_all()
        student = nn.init_params(arch, seed=2)
        plan = _plan(batch)
        inputs = [student.tensors[n] for n in student.trainable_names()]
        # The teacher is frozen, so its outputs stay outside f.
        teacher_out = stage2.teacher_forward(batch, teacher)

        def f():
            return _losses(batch, plan, teacher_out, student)[2]

        # h = 1e-4 balances truncation against round-off through this deep
        # composite; smaller steps drown near-zero derivatives in noise.
        assert T.grad_check(f, inputs, h=1e-4) < 1e-4


GRAD_ARCH = nn.Arch(
    embed_dim=6, n_heads=2, n_enc_layers=1, n_dec_layers=1,
    pointnet_hidden=4, mlp_ratio=1, proj_dim=4, max_points_per_token=12,
)


def _scenes(arch, n_scenes, teacher, ratios=None, bump=None):
    """Scenes with unequal token counts, teacher outputs and one plan each.

    ``bump`` shifts the points of one scene, to check that the others do not see it.
    """
    out = []
    for i in range(n_scenes):
        bundle = scene.generate_scene(
            scene.SceneSpec(
                n_objects=3 + i, seed=80 + i, feature_dim=arch.proj_dim,
                points_per_object_range=(14, 20),
            )
        )
        tokens = tokenizer.sam_tokenize(bundle)
        if i == bump:  # the same tokens over moved points
            bundle = dataclasses.replace(bundle, points=bundle.points + 0.05)
        batch = nn.TokenBatch.of_scene(bundle, tokens, arch.max_points_per_token)
        ratio = 0.6 if ratios is None else ratios[i]
        plan = nn.make_mask_plan(len(batch), ratio, seed=3, scene_id=i, epoch=0)
        out.append((batch, stage2.teacher_forward(batch, teacher), plan))
    return out


def _packed(scenes, student):
    batch = nn.TokenBatch.stack([b for b, _, _ in scenes])
    plans = [p for _, _, p in scenes]
    f_ins, preds = stage2.student_forward(batch, plans, student)
    pred_ins = stage2.predict_instance(f_ins, student)
    f_teacher = np.concatenate([t[0] for _, t, _ in scenes])
    targets = np.concatenate([t[1][p.masked] for _, t, p in scenes])
    masked = T.Segments.of_counts([len(p.masked) for p in plans])
    return f_ins, preds, stage2.stage2_loss(pred_ins, preds, f_teacher, targets, masked)


def _scene_oracle(scenes, student):
    """The per-scene path: one graph per scene, each loss term averaged by a node chain."""
    parts = [_losses(b, p, t, student) for b, t, p in scenes]

    def mean(terms):
        total = terms[0]
        for term in terms[1:]:
            total = T.add(total, term)
        return T.mul(total, 1.0 / len(terms))

    return tuple(mean([part[i] for part in parts]) for i in range(3))


class TestPackedStage2:
    """One graph over stacked scenes equals the mean of per-scene losses."""

    @pytest.fixture(scope="class")
    def models(self):
        teacher = nn.init_params(GRAD_ARCH, seed=1)
        teacher.freeze_all()
        return teacher, nn.init_params(GRAD_ARCH, seed=2)

    @pytest.mark.parametrize("ratios", [None, [0.6, 0.0, 0.5]])
    def test_three_scenes_match_the_per_scene_oracle(self, models, ratios):
        teacher, student = models
        scenes = _scenes(GRAD_ARCH, 3, teacher, ratios)
        assert len({len(b) for b, _, _ in scenes}) == 3
        f_ins, preds, packed = _packed(scenes, student)
        oracle = _scene_oracle(scenes, student)
        for a, b in zip(packed, oracle):
            assert a.item() == pytest.approx(b.item(), rel=1e-12)
        rows = [stage2.student_forward(b, [p], student) for b, _, p in scenes]
        np.testing.assert_allclose(
            f_ins.data, np.concatenate([r[0].data for r in rows]), rtol=1e-12, atol=1e-15
        )
        np.testing.assert_allclose(
            preds.data, np.concatenate([r[1].data for r in rows]), rtol=1e-12, atol=1e-15
        )
        student.zero_grad()
        packed[2].backward()
        packed_grad = student.grad.copy()
        student.zero_grad()
        oracle[2].backward()
        assert np.abs(packed_grad - student.grad).max() <= 1e-12 * np.abs(student.grad).max()

    def test_one_scene_is_bit_identical_to_the_oracle(self, models):
        teacher, student = models
        scenes = _scenes(GRAD_ARCH, 1, teacher)
        grads = []
        for losses in (_packed(scenes, student)[2], _scene_oracle(scenes, student)):
            student.zero_grad()
            losses[2].backward()
            grads.append(([term.item() for term in losses], student.grad.tobytes()))
        assert grads[0] == grads[1]

    def test_one_scene_perturbed_leaves_the_others_unchanged(self, models):
        teacher, student = models
        before = _packed(_scenes(GRAD_ARCH, 3, teacher), student)
        after = _packed(_scenes(GRAD_ARCH, 3, teacher, bump=1), student)
        scenes = _scenes(GRAD_ARCH, 3, teacher)
        masked = np.cumsum([0] + [len(p.masked) for _, _, p in scenes])
        for s in (0, 2):
            assert after[0].data[s].tobytes() == before[0].data[s].tobytes()
            lo, hi = masked[s], masked[s + 1]
            assert after[1].data[lo:hi].tobytes() == before[1].data[lo:hi].tobytes()
        assert not np.array_equal(after[0].data[1], before[0].data[1])

    def test_grad_check_two_scenes(self, models):
        teacher, _ = models
        student = nn.init_params(GRAD_ARCH, seed=5)
        scenes = _scenes(GRAD_ARCH, 2, teacher)
        assert len(scenes[0][0]) != len(scenes[1][0])
        inputs = [student.tensors[n] for n in student.trainable_names()]
        err = T.grad_check(
            lambda: _packed(scenes, student)[2][2], inputs, h=1e-4, refine_above=1e-5
        )
        assert err < 1e-4

    def test_student_forward_checks_every_plan(self, models):
        teacher, student = models
        scenes = _scenes(GRAD_ARCH, 2, teacher)
        batch = nn.TokenBatch.stack([b for b, _, _ in scenes])
        plans = [p for _, _, p in scenes]
        with pytest.raises(InconsistencyError):
            stage2.student_forward(batch, plans[:1], student)
        with pytest.raises(InconsistencyError):
            stage2.student_forward(batch, plans[::-1], student)


def _csv_without_timings(path):
    with open(path, newline="") as fh:
        return [{k: v for k, v in r.items() if not k.endswith("_ms")} for r in csv.DictReader(fh)]


def _metric_values(path):
    return json.loads(path.read_text())


class TestPerPlanTeacherOracle:
    """A run on cached teacher outputs equals one that reruns the teacher at every plan.

    At batch size 1 the two runs are bit-identical. At batch size 2 the
    cached teacher ran on fixed chunks of two scenes, while the oracle
    reruns it scene by scene, so the runs agree to rounding.
    """

    def test_run_matches_per_plan_teacher_path(self, tiny_arch, tmp_path, monkeypatch):
        spec = scene.SceneSpec(
            n_objects=3, seed=0, feature_dim=tiny_arch.proj_dim, points_per_object_range=(20, 30)
        )
        tb, eb = scene.generate_dataset(spec, 4, 7), scene.generate_dataset(spec, 2, 9)
        teacher = nn.init_params(tiny_arch, seed=1)
        teacher.freeze_all()
        nn.save_checkpoint(tmp_path / "teacher", teacher, 0)
        cfg = train.Stage2Config(mask_ratio=0.5)

        def per_plan_batch(scenes, plans, student):
            f_ins_teacher, targets = [], []
            for prepared, plan in zip(scenes, plans):
                f, rows = _per_plan_teacher_forward(prepared.batch, plan, teacher)
                f_ins_teacher.append(f)
                targets.append(rows)
            batch = nn.TokenBatch.stack([prepared.batch for prepared in scenes])
            f_ins, preds = stage2.student_forward(batch, plans, student)
            pred_ins = stage2.predict_instance(f_ins, student)
            masked = T.Segments.of_counts([len(t) for t in targets])
            losses = stage2.stage2_loss(
                pred_ins, preds, np.concatenate(f_ins_teacher), np.concatenate(targets), masked
            )
            return f_ins, pred_ins, losses

        for batch_size in (1, 2):
            train_cfg = train.TrainConfig(
                epochs=3, warmup_epochs=1, batch_size=batch_size, seed=0
            )
            runs = {}
            for name in ("cached", "per_plan"):
                out = tmp_path / f"{name}{batch_size}"
                with monkeypatch.context() as patch:
                    if name == "per_plan":
                        patch.setattr(train, "_stage2_batch", per_plan_batch)
                    result = train.run_stage2(tb, eb, tmp_path / "teacher", train_cfg, cfg, out)
                runs[name] = (
                    nn.load_checkpoint(result.checkpoint_dir).params,
                    out / "metrics.json",
                    _csv_without_timings(out / "metrics.csv"),
                )
            (cached, cached_json, cached_csv), (oracle, oracle_json, oracle_csv) = runs.values()
            if batch_size == 1:
                assert cached.byte_hash() == oracle.byte_hash()
                assert cached_json.read_bytes() == oracle_json.read_bytes()
                assert cached_csv == oracle_csv
            else:
                np.testing.assert_allclose(cached.data, oracle.data, rtol=1e-9, atol=1e-12)
                a, b = _metric_values(cached_json), _metric_values(oracle_json)
                assert a.keys() == b.keys()
                for key in a:
                    assert a[key] == pytest.approx(b[key], rel=1e-9), key
