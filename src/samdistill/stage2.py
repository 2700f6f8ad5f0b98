"""Teacher-student masked token prediction.

The frozen stage-1 model sees every token and provides an instance-level
pooled feature plus per-token decoder outputs at the masked positions.
The student sees only visible tokens and must predict both; the final
loss is the unweighted sum of the instance and token terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import tensor as T
from .errors import DegeneratePlanError, InconsistencyError
from .nn import MaskPlan, ModelParams
from .scene import SceneBundle
from .tokenizer import TokenSet


@dataclass
class Stage2Scene:
    """Everything the stage-2 loss needs for one scene."""

    tokens: TokenSet
    plan: MaskPlan
    f_ins_teacher: np.ndarray  # (L,) detached teacher pooled feature
    token_targets: np.ndarray  # (N_m, L) detached teacher decoder outputs
    f_ins_student: T.Tensor  # (L,)
    token_preds: T.Tensor  # (N_m, L)


def teacher_forward(
    bundle: SceneBundle, tokens: TokenSet, plan: MaskPlan, teacher: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Frozen full-input forward: pooled encoder feature and masked-position decoder outputs.

    The teacher decodes with every position visible; the plan only
    selects which decoder outputs become targets. No gradients are
    recorded.
    """
    if teacher.trainable_names():
        raise InconsistencyError("teacher parameters must be fully frozen")
    with T.no_grad():
        centroids = nn.centroids_of(tokens)
        h = T.add(nn.embed_tokens(bundle, tokens, teacher), nn.pos_embed(centroids, teacher))
        enc_out = nn.encode(h, teacher)
        f_ins = T.mean_pool(enc_out, axis=0)
        dec_in = T.add(enc_out, nn.pos_embed(centroids, teacher))
        dec_out = nn.decode(dec_in, teacher)
    targets = dec_out.data[plan.masked].copy()
    return f_ins.data.copy(), targets


def student_forward(
    bundle: SceneBundle, tokens: TokenSet, plan: MaskPlan, student: ModelParams
) -> tuple[T.Tensor, T.Tensor]:
    """Visible-only forward: pooled encoder feature and decoder predictions at masked slots."""
    if len(plan.visible) == 0:
        raise DegeneratePlanError("mask plan leaves no visible tokens")
    if plan.n_tokens != len(tokens):
        raise InconsistencyError("mask plan does not match the token set")

    visible_tokens = [tokens.tokens[i] for i in plan.visible]
    centroids_all = nn.centroids_of(tokens)
    h = T.add(
        nn.embed_tokens(bundle, visible_tokens, student),
        nn.pos_embed(centroids_all[plan.visible], student),
    )
    enc_out = nn.encode(h, student)
    f_ins = T.mean_pool(enc_out, axis=0)

    dec_in = T.add(
        nn.fill_masked_positions(enc_out, plan, student),
        nn.pos_embed(centroids_all, student),
    )
    dec_out = nn.decode(dec_in, student)
    preds = (
        T.gather_rows(dec_out, plan.masked)
        if len(plan.masked)
        else T.constant(np.zeros((0, student.arch.embed_dim)))
    )
    return f_ins, preds


def predict_instance(f_ins_student: T.Tensor, student: ModelParams) -> T.Tensor:
    """Two-layer predictor mapping the student pooled feature onto the teacher's."""
    p = student.tensors
    x = T.reshape(f_ins_student, (1, student.arch.embed_dim))
    h = T.gelu(T.add(T.matmul(x, p["pred.l1.w"]), p["pred.l1.b"]))
    out = T.add(T.matmul(h, p["pred.l2.w"]), p["pred.l2.b"])
    return T.reshape(out, (student.arch.embed_dim,))


def stage2_loss(
    scene: Stage2Scene, student: ModelParams, normalize_targets: bool = False
) -> tuple[T.Tensor, T.Tensor, T.Tensor]:
    """Instance loss + masked token loss, summed with unit weights.

    ``normalize_targets`` L2-normalizes each teacher token target (an
    ablation switch); with zero masked tokens the token term is defined
    as 0.
    """
    pred_ins = predict_instance(scene.f_ins_student, student)
    l_ins = T.mse(pred_ins, T.constant(scene.f_ins_teacher))

    n_masked = len(scene.plan.masked)
    if n_masked == 0:
        l_token = T.constant(0.0)
    else:
        targets = np.asarray(scene.token_targets, dtype=np.float64)
        if normalize_targets:
            norms = np.linalg.norm(targets, axis=1, keepdims=True)
            targets = targets / np.maximum(norms, 1e-12)
        if scene.token_preds.shape != targets.shape:
            raise InconsistencyError("token predictions misaligned with teacher targets")
        # Per-token MSE averaged over masked tokens; rows share one length,
        # so this equals the mean over all entries.
        l_token = T.mse(scene.token_preds, T.constant(targets))
    l_final = T.add(l_ins, l_token)
    return l_ins, l_token, l_final


def build_stage2_scene(
    bundle: SceneBundle,
    tokens: TokenSet,
    plan: MaskPlan,
    teacher: ModelParams,
    student: ModelParams,
) -> Stage2Scene:
    f_ins_teacher, token_targets = teacher_forward(bundle, tokens, plan, teacher)
    f_ins_student, token_preds = student_forward(bundle, tokens, plan, student)
    return Stage2Scene(
        tokens=tokens,
        plan=plan,
        f_ins_teacher=f_ins_teacher,
        token_targets=token_targets,
        f_ins_student=f_ins_student,
        token_preds=token_preds,
    )
