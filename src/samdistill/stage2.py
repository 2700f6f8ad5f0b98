"""Teacher-student masked token prediction.

The frozen stage-1 model sees every token, so its outputs depend on the
scene alone: a run calls :func:`teacher_forward` once per scene and keeps
the instance-level pooled feature and every decoder row. A mask plan only
picks which of those rows become targets. The student sees only visible
tokens and must predict the pooled feature and the masked rows; the final
loss is the unweighted sum of the instance and token terms.
"""

from __future__ import annotations

import numpy as np

from . import nn
from . import tensor as T
from .errors import DegeneratePlanError, InconsistencyError
from .nn import MaskPlan, ModelParams
from .scene import SceneBundle
from .tokenizer import TokenSet


def teacher_forward(
    bundle: SceneBundle, tokens: TokenSet, teacher: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Frozen full-input forward: pooled encoder feature and every decoder row.

    The teacher decodes with every position visible. No gradients are
    recorded, and both arrays are read-only, so a caller cannot corrupt
    targets that later steps reuse.
    """
    if teacher.trainable_names():
        raise InconsistencyError("teacher parameters must be fully frozen")
    with T.no_grad():
        pos = nn.pos_embed(tokens.centroids, teacher)
        enc_out = nn.encode(T.add(nn.embed_tokens(bundle, tokens, teacher), pos), teacher)
        f_ins = T.mean_pool(enc_out, axis=0).data
        dec_out = nn.decode(T.add(enc_out, pos), teacher).data
    f_ins.setflags(write=False)
    dec_out.setflags(write=False)
    return f_ins, dec_out


def normalize_rows(targets: np.ndarray) -> np.ndarray:
    """L2-normalize each teacher token target (an ablation switch); read-only like its input."""
    out = targets / np.maximum(np.linalg.norm(targets, axis=1, keepdims=True), 1e-12)
    out.setflags(write=False)
    return out


def student_forward(
    bundle: SceneBundle, tokens: TokenSet, plan: MaskPlan, student: ModelParams
) -> tuple[T.Tensor, T.Tensor]:
    """Visible-only forward: pooled encoder feature and decoder predictions at masked slots."""
    if len(plan.visible) == 0:
        raise DegeneratePlanError("mask plan leaves no visible tokens")
    if plan.n_tokens != len(tokens):
        raise InconsistencyError("mask plan does not match the token set")

    visible = tokens.select(plan.visible)
    h = T.add(
        nn.embed_tokens(bundle, visible, student), nn.pos_embed(visible.centroids, student)
    )
    enc_out = nn.encode(h, student)
    f_ins = T.mean_pool(enc_out, axis=0)

    dec_in = T.add(
        nn.fill_masked_positions(enc_out, plan, student),
        nn.pos_embed(tokens.centroids, student),
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
    pred_ins: T.Tensor, token_preds: T.Tensor, f_ins_teacher: np.ndarray, token_targets: np.ndarray
) -> tuple[T.Tensor, T.Tensor, T.Tensor]:
    """Instance loss + masked token loss, summed with unit weights.

    ``pred_ins`` is the predictor's output and ``token_targets`` the
    teacher's decoder rows at the masked positions; with zero masked
    tokens the token term is defined as 0.
    """
    l_ins = T.mse(pred_ins, T.constant(f_ins_teacher))
    if len(token_targets) == 0:
        l_token = T.constant(0.0)
    else:
        if token_preds.shape != token_targets.shape:
            raise InconsistencyError("token predictions misaligned with teacher targets")
        # Per-token MSE averaged over masked tokens; rows share one length,
        # so this equals the mean over all entries.
        l_token = T.mse(token_preds, T.constant(token_targets))
    return l_ins, l_token, T.add(l_ins, l_token)
