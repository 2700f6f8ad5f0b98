"""Teacher-student masked token prediction.

The frozen stage-1 model sees every token, so its outputs depend on the
scene alone: a run calls :func:`teacher_forward` once over all its
scenes and keeps each scene's instance-level pooled feature and every
decoder row. A mask plan only picks which of those rows become targets.
The student sees only visible tokens and must predict the pooled feature and
the masked rows; the final loss is the unweighted sum of the instance and
token terms. Every function takes a :class:`~samdistill.nn.TokenBatch` of
one or more stacked scenes and runs one graph for all of them; each loss
term is the mean over scenes of that scene's term.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import nn
from . import tensor as T
from .errors import DegeneratePlanError, InconsistencyError
from .nn import MaskPlan, ModelParams, TokenBatch


def teacher_forward(batch: TokenBatch, teacher: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Frozen full-input forward: each scene's pooled encoder feature and every decoder row.

    Returns a (B, L) array of pooled features and an (N, L) array of
    decoder rows, row-aligned with the batch's tokens. The teacher decodes
    with every position visible. No gradients are recorded, and both
    arrays are read-only, so a caller cannot corrupt targets that later
    steps reuse.
    """
    if teacher.trainable_names():
        raise InconsistencyError("teacher parameters must be fully frozen")
    with T.no_grad():
        pos = nn.pos_embed(batch.centroids, teacher)
        h = T.add(nn.embed_tokens(batch, teacher), pos)
        enc_out = nn.encode(h, teacher, batch.scenes)
        f_ins = T.mean_pool(enc_out, batch.scenes).data
        dec_out = nn.decode(T.add(enc_out, pos), teacher, batch.scenes).data
    f_ins.setflags(write=False)
    dec_out.setflags(write=False)
    return f_ins, dec_out


def _stack_plans(batch: TokenBatch, plans: Sequence[MaskPlan]) -> tuple[np.ndarray, np.ndarray]:
    """Batch rows of every scene's visible and masked tokens, scene after scene."""
    if len(plans) != len(batch.scenes):
        raise InconsistencyError("one mask plan per scene is needed")
    for plan, n_tokens in zip(plans, batch.scenes.counts):
        if len(plan.visible) == 0:
            raise DegeneratePlanError("mask plan leaves no visible tokens")
        if plan.n_tokens != n_tokens:
            raise InconsistencyError("mask plan does not match the token set")
    starts = batch.scenes.bounds[:-1]
    visible = np.concatenate([s + p.visible for s, p in zip(starts, plans)])
    masked = np.concatenate([s + p.masked for s, p in zip(starts, plans)])
    return visible, masked


def student_forward(
    batch: TokenBatch, plans: Sequence[MaskPlan], student: ModelParams
) -> tuple[T.Tensor, T.Tensor]:
    """Visible-only forward, one plan per scene.

    Returns each scene's pooled encoder feature (B, L) and the decoder
    predictions at every masked slot, scene after scene.
    """
    visible_rows, masked_rows = _stack_plans(batch, plans)
    visible = batch.select(visible_rows)
    h = T.add(nn.embed_tokens(visible, student), nn.pos_embed(visible.centroids, student))
    enc_out = nn.encode(h, student, visible.scenes)
    f_ins = T.mean_pool(enc_out, visible.scenes)

    dec_in = T.add(
        nn.fill_masked_positions(enc_out, visible_rows, len(batch), student),
        nn.pos_embed(batch.centroids, student),
    )
    dec_out = nn.decode(dec_in, student, batch.scenes)
    preds = (
        T.gather_rows(dec_out, masked_rows)
        if len(masked_rows)
        else T.constant(np.zeros((0, student.arch.embed_dim)))
    )
    return f_ins, preds


def predict_instance(f_ins_student: T.Tensor, student: ModelParams) -> T.Tensor:
    """Two-layer predictor mapping each student pooled feature onto the teacher's."""
    p = student.tensors
    h = T.gelu(T.linear(f_ins_student, p["pred.l1.w"], p["pred.l1.b"]))
    return T.linear(h, p["pred.l2.w"], p["pred.l2.b"])


def stage2_loss(
    pred_ins: T.Tensor,
    token_preds: T.Tensor,
    f_ins_teacher: np.ndarray,
    token_targets: np.ndarray,
    scenes: T.Segments,
) -> tuple[T.Tensor, T.Tensor, T.Tensor]:
    """Instance loss + masked token loss, summed with unit weights.

    ``pred_ins`` holds the predictor's output and ``f_ins_teacher`` the
    teacher's pooled feature, one row per scene. ``token_targets`` are the
    teacher's decoder rows at the masked positions, scene after scene, and
    ``scenes`` gives each scene its segment of them. Each term is the mean
    over scenes of that scene's term; a scene with zero masked tokens has
    a token term of 0.
    """
    # Every scene's instance row has the same length, so the mean over all
    # entries is the mean over scenes of each scene's MSE.
    l_ins = T.mse(pred_ins, T.constant(f_ins_teacher))
    if len(token_targets) == 0:
        l_token = T.constant(0.0)
    else:
        if token_preds.shape != token_targets.shape:
            raise InconsistencyError("token predictions misaligned with teacher targets")
        # Per-token MSE averaged over each scene's masked tokens; rows share
        # one length, so this equals the mean over the scene's entries.
        l_token = T.mse(token_preds, T.constant(token_targets), scenes)
    return l_ins, l_token, T.add(l_ins, l_token)
