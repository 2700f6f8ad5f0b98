"""Optimization shared by both stages: AdamW, warmup+cosine schedule, one run loop.

Each optimizer step builds one graph over its whole batch of scenes,
stacked into one :class:`~samdistill.nn.TokenBatch`; dataset metrics,
held-out evals and the stage-2 teacher run the same packed forward
without gradients, once over a whole split, so they do not depend on
``batch_size``.

Runs are deterministic given (dataset, seed) and the BLAS thread count:
initialization, epoch shuffles, and mask plans all derive from the seed,
never from global state, so identical configurations under one BLAS
thread count produce bit-identical checkpoints and interrupted runs
resume bit-exactly. The thread count moves the last bits of large
matmuls, and the resume fingerprint does not record it.
"""

from __future__ import annotations

import csv
import hashlib
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import blobio, nn, stage1, stage2
from . import tensor as T
from .errors import (
    BadSplitError,
    DimensionMismatchError,
    DivergedRunError,
    InconsistencyError,
    InvalidInputError,
    NonFiniteError,
)
from .scene import SceneBundle
from .tokenizer import (
    MODE_KNN,
    MODE_SAM,
    TokenSet,
    purity,
    sam_tokenize,
    token_regions,
    tokenize,
)


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule defaults at desk scale; the paper's batch is 64."""

    base_lr: float = 0.001
    weight_decay: float = 0.05
    batch_size: int = 8
    epochs: int = 100
    warmup_epochs: int = 10
    min_lr_ratio: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        """Checked once, here, so a run never starts from a bad schedule."""
        if self.base_lr <= 0:
            raise InvalidInputError("base_lr must be > 0")
        if self.epochs < 0 or not (0 <= self.warmup_epochs <= max(self.epochs, 1)):
            raise InvalidInputError("need 0 <= warmup_epochs <= epochs")
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if self.weight_decay < 0:
            raise InvalidInputError("weight_decay must be >= 0")
        if not (0 <= self.min_lr_ratio <= 1):
            raise InvalidInputError("min_lr_ratio must be in [0, 1]")
        if self.seed < 0:
            raise InvalidInputError("seed must be >= 0")


# ---------------------------------------------------------------------------
# AdamW with decoupled weight decay


def init_opt_state(params: nn.ModelParams) -> dict:
    """First and second moments as flat vectors laid out like ``params.data``."""
    return {"t": 0, "m": np.zeros(params.data.size), "v": np.zeros(params.data.size)}


# Elements per in-place AdamW pass; the scratch block stays in cache.
_ADAMW_BLOCK = 16384
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def adamw_step(params: nn.ModelParams, state: dict, lr: float, weight_decay: float) -> float:
    """One AdamW update with bias correction; frozen parameters are untouched.

    The update is Adam in Kingma & Ba's efficient order (ICLR 2015, end of
    section 2) with decoupled decay (Loshchilov & Hutter, ICLR 2019):
    ``p *= 1 - lr * wd``, then ``p -= (lr * sqrt(bc2) / bc1) * m / (sqrt(v) +
    eps * sqrt(bc2))``. That is the textbook ``p -= lr * (m_hat / (sqrt(v_hat)
    + eps) + wd * p)`` rearranged, with no pass for ``m_hat`` or ``v_hat``.
    Runs in place over the flat buffers, block by block; each element sees
    the same operations in the same order as a per-tensor update, so the
    result is bit-identical to one. Layer-norm affines and the mask query
    are excluded from decay. Returns the gradient's :func:`grad_norm`.

    Raises DivergedRunError whenever the norm is not finite, before it
    writes anything, the step count included: a NaN or inf element, or
    finite elements so large (above about 1e154) that their squares
    overflow, which would overflow the second moment too.
    """
    t = state["t"] + 1
    norm = grad_norm(params)
    if not math.isfinite(norm):
        raise DivergedRunError(t)
    state["t"] = t
    if params.grad is None:
        return norm
    bc1, bc2 = 1.0 - _BETA1**t, 1.0 - _BETA2**t
    step_size, eps_hat = lr * math.sqrt(bc2) / bc1, _EPS * math.sqrt(bc2)
    data, grad, m_all, v_all = params.data, params.grad, state["m"], state["v"]
    scratch = np.empty(min(_ADAMW_BLOCK, data.size))
    for start, stop, decays in params.trainable_ranges():
        wd = weight_decay if decays else 0.0
        for lo in range(start, stop, _ADAMW_BLOCK):
            hi = min(lo + _ADAMW_BLOCK, stop)
            p, g, m, v = data[lo:hi], grad[lo:hi], m_all[lo:hi], v_all[lo:hi]
            a = scratch[: hi - lo]
            m *= _BETA1
            np.multiply(g, 1.0 - _BETA1, out=a)
            m += a
            v *= _BETA2
            np.multiply(g, 1.0 - _BETA2, out=a)
            a *= g
            v += a
            # a = step_size * m / (sqrt(v) + eps_hat)
            np.sqrt(v, out=a)
            a += eps_hat
            np.divide(m, a, out=a)
            a *= step_size
            if wd:
                p *= 1.0 - lr * wd
            p -= a
    return norm


@np.errstate(over="ignore")  # an overflowing dot gives inf, on which adamw_step raises
def grad_norm(params: nn.ModelParams) -> float:
    """L2 norm of the trainable gradients, one dot over the flat buffer.

    Frozen slots of the buffer hold zeros, so they add nothing.
    """
    if params.grad is None:
        return 0.0
    return math.sqrt(float(params.grad @ params.grad))


def lr_at(step: int, total_steps: int, config: TrainConfig) -> float:
    """Linear warmup to base_lr, then cosine decay to base_lr * min_lr_ratio."""
    if not (0 <= step <= total_steps):
        raise InvalidInputError(f"step {step} outside [0, {total_steps}]")
    if total_steps == 0:
        return config.base_lr
    warmup_steps = (
        round(total_steps * config.warmup_epochs / config.epochs) if config.epochs > 0 else 0
    )
    if step < warmup_steps:
        return config.base_lr * step / warmup_steps
    if total_steps == warmup_steps:
        return config.base_lr
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
    return config.base_lr * (config.min_lr_ratio + (1.0 - config.min_lr_ratio) * cosine)


# ---------------------------------------------------------------------------
# Shared run plumbing

_SHUFFLE_STREAM = 0x5F1E


def _epoch_order(n_scenes: int, seed: int, epoch: int) -> np.ndarray:
    key = np.random.SeedSequence([_SHUFFLE_STREAM, seed, epoch]).generate_state(2, np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.permutation(n_scenes)


_METRIC_COLUMNS = [
    "epoch",
    "step",
    "lr",
    "loss",
    "l_ins",
    "l_token",
    "l_final",
    "grad_norm",
    "wall_ms",
    "fwd_ms",
    "bwd_ms",
    "opt_ms",
    "n_visible",
    "n_masked",
]

# Step-0 dataset metrics, measured once so a resumed run reports the same ones.
_INITIAL_METRICS = "initial_metrics.json"


class _MetricsWriter:
    """On resume, drops the rows from ``resume_step`` on and a cut last row.

    A run that saved its checkpoint logged none of them; they come only
    from a run that died without saving.
    """

    def __init__(self, path: Path, resume_step: int | None):
        kept = []
        if resume_step is not None and path.exists():
            with open(path, newline="") as fh:  # a kill can cut the last row before its line end
                lines = [line for line in fh if line.endswith("\n")]
            kept = [row for row in csv.DictReader(lines) if int(row["step"]) < resume_step]
        self._fh = open(path, "w", newline="")
        self._writer = csv.DictWriter(self._fh, fieldnames=_METRIC_COLUMNS)
        self._writer.writeheader()
        self._writer.writerows(kept)

    def row(self, **kwargs) -> None:
        self._writer.writerow({col: kwargs.get(col, "") for col in _METRIC_COLUMNS})

    def close(self) -> None:
        self._fh.close()


def _batches(items, batch_size: int) -> list:
    """Consecutive slices of at most ``batch_size`` items."""
    return [items[i : i + batch_size] for i in range(0, len(items), batch_size)]


def _run_fingerprint(
    train_cfg: TrainConfig,
    stage_cfg,
    arch: nn.Arch,
    train_bundles: list[SceneBundle],
    eval_bundles: list[SceneBundle],
) -> dict:
    """What a resumed run must match: the resolved configs and the dataset.

    The dataset is its scene counts plus a sha256 over every train, then
    held-out, scene's points and mask (not its 2D feature raster).
    """
    digest = hashlib.sha256()
    for bundle in (*train_bundles, *eval_bundles):
        for array in (bundle.points, bundle.mask):
            digest.update(str(array.shape).encode())
            digest.update(np.ascontiguousarray(array))
    return {
        "train": asdict(train_cfg),
        "stage": asdict(stage_cfg),
        "arch": asdict(arch),
        "n_train": len(train_bundles),
        "n_heldout": len(eval_bundles),
        "scenes_sha256": digest.hexdigest(),
    }


class RunResult(NamedTuple):
    """Where a stage run saved its last checkpoint, and its ``metrics.json`` contents."""

    checkpoint_dir: Path  # the checkpoint file; the benchmark reads this field by name
    metrics: dict


def _fit(
    train_cfg: TrainConfig,
    out_dir: Path,
    n_scenes: int,
    fresh_params: Callable[[], nn.ModelParams],
    trains: Callable[[str], bool],
    batch_loss: Callable[[nn.ModelParams, np.ndarray, int], tuple[T.Tensor, dict]],
    dataset_metrics: Callable[[nn.ModelParams], dict],
    resume: bool,
    fingerprint: dict,
) -> tuple[Path, nn.ModelParams, int, dict, dict]:
    """The run loop both stages share.

    ``fresh_params()`` builds a new run's model; that model, or the one a
    resume loads, is frozen until this loop makes the parameters whose
    names ``trains`` accepts trainable. The others stay frozen: AdamW
    neither updates nor decays them, and their moments stay as they were.
    ``batch_loss(params, batch, epoch)`` returns the loss to
    minimize, one graph over the batch of scene indices, and the numeric
    ``metrics.csv`` fields of that batch;
    ``dataset_metrics(params)`` is measured at step 0 and after the last
    step. Every checkpoint records ``fingerprint``, and resuming from a
    checkpoint with another one raises InconsistencyError. Returns the
    checkpoint file, the trained parameters, the step count and the
    initial and final dataset metrics.

    A checkpoint at step k holds the state before step k ran, so a resume
    may start mid-epoch; it skips that epoch's batches already taken. Any
    exception, an interrupt or an ``OSError`` included, that comes before
    AdamW starts writing step k saves the state before step k and
    propagates; once AdamW has started writing, the step must finish
    before a failure saves anything. A non-finite gradient or value
    inside a step raises before AdamW writes, and surfaces as
    DivergedRunError. A non-finite final dataset metric saves the state
    after the last step and raises DivergedRunError at that step; a
    resume fails the same way.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "checkpoint"
    steps_per_epoch = math.ceil(n_scenes / train_cfg.batch_size)
    total_steps = train_cfg.epochs * steps_per_epoch

    if resume:
        ckpt = nn.load_checkpoint(ckpt_path)
        if ckpt.fingerprint != fingerprint:
            raise InconsistencyError(
                f"{ckpt_path} was written by another run: {ckpt.fingerprint} != {fingerprint}"
            )
        params, opt_state, step = ckpt.params, ckpt.opt_state, ckpt.step
        initial = blobio.load_manifest(out_dir / _INITIAL_METRICS)
    else:
        params = fresh_params()
        opt_state = init_opt_state(params)
        step = 0
        initial = dataset_metrics(params)
        blobio.dump_manifest(out_dir / _INITIAL_METRICS, initial)
    params.set_trainable(True, [name for name in params.names() if trains(name)])

    writer = _MetricsWriter(out_dir / "metrics.csv", step if resume else None)
    try:
        for epoch in range(step // steps_per_epoch, train_cfg.epochs):
            order = _epoch_order(n_scenes, train_cfg.seed, epoch)
            taken = step - epoch * steps_per_epoch  # > 0 only in a resumed epoch
            for batch in _batches(order, train_cfg.batch_size)[taken:]:
                t0 = time.perf_counter()
                params.zero_grad()
                loss, fields = batch_loss(params, batch, epoch)
                t1 = time.perf_counter()
                loss.backward()
                del loss  # free this graph before the next forward builds one
                t2 = time.perf_counter()
                lr = lr_at(step, total_steps, train_cfg)
                norm = adamw_step(params, opt_state, lr, train_cfg.weight_decay)
                t3 = time.perf_counter()
                writer.row(
                    epoch=epoch,
                    step=step,
                    lr=f"{lr:.10g}",
                    **{name: f"{value:.10g}" for name, value in fields.items()},
                    grad_norm=f"{norm:.10g}",
                    wall_ms=f"{(time.perf_counter() - t0) * 1e3:.3f}",
                    fwd_ms=f"{(t1 - t0) * 1e3:.3f}",
                    bwd_ms=f"{(t2 - t1) * 1e3:.3f}",
                    opt_ms=f"{(t3 - t2) * 1e3:.3f}",
                )
                step += 1
        final = dataset_metrics(params)
    except BaseException as exc:
        # AdamW counts the step just before it writes, so t == step means
        # no update is half applied.
        if opt_state["t"] == step:
            nn.save_checkpoint(ckpt_path, params, step, opt_state, fingerprint)
        if not isinstance(exc, NonFiniteError):
            raise
        # A non-finite final eval is charged to the last step taken.
        raise DivergedRunError(min(step + 1, total_steps), exc.op) from exc
    finally:
        writer.close()

    nn.save_checkpoint(ckpt_path, params, step, opt_state, fingerprint)
    return ckpt_path, params, step, initial, final


# ---------------------------------------------------------------------------
# Stage 1


@dataclass(frozen=True)
class Stage1Config:
    k_groups: int = 16
    reweight: bool = True
    tokenizer_mode: str = MODE_SAM

    def __post_init__(self) -> None:
        """Checked once, here; K against the number of regions is checked on the data."""
        if self.k_groups < 1:
            raise InvalidInputError("k_groups must be >= 1")
        if self.tokenizer_mode not in (MODE_SAM, MODE_KNN):
            raise InvalidInputError(f"unknown tokenizer_mode {self.tokenizer_mode!r}")


@dataclass
class _PreparedScene:
    tokens: TokenSet
    batch: nn.TokenBatch  # the tokens, packed once for every forward
    targets: np.ndarray  # per token, mean-pooled 2D region features
    groups: np.ndarray  # per token, the weight-table group of its max-pooled features


def _prepare_scene(
    bundle: SceneBundle,
    tokens: TokenSet,
    pooled: stage1.RegionFeatures,
    table: stage1.WeightTable,
    arch: nn.Arch,
) -> _PreparedScene:
    means, maxes = pooled.select(token_regions(tokens, bundle))
    return _PreparedScene(
        tokens=tokens,
        batch=nn.TokenBatch.of_scene(bundle, tokens, arch.max_points_per_token),
        targets=means,
        groups=stage1.assign_groups(maxes, table),
    )


def _stage1_project(scenes: list[_PreparedScene], params: nn.ModelParams):
    """One packed forward: the scenes' stacked tokens and their projected 3D features."""
    batch = nn.TokenBatch.stack([s.batch for s in scenes])
    return batch, stage1.project_3d(nn.forward_tokens(batch, params), params)


def _stage1_batch_loss(
    scenes: list[_PreparedScene],
    params: nn.ModelParams,
    table: stage1.WeightTable,
    cfg: Stage1Config,
) -> T.Tensor:
    """Mean over the scenes of each scene's distillation loss, from one graph."""
    batch, f3d = _stage1_project(scenes, params)
    return stage1.stage1_loss(
        np.concatenate([s.targets for s in scenes]),
        f3d,
        table,
        np.concatenate([s.groups for s in scenes]),
        batch.scenes,
        cfg.reweight,
    )


def _stage1_eval(
    scenes: list[_PreparedScene], params: nn.ModelParams, table: stage1.WeightTable
) -> dict:
    """Held-out per-region cosine between projected 3D features and 2D targets."""
    with T.no_grad():
        _, f3d = _stage1_project(scenes, params)
    cos = stage1.region_cosines(np.concatenate([s.targets for s in scenes]), f3d.data)
    grp = np.concatenate([s.groups for s in scenes])
    per_group = [
        float(cos[grp == g].mean()) if np.any(grp == g) else float("nan")
        for g in range(table.n_groups)
    ]
    # Tail group: smallest training population among groups that actually
    # occur in the held-out scenes, so the tail metric is always defined.
    present = [g for g in range(table.n_groups) if np.any(grp == g)]
    tail_group = min(present, key=lambda g: (table.counts[g], g))
    return {
        "heldout_cosine_mean": float(cos.mean()),
        "heldout_group_cosines": per_group,
        "tail_group": int(tail_group),
        "heldout_tail_cosine": per_group[tail_group],
    }


def run_stage1(
    train_bundles: list[SceneBundle],
    eval_bundles: list[SceneBundle],
    arch: nn.Arch,
    train_cfg: TrainConfig,
    cfg: Stage1Config,
    out_dir: str | Path,
    resume: bool = False,
) -> RunResult:
    """Dense distillation run: offline weight table, then weighted smooth-L1 training.

    Each step's loss is the mean over its batch's scenes of each scene's
    loss, from one packed graph. Resuming with another train or stage
    config, arch or dataset raises InconsistencyError, and leaves the run
    directory as it was. An empty train split raises BadSplitError, and a
    scene whose feature width is not ``arch.proj_dim`` DimensionMismatchError.
    """
    if not train_bundles:
        raise BadSplitError("the stage-1 train split has no scenes")
    for split, bundles in (("train", train_bundles), ("held-out", eval_bundles)):
        widths = sorted({b.feature_dim for b in bundles} - {arch.proj_dim})
        if widths:
            raise DimensionMismatchError(
                f"{split} scenes have {widths}-dim features, arch.proj_dim is {arch.proj_dim}"
            )
    out_dir = Path(out_dir)
    tokens = [tokenize(b, cfg.tokenizer_mode) for b in train_bundles]
    pooled = [stage1.pool_features_by_region(b.feat2d, b.mask) for b in train_bundles]
    table = stage1.build_weight_table(
        np.concatenate([p.max for p in pooled]), cfg.k_groups, train_cfg.seed
    )
    prepared = [
        _prepare_scene(b, t, p, table, arch)
        for b, t, p in zip(train_bundles, tokens, pooled)
    ]
    # Held-out scenes always use mask-guided tokens, whatever the training
    # tokenizer, so every run is scored on the same regions.
    heldout = [
        _prepare_scene(
            b, sam_tokenize(b), stage1.pool_features_by_region(b.feat2d, b.mask), table, arch
        )
        for b in eval_bundles
    ]
    if not resume:  # a resume keeps the table that its checkpoint's fingerprint vouches for
        stage1.save_weight_table(out_dir / "weight_table", table)

    def batch_loss(params: nn.ModelParams, batch: np.ndarray, epoch: int):
        loss = _stage1_batch_loss([prepared[i] for i in batch], params, table, cfg)
        return loss, {"loss": loss.item()}

    def dataset_metrics(params: nn.ModelParams) -> dict:
        with T.no_grad():
            return {"loss": _stage1_batch_loss(prepared, params, table, cfg).item()}

    ckpt_path, params, step, initial, final = _fit(
        train_cfg,
        out_dir,
        len(train_bundles),
        lambda: nn.init_params(arch, train_cfg.seed),
        stage1.trains,
        batch_loss,
        dataset_metrics,
        resume,
        _run_fingerprint(train_cfg, cfg, arch, train_bundles, eval_bundles),
    )
    train_purity = float(
        np.mean([purity(p.tokens, b.gt_region) for p, b in zip(prepared, train_bundles)])
    )
    metrics = {
        "stage": 1,
        "tokenizer": cfg.tokenizer_mode,
        "reweight": cfg.reweight,
        "initial_loss": initial["loss"],
        "final_loss": final["loss"],
        "train_token_purity": train_purity,
        "epochs": train_cfg.epochs,
        "steps": step,
        "seed": train_cfg.seed,
    }
    if heldout:
        metrics.update(_stage1_eval(heldout, params, table))
    blobio.dump_manifest(out_dir / "metrics.json", metrics)
    return RunResult(ckpt_path, metrics)


# ---------------------------------------------------------------------------
# Stage 2


@dataclass(frozen=True)
class Stage2Config:
    mask_ratio: float = 0.6
    init_from_teacher: bool = True

    def __post_init__(self) -> None:
        """Checked once, here, before a run loads its teacher."""
        if not (0.0 <= self.mask_ratio < 1.0):
            raise InvalidInputError(f"mask_ratio {self.mask_ratio} outside [0, 1)")


class _Stage2Input(NamedTuple):
    """One scene with the frozen teacher's outputs on it, computed once per run."""

    batch: nn.TokenBatch  # the scene's tokens, packed once
    f_ins_teacher: np.ndarray  # (L,) pooled feature, read-only
    dec_out_teacher: np.ndarray  # (M, L) every decoder row, read-only


def _stage2_batch(
    scenes: list[_Stage2Input], plans: list[nn.MaskPlan], student: nn.ModelParams
) -> tuple[T.Tensor, T.Tensor, tuple[T.Tensor, T.Tensor, T.Tensor]]:
    """Student pooled features, predictor outputs and losses of a batch, from one graph."""
    batch = nn.TokenBatch.stack([s.batch for s in scenes])
    f_ins, token_preds = stage2.student_forward(batch, plans, student)
    pred_ins = stage2.predict_instance(f_ins, student)
    targets = np.concatenate([s.dec_out_teacher[p.masked] for s, p in zip(scenes, plans)])
    masked = T.Segments.of_counts([len(p.masked) for p in plans])
    f_ins_teacher = np.stack([s.f_ins_teacher for s in scenes])
    losses = stage2.stage2_loss(pred_ins, token_preds, f_ins_teacher, targets, masked)
    return f_ins, pred_ins, losses


def _stage2_dataset_eval(
    scenes: list[_Stage2Input], plans: list[nn.MaskPlan], student: nn.ModelParams
) -> dict:
    """Loss components plus pooled-feature cosines, averaged over scenes."""
    with T.no_grad():
        f_ins, pred_ins, (l_ins, l_token, l_final) = _stage2_batch(scenes, plans, student)
    f_ins_teacher = np.stack([s.f_ins_teacher for s in scenes])
    return {
        "l_ins": l_ins.item(),
        "l_token": l_token.item(),
        "l_final": l_final.item(),
        "pooled_cosine": float(stage1.region_cosines(f_ins.data, f_ins_teacher).mean()),
        "instance_cosine": float(stage1.region_cosines(pred_ins.data, f_ins_teacher).mean()),
    }


def run_stage2(
    train_bundles: list[SceneBundle],
    eval_bundles: list[SceneBundle],
    teacher_ckpt: str | Path,
    train_cfg: TrainConfig,
    cfg: Stage2Config,
    out_dir: str | Path,
    resume: bool = False,
) -> RunResult:
    """Masked token prediction against a frozen stage-1 teacher.

    The teacher runs once, before training, in one packed forward over
    the train and held-out scenes, and each step selects its targets from
    those outputs. Each step's loss is the mean over its batch's scenes of
    each scene's loss, from one packed graph. Resuming against a teacher
    with other bytes, or with another train or stage config or dataset,
    raises InconsistencyError and leaves the run directory as it was. An
    empty train split raises BadSplitError before the teacher is loaded.
    """
    if not train_bundles:
        raise BadSplitError("the stage-2 train split has no scenes")
    out_dir = Path(out_dir)
    teacher = nn.load_checkpoint(teacher_ckpt).params
    teacher_hash_before = teacher.byte_hash()

    batches = [
        nn.TokenBatch.of_scene(b, sam_tokenize(b), teacher.arch.max_points_per_token)
        for b in (*train_bundles, *eval_bundles)
    ]
    stacked = nn.TokenBatch.stack(batches)
    f_ins, dec_out = stage2.teacher_forward(stacked, teacher)
    rows = np.split(dec_out, stacked.scenes.bounds[1:-1])
    scenes = [_Stage2Input(*inputs) for inputs in zip(batches, f_ins, rows)]
    train_scenes, eval_scenes = scenes[: len(train_bundles)], scenes[len(train_bundles) :]

    def plan(scene: _Stage2Input, scene_id: int, epoch: int) -> nn.MaskPlan:
        return nn.make_mask_plan(len(scene.batch), cfg.mask_ratio, train_cfg.seed, scene_id, epoch)

    # Dataset metrics use fixed epoch-0 plans; held-out scene ids follow the training ones.
    train_plans = [plan(s, i, 0) for i, s in enumerate(train_scenes)]
    eval_plans = [plan(s, len(train_scenes) + i, 0) for i, s in enumerate(eval_scenes)]

    def fresh_student() -> nn.ModelParams:
        if cfg.init_from_teacher:
            return teacher.copy()
        return nn.init_params(teacher.arch, train_cfg.seed)

    def batch_loss(student: nn.ModelParams, batch: np.ndarray, epoch: int):
        plans = [plan(train_scenes[i], int(i), epoch) for i in batch]
        _, _, (l_ins, l_token, l_final) = _stage2_batch(
            [train_scenes[i] for i in batch], plans, student
        )
        return l_final, {
            "l_ins": l_ins.item(),
            "l_token": l_token.item(),
            "l_final": l_final.item(),
            "n_visible": sum(len(p.visible) for p in plans),
            "n_masked": sum(len(p.masked) for p in plans),
        }

    ckpt_path, student, step, initial, final = _fit(
        train_cfg,
        out_dir,
        len(train_bundles),
        fresh_student,
        lambda name: True,
        batch_loss,
        lambda student: _stage2_dataset_eval(train_scenes, train_plans, student),
        resume,
        {
            **_run_fingerprint(train_cfg, cfg, teacher.arch, train_bundles, eval_bundles),
            "teacher_hash": teacher_hash_before,
        },
    )
    metrics = {
        "stage": 2,
        "mask_ratio": cfg.mask_ratio,
        "init_from_teacher": cfg.init_from_teacher,
        "initial_l_final": initial["l_final"],
        "final_l_final": final["l_final"],
        "initial_l_ins": initial["l_ins"],
        "final_l_ins": final["l_ins"],
        "initial_l_token": initial["l_token"],
        "final_l_token": final["l_token"],
        "teacher_hash_unchanged": teacher.byte_hash() == teacher_hash_before,
        "epochs": train_cfg.epochs,
        "steps": step,
        "seed": train_cfg.seed,
    }
    if eval_scenes:
        heldout = _stage2_dataset_eval(eval_scenes, eval_plans, student)
        metrics["heldout_pooled_cosine"] = heldout["pooled_cosine"]
        metrics["heldout_instance_cosine"] = heldout["instance_cosine"]
        metrics["heldout_l_final"] = heldout["l_final"]
    blobio.dump_manifest(out_dir / "metrics.json", metrics)
    return RunResult(ckpt_path, metrics)
