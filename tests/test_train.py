"""Optimizer, schedule, and run-loop determinism."""

import inspect
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from samdistill import blobio, nn, scene, stage1, stage2, tokenizer, train
from samdistill import tensor as T
from samdistill.errors import (
    BadSplitError,
    DimensionMismatchError,
    DivergedRunError,
    InconsistencyError,
    InvalidInputError,
    MalformedManifestError,
    NonFiniteError,
)


def _trainable(params: nn.ModelParams) -> nn.ModelParams:
    params.set_trainable(True)
    return params


def _one_param(value, name="w") -> nn.ModelParams:
    return _trainable(nn.ModelParams.from_arrays({name: np.array([value])}, nn.Arch()))


class TestAdamW:
    def test_hand_evaluated_first_step(self):
        params = _one_param(1.0)
        params.tensors["w"].grad[...] = 1.0
        state = train.init_opt_state(params)
        train.adamw_step(params, state, lr=0.1, weight_decay=0.0)
        # m_hat = v_hat = 1, so the update is lr / (1 + eps).
        expected = 1.0 - 0.1 / (1.0 + 1e-8)
        assert params.tensors["w"].data[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.9, abs=1e-8)

    def test_decay_only_path(self):
        params = _one_param(2.0)
        state = train.init_opt_state(params)
        lr, wd = 0.01, 0.5
        for _ in range(3):
            params.tensors["w"].grad[...] = 0.0
            train.adamw_step(params, state, lr=lr, weight_decay=wd)
        assert params.tensors["w"].data[0] == pytest.approx(2.0 * (1 - lr * wd) ** 3, rel=1e-12)

    def test_frozen_parameter_untouched(self):
        params = _one_param(3.0)
        params.tensors["w"].grad[...] = 10.0
        params.set_trainable(False, ["w"])
        state = train.init_opt_state(params)
        before = params.tensors["w"].data.copy()
        train.adamw_step(params, state, lr=0.1, weight_decay=0.1)
        np.testing.assert_array_equal(params.tensors["w"].data, before)

    def test_no_decay_for_layer_norms_and_mask_query(self):
        params = _trainable(
            nn.ModelParams.from_arrays(
                {"enc0.ln1.g": np.array([1.0]), "mask_query": np.array([1.0])}, nn.Arch()
            )
        )
        t1, t2 = params.tensors["enc0.ln1.g"], params.tensors["mask_query"]
        state = train.init_opt_state(params)
        train.adamw_step(params, state, lr=0.1, weight_decay=0.9)
        np.testing.assert_array_equal(t1.data, [1.0])
        np.testing.assert_array_equal(t2.data, [1.0])

    def test_non_finite_gradient_signals_divergence(self):
        params = _one_param(1.0)
        params.tensors["w"].grad[...] = np.inf
        state = train.init_opt_state(params)
        before = [a.tobytes() for a in (params.data, state["m"], state["v"])]
        with pytest.raises(DivergedRunError) as err:
            train.adamw_step(params, state, lr=0.1, weight_decay=0.0)
        assert err.value.step == 1
        # Nothing is written before the check, the step count included.
        assert state["t"] == 0
        assert [a.tobytes() for a in (params.data, state["m"], state["v"])] == before

    def test_huge_finite_gradient_is_divergence(self):
        # 1e200 squares to inf in the norm's dot and would overflow the
        # second moment; the step raises without a warning (tier-1 makes
        # RuntimeWarning an error) and writes nothing.
        params = _trainable(nn.ModelParams.from_arrays({"w": np.array([1.0, 2.0])}, nn.Arch()))
        state = train.init_opt_state(params)
        params.tensors["w"].grad[...] = [0.5, -0.25]
        train.adamw_step(params, state, lr=0.1, weight_decay=0.0)
        params.tensors["w"].grad[...] = [1e200, -1e200]
        before = [a.tobytes() for a in (params.data, state["m"], state["v"])]
        assert train.grad_norm(params) == math.inf
        with pytest.raises(DivergedRunError) as err:
            train.adamw_step(params, state, lr=0.1, weight_decay=0.0)
        assert err.value.step == 2 and state["t"] == 1
        assert [a.tobytes() for a in (params.data, state["m"], state["v"])] == before

    def test_returns_the_gradient_norm(self):
        params = _trainable(nn.init_params(nn.Arch(), seed=3))
        params.grad[...] = np.random.default_rng(0).normal(0.0, 1.0, params.grad.size)
        expected = train.grad_norm(params)
        norm = train.adamw_step(params, train.init_opt_state(params), lr=0.1, weight_decay=0.05)
        assert norm == expected and norm > 0.0

    def test_missing_grad_treated_as_zero(self):
        params = _one_param(1.0)
        state = train.init_opt_state(params)
        train.adamw_step(params, state, lr=0.1, weight_decay=0.0)
        assert params.tensors["w"].data[0] == 1.0


class TestGradNorm:
    def test_equals_per_tensor_sum_with_frozen_parameters(self):
        params = _trainable(nn.init_params(nn.Arch(), seed=3))
        rng = np.random.default_rng(1)
        for t in params.tensors.values():
            t.grad[...] = rng.normal(0.0, 1.0, t.shape)
        params.set_trainable(False, ["embed.l1.w", "enc0.ln1.g", "mask_query"])
        trainable = [params.tensors[name] for name in params.trainable_names()]
        per_tensor = sum(float((t.grad * t.grad).sum()) for t in trainable)
        assert train.grad_norm(params) == pytest.approx(math.sqrt(per_tensor), rel=1e-12)

    def test_zero_when_nothing_trains(self):
        params = nn.init_params(nn.Arch(), seed=3)
        assert train.grad_norm(params) == 0.0


def _per_tensor_adamw(params, state, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
    """AdamW as a loop over tensors: the oracle the flat in-place update must match bit for bit.

    Kingma & Ba's order: decoupled decay first, then the step with the bias
    corrections folded into the step size and epsilon.
    """
    t = state["t"] + 1
    trainable = {name: p for name, p in params.tensors.items() if p.requires_grad}
    if not all(np.all(np.isfinite(p.grad)) for p in trainable.values()):
        raise DivergedRunError(t)
    state["t"] = t
    b1, b2 = betas
    bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
    step_size, eps_hat = lr * math.sqrt(bc2) / bc1, eps * math.sqrt(bc2)
    moments_m, moments_v = params.views(state["m"]), params.views(state["v"])
    for name, p in trainable.items():
        g = p.grad
        m, v = moments_m[name], moments_v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        if weight_decay and not nn.no_decay(name):
            p.data *= 1.0 - lr * weight_decay
        p.data -= step_size * (m / (np.sqrt(v) + eps_hat))
    return train.grad_norm(params)


def _textbook_adamw(params, state, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
    """AdamW as usually written, with bias-corrected moments m_hat and v_hat."""
    t = state["t"] + 1
    state["t"] = t
    b1, b2 = betas
    moments_m, moments_v = params.views(state["m"]), params.views(state["v"])
    for name in params.trainable_names():
        p = params.tensors[name]
        g = p.grad
        m, v = moments_m[name], moments_v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        wd = 0.0 if nn.no_decay(name) else weight_decay
        p.data -= lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * p.data)


def _csv_without_timings(path: Path) -> list[dict]:
    import csv

    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{k: v for k, v in row.items() if not k.endswith("_ms")} for row in rows]


@pytest.mark.parametrize("cut", ["3,2", "3"])
def test_resume_drops_a_cut_last_metrics_row(tmp_path, cut):
    # A kill inside step 25's row leaves its start, which parses as step 2
    # or as a row without a step.
    import csv

    path = tmp_path / "metrics.csv"
    writer = train._MetricsWriter(path, None)
    for step in range(25):
        writer.row(epoch=step // 8, step=step, loss="0.5")
    writer.close()
    with open(path, "a", newline="") as fh:
        fh.write(cut)
    train._MetricsWriter(path, 24).close()
    with open(path, newline="") as fh:
        assert [int(row["step"]) for row in csv.DictReader(fh)] == list(range(24))


class TestAdamWOracle:
    @staticmethod
    def _run_pair(update, ref_update):
        """30 steps of ``update`` and ``ref_update`` on the default Arch, one tensor frozen.

        The gradients span nine decades and hold +0 and -0 entries.
        """
        flat = nn.init_params(nn.Arch(), seed=3)
        flat.set_trainable(True, [name for name in flat.names() if name != "embed.l1.w"])
        ref = flat.copy()
        ref.set_trainable(True, flat.trainable_names())
        frozen_before = flat.tensors["embed.l1.w"].data.copy()
        flat_state, ref_state = train.init_opt_state(flat), train.init_opt_state(ref)
        rng = np.random.default_rng(0)
        for step in range(30):
            g = rng.normal(0.0, 1.0, flat.data.size) * 10.0 ** rng.integers(-6, 3)
            g[rng.random(g.size) < 0.1] = 0.0
            g[rng.random(g.size) < 0.05] = -0.0
            for params in (flat, ref):
                params.zero_grad()
                for name in params.trainable_names():
                    params.tensors[name].grad[...] = params.views(g)[name]
            lr = 1e-3 * (step + 1) / 30
            update(flat, flat_state, lr, 0.05)
            ref_update(ref, ref_state, lr, 0.05)
        np.testing.assert_array_equal(flat.tensors["embed.l1.w"].data, frozen_before)
        assert any(nn.no_decay(n) for n in flat.trainable_names())
        assert flat_state["m"].tobytes() == ref_state["m"].tobytes()
        assert flat_state["v"].tobytes() == ref_state["v"].tobytes()
        assert flat_state["t"] == ref_state["t"] == 30
        return flat, ref

    def test_flat_update_matches_per_tensor_loop(self):
        flat, ref = self._run_pair(train.adamw_step, _per_tensor_adamw)
        assert flat.data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_one_block_update_matches_per_tensor_loop(self, weight_decay):
        """The probe's shape: one trainable range that fits in one block."""

        def probe_params():
            rng = np.random.default_rng(1)
            arrays = {"probe.w": rng.normal(0.0, 0.01, (64, 4)), "probe.b": np.zeros(4)}
            return _trainable(nn.ModelParams.from_arrays(arrays))

        flat, ref = probe_params(), probe_params()
        assert flat.trainable_ranges() == ((0, 260, True),)
        flat_state, ref_state = train.init_opt_state(flat), train.init_opt_state(ref)
        rng = np.random.default_rng(0)
        for step in range(30):
            g = rng.normal(0.0, 1.0, 260) * 10.0 ** rng.integers(-6, 3)
            g[rng.random(g.size) < 0.1] = 0.0
            g[rng.random(g.size) < 0.05] = -0.0
            flat.grad[...] = ref.grad[...] = g
            lr = 0.05 * (step + 1) / 30
            train.adamw_step(flat, flat_state, lr, weight_decay)
            _per_tensor_adamw(ref, ref_state, lr, weight_decay)
        assert flat.data.tobytes() == ref.data.tobytes()
        assert flat_state["m"].tobytes() == ref_state["m"].tobytes()
        assert flat_state["v"].tobytes() == ref_state["v"].tobytes()
        assert flat_state["t"] == ref_state["t"] == 30

    def test_update_agrees_with_the_textbook_formula(self):
        flat, ref = self._run_pair(train.adamw_step, _textbook_adamw)
        # Relative to each parameter, or to the largest step (lr 1e-3) for a
        # parameter that cancelled to near zero: there the last bits of one
        # step are a large share of the value.
        np.testing.assert_allclose(flat.data, ref.data, rtol=1e-12, atol=1e-12 * 1e-3)
        assert flat.data.tobytes() != ref.data.tobytes()  # the two orders round differently

    def test_run_with_per_tensor_loop_is_bit_identical(
        self, tiny_dataset, tiny_arch, tmp_path, monkeypatch
    ):
        tb, eb = tiny_dataset
        cfg = train.Stage1Config(k_groups=3)
        train.run_stage1(tb, eb, tiny_arch, _quick_cfg(), cfg, tmp_path / "flat")
        monkeypatch.setattr(train, "adamw_step", _per_tensor_adamw)
        train.run_stage1(tb, eb, tiny_arch, _quick_cfg(), cfg, tmp_path / "loop")
        flat, loop = (nn.load_checkpoint(tmp_path / d / "checkpoint") for d in ("flat", "loop"))
        assert flat.params.byte_hash() == loop.params.byte_hash()
        assert flat.opt_state["m"].tobytes() == loop.opt_state["m"].tobytes()
        assert _csv_without_timings(tmp_path / "flat" / "metrics.csv") == _csv_without_timings(
            tmp_path / "loop" / "metrics.csv"
        )


class TestLrSchedule:
    CFG = train.TrainConfig(base_lr=0.002, epochs=100, warmup_epochs=10, min_lr_ratio=0.01)

    def test_warmup_terminus_is_base_lr(self):
        total = 1000  # 10 steps per epoch
        assert train.lr_at(100, total, self.CFG) == pytest.approx(0.002, abs=1e-15)

    def test_warmup_midpoint_is_half_base(self):
        total = 1000
        assert train.lr_at(50, total, self.CFG) == pytest.approx(0.001, abs=1e-15)

    def test_final_step_hits_floor(self):
        total = 1000
        assert train.lr_at(total, total, self.CFG) == pytest.approx(
            0.002 * 0.01, abs=1e-15
        )

    def test_continuity_at_junction(self):
        total = 1000
        warmup_steps = 100
        linear_limit = self.CFG.base_lr * warmup_steps / warmup_steps
        cosine_start = train.lr_at(warmup_steps, total, self.CFG)
        assert abs(linear_limit - cosine_start) <= 1e-12

    def test_starts_at_zero(self):
        assert train.lr_at(0, 1000, self.CFG) == 0.0

    def test_monotone_decay_after_warmup(self):
        total = 1000
        values = [train.lr_at(s, total, self.CFG) for s in range(100, total + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_zero_warmup(self):
        cfg = replace(self.CFG, warmup_epochs=0)
        assert train.lr_at(0, 100, cfg) == cfg.base_lr

    def test_step_bounds_validated(self):
        with pytest.raises(InvalidInputError):
            train.lr_at(11, 10, self.CFG)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            train.TrainConfig(base_lr=0.0)
        with pytest.raises(InvalidInputError):
            train.TrainConfig(epochs=5, warmup_epochs=6)
        for bad in (
            {"weight_decay": -0.05}, {"min_lr_ratio": -0.1}, {"min_lr_ratio": 1.5}, {"seed": -1}
        ):
            with pytest.raises(InvalidInputError):
                train.TrainConfig(**bad)
        # replace builds a new config, so it checks it too.
        with pytest.raises(InvalidInputError):
            replace(self.CFG, epochs=self.CFG.warmup_epochs - 1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: train.Stage1Config(k_groups=0),
        lambda: train.Stage1Config(tokenizer_mode="voxel"),
        lambda: train.Stage2Config(mask_ratio=1.0),
        lambda: train.Stage2Config(mask_ratio=-0.1),
    ],
)
def test_stage_configs_refuse_bad_values(make):
    with pytest.raises(InvalidInputError):
        make()


@pytest.fixture(scope="module")
def tiny_dataset(tiny_arch):
    spec = scene.SceneSpec(
        n_objects=3, seed=0, feature_dim=tiny_arch.proj_dim, points_per_object_range=(20, 30)
    )
    return scene.generate_dataset(spec, 4, 7), scene.generate_dataset(spec, 2, 9)


@pytest.fixture(scope="module")
def other_dataset(tiny_arch):
    """As many train and held-out scenes as ``tiny_dataset``, from other seeds."""
    spec = scene.SceneSpec(
        n_objects=3, seed=0, feature_dim=tiny_arch.proj_dim, points_per_object_range=(20, 30)
    )
    return scene.generate_dataset(spec, 4, 17), scene.generate_dataset(spec, 2, 19)


def _quick_cfg(**kw) -> train.TrainConfig:
    base = dict(epochs=3, warmup_epochs=1, batch_size=2, seed=0)
    base.update(kw)
    return train.TrainConfig(**base)


def _interrupt_before_step(monkeypatch, step: int, run) -> None:
    """Call ``run()`` and interrupt it as AdamW is about to take ``step``, counted from 0.

    The run saves the state before that step, so ``resume=True`` continues it.
    """
    adamw_step, calls = train.adamw_step, []

    def interrupting(*args):
        calls.append(args)
        if len(calls) > step:
            raise KeyboardInterrupt
        return adamw_step(*args)

    with monkeypatch.context() as patch, pytest.raises(KeyboardInterrupt):
        patch.setattr(train, "adamw_step", interrupting)
        run()


def _dir_bytes(out: Path) -> dict:
    """Every file under ``out``, by its relative path, with its bytes."""
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def test_an_empty_train_split_is_refused_before_any_work(tiny_dataset, tiny_arch, tmp_path):
    _, eb = tiny_dataset
    with pytest.raises(BadSplitError):
        train.run_stage1(
            [], eb, tiny_arch, _quick_cfg(), train.Stage1Config(k_groups=3), tmp_path / "s1"
        )
    # No teacher file: the run must refuse before it loads one.
    with pytest.raises(BadSplitError):
        train.run_stage2(
            [], eb, tmp_path / "no_teacher", _quick_cfg(), train.Stage2Config(), tmp_path / "s2"
        )
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("split", ["train", "held-out"])
def test_scenes_of_another_feature_width_are_refused_before_any_work(
    tiny_dataset, tiny_arch, tmp_path, split
):
    """One scene whose width is not ``proj_dim``, in either split, stops the run before it writes."""
    tb, eb = tiny_dataset
    spec = scene.SceneSpec(
        n_objects=3, seed=0, feature_dim=tiny_arch.proj_dim + 1, points_per_object_range=(20, 30)
    )
    wide = scene.generate_dataset(spec, 1, 3)
    splits = (tb + wide, eb) if split == "train" else (tb, eb + wide)
    with pytest.raises(DimensionMismatchError, match=split):
        train.run_stage1(
            *splits, tiny_arch, _quick_cfg(), train.Stage1Config(k_groups=3), tmp_path / "s1"
        )
    assert not (tmp_path / "s1").exists()


class TestRunStage1:
    def test_same_seed_bit_identical_checkpoints(self, tiny_dataset, tiny_arch, tmp_path):
        tb, eb = tiny_dataset
        cfg = train.Stage1Config(k_groups=3)
        a = train.run_stage1(tb, eb, tiny_arch, _quick_cfg(), cfg, tmp_path / "a")
        b = train.run_stage1(tb, eb, tiny_arch, _quick_cfg(), cfg, tmp_path / "b")
        pa = nn.load_checkpoint(a.checkpoint_dir)
        pb = nn.load_checkpoint(b.checkpoint_dir)
        assert pa.params.byte_hash() == pb.params.byte_hash()
        assert a.checkpoint_dir.read_bytes() == b.checkpoint_dir.read_bytes()

    def test_zero_epochs_checkpoint_equals_init(self, tiny_dataset, tiny_arch, tmp_path):
        tb, eb = tiny_dataset
        result = train.run_stage1(
            tb, eb, tiny_arch, _quick_cfg(epochs=0, warmup_epochs=0),
            train.Stage1Config(k_groups=3), tmp_path / "zero",
        )
        loaded = nn.load_checkpoint(result.checkpoint_dir)
        assert loaded.params.byte_hash() == nn.init_params(tiny_arch, 0).byte_hash()
        assert loaded.step == 0

    def test_resume_reproduces_uninterrupted_run(
        self, tiny_dataset, tiny_arch, tmp_path, monkeypatch
    ):
        tb, eb = tiny_dataset
        cfg = train.Stage1Config(k_groups=3)
        full = train.run_stage1(tb, eb, tiny_arch, _quick_cfg(epochs=6), cfg, tmp_path / "full")
        # 2 steps per epoch: stop after 3 epochs.
        _interrupt_before_step(
            monkeypatch,
            6,
            lambda: train.run_stage1(
                tb, eb, tiny_arch, _quick_cfg(epochs=6), cfg, tmp_path / "part"
            ),
        )
        resumed = train.run_stage1(
            tb, eb, tiny_arch, _quick_cfg(epochs=6), cfg, tmp_path / "part", resume=True
        )
        a = nn.load_checkpoint(full.checkpoint_dir)
        b = nn.load_checkpoint(resumed.checkpoint_dir)
        assert a.params.byte_hash() == b.params.byte_hash()
        assert a.step == b.step
        np.testing.assert_array_equal(a.opt_state["m"], b.opt_state["m"])
        np.testing.assert_array_equal(a.opt_state["v"], b.opt_state["v"])
        # Bytes, not dicts: heldout_group_cosines may hold NaN.
        assert (tmp_path / "full" / "metrics.json").read_bytes() == (
            tmp_path / "part" / "metrics.json"
        ).read_bytes()

    def test_resume_with_other_k_groups_refused(self, tiny_dataset, tiny_arch, tmp_path):
        tb, eb = tiny_dataset
        run = tmp_path / "run"
        train.run_stage1(
            tb, eb, tiny_arch, _quick_cfg(), train.Stage1Config(k_groups=3), run,
        )
        with pytest.raises(InconsistencyError):
            train.run_stage1(
                tb, eb, tiny_arch, _quick_cfg(), train.Stage1Config(k_groups=2), run,
                resume=True,
            )
        train.run_stage1(
            tb, eb, tiny_arch, _quick_cfg(), train.Stage1Config(k_groups=3), run, resume=True
        )

    def test_resume_with_other_scenes_of_the_same_count_refused(
        self, tiny_dataset, other_dataset, tiny_arch, tmp_path
    ):
        tb, eb = tiny_dataset
        cfg, run = train.Stage1Config(k_groups=3), tmp_path / "run"
        train.run_stage1(tb, eb, tiny_arch, _quick_cfg(), cfg, run)
        with pytest.raises(InconsistencyError):
            train.run_stage1(*other_dataset, tiny_arch, _quick_cfg(), cfg, run, resume=True)

    @pytest.mark.parametrize("other", ["dataset", "k_groups"])
    def test_refused_resume_leaves_every_file_as_it_was(
        self, tiny_dataset, other_dataset, tiny_arch, tmp_path, other
    ):
        run = tmp_path / "run"
        train.run_stage1(
            *tiny_dataset, tiny_arch, _quick_cfg(), train.Stage1Config(k_groups=3), run,
        )
        before = _dir_bytes(run)
        # Either change gives the resume another weight table.
        dataset, k_groups = (other_dataset, 3) if other == "dataset" else (tiny_dataset, 2)
        with pytest.raises(InconsistencyError):
            train.run_stage1(
                *dataset, tiny_arch, _quick_cfg(), train.Stage1Config(k_groups=k_groups), run,
                resume=True,
            )
        assert _dir_bytes(run) == before

    def test_dataset_metrics_are_one_loss_over_every_scene(
        self, many_scenes, tiny_arch, tmp_path, monkeypatch
    ):
        tb, eb = many_scenes[:20], many_scenes[20:]
        calls = []
        stage1_loss = stage1.stage1_loss

        def recording(*args):
            loss = stage1_loss(*args)
            calls.append((len(args[4]), loss.item()))
            return loss

        monkeypatch.setattr(stage1, "stage1_loss", recording)
        result = train.run_stage1(
            tb, eb, tiny_arch, _quick_cfg(epochs=1, batch_size=4),
            train.Stage1Config(k_groups=3), tmp_path / "run",
        )
        # The initial metrics, five steps of 4 scenes, then the final metrics.
        assert [n for n, _ in calls] == [20] + [4] * 5 + [20]
        initial = blobio.load_manifest(tmp_path / "run" / "initial_metrics.json")
        assert initial["loss"] == calls[0][1]
        assert result.metrics["final_loss"] == calls[-1][1]

    def test_non_finite_value_in_a_step_keeps_last_good_checkpoint(
        self, tiny_dataset, tiny_arch, tmp_path
    ):
        tb, eb = tiny_dataset
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergedRunError) as err:
            train.run_stage1(
                tb, eb, tiny_arch, _quick_cfg(base_lr=1e200), train.Stage1Config(k_groups=3),
                tmp_path / "div",
            )
        assert isinstance(err.value.__cause__, NonFiniteError)
        assert err.value.op == err.value.__cause__.op
        assert err.value.op in str(err.value)
        ckpt = nn.load_checkpoint(tmp_path / "div" / "checkpoint")
        # The first step of epoch 1 overflows; the checkpoint holds the state before it.
        assert ckpt.step == err.value.step - 1 == 2
        assert ckpt.opt_state["t"] == ckpt.step
        assert all(np.all(np.isfinite(t.data)) for t in ckpt.params.tensors.values())

    def test_resume_after_divergence_logs_each_step_once(self, tiny_dataset, tiny_arch, tmp_path):
        import csv

        tb, eb = tiny_dataset
        for resume in (False, True):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergedRunError):
                train.run_stage1(
                    tb, eb, tiny_arch, _quick_cfg(batch_size=1, base_lr=1e200),
                    train.Stage1Config(k_groups=3), tmp_path / "div", resume=resume,
                )
        with open(tmp_path / "div" / "metrics.csv") as fh:
            steps = [int(row["step"]) for row in csv.DictReader(fh)]
        assert steps and all(a < b for a, b in zip(steps, steps[1:]))

    def test_non_finite_final_eval_keeps_last_good_checkpoint(
        self, tiny_dataset, tiny_arch, tmp_path
    ):
        tb, eb = tiny_dataset
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergedRunError) as err:
            train.run_stage1(
                tb, eb, tiny_arch, _quick_cfg(base_lr=1e30), train.Stage1Config(k_groups=3),
                tmp_path / "div",
            )
        assert isinstance(err.value.__cause__, NonFiniteError)
        # Every step ran; the parameters after the last one fail the final eval.
        assert err.value.step == 6
        ckpt = nn.load_checkpoint(tmp_path / "div" / "checkpoint")
        assert ckpt.step == ckpt.opt_state["t"] == 6
        assert not (tmp_path / "div" / "metrics.json").exists()
        # A resume re-runs only the final eval, which fails the same way.
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergedRunError) as again:
            train.run_stage1(
                tb, eb, tiny_arch, _quick_cfg(base_lr=1e30), train.Stage1Config(k_groups=3),
                tmp_path / "div", resume=True,
            )
        assert again.value.step == 6
        assert nn.load_checkpoint(tmp_path / "div" / "checkpoint").params.byte_hash() == (
            ckpt.params.byte_hash()
        )

    def test_metrics_csv_schema_and_finite_grad_norms(self, tiny_dataset, tiny_arch, tmp_path):
        import csv

        tb, eb = tiny_dataset
        result = train.run_stage1(
            tb, eb, tiny_arch, _quick_cfg(), train.Stage1Config(k_groups=3), tmp_path / "m"
        )
        with open(Path(result.checkpoint_dir).parent / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [c for c in rows[0]] == train._METRIC_COLUMNS == [
            "epoch", "step", "lr", "loss", "l_ins", "l_token", "l_final", "grad_norm",
            "wall_ms", "fwd_ms", "bwd_ms", "opt_ms", "n_visible", "n_masked",
        ]
        assert len(rows) == 6  # 3 epochs x 2 batches
        assert all(r["n_visible"] == r["n_masked"] == "" for r in rows)
        assert all(math.isfinite(float(r["grad_norm"])) for r in rows)
        assert all(math.isfinite(float(r["loss"])) for r in rows)
        for r in rows:
            phases = [float(r[c]) for c in ("fwd_ms", "bwd_ms", "opt_ms")]
            assert min(phases) >= 0.0
            # Each column is rounded to 1 us; the phases nest inside wall_ms.
            assert sum(phases) <= float(r["wall_ms"]) + 0.002

    def test_weight_table_persisted(self, tiny_dataset, tiny_arch, tmp_path):
        from samdistill import stage1

        tb, eb = tiny_dataset
        train.run_stage1(
            tb, eb, tiny_arch, _quick_cfg(), train.Stage1Config(k_groups=3), tmp_path / "wt"
        )
        table, centroids = stage1.load_weight_table(tmp_path / "wt" / "weight_table")
        assert table.n_groups == 3
        assert abs(table.w.sum() - 1.0) <= 1e-12

    def test_knn_tokenizer_mode_runs(self, tiny_dataset, tiny_arch, tmp_path):
        tb, eb = tiny_dataset
        result = train.run_stage1(
            tb, eb, tiny_arch, _quick_cfg(),
            train.Stage1Config(k_groups=3, tokenizer_mode=tokenizer.MODE_KNN),
            tmp_path / "knn",
        )
        assert result.metrics["tokenizer"] == "knn"

    @pytest.mark.parametrize("mode", [tokenizer.MODE_SAM, tokenizer.MODE_KNN])
    def test_pools_each_scene_once(self, tiny_dataset, tiny_arch, tmp_path, monkeypatch, mode):
        tb, eb = tiny_dataset
        masks = []
        pool = stage1.pool_features_by_region

        def counting(feat2d, mask):
            masks.append(mask)
            return pool(feat2d, mask)

        monkeypatch.setattr(stage1, "pool_features_by_region", counting)
        train.run_stage1(
            tb, eb, tiny_arch, _quick_cfg(),
            train.Stage1Config(k_groups=3, tokenizer_mode=mode), tmp_path / "r",
        )
        # Every training scene, then every held-out scene, once each.
        assert [id(m) for m in masks] == [id(b.mask) for b in tb + eb]


@pytest.fixture(scope="module")
def teacher_ckpt(tiny_dataset, tiny_arch, tmp_path_factory):
    tb, eb = tiny_dataset
    out = tmp_path_factory.mktemp("teacher")
    result = train.run_stage1(
        tb, eb, tiny_arch, _quick_cfg(), train.Stage1Config(k_groups=3), out
    )
    return result.checkpoint_dir


class TestRunStage2:

    def test_determinism_and_teacher_freeze(self, tiny_dataset, teacher_ckpt, tmp_path):
        tb, eb = tiny_dataset
        cfg = train.Stage2Config(mask_ratio=0.5)
        a = train.run_stage2(tb, eb, teacher_ckpt, _quick_cfg(), cfg, tmp_path / "a")
        b = train.run_stage2(tb, eb, teacher_ckpt, _quick_cfg(), cfg, tmp_path / "b")
        assert a.metrics["teacher_hash_unchanged"]
        pa = nn.load_checkpoint(a.checkpoint_dir)
        pb = nn.load_checkpoint(b.checkpoint_dir)
        assert pa.params.byte_hash() == pb.params.byte_hash()

    def test_init_from_teacher_vs_scratch(self, tiny_dataset, teacher_ckpt, tmp_path):
        tb, eb = tiny_dataset
        teacher_hash = nn.load_checkpoint(teacher_ckpt).params.byte_hash()
        a = train.run_stage2(
            tb, eb, teacher_ckpt, _quick_cfg(epochs=0, warmup_epochs=0),
            train.Stage2Config(init_from_teacher=True), tmp_path / "teach",
        )
        assert nn.load_checkpoint(a.checkpoint_dir).params.byte_hash() == teacher_hash
        b = train.run_stage2(
            tb, eb, teacher_ckpt, _quick_cfg(epochs=0, warmup_epochs=0),
            train.Stage2Config(init_from_teacher=False), tmp_path / "scratch",
        )
        assert nn.load_checkpoint(b.checkpoint_dir).params.byte_hash() != teacher_hash

    def test_resume_matches_uninterrupted(self, tiny_dataset, teacher_ckpt, tmp_path, monkeypatch):
        tb, eb = tiny_dataset
        cfg = train.Stage2Config(mask_ratio=0.5)
        full = train.run_stage2(tb, eb, teacher_ckpt, _quick_cfg(epochs=4), cfg, tmp_path / "f")
        # 2 steps per epoch: stop after 2 epochs.
        _interrupt_before_step(
            monkeypatch,
            4,
            lambda: train.run_stage2(
                tb, eb, teacher_ckpt, _quick_cfg(epochs=4), cfg, tmp_path / "p"
            ),
        )
        resumed = train.run_stage2(
            tb, eb, teacher_ckpt, _quick_cfg(epochs=4), cfg, tmp_path / "p", resume=True
        )
        assert (
            nn.load_checkpoint(full.checkpoint_dir).params.byte_hash()
            == nn.load_checkpoint(resumed.checkpoint_dir).params.byte_hash()
        )
        assert (tmp_path / "f" / "metrics.json").read_bytes() == (
            tmp_path / "p" / "metrics.json"
        ).read_bytes()

    def test_resume_against_another_teacher_refused(self, tiny_dataset, tiny_arch, tmp_path):
        tb, eb = tiny_dataset
        for seed in (1, 2):
            teacher = nn.init_params(tiny_arch, seed)
            nn.save_checkpoint(tmp_path / f"teacher{seed}", teacher, 0)
        cfg = train.Stage2Config(mask_ratio=0.5)
        run = tmp_path / "run"
        train.run_stage2(tb, eb, tmp_path / "teacher1", _quick_cfg(), cfg, run)
        with pytest.raises(InconsistencyError):
            train.run_stage2(tb, eb, tmp_path / "teacher2", _quick_cfg(), cfg, run, resume=True)
        train.run_stage2(tb, eb, tmp_path / "teacher1", _quick_cfg(), cfg, run, resume=True)

    def test_resume_with_other_scenes_or_mask_ratio_refused(
        self, tiny_dataset, teacher_ckpt, tmp_path
    ):
        tb, eb = tiny_dataset
        run = tmp_path / "run"
        train.run_stage2(
            tb, eb, teacher_ckpt, _quick_cfg(), train.Stage2Config(mask_ratio=0.5), run,
        )
        with pytest.raises(InconsistencyError):
            train.run_stage2(
                tb[:3], eb, teacher_ckpt, _quick_cfg(), train.Stage2Config(mask_ratio=0.2), run,
                resume=True,
            )

    def test_resume_with_other_scenes_of_the_same_count_refused(
        self, tiny_dataset, other_dataset, teacher_ckpt, tmp_path
    ):
        tb, eb = tiny_dataset
        cfg, run = train.Stage2Config(mask_ratio=0.5), tmp_path / "run"
        train.run_stage2(tb, eb, teacher_ckpt, _quick_cfg(), cfg, run)
        with pytest.raises(InconsistencyError):
            train.run_stage2(*other_dataset, teacher_ckpt, _quick_cfg(), cfg, run, resume=True)

    def test_teacher_runs_once_per_scene(self, tiny_dataset, teacher_ckpt, tmp_path, monkeypatch):
        tb, eb = tiny_dataset
        calls = []
        teacher_forward = stage2.teacher_forward

        def counting(batch, *args):
            calls.append(batch.centroids.copy())
            return teacher_forward(batch, *args)

        monkeypatch.setattr(stage2, "teacher_forward", counting)
        train.run_stage2(
            tb, eb, teacher_ckpt, _quick_cfg(), train.Stage2Config(mask_ratio=0.5), tmp_path / "r"
        )
        # One packed forward, whatever the batch_size: the 4 train scenes,
        # then the 2 held out.
        assert len(calls) == 1
        expected = [tokenizer.sam_tokenize(b).centroids for b in tb + eb]
        np.testing.assert_array_equal(np.concatenate(calls), np.concatenate(expected))

    def test_teacher_runs_once_over_more_than_16_scenes(
        self, many_scenes, teacher_ckpt, tmp_path, monkeypatch
    ):
        tb, eb = many_scenes[:20], many_scenes[20:]
        calls = []
        teacher_forward = stage2.teacher_forward

        def counting(batch, *args):
            calls.append(len(batch.scenes))
            return teacher_forward(batch, *args)

        monkeypatch.setattr(stage2, "teacher_forward", counting)
        result = train.run_stage2(
            tb, eb, teacher_ckpt, _quick_cfg(epochs=1, batch_size=8),
            train.Stage2Config(mask_ratio=0.5), tmp_path / "r",
        )
        assert calls == [24]
        assert math.isfinite(result.metrics["heldout_l_final"])

    def test_refused_resume_leaves_every_file_as_it_was(self, tiny_dataset, tiny_arch, tmp_path):
        for seed in (1, 2):
            nn.save_checkpoint(tmp_path / f"teacher{seed}", nn.init_params(tiny_arch, seed), 0)
        cfg, run = train.Stage2Config(mask_ratio=0.5), tmp_path / "run"
        train.run_stage2(*tiny_dataset, tmp_path / "teacher1", _quick_cfg(), cfg, run)
        before = _dir_bytes(run)
        with pytest.raises(InconsistencyError):
            train.run_stage2(
                *tiny_dataset, tmp_path / "teacher2", _quick_cfg(), cfg, run, resume=True
            )
        assert _dir_bytes(run) == before

    def test_stage2_metrics_columns(self, tiny_dataset, teacher_ckpt, tmp_path):
        import csv

        tb, eb = tiny_dataset
        result = train.run_stage2(
            tb, eb, teacher_ckpt, _quick_cfg(), train.Stage2Config(mask_ratio=0.5),
            tmp_path / "cols",
        )
        with open(Path(result.checkpoint_dir).parent / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        n_tokens = [len(tokenizer.sam_tokenize(b)) for b in tb]
        assert sum(int(row["n_visible"]) + int(row["n_masked"]) for row in rows) == 3 * sum(
            n_tokens
        )
        for row in rows:
            assert row["l_ins"] != "" and row["l_token"] != "" and row["l_final"] != ""
            assert math.isfinite(float(row["l_final"]))
            assert int(row["n_masked"]) > 0 and int(row["n_visible"]) > 0


def _run_artifacts(out_dir: Path) -> dict:
    """Everything a resumed run must reproduce, timings aside."""
    ckpt = nn.load_checkpoint(out_dir / "checkpoint")
    return {
        "params": ckpt.params.byte_hash(),
        "m": ckpt.opt_state["m"].tobytes(),
        "v": ckpt.opt_state["v"].tobytes(),
        "t": ckpt.opt_state["t"],
        "metrics.json": (out_dir / "metrics.json").read_bytes(),
        "initial_metrics.json": (out_dir / "initial_metrics.json").read_bytes(),
        "metrics.csv": _csv_without_timings(out_dir / "metrics.csv"),
    }


@pytest.fixture()
def stage1_run(tiny_dataset, tiny_arch):
    tb, eb = tiny_dataset

    def run(out, resume):
        train.run_stage1(
            tb, eb, tiny_arch, _quick_cfg(batch_size=3), train.Stage1Config(k_groups=3), out,
            resume=resume,
        )

    return run


@pytest.fixture()
def stage2_run(tiny_dataset, teacher_ckpt):
    tb, eb = tiny_dataset

    def run(out, resume):
        train.run_stage2(
            tb, eb, teacher_ckpt, _quick_cfg(batch_size=3), train.Stage2Config(mask_ratio=0.5),
            out, resume=resume,
        )

    return run


class TestResumeAfterAFailureAtEveryStep:
    """A failure at step k before AdamW writes saves the state before step k.

    A resume from that checkpoint finishes the run as if nothing had failed.
    """

    STEPS = 6  # 3 epochs of two uneven batches, 3 and 1 of the 4 train scenes

    def _sweep(self, run, tmp_path, monkeypatch, fault=None):
        """Fail each step in turn: a NaN gradient, or ``fault`` raised before AdamW."""
        run(tmp_path / "full", resume=False)
        expected = _run_artifacts(tmp_path / "full")
        adamw_step = train.adamw_step
        for k in range(1, self.STEPS + 1):
            calls = []

            def failing(params, *args):
                calls.append(k)
                if len(calls) == k:
                    if fault is not None:
                        raise fault(f"injected before AdamW at step {k}")
                    params.grad[0] = np.nan
                return adamw_step(params, *args)

            out = tmp_path / f"fail_at_{k}"
            with monkeypatch.context() as patch, pytest.raises(fault or DivergedRunError) as err:
                patch.setattr(train, "adamw_step", failing)
                run(out, resume=False)
            if fault is None:
                assert err.value.step == k
            ckpt = nn.load_checkpoint(out / "checkpoint")
            assert ckpt.step == ckpt.opt_state["t"] == k - 1
            run(out, resume=True)
            assert _run_artifacts(out) == expected, f"{fault or 'NaN'} at step {k}"

    def test_stage1(self, stage1_run, tmp_path, monkeypatch):
        self._sweep(stage1_run, tmp_path, monkeypatch)

    def test_stage2(self, stage2_run, tmp_path, monkeypatch):
        self._sweep(stage2_run, tmp_path, monkeypatch)

    @pytest.mark.parametrize("fault", [KeyboardInterrupt, OSError])
    def test_stage1_interrupted(self, stage1_run, tmp_path, monkeypatch, fault):
        self._sweep(stage1_run, tmp_path, monkeypatch, fault)

    @pytest.mark.parametrize("fault", [KeyboardInterrupt, OSError])
    def test_stage2_interrupted(self, stage2_run, tmp_path, monkeypatch, fault):
        self._sweep(stage2_run, tmp_path, monkeypatch, fault)

    def test_interrupt_once_adamw_counted_the_step_saves_nothing(
        self, stage1_run, tmp_path, monkeypatch
    ):
        # The buffers may be half written then, so no checkpoint is better than a torn one.
        adamw_step = train.adamw_step

        def interrupted(params, state, *args):
            norm = adamw_step(params, state, *args)
            if state["t"] == 2:
                raise KeyboardInterrupt
            return norm

        monkeypatch.setattr(train, "adamw_step", interrupted)
        with pytest.raises(KeyboardInterrupt):
            stage1_run(tmp_path / "run", resume=False)
        assert not (tmp_path / "run" / "checkpoint").exists()


class TestArtifactWriteFaults:
    """A failed file write anywhere in a run loses nothing that a rerun cannot restore.

    The k-th call of each write step fails, for every k: writing an
    artifact file, writing a JSON file and the ``os.replace`` that puts
    either in place. The run then resumes if its checkpoint loads, or
    reruns from scratch, and must end with the uninterrupted run's
    artifacts and no temporary file. This is ALICE's crash sweep (Pillai
    et al., OSDI 2014) cut down to faults a process sees; nothing is
    fsynced, so it makes no claim about a power loss.
    """

    TARGETS = ((blobio, "write_blob"), (blobio, "dump_manifest"), (os, "replace"))

    @staticmethod
    def _failing(original, k: int, error: type[BaseException], calls: list):
        """``original``, logging each call in ``calls`` and raising ``error`` at the k-th."""

        def fail_kth(*args, **kwargs):
            calls.append(args)
            if len(calls) == k:
                raise error(f"injected into call {k}")
            return original(*args, **kwargs)

        return fail_kth

    def _sweep(self, run, tmp_path, monkeypatch):
        counts = {name: [] for _, name in self.TARGETS}
        with monkeypatch.context() as patch:
            for owner, name in self.TARGETS:
                counting = self._failing(getattr(owner, name), 0, OSError, counts[name])
                patch.setattr(owner, name, counting)
            run(tmp_path / "full", resume=False)
        expected = _run_artifacts(tmp_path / "full")
        faults = [
            (owner, name, k, OSError)
            for owner, name in self.TARGETS
            for k in range(1, len(counts[name]) + 1)
        ]
        # The replace that puts the last checkpoint in place, interrupted.
        faults.append((os, "replace", len(counts["replace"]) - 1, KeyboardInterrupt))
        for owner, name, k, error in faults:
            out = tmp_path / f"{name}_{k}_{error.__name__}"
            with monkeypatch.context() as patch, pytest.raises(error):
                patch.setattr(owner, name, self._failing(getattr(owner, name), k, error, []))
                run(out, resume=False)
            assert not list(out.rglob("*.tmp"))
            try:
                nn.load_checkpoint(out / "checkpoint")
                resume = True
            except MalformedManifestError:
                resume = False
            run(out, resume=resume)
            assert _run_artifacts(out) == expected, f"{error.__name__} in {name} call {k}"
            assert not list(out.rglob("*.tmp"))
        return counts

    def test_stage1(self, stage1_run, tmp_path, monkeypatch):
        counts = self._sweep(stage1_run, tmp_path, monkeypatch)
        # The weight table and the checkpoint; initial and final metrics; one replace each.
        assert {name: len(calls) for name, calls in counts.items()} == {
            "write_blob": 2, "dump_manifest": 2, "replace": 4,
        }

    def test_stage2(self, stage2_run, tmp_path, monkeypatch):
        counts = self._sweep(stage2_run, tmp_path, monkeypatch)
        assert {name: len(calls) for name, calls in counts.items()} == {
            "write_blob": 1, "dump_manifest": 2, "replace": 3,
        }


def _graph_nodes(*outs: T.Tensor) -> list[T.Tensor]:
    """Every node reachable from ``outs`` through ``_parents``, leaves included."""
    seen, nodes, stack = set(), [], list(outs)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def _op_nodes(*outs: T.Tensor) -> int:
    """How many of the nodes reachable from ``outs`` are ops, not leaves."""
    return sum(node._op != "leaf" for node in _graph_nodes(*outs))


def _graph_sizes(monkeypatch) -> list[tuple[int, int]]:
    """Record, at every backward, how many nodes the loss's graph holds and how many are ops."""
    sizes = []
    backward = T.Tensor.backward

    def counting(loss):
        nodes = _graph_nodes(loss)
        sizes.append((len(nodes), sum(node._op != "leaf" for node in nodes)))
        backward(loss)

    monkeypatch.setattr(T.Tensor, "backward", counting)
    return sizes


class TestOneGraphPerBatch:
    """A batch of 8 scenes builds exactly as many graph nodes as a batch of 1."""

    @pytest.fixture(scope="class")
    def eight_scenes(self, tiny_arch):
        spec = scene.SceneSpec(
            n_objects=3, seed=0, feature_dim=tiny_arch.proj_dim, points_per_object_range=(20, 30)
        )
        return scene.generate_dataset(spec, 8, 7)

    def test_stage1(self, eight_scenes, tiny_arch, tmp_path, monkeypatch):
        sizes = _graph_sizes(monkeypatch)
        for batch_size in (8, 1):
            train.run_stage1(
                eight_scenes, [], tiny_arch, _quick_cfg(epochs=1, batch_size=batch_size),
                train.Stage1Config(k_groups=3), tmp_path / str(batch_size),
            )
        assert len(sizes) == 1 + 8
        assert len(set(sizes)) == 1

    def test_stage2(self, eight_scenes, teacher_ckpt, tmp_path, monkeypatch):
        sizes = _graph_sizes(monkeypatch)
        for batch_size in (8, 1):
            train.run_stage2(
                eight_scenes, [], teacher_ckpt, _quick_cfg(epochs=1, batch_size=batch_size),
                train.Stage2Config(mask_ratio=0.5), tmp_path / str(batch_size),
            )
        assert len(sizes) == 1 + 8
        assert len(set(sizes)) == 1



class TestStage1NodesPerSceneStep:
    """Graph nodes of a batch-1 stage-1 step on the default Arch, pinned exactly.

    A change that moves a count updates these pins and logs old -> new in
    CHANGES.md.
    """

    SPEC = scene.SceneSpec(n_objects=3, seed=0, points_per_object_range=(20, 30))

    def test_whole_step(self, tmp_path, monkeypatch):
        sizes = _graph_sizes(monkeypatch)
        train.run_stage1(
            scene.generate_dataset(self.SPEC, 2, 7), [], nn.Arch(),
            _quick_cfg(epochs=1, batch_size=1), train.Stage1Config(k_groups=2), tmp_path,
        )
        # 44 ops, plus 51 parameter leaves and 2 constants (centroids, targets).
        assert sizes == [(97, 44)] * 2

    def test_per_layer(self):
        bundle = scene.generate_scene(self.SPEC)
        params = _trainable(nn.init_params(nn.Arch(), seed=0))
        batch = nn.TokenBatch.of_scene(
            bundle, tokenizer.sam_tokenize(bundle), params.arch.max_points_per_token
        )
        embedded = nn.embed_tokens(batch, params)
        pos = nn.pos_embed(batch.centroids, params)
        h = T.add(embedded, pos)
        encoded = nn.encode(h, params, batch.scenes)
        f3d = stage1.project_3d(encoded, params)
        table, _ = stage1.build_weight_table(np.zeros((1, f3d.shape[1])), 1, 0)
        loss = stage1.stage1_loss(
            np.zeros(f3d.shape), f3d, table, np.zeros(len(batch), int), reweight=False
        )
        totals = [_op_nodes(t) for t in (embedded, pos, h, encoded, f3d, loss)]
        # embed_tokens 1, pos_embed 3, their sum 1, encode 37, project_3d 1, loss 1.
        assert totals == [1, 3, 5, 42, 43, 44]


class _FitCaptured(Exception):
    pass


class TestStage1TrainableSet:
    """Stage 1 trains exactly the parameters its loss reaches."""

    @staticmethod
    def _fit_arguments(monkeypatch, tiny_dataset, tiny_arch, tmp_path) -> dict:
        """The arguments ``run_stage1`` passes to ``train._fit``, which then does not run."""
        captured, signature = {}, inspect.signature(train._fit)

        def fit(*args, **kwargs):
            captured.update(signature.bind(*args, **kwargs).arguments)
            raise _FitCaptured

        monkeypatch.setattr(train, "_fit", fit)
        tb, eb = tiny_dataset
        with pytest.raises(_FitCaptured):
            train.run_stage1(
                tb, eb, tiny_arch, _quick_cfg(), train.Stage1Config(k_groups=3), tmp_path
            )
        return captured

    def test_trainable_set_is_what_a_batch_loss_reaches(
        self, tiny_dataset, tiny_arch, tmp_path, monkeypatch
    ):
        fit = self._fit_arguments(monkeypatch, tiny_dataset, tiny_arch, tmp_path)
        params = _trainable(fit["fresh_params"]())
        loss, _ = fit["batch_loss"](params, np.array([0, 1]), 0)
        names = {id(t): name for name, t in params.tensors.items()}
        reached = {names[id(node)] for node in _graph_nodes(loss) if id(node) in names}
        assert reached == {name for name in params.names() if fit["trains"](name)}
        assert reached.isdisjoint({"mask_query", "dec.ln_f.g", "pred.l1.w", "dec0.attn.wq"})

    def test_run_leaves_the_other_parameters_and_their_moments_untouched(
        self, tiny_dataset, tiny_arch, tmp_path
    ):
        tb, eb = tiny_dataset
        run = train.run_stage1(
            tb, eb, tiny_arch, _quick_cfg(), train.Stage1Config(k_groups=3), tmp_path
        )
        ckpt = nn.load_checkpoint(run.checkpoint_dir)
        init = nn.init_params(tiny_arch, seed=0)
        moments = [ckpt.params.views(ckpt.opt_state[key]) for key in ("m", "v")]
        frozen = [name for name in ckpt.params.names() if not stage1.trains(name)]
        assert frozen and all(name.startswith(("dec", "pred.", "mask_query")) for name in frozen)
        for name, t in ckpt.params.tensors.items():
            if stage1.trains(name):
                assert t.data.tobytes() != init.tensors[name].data.tobytes(), name
            else:
                assert t.data.tobytes() == init.tensors[name].data.tobytes(), name
                assert not any(np.any(m[name]) for m in moments), name


def test_stage2_student_forward_nodes():
    """Op nodes of one student forward on a fixed 8-scene batch, default Arch, pinned exactly.

    A change that moves the count updates this pin and logs old -> new in
    CHANGES.md.
    """
    params = _trainable(nn.init_params(nn.Arch(), seed=0))
    bundles = scene.generate_dataset(TestStage1NodesPerSceneStep.SPEC, 8, 5)
    batch = nn.TokenBatch.stack(
        [
            nn.TokenBatch.of_scene(b, tokenizer.sam_tokenize(b), params.arch.max_points_per_token)
            for b in bundles
        ]
    )
    plans = [
        nn.make_mask_plan(int(m), 0.6, seed=0, scene_id=i, epoch=0)
        for i, m in enumerate(batch.scenes.counts)
    ]
    f_ins, preds = stage2.student_forward(batch, plans, params)
    # embed_tokens 1, two pos_embed 3 each, two sums 1 each, encode 37,
    # mean_pool 1, fill_masked_positions 3, decode 13, gather_rows 1.
    assert _op_nodes(f_ins, preds) == 64


class TestEpochOrder:
    def test_deterministic_per_key(self):
        a = train._epoch_order(10, seed=1, epoch=5)
        b = train._epoch_order(10, seed=1, epoch=5)
        np.testing.assert_array_equal(a, b)
        c = train._epoch_order(10, seed=1, epoch=6)
        assert not np.array_equal(a, c)
        assert sorted(a.tolist()) == list(range(10))
