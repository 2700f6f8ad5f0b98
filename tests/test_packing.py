"""Packed forwards without gradients equal one forward per scene, bit for bit.

On the seed-0 balanced scenes of the acceptance criteria every scene has
12 mask-guided tokens, so the per-scene attention padding is a reshape
and each row's products are the ones a one-scene forward computes.
Scenes of other token counts take the padded path, whose bits may differ
from a one-scene forward; the dataset metrics still must not depend on
``batch_size``.
"""

from dataclasses import replace

import numpy as np
import pytest

from samdistill import nn, probe, scene, stage2, tokenizer, train
from samdistill import tensor as T

SPEC_BALANCED = scene.SceneSpec(
    n_objects=12,
    seed=0,
    imbalance_exponent=0.7,
    n_types=4,
    points_per_object_range=(110, 160),
    depth_levels=2,
)


@pytest.fixture(scope="module")
def bundles():
    return scene.generate_dataset(SPEC_BALANCED, 8, 0)


@pytest.fixture(scope="module")
def batches(bundles):
    max_points = nn.Arch().max_points_per_token
    return [nn.TokenBatch.of_scene(b, tokenizer.sam_tokenize(b), max_points) for b in bundles]


def test_forward_tokens(batches):
    params = nn.init_params(nn.Arch(), seed=0)
    stacked = nn.TokenBatch.stack(batches)
    # Over 4,000 member rows, so the embedder runs in several row blocks.
    assert len(stacked.members) > 4000 and set(stacked.scenes.counts) == {12}
    with T.no_grad():
        packed = nn.forward_tokens(stacked, params).data
        single = [nn.forward_tokens(b, params).data for b in batches]
    assert packed.tobytes() == np.concatenate(single).tobytes()


def test_teacher_forward(batches):
    teacher = nn.init_params(nn.Arch(), seed=1)
    teacher.freeze_all()
    f_ins, dec_out = stage2.teacher_forward(nn.TokenBatch.stack(batches), teacher)
    single = [stage2.teacher_forward(b, teacher) for b in batches]
    assert f_ins.tobytes() == np.concatenate([f for f, _ in single]).tobytes()
    assert dec_out.tobytes() == np.concatenate([d for _, d in single]).tobytes()


@pytest.mark.parametrize("chunk", [nn.EVAL_CHUNK, 3])
def test_probe_features(bundles, chunk, monkeypatch):
    params = nn.init_params(nn.Arch(), seed=2)
    params.freeze_all()
    monkeypatch.setattr(nn, "EVAL_CHUNK", chunk)
    feats, labels = probe.extract_features(bundles, params)
    single = [probe.extract_features([b], params) for b in bundles]
    assert feats.tobytes() == np.concatenate([f for f, _ in single]).tobytes()
    assert labels.tobytes() == np.concatenate([y for _, y in single]).tobytes()


@pytest.fixture(scope="module")
def mixed_bundles(bundles):
    """The 12-token scenes plus one scene of 3 and one of 6 mask-guided tokens."""
    short = [
        scene.generate_scene(replace(SPEC_BALANCED, n_objects=n, seed=n)) for n in (3, 6)
    ]
    mixed = bundles[:4] + short[:1] + bundles[4:] + short[1:]
    counts = [len(tokenizer.sam_tokenize(b)) for b in mixed]
    assert counts == [12] * 4 + [3] + [12] * 4 + [6]
    return mixed


def _initial_metrics(run, tmp_path) -> list[bytes]:
    written = []
    for batch_size in (1, 4):
        out = tmp_path / str(batch_size)
        run(train.TrainConfig(epochs=1, warmup_epochs=1, batch_size=batch_size, seed=0), out)
        written.append((out / "initial_metrics.json").read_bytes())
    return written


def test_stage1_initial_metrics_do_not_depend_on_batch_size(mixed_bundles, tmp_path):
    heldout = scene.generate_dataset(SPEC_BALANCED, 2, 1_000_003)

    def run(cfg, out):
        train.run_stage1(
            mixed_bundles, heldout, nn.Arch(), cfg, train.Stage1Config(k_groups=4), out
        )

    written = _initial_metrics(run, tmp_path)
    assert written[0] == written[1]


def test_stage2_initial_metrics_do_not_depend_on_batch_size(mixed_bundles, tmp_path):
    teacher = tmp_path / "teacher"
    nn.save_checkpoint(teacher, nn.init_params(nn.Arch(), seed=1), 0)

    def run(cfg, out):
        train.run_stage2(mixed_bundles, [], teacher, cfg, train.Stage2Config(), out)

    written = _initial_metrics(run, tmp_path)
    assert written[0] == written[1]
