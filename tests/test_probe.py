"""Linear probe: chance level, separable oracle, split validation."""

import numpy as np
import pytest

from samdistill import nn, probe, scene, tokenizer
from samdistill.errors import BadSplitError, InvalidInputError


@pytest.fixture(scope="module")
def probe_data(tiny_arch):
    spec = scene.SceneSpec(
        n_objects=6, seed=0, feature_dim=tiny_arch.proj_dim,
        points_per_object_range=(20, 30), n_types=3,
    )
    return scene.generate_dataset(spec, 6, 3), scene.generate_dataset(spec, 4, 5)


def test_one_hot_features_reach_full_accuracy(rng):
    n_classes = 3
    train_y = rng.integers(0, n_classes, 60)
    test_y = rng.integers(0, n_classes, 40)
    train_x = np.eye(n_classes)[train_y]
    test_x = np.eye(n_classes)[test_y]
    acc, per_class = probe.fit_linear_probe(
        train_x, train_y, test_x, test_y, n_classes, epochs=200, seed=0
    )
    assert acc == 1.0
    assert all(a == 1.0 for a in per_class)


def test_shuffled_labels_give_chance_accuracy(rng):
    n_classes, n_train, n_test = 4, 400, 600
    # Training labels carry no relation to the features, so held-out
    # accuracy must collapse to chance. Rich continuous features keep the
    # per-token correctness indicators independent, making the binomial
    # band the right yardstick.
    train_x = rng.normal(0, 1, (n_train, 16))
    train_y = rng.integers(0, n_classes, n_train)
    test_x = rng.normal(0, 1, (n_test, 16))
    test_y = rng.integers(0, n_classes, n_test)
    acc, _ = probe.fit_linear_probe(
        train_x, train_y, test_x, test_y, n_classes, epochs=150, seed=0
    )
    p = 1.0 / n_classes
    sigma = np.sqrt(p * (1 - p) / n_test)
    assert abs(acc - p) <= 3 * sigma


def test_bad_split_raises(rng):
    train_x = rng.normal(0, 1, (10, 4))
    train_y = np.zeros(10, dtype=int)
    test_x = rng.normal(0, 1, (5, 4))
    test_y = np.array([0, 0, 1, 0, 0])
    with pytest.raises(BadSplitError):
        probe.fit_linear_probe(train_x, train_y, test_x, test_y, 2, epochs=10, seed=0)


def test_epochs_validation(rng):
    x = rng.normal(0, 1, (4, 2))
    y = np.array([0, 1, 0, 1])
    with pytest.raises(InvalidInputError):
        probe.fit_linear_probe(x, y, x, y, 2, epochs=0, seed=0)


def test_token_labels_are_region_types(probe_data):
    bundles, _ = probe_data
    bundle = bundles[0]
    tokens = tokenizer.sam_tokenize(bundle)
    labels = probe.token_type_labels(bundle, tokens)
    for region_id, label in zip(tokens.region_ids, labels):
        assert label == bundle.region_types[region_id]


def test_token_labels_of_baseline_tokens_are_majority_region_types(probe_data, monkeypatch):
    bundle = probe_data[0][0]
    knn = tokenizer.tokenize(bundle, tokenizer.MODE_KNN)
    majority = tokenizer.majority_regions(knn, tokenizer.point_regions(bundle))
    np.testing.assert_array_equal(
        probe.token_type_labels(bundle, knn), bundle.region_types[majority]
    )
    # Mask-guided tokens are labelled from the regions the tokenizer stored.
    tokens = tokenizer.sam_tokenize(bundle)
    monkeypatch.setattr(tokenizer, "point_regions", None)
    np.testing.assert_array_equal(
        probe.token_type_labels(bundle, tokens), bundle.region_types[tokens.region_ids]
    )


def test_linear_probe_end_to_end_deterministic(probe_data, tiny_arch):
    train_b, test_b = probe_data
    encoder = nn.init_params(tiny_arch, seed=5)
    a = probe.linear_probe(encoder, train_b, test_b, epochs=50, seed=1,
                           encoder_tag=probe.ENCODER_SCRATCH)
    b = probe.linear_probe(encoder.copy(), train_b, test_b, epochs=50, seed=1,
                           encoder_tag=probe.ENCODER_SCRATCH)
    assert a.accuracy == b.accuracy
    assert a.encoder_tag == probe.ENCODER_SCRATCH
    assert a.n_tokens == sum(len(tokenizer.sam_tokenize(x)) for x in test_b)
    assert 0.0 <= a.accuracy <= 1.0


def test_probe_accepts_checkpoint_path(probe_data, tiny_arch, tmp_path):
    train_b, test_b = probe_data
    params = nn.init_params(tiny_arch, seed=5)
    nn.save_checkpoint(tmp_path / "enc", params, step=0)
    via_path = probe.linear_probe(tmp_path / "enc", train_b, test_b, epochs=50, seed=1)
    via_params = probe.linear_probe(params, train_b, test_b, epochs=50, seed=1)
    assert via_path.accuracy == via_params.accuracy


def test_probe_result_json_round_trip(probe_data, tiny_arch):
    train_b, test_b = probe_data
    result = probe.linear_probe(
        nn.init_params(tiny_arch, seed=5), train_b, test_b, epochs=50, seed=1
    )
    obj = result.to_json()
    assert set(obj) == {"accuracy", "per_class", "n_tokens", "encoder_tag"}
    assert obj["accuracy"] == result.accuracy
