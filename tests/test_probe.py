"""Linear probe: chance level, separable oracle, split validation, graph-free fit."""

import numpy as np
import pytest

from samdistill import nn, probe, scene, tokenizer
from samdistill import tensor as T
from samdistill.errors import BadSplitError, InvalidInputError, NonFiniteError
from samdistill.train import TrainConfig, adamw_step, init_opt_state, lr_at


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


def _graph_fit(train_x, train_y, test_x, test_y, n_classes, epochs, seed):
    """The probe fit on the autodiff engine: the oracle for the closed-form fit.

    Returns the final probe weights' byte_hash, the accuracy and the
    per-class accuracies.
    """
    mean = train_x.mean(axis=0)
    std = np.maximum(train_x.std(axis=0), 1e-6)
    xt = (train_x - mean) / std
    xe = (test_x - mean) / std
    rng = np.random.default_rng(np.random.SeedSequence([0x9B0E, seed]))
    params = nn.ModelParams.from_arrays(
        {"probe.w": rng.normal(0.0, 0.01, (xt.shape[1], n_classes)), "probe.b": np.zeros(n_classes)}
    )
    params.set_trainable(True)
    w, b = params.tensors["probe.w"], params.tensors["probe.b"]
    cfg = TrainConfig(
        base_lr=probe._PROBE_LR, weight_decay=0.0, epochs=epochs, warmup_epochs=0, seed=seed
    )
    state = init_opt_state(params)
    x_const = T.constant(xt)
    for epoch in range(epochs):
        params.zero_grad()
        loss = T.cross_entropy(T.linear(x_const, w, b), train_y)
        loss.backward()
        adamw_step(params, state, lr_at(epoch, epochs, cfg), 0.0)
    correct = (xe @ w.data + b.data).argmax(axis=1) == test_y
    per_class = [
        float(correct[test_y == c].mean()) if np.any(test_y == c) else float("nan")
        for c in range(n_classes)
    ]
    return params.byte_hash(), float(correct.mean()), per_class


def _fit_recording_params(monkeypatch, *args, **kwargs):
    """``fit_linear_probe``'s result, the probe params it stepped and its AdamW call count."""
    stepped = []

    def recording_adamw_step(params, *rest):
        stepped.append(params)
        return adamw_step(params, *rest)

    monkeypatch.setattr(probe, "adamw_step", recording_adamw_step)
    result = probe.fit_linear_probe(*args, **kwargs)
    return result, stepped[-1], len(stepped)


def _class_data(rng, n_train, n_test, dim, labels):
    """Features shifted by a per-class mean, so the fit has something to learn."""
    centres = rng.normal(0, 1, (max(labels) + 1, dim))
    train_y = rng.choice(labels, n_train)
    test_y = rng.choice(labels, n_test)
    train_x = centres[train_y] + rng.normal(0, 1.5, (n_train, dim))
    test_x = centres[test_y] + rng.normal(0, 1.5, (n_test, dim))
    return train_x, train_y, test_x, test_y


@pytest.mark.parametrize(
    "n_train, dim, n_classes, labels",
    [
        (96, 64, 4, [0, 1, 2, 3]),
        (60, 3, 3, [0, 1, 2]),
        (400, 16, 4, [0, 1, 2, 3]),
        (37, 5, 6, [0, 1, 2, 4, 5]),  # class 3 absent from both splits
    ],
)
def test_closed_form_fit_has_the_bits_of_the_graph_fit(
    rng, monkeypatch, n_train, dim, n_classes, labels
):
    data = _class_data(rng, n_train, 50, dim, labels)
    epochs = 120
    (acc, per_class), params, _ = _fit_recording_params(
        monkeypatch, *data, n_classes, epochs=epochs, seed=3
    )
    want_hash, want_acc, want_per_class = _graph_fit(*data, n_classes, epochs, seed=3)
    assert params.byte_hash() == want_hash
    assert acc == want_acc
    np.testing.assert_array_equal(per_class, want_per_class)
    assert [c for c in range(n_classes) if np.isnan(per_class[c])] == sorted(
        set(range(n_classes)) - set(labels)
    )


def test_closed_form_fit_builds_no_graph_and_steps_once_per_epoch(rng, monkeypatch):
    # A return to the graph fit would create nodes; the benchmark's traced
    # runs count AdamW steps through probe's own adamw_step binding.
    nodes = []
    real_node = T._node

    def counting_node(*args):
        nodes.append(args[2])
        return real_node(*args)

    monkeypatch.setattr(T, "_node", counting_node)
    data = _class_data(rng, 40, 20, 8, [0, 1, 2])
    _, _, steps = _fit_recording_params(monkeypatch, *data, 3, epochs=37, seed=0)
    assert nodes == []
    assert steps == 37


def test_non_finite_features_raise(rng, monkeypatch):
    steps = []
    monkeypatch.setattr(probe, "adamw_step", lambda *args: steps.append(args))
    for split in (0, 2):
        for bad in (np.nan, np.inf, -np.inf):
            data = list(_class_data(rng, 30, 10, 4, [0, 1]))
            data[split][5, 2] = bad
            with pytest.raises(NonFiniteError) as err:
                probe.fit_linear_probe(*data, 2, epochs=5, seed=0)
            assert err.value.op == "linear"
    assert steps == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_logits_raise_in_the_epoch_they_appear(rng, monkeypatch, bad):
    steps = []

    def poisoning_step(params, *rest):
        steps.append(adamw_step(params, *rest))
        params.tensors["probe.w"].data[1, 0] = bad

    monkeypatch.setattr(probe, "adamw_step", poisoning_step)
    data = _class_data(rng, 30, 10, 4, [0, 1])
    with pytest.raises(NonFiniteError) as err:
        probe.fit_linear_probe(*data, 2, epochs=5, seed=0)
    assert err.value.op == "linear"
    assert len(steps) == 1


@pytest.mark.parametrize("empty", ["train", "test"])
def test_empty_split_raises_before_tokenizing(probe_data, tiny_arch, monkeypatch, empty):
    train_b, test_b = probe_data
    splits = {"train": train_b, "test": test_b, empty: []}

    def no_tokenizing(bundle):
        raise AssertionError("tokenized a scene of a split that cannot be probed")

    monkeypatch.setattr(probe, "sam_tokenize", no_tokenizing)
    with pytest.raises(BadSplitError, match=empty):
        probe.linear_probe(nn.init_params(tiny_arch, seed=5), splits["train"], splits["test"])


@pytest.mark.parametrize("bad_label", [-1, 3])
def test_out_of_range_training_label_raises(rng, bad_label):
    train_x, train_y, test_x, test_y = _class_data(rng, 30, 10, 4, [0, 1, 2])
    train_y[7] = bad_label
    with pytest.raises(InvalidInputError):
        probe.fit_linear_probe(train_x, train_y, test_x, test_y, 3, epochs=5, seed=0)


def test_features_of_more_than_16_scenes_come_from_one_packed_forward(
    many_scenes, tiny_arch, monkeypatch
):
    params = nn.init_params(tiny_arch, seed=0)
    single = [probe.extract_features([b], params) for b in many_scenes]
    calls = []
    forward_tokens = nn.forward_tokens

    def counting(batch, *args):
        calls.append(len(batch.scenes))
        return forward_tokens(batch, *args)

    monkeypatch.setattr(nn, "forward_tokens", counting)
    feats, labels, counts = probe.extract_features(many_scenes, params)
    assert calls == [24]
    # Scenes of 2, 3 and 4 tokens, each with the bits of its own forward.
    assert feats.tobytes() == np.concatenate([f for f, _, _ in single]).tobytes()
    assert labels.tobytes() == np.concatenate([y for _, y, _ in single]).tobytes()
    assert counts.tolist() == [len(y) for _, y, _ in single]


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


def test_both_splits_come_from_one_packed_forward(probe_data, tiny_arch, monkeypatch):
    train_b, test_b = probe_data
    encoder = nn.init_params(tiny_arch, seed=5)
    train_x, train_y, _ = probe.extract_features(train_b, encoder)
    test_x, test_y, _ = probe.extract_features(test_b, encoder)
    accuracy, per_class = probe.fit_linear_probe(
        train_x, train_y, test_x, test_y, int(max(train_y.max(), test_y.max())) + 1, 50, 1
    )
    calls = []
    forward_tokens = nn.forward_tokens

    def counting(batch, *args):
        calls.append(len(batch.scenes))
        return forward_tokens(batch, *args)

    monkeypatch.setattr(nn, "forward_tokens", counting)
    result = probe.linear_probe(encoder, train_b, test_b, epochs=50, seed=1)
    assert calls == [len(train_b) + len(test_b)]
    # The split is at the train token count, and the fit sees the bits of one forward per split.
    assert (result.accuracy, result.n_tokens) == (accuracy, len(test_y))
    np.testing.assert_array_equal(result.per_class, per_class)


def test_probe_leaves_a_trainable_encoder_as_it_was(probe_data, tiny_arch):
    train_b, test_b = probe_data
    encoder = nn.init_params(tiny_arch, seed=5)
    encoder.set_trainable(True)
    names, grad, data_hash = encoder.trainable_names(), encoder.grad, encoder.byte_hash()
    assert names and grad is not None
    result = probe.linear_probe(encoder, train_b, test_b, epochs=50, seed=1)
    assert encoder.trainable_names() == names
    assert encoder.grad is grad
    assert all(encoder.tensors[n].grad is not None for n in names)
    assert encoder.byte_hash() == data_hash
    frozen = encoder.copy()
    assert frozen.grad is None
    again = probe.linear_probe(frozen, train_b, test_b, epochs=50, seed=1)
    assert again.to_json() == result.to_json()


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
