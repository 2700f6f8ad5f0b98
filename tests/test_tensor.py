"""Autodiff engine: forward values, exact gradients, and shape discipline."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from samdistill import tensor as T
from samdistill.errors import InvalidInputError, NonFiniteError, ShapeMismatchError

_layout = T.Segments.of_bounds


def _mean(x):
    """Mean of every element of ``x``, as one (1, 1) node chain."""
    return T.mean_pool(T.reshape(x, (x.size, 1)), _layout([0, x.size]))


finite_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 4), st.integers(1, 5)),
    elements=st.floats(-5, 5, allow_nan=False),
)


def test_smooth_l1_linear_branch_value():
    loss = T.smooth_l1(T.constant([0.0]), T.constant([2.0]))
    assert loss.item() == pytest.approx(1.5, abs=1e-12)


def test_smooth_l1_quadratic_branch_value():
    loss = T.smooth_l1(T.constant([0.0]), T.constant([0.5]))
    assert loss.item() == 0.125


def test_smooth_l1_identical_inputs_zero_loss_zero_grad():
    x = T.parameter([1.0, -2.0, 3.0])
    loss = T.smooth_l1(x, T.constant(x.data.copy()))
    loss.backward()
    assert loss.item() == 0.0
    np.testing.assert_array_equal(x.grad, np.zeros(3))


def test_product_rule_scalar():
    x = T.parameter([3.0])
    y = T.mul(x, x)
    y.backward()
    assert x.grad[0] == pytest.approx(6.0, abs=1e-12)


def test_reuse_accumulates_gradient():
    x = T.parameter([5.0])
    out = T.add(x, x)
    out.backward()
    assert x.grad[0] == 2.0


def test_backward_accumulates_across_calls():
    x = T.parameter([2.0])
    T.mul(x, 3.0).backward()
    T.mul(x, 3.0).backward()
    assert x.grad[0] == 6.0


def test_add_bias_broadcast_over_leading_axis():
    a = T.parameter(np.ones((3, 2)))
    b = T.parameter(np.array([1.0, 2.0]))
    out = T.add(a, b)
    np.testing.assert_allclose(out.data, [[2.0, 3.0]] * 3)
    _mean(T.mean_pool(out, _layout([0, 3]))).backward()
    np.testing.assert_allclose(b.grad, [0.5, 0.5])


def test_no_general_broadcasting():
    with pytest.raises(ShapeMismatchError):
        T.add(T.constant(np.ones((3, 2))), T.constant(np.ones((3, 1))))
    with pytest.raises(ShapeMismatchError):
        T.mul(T.constant(np.ones((2, 2))), T.constant(np.ones(2)))
    with pytest.raises(ShapeMismatchError):
        T.matmul(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 3))))


def test_non_finite_forward_signals_op():
    big = T.constant([1e308])
    # The overflow is the point of the test, so numpy's warning about it is expected.
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as err:
        T.mul(big, 1e308)
    assert "scale" in str(err.value)


def test_max_pool_tie_routes_to_lowest_index():
    x = T.parameter(np.array([[3.0, 1.0], [3.0, 2.0]]))
    out = T.max_pool(x, _layout([0, 2]))
    _mean(out).backward()
    np.testing.assert_allclose(x.grad, [[0.5, 0.0], [0.0, 0.5]])


def test_mean_pool_segments():
    x = T.parameter(np.array([[1.0, 3.0], [2.0, 4.0], [6.0, -1.0]]))
    out = T.mean_pool(x, _layout([0, 2, 3]))
    np.testing.assert_array_equal(out.data, [[1.5, 3.5], [6.0, -1.0]])
    T.mse(out, T.constant(np.zeros((2, 2)))).backward()
    g = out.data / 2.0  # d mse / d out, 4 elements
    np.testing.assert_array_equal(x.grad, [g[0] / 2.0, g[0] / 2.0, g[1]])
    with pytest.raises(ShapeMismatchError):
        T.mean_pool(x, _layout([0, 0, 3]))


@pytest.mark.parametrize("m,width", [(1, 3), (7, 64), (12, 64), (40, 5)])
def test_one_segment_mean_pool_matches_numpy_mean_bit_for_bit(m, width, rng):
    x = rng.normal(0.0, 3.0, (m, width))
    out = T.mean_pool(T.constant(x), _layout([0, m]))
    assert out.data.tobytes() == x.mean(axis=0, keepdims=True).tobytes()


@given(st.lists(st.integers(-2, 6), max_size=30))
def test_group_labels_matches_unique(values):
    labels = np.array(values, dtype=np.int32)
    order, ids, segments = T.Segments.group_labels(labels)
    want_ids, want_counts = np.unique(labels[labels >= 0], return_counts=True)
    assert ids.dtype == labels.dtype
    np.testing.assert_array_equal(ids, want_ids)
    np.testing.assert_array_equal(segments.counts, want_counts)
    for rid, lo, hi in zip(ids, segments.bounds[:-1], segments.bounds[1:]):
        np.testing.assert_array_equal(order[lo:hi], np.flatnonzero(labels == rid))
    assert order.size == segments.bounds[-1]


@given(finite_matrices)
def test_softmax_rows_sum_to_one(data):
    y = T.softmax(T.constant(data), axis=1)
    np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-9)


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 4), st.integers(4, 8)),
        elements=st.floats(-10, 10, allow_nan=False),
    )
)
def test_layer_norm_slice_moments(data):
    eps = 1e-5
    out = T.layer_norm(T.constant(data), eps=eps)
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
    # Variance of the normalized slice is var / (var + eps), not exactly 1.
    var = data.var(axis=-1)
    np.testing.assert_allclose(out.data.var(axis=-1), var / (var + eps), atol=1e-6)


def test_layer_norm_eps_validation():
    with pytest.raises(InvalidInputError):
        T.layer_norm(T.constant(np.ones((2, 3))), eps=0.0)


def test_cosine_sim_value_and_zero_norm():
    a = T.constant([1.0, 0.0])
    b = T.constant([1.0, 1.0])
    assert T.cosine_sim(a, b).item() == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    with pytest.raises(NonFiniteError):
        T.cosine_sim(T.constant([0.0, 0.0]), b)


def test_cross_entropy_matches_manual():
    logits = np.array([[2.0, 0.0, -1.0], [0.5, 0.5, 0.5]])
    labels = np.array([0, 2])
    loss = T.cross_entropy(T.constant(logits), labels)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    expected = -np.mean(np.log(p[np.arange(2), labels]))
    assert loss.item() == pytest.approx(expected, abs=1e-12)


def test_no_grad_suppresses_graph():
    x = T.parameter([1.0])
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad
    y2 = T.mul(x, x)
    assert y2.requires_grad


def test_backward_requires_scalar():
    x = T.parameter(np.ones((2, 2)))
    with pytest.raises(ShapeMismatchError):
        T.mul(x, 2.0).backward()


def test_gather_rows_repeats_accumulate():
    x = T.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = T.gather_rows(x, np.array([0, 0, 1]))
    T.mse(out, T.constant(np.zeros((3, 2)))).backward()
    # Row 0 appears twice, so its gradient magnitude doubles row 1's.
    np.testing.assert_allclose(x.grad[0], 2.0 * x.data[0] * 2.0 / 6.0)
    np.testing.assert_allclose(x.grad[1], 2.0 * x.data[1] / 6.0)


def test_grad_check_validates_step():
    x = T.parameter([1.0])
    with pytest.raises(InvalidInputError):
        T.grad_check(lambda: T.mul(x, x), [x], h=1e-2)


def test_grad_check_refuses_an_empty_input_list():
    """A gate over no inputs would pass while checking nothing, e.g. a frozen model's."""
    x = T.parameter([1.0])
    with pytest.raises(InvalidInputError):
        T.grad_check(lambda: T.mul(x, x), [])
    with pytest.raises(InvalidInputError):
        T.grad_check(lambda: T.mul(x, x), (t for t in [x] if not t.requires_grad))


def test_grad_check_constant_function():
    x = T.parameter([1.0, 2.0])
    err = T.grad_check(lambda: T.mse(T.constant([0.0]), T.constant([0.0])), [x])
    assert err == 0.0
    x.zero_grad()
    T.mse(T.constant([0.0]), T.constant([0.0]))
    assert x.grad is None


def test_grad_check_mse_of_linear_map(rng):
    w = T.parameter(rng.normal(0, 1, (4, 3)))
    x = T.constant(rng.normal(0, 1, (2, 4)))
    y = T.constant(rng.normal(0, 1, (2, 3)))
    err = T.grad_check(lambda: T.mse(T.matmul(x, w), y), [w])
    assert err < 1e-4


def test_grad_check_smooth_l1_away_from_kink(rng):
    a = T.parameter(rng.uniform(2.0, 3.0, 6))  # |d| ~ 2.5, far from the kink at 1
    b = T.constant(np.zeros(6))
    err = T.grad_check(lambda: T.smooth_l1(a, b), [a])
    assert err < 1e-5


@pytest.mark.parametrize(
    "builder",
    [
        lambda x: T.mean_pool(T.relu(x), _layout([0, 1, 3])),
        lambda x: T.mean_pool(T.gelu(x), _layout([0, 3])),
        lambda x: T.mean_pool(T.softmax(x, axis=1), _layout([0, 2, 3])),
        lambda x: T.mean_pool(T.layer_norm(x, eps=1e-5), _layout([0, 3])),
        lambda x: T.max_pool(x, _layout([0, 3])),
        lambda x: T.mean_pool(T.transpose(x), _layout([0, 1, 4])),
        lambda x: T.mean_pool(T.reshape(x, (x.size,)), _layout([0, 5, 12])),
        lambda x: T.mean_pool(T.slice_axis(x, 1, 1, 3), _layout([0, 3])),
        lambda x: T.mean_pool(T.gather_rows(x, np.array([1, 0, 1])), _layout([0, 1, 3])),
        lambda x: T.mean_pool(T.concat([x, x], axis=1), _layout([0, 3])),
    ],
)
def test_grad_check_elementwise_and_structural_ops(builder, rng):
    x = T.parameter(rng.normal(0.0, 1.0, (3, 4)))
    target = None

    def f():
        nonlocal target
        out = builder(x)
        if target is None:
            target = rng.normal(0.0, 1.0, out.shape)
        # MSE against a fixed random target keeps the scalar non-degenerate
        # even for ops whose plain mean is constant (softmax, layer_norm).
        return T.mse(out, T.constant(target))

    assert T.grad_check(f, [x]) < 1e-4


def test_grad_check_layer_norm_affine(rng):
    x = T.parameter(rng.normal(0, 1, (3, 5)))
    g = T.parameter(rng.normal(1, 0.1, 5))
    b = T.parameter(rng.normal(0, 0.1, 5))

    def f():
        return _mean(T.layer_norm(x, g, b, eps=1e-5))

    assert T.grad_check(f, [x, g, b]) < 1e-4


def test_grad_check_cosine_and_stack(rng):
    a = T.parameter(rng.normal(0, 1, 5))
    b = T.parameter(rng.normal(0, 1, 5))

    def f():
        s = T.stack([a, b])
        return T.cosine_sim(T.slice_axis(s, 0, 0, 1), T.slice_axis(s, 0, 1, 2))

    assert T.grad_check(f, [a, b]) < 1e-4


def test_grad_check_cross_entropy(rng):
    logits = T.parameter(rng.normal(0, 1, (4, 3)))
    labels = np.array([0, 2, 1, 1])
    assert T.grad_check(lambda: T.cross_entropy(logits, labels), [logits]) < 1e-4


def test_grad_check_refine_skips_kink_window():
    # max_pool over a near-tie: the +/-h window flips the argmax, so the
    # plain check reports a large error while the refined check excludes
    # the non-smooth coordinate.
    x = T.parameter(np.array([[1.0, 1.0 + 1e-6], [0.0, 5.0]]))

    def f():
        # One segment per row of x: the max along each row.
        rows = T.max_pool(T.reshape(x, (4, 1)), _layout([0, 2, 4]))
        return T.mse(rows, T.constant([[3.0], [1.0]]))

    plain = T.grad_check(f, [x], h=1e-4)
    refined = T.grad_check(f, [x], h=1e-4, refine_above=1e-5)
    assert plain > 1e-2
    assert refined < 1e-4


def test_grad_check_refine_still_catches_wrong_gradients():
    x = T.parameter(np.array([2.0, -1.0]))

    def f():
        # Deliberately corrupt the recorded backward: claims d/dx sum(x^2) = x
        # instead of 2x.
        out = T.mse(x, T.constant(np.zeros(2)))
        original = out._backward

        def lying_backward(g):
            original(g)
            x.grad *= 0.5

        out._backward = lying_backward
        return out

    err = T.grad_check(f, [x], h=1e-4, refine_above=1e-5)
    assert err > 0.1


def _per_head_attention(q, k, v, n_heads):
    """The unfused graph: per-head column slices, scaled scores, softmax, concat."""
    dh = q.shape[1] // n_heads
    heads = []
    for h in range(n_heads):
        lo, hi = h * dh, (h + 1) * dh
        qh, kh, vh = (T.slice_axis(t, 1, lo, hi) for t in (q, k, v))
        scores = T.mul(T.matmul(qh, T.transpose(kh)), 1.0 / math.sqrt(dh))
        heads.append(T.matmul(T.softmax(scores, axis=1), vh))
    return heads[0] if len(heads) == 1 else T.concat(heads, axis=1)


@pytest.mark.parametrize("m,width,n_heads", [(1, 4, 2), (3, 4, 1), (5, 6, 2), (12, 64, 4)])
def test_attention_matches_per_head_graph_bit_for_bit(m, width, n_heads, rng):
    data = [rng.normal(0.0, 1.0, (m, width)) for _ in range(3)]
    target = T.constant(rng.normal(0.0, 1.0, (m, width)))
    results = []
    for op in (T.attention, _per_head_attention):
        qkv = [T.parameter(x) for x in data]
        out = op(*qkv, n_heads)
        T.mse(out, target).backward()
        results.append([out.data.tobytes()] + [t.grad.tobytes() for t in qkv])
    assert results[0] == results[1]


def test_attention_is_one_node_with_c_ordered_grads(rng):
    q, k, v = (T.parameter(rng.normal(0.0, 1.0, (4, 6))) for _ in range(3))
    out = T.attention(q, k, v, 1)
    assert out._parents == (q, k, v)
    T.mse(out, T.constant(np.zeros((4, 6)))).backward()
    assert all(t.grad.flags.c_contiguous for t in (q, k, v))


def test_attention_validation():
    x = T.constant(np.ones((3, 4)))
    with pytest.raises(ShapeMismatchError):
        T.attention(x, x, T.constant(np.ones((2, 4))), 2)
    with pytest.raises(ShapeMismatchError):
        T.attention(x, x, x, 3)


def test_grad_check_attention(rng):
    q, k, v = (T.parameter(rng.normal(0.0, 1.0, (4, 6))) for _ in range(3))
    target = T.constant(rng.normal(0.0, 1.0, (4, 6)))
    assert T.grad_check(lambda: T.mse(T.attention(q, k, v, 2), target), [q, k, v]) < 1e-4


def test_weighted_smooth_l1_value_and_validation():
    a = T.constant([[0.0, 0.0], [0.0, 3.0]])
    b = T.constant(np.zeros((2, 2)))
    # Row means 0 and 1.25, weighted by 2 and 4, averaged over 2 rows.
    loss = T.smooth_l1(a, b, weights=np.array([2.0, 4.0]))
    assert loss.item() == 2.5
    with pytest.raises(ShapeMismatchError):
        T.smooth_l1(a, b, weights=np.ones(3))


def test_grad_check_weighted_smooth_l1(rng):
    a = T.parameter(rng.uniform(-3.0, 3.0, (4, 5)))  # both branches of the kink at 1
    assert np.any(np.abs(a.data) < 1.0) and np.any(np.abs(a.data) > 1.0)
    b = T.constant(np.zeros((4, 5)))
    w = rng.uniform(0.5, 2.0, 4)
    assert T.grad_check(lambda: T.smooth_l1(a, b, weights=w), [a]) < 1e-4


def test_max_pool_segments_ties_and_single_rows():
    # Segments of 1, 3 and 2 rows; column 0 ties inside the middle segment at
    # its max, and the value 4.0 repeats across segments.
    x = T.parameter(
        np.array([[4.0, -1.0], [5.0, 0.0], [5.0, 2.0], [1.0, 2.0], [4.0, -1.0], [0.5, -1.0]])
    )
    out = T.max_pool(x, _layout([0, 1, 4, 6]))
    np.testing.assert_array_equal(out.data, [[4.0, -1.0], [5.0, 2.0], [4.0, -1.0]])
    T.mse(out, T.constant(np.zeros((3, 2)))).backward()
    expected = np.zeros((6, 2))
    # Ties route to the first row of their segment: (1, 0), (2, 1) and (4, 1).
    for (r, c), value in zip([(0, 0), (0, 1), (1, 0), (2, 1), (4, 0), (4, 1)], out.data.ravel()):
        expected[r, c] = 2.0 * value / 6.0
    np.testing.assert_array_equal(x.grad, expected)


@pytest.mark.parametrize("offsets", [[0, 1, 5, 6], [0, 1, 2, 3, 4, 5, 6]])
def test_grad_check_segment_max_pool(offsets, rng):
    # Rows 0 and 5 tie across segments; rows 2 and 3 tie inside the middle
    # segment, below its max (a tie at a max is a kink, checked exactly above).
    b0, b1, b2 = rng.normal(0.0, 1.0, (3, 4))
    x = T.parameter(np.stack([b0, b1, b2 - 5.0, b2 - 5.0, b0 - 5.0, b0]))
    target = None

    def f():
        nonlocal target
        out = T.max_pool(x, _layout(offsets))
        if target is None:
            target = rng.normal(0.0, 1.0, out.shape)
        return T.mse(out, T.constant(target))

    assert T.grad_check(f, [x]) < 1e-4


@pytest.mark.parametrize("offsets", [[0, 2], [1, 3], [0, 0, 3], [0, 2, 1, 3], [[0, 3]]])
def test_max_pool_rejects_bad_offsets(offsets):
    # Malformed bounds fail when the layout is built, a wrong row count or an
    # empty segment when max_pool checks it.
    with pytest.raises(ShapeMismatchError):
        T.max_pool(T.constant(np.ones((3, 2))), _layout(offsets))


class TestSegments:
    @pytest.mark.parametrize("bounds", [[], [1, 3], [0, 2, 1, 3], [[0, 3]]])
    def test_of_bounds_rejects_malformed_bounds(self, bounds):
        with pytest.raises(ShapeMismatchError):
            T.Segments.of_bounds(bounds)

    @pytest.mark.parametrize("counts", [[2, -1], [[1, 2]]])
    def test_of_counts_rejects_negative_or_nested_counts(self, counts):
        with pytest.raises(ShapeMismatchError):
            T.Segments.of_counts(counts)

    def test_layout_and_its_row_indexes(self):
        segments = T.Segments.of_counts([2, 0, 3, 2])
        np.testing.assert_array_equal(segments.bounds, [0, 2, 2, 5, 7])
        np.testing.assert_array_equal(segments.counts, [2, 0, 3, 2])
        assert (len(segments), segments.any_empty) == (4, True)
        np.testing.assert_array_equal(segments.ids, [0, 0, 2, 2, 2, 3, 3])
        np.testing.assert_array_equal(segments.positions, [0, 1, 0, 1, 2, 0, 1])
        # One group per non-zero length, ascending; the empty segment is in none.
        (ids2, rows2), (ids3, rows3) = segments.by_length
        np.testing.assert_array_equal(ids2, [0, 3])
        np.testing.assert_array_equal(rows2, [[0, 1], [5, 6]])
        np.testing.assert_array_equal(ids3, [2])
        np.testing.assert_array_equal(rows3, [[2, 3, 4]])
        x = np.arange(14.0).reshape(7, 2)
        blocks = segments.blocks(x)
        assert [b.shape for b in blocks] == [(2, 2, 2), (1, 3, 2)]
        np.testing.assert_array_equal(blocks[0][1], x[5:7])
        assert segments.from_blocks(blocks, 2).tobytes() == x.tobytes()
        sums = segments.per_segment(x, lambda block: block.sum(axis=1), (2,))
        np.testing.assert_array_equal(sums, [[2.0, 4.0], [0.0, 0.0], [18.0, 21.0], [22.0, 24.0]])
        again = T.Segments.of_bounds(segments.bounds)
        np.testing.assert_array_equal(again.counts, segments.counts)
        assert again.any_empty and not T.Segments.of_bounds([0, 1, 3]).any_empty
        assert segments.ids is segments.ids and segments.positions is segments.positions
        assert segments.by_length is segments.by_length
        assert T.Segments.of_counts([0, 0]).by_length == ()

    def test_segments_of_one_length_are_one_reshape(self):
        segments, x = T.Segments.of_counts([2, 2, 2]), np.arange(12.0).reshape(6, 2)
        (blocks,) = segments.blocks(x)
        assert blocks.shape == (3, 2, 2) and np.shares_memory(blocks, x)
        np.testing.assert_array_equal(blocks[1], x[2:4])
        assert segments.from_blocks([blocks], 2).tobytes() == x.tobytes()
        sums = segments.per_segment(x, lambda block: block.sum(axis=1), (2,))
        np.testing.assert_array_equal(sums, [[2.0, 4.0], [10.0, 12.0], [18.0, 20.0]])
        # The one length is read off the counts; no length-group indexes are built.
        assert segments.one_length == 2 and "by_length" not in vars(segments)
        for counts in ([], [0, 0], [2, 0, 2], [2, 3]):
            assert T.Segments.of_counts(counts).one_length == 0

    def test_layout_is_read_only_and_owns_its_arrays(self):
        counts = np.array([2, 3])
        segments = T.Segments.of_counts(counts)
        counts[0] = 4
        np.testing.assert_array_equal(segments.bounds, [0, 2, 5])
        # One layout is shared by every block of a batch, and its cached
        # indexes were derived from these arrays.
        ids, rows = segments.by_length[0]
        arrays = (segments.bounds, segments.counts, segments.ids, segments.positions, ids, rows)
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 1
        with pytest.raises(AttributeError):
            segments.counts = np.array([5])


def _mlp_max_pool_ones(x, segments):
    weights = (T.constant(np.ones(shape)) for shape in ((2, 3), (3,), (3, 2), (2,)))
    return T.mlp_max_pool(x.data, *weights, segments)


_SEGMENT_OPS = {
    "mean_pool": T.mean_pool,
    "max_pool": T.max_pool,
    "mlp_max_pool": _mlp_max_pool_ones,
    "smooth_l1": lambda x, segments: T.smooth_l1(x, x, segments=segments),
    "attention": lambda x, segments: T.attention(x, x, x, 1, segments),
    "mse": lambda x, segments: T.mse(x, x, segments),
}


@pytest.mark.parametrize("op", sorted(_SEGMENT_OPS))
def test_segment_ops_check_the_layout_against_their_rows(op):
    run, x = _SEGMENT_OPS[op], T.constant(np.ones((3, 2)))
    run(x, _layout([0, 1, 3]))
    for other_rows in ([0, 2], [0, 1, 4]):
        with pytest.raises(ShapeMismatchError):
            run(x, _layout(other_rows))
    if op in ("attention", "mse"):
        run(x, _layout([0, 0, 3]))  # an empty scene, or a scene with nothing masked
    else:
        with pytest.raises(ShapeMismatchError):
            run(x, _layout([0, 0, 3]))


def _old_layer_norm(x, gain, bias, g, eps=1e-5):
    """The layer norm before its rewrite: np.mean/np.var over a moved axis, and its backward."""
    axis = -1 % x.ndim
    xm = np.moveaxis(x, axis, -1)
    mean = xm.mean(axis=-1, keepdims=True)
    var = xm.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (xm - mean) * inv
    z = np.moveaxis(y * gain + bias, -1, axis)
    gm = np.moveaxis(g, axis, -1)
    gy = gm * gain
    dx = inv * (gy - gy.mean(axis=-1, keepdims=True) - y * (gy * y).mean(axis=-1, keepdims=True))
    reduce_axes = tuple(range(gm.ndim - 1))
    return z, np.moveaxis(dx, -1, axis), (gm * y).sum(axis=reduce_axes), gm.sum(axis=reduce_axes)


def test_layer_norm_matches_the_old_formula_byte_for_byte(rng):
    for trial in range(201):
        m, n = (12, 64) if trial == 0 else (int(rng.integers(1, 20)), int(rng.integers(1, 70)))
        scale = 10.0 ** rng.integers(-4, 4)
        x = T.parameter(rng.normal(0.0, scale, (m, n)) + rng.normal(0.0, scale))
        gain = T.parameter(rng.normal(1.0, 0.3, n))
        bias = T.parameter(rng.normal(0.0, 0.3, n))
        g = rng.normal(0.0, 1.0, (m, n))
        out = T.layer_norm(x, gain, bias)
        out._backward(g)
        expected = _old_layer_norm(x.data, gain.data, bias.data, g)
        got = (out.data, x.grad, gain.grad, bias.grad)
        for name, a, b in zip(("forward", "x", "gain", "bias"), got, expected):
            assert a.tobytes() == b.tobytes(), (trial, name)


def _scene_attention(q, k, v, n_heads, segments):
    """Attention scene by scene, skipping empty scenes: the oracle of packed attention."""
    bounds = segments.bounds
    outs = [
        T.attention(*(T.gather_rows(t, np.arange(lo, hi)) for t in (q, k, v)), n_heads)
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    return T.concat(outs, axis=0)


def test_attention_mask_keeps_rows_to_their_scene(rng):
    segments = _layout([0, 3, 4, 9])
    data = [rng.normal(0.0, 1.0, (9, 6)) for _ in range(3)]
    target = T.constant(rng.normal(0.0, 1.0, (9, 6)))
    results = []
    for op in (T.attention, _scene_attention):
        qkv = [T.parameter(x) for x in data]
        out = op(*qkv, 2, segments)
        T.mse(out, target).backward()
        results.append([out.data.tobytes()] + [t.grad.tobytes() for t in qkv])
    assert results[0] == results[1]
    # Changing one scene's rows leaves every other scene's output bytes alone.
    moved = [x.copy() for x in data]
    moved[2][5] += 1.0  # a value row of the last scene
    before = T.attention(*map(T.constant, data), 2, segments).data
    after = T.attention(*map(T.constant, moved), 2, segments).data
    assert after[:4].tobytes() == before[:4].tobytes()
    assert not np.any(after[4:] == before[4:])


def test_grad_check_masked_attention(rng):
    q, k, v = (T.parameter(rng.normal(0.0, 1.0, (5, 4))) for _ in range(3))
    target = T.constant(rng.normal(0.0, 1.0, (5, 4)))
    segments = _layout([0, 2, 5])
    assert T.grad_check(lambda: T.mse(T.attention(q, k, v, 2, segments), target), [q, k, v]) < 1e-4


# Scenes of 4, 1, 0 and 6 rows: three lengths, a one-row scene and an
# empty scene.
_RAGGED = [0, 4, 5, 5, 11]


def test_ragged_attention_matches_per_scene_attention(rng):
    segments = _layout(_RAGGED)
    data = [rng.normal(0.0, 1.0, (11, 6)) for _ in range(3)]
    target = T.constant(rng.normal(0.0, 1.0, (11, 6)))
    results = []
    with np.errstate(all="raise"):
        for op in (T.attention, _scene_attention):
            qkv = [T.parameter(x) for x in data]
            out = op(*qkv, 2, segments)
            T.mse(out, target).backward()
            results.append([out.data.tobytes()] + [t.grad.tobytes() for t in qkv])
    assert results[0] == results[1]


def test_grad_check_ragged_attention(rng):
    q, k, v = (T.parameter(rng.normal(0.0, 1.0, (11, 4))) for _ in range(3))
    target = T.constant(rng.normal(0.0, 1.0, (11, 4)))
    segments = _layout(_RAGGED)
    with np.errstate(all="raise"):
        err = T.grad_check(lambda: T.mse(T.attention(q, k, v, 2, segments), target), [q, k, v])
    assert err < 1e-4


def test_attention_over_scenes_of_one_length_is_per_scene_bit_for_bit(rng):
    segments = _layout([0, 5, 10, 15])
    data = [rng.normal(0.0, 1.0, (15, 8)) for _ in range(3)]
    target = T.constant(rng.normal(0.0, 1.0, (15, 8)))
    results = []
    for op in (T.attention, _scene_attention):
        qkv = [T.parameter(x) for x in data]
        out = op(*qkv, 2, segments)
        T.mse(out, target).backward()
        results.append([out.data.tobytes()] + [t.grad.tobytes() for t in qkv])
    assert results[0] == results[1]


@pytest.mark.parametrize("weighted", [False, True])
def test_segment_losses_are_means_of_per_segment_losses(weighted, rng):
    segments = _layout([0, 4, 5, 11])
    a = rng.uniform(-3.0, 3.0, (11, 5))
    b = rng.uniform(-3.0, 3.0, (11, 5))
    w = rng.uniform(0.5, 2.0, 11) if weighted else None
    pairs = list(zip(segments.bounds[:-1], segments.bounds[1:]))
    loss = T.smooth_l1(T.constant(a), T.constant(b), w, segments).item()
    per_scene = [
        T.smooth_l1(
            T.constant(a[lo:hi]), T.constant(b[lo:hi]), None if w is None else w[lo:hi]
        ).item()
        for lo, hi in pairs
    ]
    assert loss == np.mean(per_scene)
    # An empty segment counts 0 in the mean-squared error.
    mse = T.mse(T.constant(a), T.constant(b), _layout([0, 4, 4, 11])).item()
    expected = [np.mean((a[:4] - b[:4]) ** 2), 0.0, np.mean((a[4:] - b[4:]) ** 2)]
    assert mse == np.mean(expected)


# Each segment op as (run(inputs, weights, segments), input count, output
# kind): one row per input row, one row per segment, or a scalar loss.
_PER_SEGMENT_OPS = {
    "attention": (lambda x, w, s: T.attention(*x, 2, s), 3, "rows"),
    "mean_pool": (lambda x, w, s: T.mean_pool(x[0], s), 1, "segments"),
    "mse": (lambda x, w, s: T.mse(*x, s), 2, "scalar"),
    "smooth_l1": (lambda x, w, s: T.smooth_l1(*x, None, s), 2, "scalar"),
    "smooth_l1_weighted": (lambda x, w, s: T.smooth_l1(*x, w, s), 2, "scalar"),
}


@pytest.mark.parametrize("op", sorted(_PER_SEGMENT_OPS))
@given(counts=st.lists(st.integers(0, 19), min_size=1, max_size=5), seed=st.integers(0, 2**32))
def test_segment_ops_equal_per_segment_calls_bit_for_bit(op, counts, seed):
    """Any mix of lengths: the value and input gradients of one call per segment.

    A loss is the mean over segments, so each segment's call gets the
    upstream gradient divided by the segment count.
    """
    run, n_inputs, kind = _PER_SEGMENT_OPS[op]
    if op not in ("attention", "mse"):  # the ops that take empty segments
        counts = [n for n in counts if n] or [1]
    rng = np.random.default_rng(seed)
    segments, m = T.Segments.of_counts(counts), sum(counts)
    data = [rng.uniform(-3.0, 3.0, (m, 6)) for _ in range(n_inputs)]  # both smooth-L1 branches
    weights = rng.uniform(0.5, 2.0, m)

    def call(lo, hi, segments):
        inputs = [T.parameter(x[lo:hi]) for x in data]
        return inputs, run(inputs, weights[lo:hi], segments)

    inputs, out = call(0, m, segments)
    g = np.asarray(rng.normal(0.0, 1.0, out.shape))
    out._backward(g)
    values, grads = [], [[np.empty((0, 6))] for _ in data]
    for i, (lo, hi) in enumerate(zip(segments.bounds[:-1], segments.bounds[1:])):
        if lo == hi:  # no rows; the mean-squared error counts it 0
            values += [0.0] if kind == "scalar" else []
            continue
        parts, part = call(lo, hi, T.Segments.of_counts([hi - lo]))
        if kind == "scalar":
            part._backward(g / len(counts))
        else:
            part._backward(g[lo:hi] if kind == "rows" else g[i : i + 1])
        values.append(part.data)
        for grad, t in zip(grads, parts):
            grad.append(t.grad)
    expected = np.mean(values) if kind == "scalar" else np.concatenate([np.empty((0, 6))] + values)
    assert out.data.tobytes() == np.asarray(expected).tobytes()
    for t, parts in zip(inputs, grads):
        assert t.grad.tobytes() == np.concatenate(parts).tobytes()


def test_grad_check_segment_losses(rng):
    a = T.parameter(rng.uniform(-3.0, 3.0, (6, 4)))  # both sides of the kink at 1
    assert np.any(np.abs(a.data) < 1.0) and np.any(np.abs(a.data) > 1.0)
    b = T.constant(np.zeros((6, 4)))
    w = rng.uniform(0.5, 2.0, 6)
    segments = _layout([0, 1, 6])
    assert T.grad_check(lambda: T.smooth_l1(a, b, w, segments), [a]) < 1e-4
    assert T.grad_check(lambda: T.smooth_l1(a, b, None, segments), [a]) < 1e-4
    assert T.grad_check(lambda: T.mse(a, b, _layout([0, 0, 2, 6])), [a]) < 1e-4


@pytest.mark.parametrize("m,k,n", [(1, 3, 2), (4, 1, 5), (12, 64, 256), (7, 256, 64)])
def test_linear_matches_matmul_plus_bias_bit_for_bit(m, k, n, rng):
    data = [rng.normal(0.0, 1.0, shape) for shape in ((m, k), (k, n), (n,))]
    target = T.constant(rng.normal(0.0, 1.0, (m, n)))
    results = []
    for op in (T.linear, lambda x, w, b: T.add(T.matmul(x, w), b)):
        xwb = [T.parameter(a) for a in data]
        out = op(*xwb)
        T.mse(out, target).backward()
        results.append([out.data.tobytes()] + [t.grad.tobytes() for t in xwb])
    assert results[0] == results[1]


def test_linear_is_one_node_and_records_nothing_under_no_grad(rng):
    x, w, b = (T.parameter(rng.normal(0.0, 1.0, s)) for s in ((3, 4), (4, 2), (2,)))
    out = T.linear(x, w, b)
    assert out._op == "linear" and out._parents == (x, w, b)
    with T.no_grad():
        frozen = T.linear(x, w, b)
    assert not frozen.requires_grad and frozen._parents == () and frozen._backward is None
    assert frozen.data.tobytes() == out.data.tobytes()


def test_linear_validation():
    x, w, b = T.constant(np.ones((3, 4))), T.constant(np.ones((4, 2))), T.constant(np.ones(2))
    for args in (
        (T.constant(np.ones((3, 5))), w, b),
        (x, w, T.constant(np.ones(3))),
        (x, w, T.constant(np.ones((1, 2)))),
        (T.constant(np.ones(4)), w, b),
        (x, T.constant(np.ones((4, 2, 1))), b),
    ):
        with pytest.raises(ShapeMismatchError):
            T.linear(*args)


def test_grad_check_linear(rng):
    x, w, b = (T.parameter(rng.normal(0.0, 1.0, s)) for s in ((3, 4), (4, 2), (2,)))
    target = T.constant(rng.normal(0.0, 1.0, (3, 2)))
    assert T.grad_check(lambda: T.mse(T.linear(x, w, b), target), [x, w, b]) < 1e-4


def _unfused_mlp_max_pool(members, w1, b1, w2, b2, segments):
    """The four-node graph that ``mlp_max_pool`` fuses: the test oracle."""
    h = T.relu(T.linear(T.constant(members), w1, b1))
    return T.max_pool(T.linear(h, w2, b2), segments)


def _mlp_weights(rng, c, hidden, d):
    shapes = ((c, hidden), (hidden,), (hidden, d), (d,))
    return [rng.normal(0.0, 1.0, s) for s in shapes]


# One segment; segments of 1, 3, 13 and 23 rows; three one-member segments,
# whose single row is the critical row of every column.
@pytest.mark.parametrize("offsets", [[0, 40], [0, 1, 4, 17, 40], [0, 1, 2, 3, 40]])
def test_mlp_max_pool_matches_the_unfused_graph(offsets, rng):
    members = rng.normal(0.0, 1.0, (40, 3))
    weights = _mlp_weights(rng, 3, 64, 64)
    target = T.constant(rng.normal(0.0, 1.0, (len(offsets) - 1, 64)))
    results = []
    for op in (T.mlp_max_pool, _unfused_mlp_max_pool):
        params = [T.parameter(w) for w in weights]
        out = op(members, *params, _layout(offsets))
        T.mse(out, target).backward()
        results.append((out.data.tobytes(), [p.grad for p in params]))
    (fused, fused_grads), (oracle, oracle_grads) = results
    assert fused == oracle
    for a, b in zip(fused_grads, oracle_grads):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_row_blocks_keep_segments_whole():
    segments = _layout([0, 300, 500, 520, 1400, 1401, 1700])
    blocks = T._row_blocks(segments, 512)
    assert blocks == [(0, 2), (2, 3), (3, 4), (4, 6)]
    bounds = segments.bounds
    for lo, hi in blocks:
        assert bounds[hi] - bounds[lo] <= 512 or hi == lo + 1
    assert T._row_blocks(_layout([0]), 512) == []


def test_mlp_max_pool_blocks_match_one_pass(rng, monkeypatch):
    # 1,700 rows in four blocks, one of them a single 880-row segment.
    segments = _layout([0, 300, 500, 520, 1400, 1401, 1700])
    members = rng.normal(0.0, 1.0, (1700, 3))
    weights = _mlp_weights(rng, 3, 64, 64)
    target = T.constant(rng.normal(0.0, 1.0, (6, 64)))
    results = []
    for block_rows in (512, 10**9):
        monkeypatch.setattr(T, "_MLP_BLOCK_ROWS", block_rows)
        params = [T.parameter(w) for w in weights]
        out = T.mlp_max_pool(members, *params, segments)
        T.mse(out, target).backward()
        results.append([out.data.tobytes()] + [p.grad.tobytes() for p in params])
    assert results[0] == results[1]


def test_mlp_max_pool_tie_routes_to_the_lowest_row():
    # The third coordinate has zero weight, so rows 0 and 1 give equal
    # outputs in every column and tie; only the lowest row carries gradient.
    members = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 5.0], [-1.0, 0.0, 0.0]])
    w1 = T.parameter([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
    b1, w2, b2 = T.parameter([0.5, 0.5]), T.parameter([[1.0], [1.0]]), T.parameter([0.0])
    T.mlp_max_pool(members, w1, b1, w2, b2, _layout([0, 3])).backward()
    # d out / d w1[i, j] = members[0, i] * w2[j], from row 0 alone.
    np.testing.assert_array_equal(w1.grad, [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    np.testing.assert_array_equal(b1.grad, [1.0, 1.0])


def test_grad_check_mlp_max_pool(rng):
    members = rng.normal(0.0, 1.0, (9, 3))
    params = [T.parameter(w) for w in _mlp_weights(rng, 3, 6, 4)]
    segments = _layout([0, 1, 5, 9])
    target = T.constant(rng.normal(0.0, 1.0, (3, 4)))
    f = lambda: T.mse(T.mlp_max_pool(members, *params, segments), target)  # noqa: E731
    assert T.grad_check(f, params, refine_above=1e-4) < 1e-4


def test_mlp_max_pool_non_finite_raises_naming_the_op(rng):
    members = rng.normal(0.0, 1.0, (4, 3))
    weights = _mlp_weights(rng, 3, 5, 2)
    for i, (r, c) in ((0, (1, 2)), (2, (0, 1))):
        bad = [w.copy() for w in weights]
        bad[i][r, c] = np.nan
        with pytest.raises(NonFiniteError) as err:
            T.mlp_max_pool(members, *[T.parameter(w) for w in bad], _layout([0, 4]))
        assert "mlp_max_pool" in str(err.value)
    huge = [w.copy() for w in weights]
    huge[2][:] = 1e308  # finite hidden rows, overflowing second layer
    with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
        T.mlp_max_pool(members * 1e3, *[T.constant(w) for w in huge], _layout([0, 4]))


def test_mlp_max_pool_is_one_node_and_records_nothing_under_no_grad(rng):
    members = rng.normal(0.0, 1.0, (5, 3))
    params = [T.parameter(w) for w in _mlp_weights(rng, 3, 4, 2)]
    out = T.mlp_max_pool(members, *params, _layout([0, 2, 5]))
    assert out._op == "mlp_max_pool" and out._parents == tuple(params)
    with T.no_grad():
        frozen = T.mlp_max_pool(members, *params, _layout([0, 2, 5]))
    assert not frozen.requires_grad and frozen._parents == () and frozen._backward is None
    assert frozen.data.tobytes() == out.data.tobytes()


def test_mlp_max_pool_validation():
    members, segments = np.ones((3, 2)), _layout([0, 3])
    w1, b1, w2, b2 = (T.constant(np.ones(s)) for s in ((2, 4), (4,), (4, 5), (5,)))
    for args in (
        (np.ones((3, 3)), w1, b1, w2, b2, segments),
        (np.ones(3), w1, b1, w2, b2, segments),
        (members, w1, T.constant(np.ones(5)), w2, b2, segments),
        (members, w1, b1, T.constant(np.ones((5, 5))), b2, segments),
        (members, w1, b1, w2, T.constant(np.ones(4)), segments),
    ):
        with pytest.raises(ShapeMismatchError):
            T.mlp_max_pool(*args)
