"""Reverse-mode automatic differentiation over dense float64 arrays.

Each operation records a closure that takes the output gradient and
scatters it back to its parents; ``backward`` runs the closures in
reverse topological order. A closure holds its parents and never its own
output, so a graph has no reference cycle and is freed as soon as its
loss is dropped. The op set is what the models and losses here need, with
two deliberate restrictions: 64-bit floats everywhere, and no
broadcasting beyond bias addition over the leading axis. Segment ops
(pooling, attention, losses) take their row groups as one :class:`Segments`;
attention pads each segment to the longest one and scores each segment's
own block, and the fused embedder runs in cache-sized blocks of rows, so a
forward over many packed scenes costs less than one forward per scene.
Nine ops have no caller in the library and stay only because the benchmark
declares their call counts: ``relu``, ``max_pool``, ``cosine_sim``, ``mul``,
``softmax``, ``slice_axis``, ``stack``, ``transpose`` and ``cross_entropy``.
Tests use them as unfused oracles (``cross_entropy`` for the linear probe's
closed-form fit); they go when the benchmark's declarations do.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, NonFiniteError, ShapeMismatchError

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (teacher forwards, metrics)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class Tensor:
    """A float64 array plus an optional backward-graph record."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"

    # -- introspection -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(op={self._op}, shape={self.shape}, requires_grad={self.requires_grad})"

    # -- gradient plumbing ---------------------------------------------------

    def zero_grad(self) -> None:
        """Zero ``grad`` in place, so a leaf bound to a parameter store keeps its view."""
        if self.grad is not None:
            self.grad.fill(0.0)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # A fresh C-ordered array, bit-identical to zeros + g; the layout
            # keeps later matmul backwards on one BLAS path.
            self.grad = np.add(g, 0.0, order="C")
        else:
            self.grad += g

    def backward(self) -> None:
        """Populate ``grad`` for every requires_grad node reachable from this scalar.

        Leaf gradients accumulate across calls; call ``zero_grad`` between
        steps.
        """
        if self.size != 1:
            raise ShapeMismatchError("backward", self.shape)
        if not self.requires_grad:
            return

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], op: str) -> Tensor:
    data = np.asarray(data, dtype=np.float64)
    if not np.isfinite(data).all():
        raise NonFiniteError(op)
    out = Tensor(data)
    out._op = op
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
    return out


# ---------------------------------------------------------------------------
# Core operations


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; also accepts a trailing-shape bias broadcast over axis 0."""
    a, b = _as_tensor(a), _as_tensor(b)
    bias = False
    if a.shape != b.shape:
        if b.ndim == a.ndim - 1 and b.shape == a.shape[1:]:
            bias = True
        else:
            raise ShapeMismatchError("add", a.shape, b.shape)
    out = _node(a.data + b.data, (a, b), "add")
    if out.requires_grad:

        def backward(g):
            if a.requires_grad:
                a._accumulate(g)
            if b.requires_grad:
                b._accumulate(g.sum(axis=0) if bias else g)

        out._backward = backward
    return out


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product of equal shapes, or scaling by a Python number."""
    a = _as_tensor(a)
    if isinstance(b, (int, float)):
        c = float(b)
        out = _node(a.data * c, (a,), "scale")
        if out.requires_grad:

            def backward(g):
                a._accumulate(g * c)

            out._backward = backward
        return out

    b = _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeMismatchError("mul", a.shape, b.shape)
    out = _node(a.data * b.data, (a, b), "mul")
    if out.requires_grad:

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * b.data)
            if b.requires_grad:
                b._accumulate(g * a.data)

        out._backward = backward
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError("matmul", a.shape, b.shape)
    out = _node(a.data @ b.data, (a, b), "matmul")
    if out.requires_grad:

        def backward(g):
            if a.requires_grad:
                a._accumulate(g @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ g)

        out._backward = backward
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` as one node, with the bits of ``add(matmul(x, w), b)``."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeMismatchError("linear", x.shape, w.shape, b.shape)
    out = _node(x.data @ w.data + b.data, (x, w, b), "linear")
    if out.requires_grad:

        def backward(g):
            if x.requires_grad:
                x._accumulate(g @ w.data.T)
            if w.requires_grad:
                w._accumulate(x.data.T @ g)
            if b.requires_grad:
                b._accumulate(g.sum(axis=0))

        out._backward = backward
    return out


def transpose(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeMismatchError("transpose", a.shape)
    out = _node(a.data.T, (a,), "transpose")
    if out.requires_grad:

        def backward(g):
            a._accumulate(g.T)

        out._backward = backward
    return out


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    if int(np.prod(shape)) != a.size:
        raise ShapeMismatchError("reshape", a.shape, shape)
    out = _node(a.data.reshape(shape), (a,), "reshape")
    if out.requires_grad:

        def backward(g):
            a._accumulate(g.reshape(a.shape))

        out._backward = backward
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeMismatchError("concat", ())
    out = _node(np.concatenate([t.data for t in ts], axis=axis), tuple(ts), "concat")
    if out.requires_grad:
        bounds = Segments.of_counts([t.shape[axis] for t in ts]).bounds

        def backward(g):
            for t, start, stop in zip(ts, bounds[:-1], bounds[1:]):
                if t.requires_grad:
                    idx = [slice(None)] * g.ndim
                    idx[axis] = slice(int(start), int(stop))
                    t._accumulate(g[tuple(idx)])

        out._backward = backward
    return out


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack same-shape tensors along a new leading axis."""
    ts = [_as_tensor(t) for t in tensors]
    if not ts or any(t.shape != ts[0].shape for t in ts):
        raise ShapeMismatchError("stack", *[t.shape for t in ts])
    out = _node(np.stack([t.data for t in ts]), tuple(ts), "stack")
    if out.requires_grad:

        def backward(g):
            for i, t in enumerate(ts):
                if t.requires_grad:
                    t._accumulate(g[i])

        out._backward = backward
    return out


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    if not (0 <= axis < a.ndim and 0 <= start < stop <= a.shape[axis]):
        raise ShapeMismatchError("slice", a.shape, (axis, start, stop))
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = _node(a.data[idx], (a,), "slice")
    if out.requires_grad:

        def backward(g):
            full = np.zeros(a.shape)
            full[idx] = g
            a._accumulate(full)

        out._backward = backward
    return out


def gather_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows by index; repeats are allowed and their gradients accumulate."""
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    if a.ndim < 1 or idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= a.shape[0])):
        raise ShapeMismatchError("gather_rows", a.shape, idx.shape)
    out = _node(a.data[idx], (a,), "gather_rows")
    if out.requires_grad:

        def backward(g):
            full = np.zeros(a.shape)
            np.add.at(full, idx, g)
            a._accumulate(full)

        out._backward = backward
    return out


def _read_only(x: np.ndarray) -> np.ndarray:
    x.setflags(write=False)
    return x


@dataclass(frozen=True, eq=False)
class Segments:
    """Consecutive segments of rows: segment i owns rows ``bounds[i]:bounds[i + 1]``.

    :meth:`of_counts` and :meth:`of_bounds` validate a layout once and note
    any empty segment. Its arrays are read-only, so one layout serves every
    op of a batch and builds its row ids and positions at most once.
    """

    bounds: np.ndarray  # (S + 1,) int64, from 0 up to the row count
    counts: np.ndarray  # (S,) int64 rows per segment
    any_empty: bool

    @classmethod
    def of_counts(cls, counts) -> "Segments":
        counts = _read_only(np.array(counts, dtype=np.int64))
        least = counts.min(initial=1)
        if counts.ndim != 1 or least < 0:
            raise ShapeMismatchError("segments", counts.shape)
        bounds = _read_only(np.add.accumulate(np.concatenate(([0], counts))))
        return cls(bounds, counts, bool(least == 0))

    @classmethod
    def of_bounds(cls, bounds) -> "Segments":
        """Segments between consecutive ``bounds``, which start at 0 and never decrease."""
        bounds = np.asarray(bounds, dtype=np.int64)
        if bounds.ndim != 1 or len(bounds) == 0 or bounds[0] != 0:
            raise ShapeMismatchError("segments", bounds.shape)
        return cls.of_counts(np.diff(bounds))

    @classmethod
    def group_labels(cls, labels) -> tuple[np.ndarray, np.ndarray, "Segments"]:
        """Group the items of a label vector that have a label >= 0, one segment per label.

        Returns ``(order, ids, segments)``: ``order`` holds the labelled
        items' indices after one stable sort by label, so each group's
        indices ascend; ``ids`` holds the labels ascending, with the labels'
        dtype; segment i spans group ``ids[i]`` in ``order``.
        """
        labels = np.asarray(labels)
        order = np.flatnonzero(labels >= 0)
        order = order[np.argsort(labels[order], kind="stable")]
        sorted_labels = labels[order]
        starts = np.flatnonzero(sorted_labels[1:] != sorted_labels[:-1]) + 1
        bounds = np.concatenate(([0], starts, [order.size])) if order.size else [0]
        segments = cls.of_bounds(bounds)
        return order, sorted_labels[segments.bounds[:-1]], segments

    def __len__(self) -> int:
        return len(self.counts)

    @cached_property
    def ids(self) -> np.ndarray:
        """The segment of each row."""
        return _read_only(np.repeat(np.arange(len(self)), self.counts))

    @cached_property
    def positions(self) -> np.ndarray:
        """Each row's position within its segment."""
        return _read_only(np.arange(self.bounds[-1]) - self.bounds[self.ids])

    @cached_property
    def longest(self) -> int:
        """Rows in the longest segment (0 without segments)."""
        return int(self.counts.max(initial=0))

    @property
    def uniform(self) -> bool:
        """Whether every segment has the longest segment's length."""
        return len(self) * self.longest == self.bounds[-1]

    def mean_rows(self, rows: np.ndarray) -> np.ndarray:
        """Each segment's mean row of a 2-D ``rows``, as an (S, width) float64 array.

        ``np.bincount`` adds each segment's rows in turn, as ``.mean(0)`` does
        on a matrix, so a segment's mean has the bits of ``rows[seg].mean(0)``
        for rows wider than one column (``np.add.reduceat`` sums in another
        order, and numpy sums a single column pairwise).
        """
        width = rows.shape[1]
        cells = (self.ids * width)[:, None] + np.arange(width)
        sums = np.bincount(cells.reshape(-1), rows.reshape(-1), len(self) * width)
        return sums.reshape(-1, width) / self.counts[:, None]

    def check(self, op: str, n_rows: int, allow_empty: bool = False) -> None:
        """Raise ShapeMismatchError unless it spans ``n_rows`` rows, none empty unless allowed."""
        if self.bounds[-1] != n_rows or (self.any_empty and not allow_empty):
            raise ShapeMismatchError(op, (n_rows,), (int(self.bounds[-1]),))

    def padded(self, x: np.ndarray) -> np.ndarray:
        """Each segment's rows of ``x`` as one slice of a zero-padded (S, longest, ...) array.

        Trailing zeros change no sum over the padded axis. Segments of one
        length are a reshape of ``x``, with no copy.
        """
        shape = (len(self), self.longest) + x.shape[1:]
        if self.uniform:
            return x.reshape(shape)
        out = np.zeros(shape)
        out[self.ids, self.positions] = x
        return out

    def unpadded(self, x: np.ndarray) -> np.ndarray:
        """The rows of a (S, longest, ...) array that :meth:`padded` filled, in row order."""
        if self.uniform:
            return x.reshape((-1,) + x.shape[2:])
        return x[self.ids, self.positions]


def mean_pool(a: Tensor, segments: Segments) -> Tensor:
    """Mean over each non-empty segment of rows of ``a``; one has the bits of ``a.mean(0)``."""
    a = _as_tensor(a)
    if a.ndim < 1:
        raise ShapeMismatchError("mean_pool", a.shape)
    segments.check("mean_pool", a.shape[0])
    counts = segments.counts
    per_row = counts.reshape((-1,) + (1,) * (a.ndim - 1))
    out = _node(np.add.reduce(segments.padded(a.data), axis=1) / per_row, (a,), "mean_pool")
    if out.requires_grad:

        def backward(g):
            a._accumulate(np.repeat(g / per_row, counts, axis=0))

        out._backward = backward
    return out


def _first_argmax(
    x: np.ndarray, maxima: np.ndarray, counts: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """The first (lowest-row) argmax row of each segment and column: every max-pool's tie rule.

    The segments of ``x`` have ``counts`` rows and start at rows ``starts``.
    """
    rows = np.arange(x.shape[0]).reshape((-1,) + (1,) * (x.ndim - 1))
    at_max = x == np.repeat(maxima, counts, axis=0)
    return np.minimum.reduceat(np.where(at_max, rows, x.shape[0]), starts, axis=0)


def max_pool(a: Tensor, segments: Segments) -> Tensor:
    """Max over each non-empty segment of rows of ``a``.

    The gradient routes to the first (lowest-row) argmax of each segment and column.
    """
    a = _as_tensor(a)
    if a.ndim < 1:
        raise ShapeMismatchError("max_pool", a.shape)
    segments.check("max_pool", a.shape[0])
    starts = segments.bounds[:-1]
    maxima = np.maximum.reduceat(a.data, starts, axis=0)
    out = _node(maxima, (a,), "max_pool")
    if out.requires_grad:

        def backward(g):
            full = np.zeros(a.shape)
            first = _first_argmax(a.data, maxima, segments.counts, starts)
            np.put_along_axis(full, first, g, axis=0)
            a._accumulate(full)

        out._backward = backward
    return out


# Member rows per block of the embedder's forward: each block's 64-wide
# intermediates (256 KB each) stay in a 2 MB L2 cache.
_MLP_BLOCK_ROWS = 512


def _row_blocks(segments: Segments, size: int) -> list[tuple[int, int]]:
    """Runs ``(first, stop)`` of whole segments, each of at most ``size`` rows or one segment."""
    bounds, blocks, lo = segments.bounds, [], 0
    while lo < len(segments):
        hi = int(np.searchsorted(bounds, bounds[lo] + size, side="right")) - 1
        blocks.append((lo, max(hi, lo + 1)))
        lo = blocks[-1][1]
    return blocks


def mlp_max_pool(
    members: np.ndarray, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, segments: Segments
) -> Tensor:
    """Shared two-layer ReLU MLP over data rows, then the max over each segment of them.

    One node with the forward bits of ``max_pool(linear(relu(linear(members,
    w1, b1)), w2, b2), segments)``. ``members`` is a plain (P, C) array and
    gets no gradient. The forward runs in blocks of about 512 rows that
    never split a segment, so its intermediates stay in cache; each row's
    products are the ones a single pass computes. Only the first argmax row
    of each segment and column carries gradient (PointNet's critical
    points), so a recorded forward keeps the members and hidden rows of
    those rows alone, and one backward runs its products, ReLU mask and
    bias sums on them. The backward bits differ from the unfused graph's in
    the last places: its sums skip the rows whose gradient is zero.
    """
    x = np.asarray(members, dtype=np.float64)
    w1, b1, w2, b2 = (_as_tensor(t) for t in (w1, b1, w2, b2))
    if (
        x.ndim != 2
        or w1.ndim != 2
        or w2.ndim != 2
        or x.shape[1] != w1.shape[0]
        or b1.shape != w1.shape[1:]
        or w2.shape[0] != w1.shape[1]
        or b2.shape != w2.shape[1:]
    ):
        raise ShapeMismatchError("mlp_max_pool", x.shape, w1.shape, b1.shape, w2.shape, b2.shape)
    segments.check("mlp_max_pool", x.shape[0])
    record = _GRAD_ENABLED and any(t.requires_grad for t in (w1, b1, w2, b2))
    bounds, n_cols = segments.bounds, w2.shape[1]
    maxima = np.empty((len(segments), n_cols))
    kept, cells, n_kept = [], [], 0
    for lo, hi in _row_blocks(segments, _MLP_BLOCK_ROWS):
        start = bounds[lo]
        pre = x[start : bounds[hi]] @ w1.data + b1.data
        if not np.isfinite(pre).all():
            raise NonFiniteError("mlp_max_pool")
        hidden = np.maximum(pre, 0.0)
        y = hidden @ w2.data + b2.data
        if not np.isfinite(y).all():
            raise NonFiniteError("mlp_max_pool")
        starts = bounds[lo:hi] - start
        maxima[lo:hi] = np.maximum.reduceat(y, starts, axis=0)
        if record:
            first = _first_argmax(y, maxima[lo:hi], segments.counts[lo:hi], starts)
            critical = np.zeros(len(y), dtype=bool)
            critical[first.ravel()] = True
            rows = np.flatnonzero(critical)
            # Each (segment, column) pair owns one cell of the critical rows.
            cells.append((np.cumsum(critical) - 1)[first] + n_kept)
            kept.append((rows + start, hidden[rows], pre[rows] > 0.0))
            n_kept += len(rows)
    out = _node(maxima, (w1, b1, w2, b2), "mlp_max_pool")
    if out.requires_grad:
        rows, h_rows, active = (np.concatenate(parts) for parts in zip(*kept))
        x_rows, cell = x[rows], (np.concatenate(cells), np.arange(n_cols))

        def backward(g):
            gy = np.zeros((len(x_rows), g.shape[1]))
            gy[cell] = g
            if w2.requires_grad:
                w2._accumulate(h_rows.T @ gy)
            if b2.requires_grad:
                b2._accumulate(gy.sum(axis=0))
            if w1.requires_grad or b1.requires_grad:
                gh = (gy @ w2.data.T) * active
                if w1.requires_grad:
                    w1._accumulate(x_rows.T @ gh)
                if b1.requires_grad:
                    b1._accumulate(gh.sum(axis=0))

        out._backward = backward
    return out


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = _node(np.maximum(a.data, 0.0), (a,), "relu")
    if out.requires_grad:

        def backward(g):
            a._accumulate(g * (a.data > 0.0))

        out._backward = backward
    return out


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """Tanh-approximate GELU with its exact analytic derivative."""
    a = _as_tensor(a)
    x = a.data
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    out = _node(0.5 * x * (1.0 + t), (a,), "gelu")
    if out.requires_grad:

        def backward(g):
            di = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
            local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * di
            a._accumulate(g * local)

        out._backward = backward
    return out


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = _node(y, (a,), "softmax")
    if out.requires_grad:

        def backward(g):
            a._accumulate((g - (g * y).sum(axis=axis, keepdims=True)) * y)

        out._backward = backward
    return out


def attention(
    q: Tensor, k: Tensor, v: Tensor, n_heads: int, segments: Segments | None = None
) -> Tensor:
    """Multi-head scaled dot-product attention within each scene stacked in the rows.

    The columns split into ``n_heads`` contiguous heads of width dh; head h
    gives softmax(q_h k_h^T / sqrt(dh)) v_h, and the heads are concatenated
    back in column order. ``segments`` lays out the S scenes stacked in the
    rows (None: one scene). Each scene's rows are padded to the longest
    scene's n rows and laid out as (S, H, n, dh), so each scene scores only
    its own n x n block and the cost grows with S, not S squared. Scenes
    shorter than n put -inf on their padding keys, and the real rows are
    gathered back. With one scene, or scenes of one length, the padding is
    a reshape and no mask is applied. One node: the backward
    reuses the forward's softmax and the same padded products, and with one
    scene each head's products are the ones a per-head graph of matmul,
    scale and softmax nodes would compute.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeMismatchError("attention", q.shape, k.shape, v.shape)
    m, width = q.shape
    if n_heads < 1 or width % n_heads:
        raise ShapeMismatchError("attention", q.shape, n_heads)
    segments = Segments.of_counts([m]) if segments is None else segments
    segments.check("attention", m, allow_empty=True)
    s, n, dh = len(segments), segments.longest, width // n_heads
    c = 1.0 / math.sqrt(dh)

    def split(x: np.ndarray) -> np.ndarray:
        return segments.padded(x).reshape(s, n, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(x: np.ndarray) -> np.ndarray:
        return segments.unpadded(x.transpose(0, 2, 1, 3).reshape(s, n, width))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * c
    if not segments.uniform:
        # An empty scene keeps its first (zero) key, so no softmax row is all -inf.
        keys = np.arange(n) < np.maximum(segments.counts, 1)[:, None]
        scores = np.where(keys[:, None, None, :], scores, -np.inf)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    out = _node(merge(y @ vh), (q, k, v), "attention")
    if out.requires_grad:

        def backward(g):
            gh = np.ascontiguousarray(split(g))
            gy = gh @ vh.transpose(0, 1, 3, 2)
            gs = (gy - (gy * y).sum(axis=-1, keepdims=True)) * y * c
            if q.requires_grad:
                q._accumulate(merge(gs @ kh))
            if k.requires_grad:
                k._accumulate(merge((qh.transpose(0, 1, 3, 2) @ gs).transpose(0, 1, 3, 2)))
            if v.requires_grad:
                v._accumulate(merge(y.transpose(0, 1, 3, 2) @ gh))

        out._backward = backward
    return out


def layer_norm(
    a: Tensor,
    gain: Tensor | None = None,
    bias: Tensor | None = None,
    eps: float = 1e-5,
) -> Tensor:
    """Normalize each slice along the last axis to zero mean and unit variance.

    Optional ``gain``/``bias`` of shape (a.shape[-1],) apply the usual
    affine transform; folding them into the op keeps the engine free of
    general broadcasting. The moments are the reductions ``np.mean`` and
    ``np.var`` make, without their Python wrappers.
    """
    a = _as_tensor(a)
    if eps <= 0:
        raise InvalidInputError("layer_norm eps must be > 0")
    n = a.shape[-1]
    for extra in (gain, bias):
        if extra is not None and extra.shape != (n,):
            raise ShapeMismatchError("layer_norm", a.shape, extra.shape)

    d = a.data - np.add.reduce(a.data, -1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(d * d, -1, keepdims=True) / n + eps)
    y = d * inv
    z = y
    if gain is not None:
        z = z * gain.data
    if bias is not None:
        z = z + bias.data
    parents = tuple(t for t in (a, gain, bias) if t is not None)
    out = _node(z, parents, "layer_norm")
    if out.requires_grad:

        def backward(g):
            gy = g * gain.data if gain is not None else g
            if a.requires_grad:
                a._accumulate(
                    inv
                    * (
                        gy
                        - np.add.reduce(gy, -1, keepdims=True) / n
                        - y * (np.add.reduce(gy * y, -1, keepdims=True) / n)
                    )
                )
            leading = tuple(range(g.ndim - 1))
            if gain is not None and gain.requires_grad:
                gain._accumulate(np.add.reduce(g * y, leading))
            if bias is not None and bias.requires_grad:
                bias._accumulate(np.add.reduce(g, leading))

        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# Fused scalar losses


def mse(a: Tensor, b: Tensor, segments: Segments | None = None) -> Tensor:
    """Mean squared error.

    With ``segments`` over the leading axis the loss is the mean over
    segments of each segment's MSE, and an empty segment counts as 0.
    Without them all rows are one segment.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape or a.ndim < 1:
        raise ShapeMismatchError("mse", a.shape, b.shape)
    segments = Segments.of_counts([a.shape[0]]) if segments is None else segments
    segments.check("mse", a.shape[0], allow_empty=True)
    d = a.data - b.data
    sizes = segments.counts * (d[:1].size)
    sums = np.add.reduce(segments.padded(d * d).reshape(len(sizes), -1), axis=1)
    out = _node(np.mean(sums / np.maximum(sizes, 1)), (a, b), "mse")
    if out.requires_grad:
        row_sizes = np.repeat(sizes, segments.counts).reshape((-1,) + (1,) * (d.ndim - 1))

        def backward(g):
            g = g / len(sizes) * 2.0 * d / row_sizes
            if a.requires_grad:
                a._accumulate(g)
            if b.requires_grad:
                b._accumulate(-g)

        out._backward = backward
    return out


def smooth_l1(
    a: Tensor,
    b: Tensor,
    weights: np.ndarray | None = None,
    segments: Segments | None = None,
) -> Tensor:
    """Mean smooth L1 with its kink at 1: 0.5 d^2 for |d| < 1, |d| - 0.5 beyond.

    The loss is the mean over the non-empty ``segments`` of the leading
    axis, such as one per scene (default: all rows are one segment), of
    each segment's loss. That is the mean of its elements, or with
    ``weights`` (one per row of 2-D inputs) the mean over its rows of
    weight times row mean, with the weighted row means summed in row
    order, so it equals a chain of per-row terms bit for bit.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape or a.ndim < 1:
        raise ShapeMismatchError("smooth_l1", a.shape, b.shape)
    segments = Segments.of_counts([a.shape[0]]) if segments is None else segments
    segments.check("smooth_l1", a.shape[0])
    counts = segments.counts
    d = a.data - b.data
    quad = np.abs(d) < 1.0
    elems = np.where(quad, 0.5 * d * d, np.abs(d) - 0.5)
    if weights is None:
        sizes = counts * elems[:1].size
        sums = np.add.reduce(segments.padded(elems).reshape(len(counts), -1), axis=1)
        per_segment = sums / sizes
    else:
        w = np.asarray(weights, dtype=np.float64)
        if d.ndim != 2 or w.shape != (d.shape[0],):
            raise ShapeMismatchError("smooth_l1", d.shape, w.shape)
        inv_rows = 1.0 / counts
        per_segment = np.cumsum(segments.padded(elems.mean(axis=1) * w), axis=1)[:, -1] * inv_rows
    out = _node(np.mean(per_segment), (a, b), "smooth_l1")
    if out.requires_grad:

        def backward(g):
            g = g / len(counts)
            slope = np.where(quad, d, np.sign(d))
            if weights is None:
                row_sizes = np.repeat(sizes, counts).reshape((-1,) + (1,) * (d.ndim - 1))
                g = g * (slope / row_sizes)
            else:
                row = (g * np.repeat(inv_rows, counts)) * w
                g = row[:, None] * (slope / d.shape[1])
            if a.requires_grad:
                a._accumulate(g)
            if b.requires_grad:
                b._accumulate(-g)

        out._backward = backward
    return out


def cosine_sim(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeMismatchError("cosine_sim", a.shape, b.shape)
    x, y = a.data.reshape(-1), b.data.reshape(-1)
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise NonFiniteError("cosine_sim", "zero-norm input")
    s = float(x @ y) / (nx * ny)
    out = _node(s, (a, b), "cosine_sim")
    if out.requires_grad:

        def backward(g):
            if a.requires_grad:
                a._accumulate((g * (y / (nx * ny) - s * x / (nx * nx))).reshape(a.shape))
            if b.requires_grad:
                b._accumulate((g * (x / (nx * ny) - s * y / (ny * ny))).reshape(b.shape))

        out._backward = backward
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy for integer labels (the linear probe's test oracle)."""
    logits = _as_tensor(logits)
    y = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or y.shape != (logits.shape[0],):
        raise ShapeMismatchError("cross_entropy", logits.shape, y.shape)
    if y.size and (y.min() < 0 or y.max() >= logits.shape[1]):
        raise InvalidInputError("cross_entropy labels out of range")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    out = _node(-np.mean(logp[np.arange(len(y)), y]), (logits,), "cross_entropy")
    if out.requires_grad:

        def backward(g):
            p = np.exp(logp)
            p[np.arange(len(y)), y] -= 1.0
            logits._accumulate(g * p / len(y))

        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# Finite-difference gradient verification


def grad_check(
    f: Callable[[], Tensor],
    inputs: Iterable[Tensor],
    h: float = 1e-5,
    refine_above: float | None = None,
    smooth_rtol: float = 1e-3,
) -> float:
    """Compare ``backward`` gradients of the scalar ``f()`` against central differences.

    ``f`` must close over ``inputs`` and rebuild its expression on every
    call. Returns the maximum relative error with denominator
    max(|analytic|, |numeric|, 1e-8).

    When ``refine_above`` is set, coordinates whose plain error exceeds it
    are re-estimated with a half-step Richardson extrapolation, which
    cancels the leading truncation term. Coordinates where the two step
    sizes disagree by more than ``smooth_rtol`` indicate a kink (an argmax
    flip or a relu crossing) inside the window; no finite-difference
    estimate is meaningful there, so they are excluded. A wrong gradient
    still fails: its two step sizes agree with each other, not with it.
    """
    if not (1e-7 <= h <= 1e-3):
        raise InvalidInputError(f"step h={h} outside [1e-7, 1e-3]")
    inputs = list(inputs)
    if not inputs:
        raise InvalidInputError("grad_check needs at least one input; it would check nothing")

    for t in inputs:
        # In-place perturbation below requires a contiguous buffer.
        if not t.data.flags.c_contiguous:
            t.data = np.ascontiguousarray(t.data)
        t.zero_grad()
    out = f()
    if out.size != 1:
        raise ShapeMismatchError("grad_check", out.shape)
    out.backward()
    analytic = [
        np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs
    ]

    max_err = 0.0
    with no_grad():

        def central(flat: np.ndarray, i: int, step: float) -> float:
            orig = flat[i]
            flat[i] = orig + step
            f_plus = f().item()
            flat[i] = orig - step
            f_minus = f().item()
            flat[i] = orig
            return (f_plus - f_minus) / (2.0 * step)

        for t, a_grad in zip(inputs, analytic):
            flat = t.data.reshape(-1)
            for i in range(flat.size):
                numeric = central(flat, i, h)
                a = a_grad.reshape(-1)[i]
                err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                if refine_above is not None and err > refine_above:
                    half = central(flat, i, h / 2.0)
                    if abs(numeric - half) > smooth_rtol * max(
                        abs(numeric), abs(half), 1.0
                    ):
                        continue  # non-smooth inside the window
                    richardson = (4.0 * half - numeric) / 3.0
                    err = abs(a - richardson) / max(abs(a), abs(richardson), 1e-8)
                max_err = max(max_err, err)
    return max_err
