"""Property-based tests (hypothesis) for the autograd engine."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.autograd.tensor import _unbroadcast

from helpers import assert_grad_close

SHAPES = st.tuples(st.integers(1, 4), st.integers(1, 4))
FLOATS = hnp.arrays(np.float64, SHAPES,
                    elements=st.floats(-10, 10, allow_nan=False,
                                       allow_infinity=False))


@st.composite
def tensor_pair_same_shape(draw):
    shape = draw(SHAPES)
    elems = st.floats(-5, 5, allow_nan=False, allow_infinity=False)
    a = draw(hnp.arrays(np.float64, shape, elements=elems))
    b = draw(hnp.arrays(np.float64, shape, elements=elems))
    return a, b


class TestAlgebraicIdentities:
    @given(tensor_pair_same_shape())
    @settings(max_examples=40, deadline=None)
    def test_addition_commutes(self, pair):
        a, b = pair
        ta, tb = Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64)
        np.testing.assert_allclose((ta + tb).data, (tb + ta).data)

    @given(tensor_pair_same_shape())
    @settings(max_examples=40, deadline=None)
    def test_mul_matches_numpy(self, pair):
        a, b = pair
        out = (Tensor(a, dtype=np.float64) * Tensor(b, dtype=np.float64)).data
        np.testing.assert_allclose(out, a * b)

    @given(FLOATS)
    @settings(max_examples=40, deadline=None)
    def test_double_negation(self, a):
        t = Tensor(a, dtype=np.float64)
        np.testing.assert_allclose((-(-t)).data, a)

    @given(FLOATS)
    @settings(max_examples=40, deadline=None)
    def test_sum_then_backward_gives_ones(self, a):
        t = Tensor(a, requires_grad=True, dtype=np.float64)
        t.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(a))


class TestGradientLinearity:
    @given(FLOATS, st.floats(-3, 3, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_scaling_loss_scales_gradient(self, a, c):
        t1 = Tensor(a, requires_grad=True, dtype=np.float64)
        (t1 * t1).sum().backward()
        t2 = Tensor(a, requires_grad=True, dtype=np.float64)
        ((t2 * t2).sum() * c).backward()
        np.testing.assert_allclose(t2.grad, c * t1.grad, atol=1e-9)


class TestSoftmaxProperties:
    @given(FLOATS)
    @settings(max_examples=40, deadline=None)
    def test_softmax_is_distribution(self, a):
        out = F.softmax(Tensor(a, dtype=np.float64), axis=-1).data
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=-1),
                                   np.ones(a.shape[0]), rtol=1e-8)

    @given(FLOATS)
    @settings(max_examples=40, deadline=None)
    def test_log_softmax_consistent_with_softmax(self, a):
        t = Tensor(a, dtype=np.float64)
        np.testing.assert_allclose(
            np.exp(F.log_softmax(t, axis=-1).data),
            F.softmax(t, axis=-1).data, rtol=1e-8)

    @given(FLOATS)
    @settings(max_examples=40, deadline=None)
    def test_softmax_argmax_preserved(self, a):
        # Ties (or sub-epsilon gaps, which exp() collapses) make argmax
        # ambiguous, so only rows with a clearly unique max are checked.
        out = F.softmax(Tensor(a, dtype=np.float64), axis=-1).data
        sorted_rows = np.sort(a, axis=-1)
        if a.shape[-1] > 1:
            unique = (sorted_rows[:, -1] - sorted_rows[:, -2]) > 1e-6
        else:
            unique = np.ones(a.shape[0], dtype=bool)
        np.testing.assert_array_equal(out.argmax(axis=-1)[unique],
                                      a.argmax(axis=-1)[unique])


class TestUnbroadcastProperty:
    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_unbroadcast_inverts_broadcast_sum(self, rows, cols):
        rng = np.random.default_rng(rows * 7 + cols)
        small = rng.standard_normal((1, cols))
        grad = rng.standard_normal((rows, cols))
        # Broadcasting small to (rows, cols) then backpropagating grad
        # must produce the column sums.
        back = _unbroadcast(grad, small.shape)
        np.testing.assert_allclose(back, grad.sum(axis=0, keepdims=True),
                                   rtol=1e-9)


class TestScatterAddProperty:
    @given(st.integers(2, 20), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_total_mass_preserved(self, n_src, n_buckets):
        rng = np.random.default_rng(n_src * 31 + n_buckets)
        src = Tensor(rng.random(n_src), dtype=np.float64)
        idx = rng.integers(0, n_buckets, size=n_src)
        out = F.scatter_add(src, (idx,), (n_buckets,))
        np.testing.assert_allclose(out.data.sum(), src.data.sum(),
                                   rtol=1e-9)


@st.composite
def segment_layouts(draw):
    """A non-decreasing ``row_of`` over 1-6 rows, each with 0-4 cells
    (ragged, empty and length-1 rows), plus float64 cell values."""
    counts = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    row_of = np.repeat(np.arange(len(counts)), counts)
    values = draw(hnp.arrays(np.float64, len(row_of),
                             elements=st.floats(-5, 5, allow_nan=False,
                                                allow_infinity=False)))
    return row_of, values


class TestSegmentOpsProperty:
    @given(segment_layouts())
    @settings(max_examples=40, deadline=None)
    def test_segment_log_softmax_matches_finite_differences(self, layout):
        row_of, values = layout
        assume(len(values))
        x = Tensor(values, requires_grad=True, dtype=np.float64)
        w = Tensor(np.linspace(-1.0, 1.0, len(values)), dtype=np.float64)
        assert_grad_close(lambda: (F.segment_log_softmax(x, row_of)
                                   * w).sum(), [x], rtol=1e-5, atol=1e-7)

    @given(segment_layouts())
    @settings(max_examples=40, deadline=None)
    def test_segment_dot_matches_finite_differences(self, layout):
        row_of, values = layout
        assume(len(values))
        rows = int(row_of.max()) + 1
        x = Tensor(np.arange(rows * 2, dtype=np.float64).reshape(rows, 2)
                   / 7.0, requires_grad=True, dtype=np.float64)
        y = Tensor(np.stack([values, values[::-1]], axis=1),
                   requires_grad=True, dtype=np.float64)
        w = Tensor(np.linspace(1.0, -1.0, len(values)), dtype=np.float64)
        assert_grad_close(lambda: (F.segment_dot(x, y, row_of) * w).sum(),
                          [x, y], rtol=1e-5, atol=1e-7)
