"""``add_at`` is ``np.add.at``, byte for byte (hypothesis).

The kernel scatters through the target's flat view in one 1-D
``ufunc.at`` call.  Each case runs both on copies of one target and
compares the bytes, so a change in the order in which any element takes
its additions shows as a last-bit difference.  Values span many binades,
and rows repeat many times, so a reordered sum would round differently.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd.functional import add_at

DTYPES = st.sampled_from([np.float32, np.float64])
VALUES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False,
                   width=32)


@st.composite
def scatter_case(draw):
    """A target, an index over its leading axes, and the values."""
    dtype = draw(DTYPES)
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    target = draw(hnp.arrays(dtype, shape, elements=VALUES))
    n_axes = draw(st.integers(1, len(shape)))
    index_shape = tuple(draw(st.lists(st.integers(0, 40), min_size=1,
                                      max_size=2)))
    index_dtype = draw(st.sampled_from([np.int64, np.int32, np.intp]))
    # Few rows, many draws: every row repeats; negatives wrap.
    axes = tuple(
        draw(hnp.arrays(index_dtype, index_shape,
                        elements=st.integers(-n, n - 1)))
        for n in shape[:n_axes])
    as_tuple = n_axes > 1 or draw(st.booleans())
    index = axes if as_tuple else axes[0]
    values = draw(hnp.arrays(dtype, index_shape + shape[n_axes:],
                             elements=VALUES))
    return target, index, values


def both(target, index, values):
    want, got = target.copy(), target.copy()
    np.add.at(want, index, values)
    add_at(got, index, values)
    return want, got


class TestMatchesNumpy:
    @given(scatter_case())
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_np_add_at(self, case):
        want, got = both(*case)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @given(DTYPES, st.integers(1, 6), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_heavy_repeats_in_rows(self, dtype, rows, dim):
        # Thousands of updates onto a handful of rows, values over
        # twelve binades: any reordering of one element's sum rounds.
        rng = np.random.default_rng(rows * 31 + dim)
        target = rng.standard_normal((rows, dim)).astype(dtype)
        index = rng.integers(-rows, rows, size=3000)
        values = (rng.standard_normal((3000, dim))
                  * 10.0 ** rng.integers(-6, 6, size=(3000, 1))
                  ).astype(dtype)
        want, got = both(target, index, values)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("values", [1, 0.1, np.float32(0.1),
                                        np.arange(3.0)])
    def test_broadcast_values(self, values):
        target = np.ones((4, 3), dtype=np.float32)
        want, got = both(target, np.array([0, 3, 3, -1]), values)
        assert got.tobytes() == want.tobytes()

    def test_int_target_counts(self):
        target = np.zeros(6, dtype=np.int32)
        want, got = both(target, np.array([5, 0, 5, 5, 2]), 1)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == np.int32

    def test_unsigned_index(self):
        want, got = both(np.zeros((5, 2)), np.array([4, 0, 4], np.uint64),
                         np.ones((3, 2)))
        assert got.tobytes() == want.tobytes()

    def test_empty_index(self):
        want, got = both(np.ones((3, 2)), np.zeros(0, np.int64),
                         np.zeros((0, 2)))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("index", [
        slice(1, 3),
        np.array([True, False, True, True]),
        2,
        [0, 2, 2],
        (np.array([0, 1, 1]), slice(None)),
    ], ids=["slice", "bool-mask", "scalar", "list", "array-and-slice"])
    def test_other_indices_fall_through(self, index):
        target = np.arange(12, dtype=np.float64).reshape(4, 3)
        values = np.float64(0.25)
        want, got = both(target, index, values)
        assert got.tobytes() == want.tobytes()


class TestRefusals:
    @pytest.mark.parametrize("index", [
        np.array([0, 5]),
        np.array([-6, 1]),
        (np.array([0, 1]), np.array([0, 3])),
        (np.array([0, 1]), np.array([0, -4])),
        np.array([9], dtype=np.uint64),
    ], ids=["high", "low", "tuple-high", "tuple-low", "unsigned-high"])
    def test_out_of_range_raises_like_numpy(self, index):
        target = np.zeros((5, 3))
        with pytest.raises(IndexError):
            np.add.at(target.copy(), index, 1.0)
        with pytest.raises(IndexError, match="out of bounds"):
            add_at(target, index, 1.0)
        assert not target.any()

    @pytest.mark.parametrize("view", [
        lambda a: a.T,
        lambda a: a[:, ::2],
        lambda a: a[::2],
    ], ids=["transposed", "column-stride", "row-stride"])
    def test_non_contiguous_target_raises(self, view):
        base = np.zeros((6, 4))
        target = view(base)
        assert not target.flags.c_contiguous
        with pytest.raises(ValueError, match="C-contiguous"):
            add_at(target, np.array([0, 1]), 1.0)
        assert not base.any()
