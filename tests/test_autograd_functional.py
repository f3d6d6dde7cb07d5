"""Unit tests for fused functional ops (softmax family, losses, dropout)."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, no_grad
from repro.autograd import functional as F
from repro.nn.embedding import embedding_sum

from helpers import assert_grad_close, make_tensor


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = make_tensor(rng, 4, 7, requires_grad=False)
        out = F.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), rtol=1e-6)

    def test_shift_invariance(self, rng):
        x = make_tensor(rng, 3, 5, requires_grad=False)
        shifted = Tensor(x.data + 1000.0, dtype=np.float64)
        np.testing.assert_allclose(F.softmax(x).data, F.softmax(shifted).data,
                                   rtol=1e-6)

    def test_gradient(self, rng):
        x = make_tensor(rng, 3, 4)
        w = Tensor(rng.standard_normal((3, 4)), dtype=np.float64)
        assert_grad_close(lambda: (F.softmax(x, axis=-1) * w).sum(), [x])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = make_tensor(rng, 2, 6, requires_grad=False)
        np.testing.assert_allclose(F.log_softmax(x).data,
                                   np.log(F.softmax(x).data), rtol=1e-5)

    def test_log_softmax_gradient(self, rng):
        x = make_tensor(rng, 3, 4)
        w = Tensor(rng.standard_normal((3, 4)), dtype=np.float64)
        assert_grad_close(lambda: (F.log_softmax(x, axis=-1) * w).sum(), [x])

    def test_extreme_values_stay_finite(self):
        x = Tensor([[1e4, -1e4, 0.0]], dtype=np.float64)
        assert np.isfinite(F.log_softmax(x).data).all()


class TestCrossEntropy:
    def test_matches_manual(self, rng):
        logits = make_tensor(rng, 4, 6, requires_grad=False)
        targets = np.array([0, 3, 5, 2])
        loss = F.cross_entropy(logits, targets)
        logp = F.log_softmax(logits).data
        manual = -logp[np.arange(4), targets].mean()
        assert loss.item() == pytest.approx(manual, rel=1e-6)

    def test_gradient(self, rng):
        logits = make_tensor(rng, 3, 5)
        targets = np.array([1, 4, 0])
        assert_grad_close(lambda: F.cross_entropy(logits, targets), [logits])

    def test_reductions(self, rng):
        logits = make_tensor(rng, 4, 3, requires_grad=False)
        targets = np.array([0, 1, 2, 0])
        total = F.cross_entropy(logits, targets, reduction="sum").item()
        mean = F.cross_entropy(logits, targets, reduction="mean").item()
        assert total == pytest.approx(mean * 4, rel=1e-6)
        none = F.cross_entropy(logits, targets, reduction="none")
        assert none.shape == (4,)


class TestBinaryCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        probs = Tensor([1.0, 0.0], dtype=np.float64)
        loss = F.binary_cross_entropy(probs, np.array([1.0, 0.0]))
        assert loss.item() < 1e-5

    def test_matches_manual(self):
        p = np.array([0.3, 0.8])
        y = np.array([1.0, 0.0])
        loss = F.binary_cross_entropy(Tensor(p, dtype=np.float64), y).item()
        manual = -(np.log(0.3) + np.log(0.2))
        assert loss == pytest.approx(manual, rel=1e-5)

    def test_gradient(self, rng):
        raw = make_tensor(rng, 6)
        y = (rng.random(6) > 0.5).astype(np.float64)
        assert_grad_close(
            lambda: F.binary_cross_entropy(raw.sigmoid(), y), [raw])

    def test_out_of_range_is_clipped(self):
        probs = Tensor([1.5, -0.5], dtype=np.float64)
        loss = F.binary_cross_entropy(probs, np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())


class TestClip:
    def test_values(self):
        x = Tensor([-2.0, 0.5, 3.0], dtype=np.float64)
        np.testing.assert_allclose(F.clip(x, 0.0, 1.0).data, [0.0, 0.5, 1.0])

    def test_gradient_zero_outside(self):
        x = Tensor([-2.0, 0.5, 3.0], requires_grad=True, dtype=np.float64)
        F.clip(x, 0.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = make_tensor(rng, 10, requires_grad=False)
        out = F.dropout(x, 0.5, training=False)
        assert out is x

    def test_zero_p_is_identity(self, rng):
        x = make_tensor(rng, 10, requires_grad=False)
        assert F.dropout(x, 0.0, training=True) is x

    def test_scaling_preserves_expectation(self):
        x = Tensor(np.ones(20000), dtype=np.float64)
        out = F.dropout(x, 0.3, training=True, rng=np.random.default_rng(0))
        assert out.data.mean() == pytest.approx(1.0, abs=0.03)

    def test_invalid_p_raises(self, rng):
        x = make_tensor(rng, 3, requires_grad=False)
        with pytest.raises(ValueError):
            F.dropout(x, 1.0, training=True)


class TestScatterAdd:
    def test_values_match_np_add_at(self, rng):
        src = make_tensor(rng, 8, requires_grad=False)
        idx = (np.array([0, 1, 1, 2, 0, 2, 2, 1]),
               np.array([0, 0, 1, 1, 1, 0, 0, 1]))
        out = F.scatter_add(src, idx, (3, 2))
        manual = np.zeros((3, 2))
        np.add.at(manual, idx, src.data)
        np.testing.assert_allclose(out.data, manual, rtol=1e-6)

    def test_gradient(self, rng):
        src = make_tensor(rng, 6)
        idx = (np.array([0, 0, 1, 1, 2, 2]), np.array([0, 1, 0, 1, 0, 1]))
        w = Tensor(rng.standard_normal((3, 2)), dtype=np.float64)
        assert_grad_close(
            lambda: (F.scatter_add(src, idx, (3, 2)) * w).sum(), [src])


class TestGelu:
    def test_values_reasonable(self):
        x = Tensor([-3.0, 0.0, 3.0], dtype=np.float64)
        out = F.gelu(x).data
        assert out[1] == pytest.approx(0.0, abs=1e-6)
        assert out[2] == pytest.approx(3.0, abs=0.01)
        assert abs(out[0]) < 0.01

    def test_gradient(self, rng):
        x = make_tensor(rng, 5)
        assert_grad_close(lambda: F.gelu(x).sum(), [x])


class TestEmbeddingLookup:
    def test_gather_and_scatter_grad(self, rng):
        emb = nn.Embedding(6, 3, rng=rng)
        emb.weight.data = emb.weight.data.astype(np.float64)
        idx = np.array([[0, 2], [2, 5]])
        out = emb(idx)
        assert out.shape == (2, 2, 3)
        assert_grad_close(lambda: emb(idx).sum(), [emb.weight])


class TestSegmentOps:
    """The ragged (flat-cell) ops of the walk's one policy forward:
    ``row_of`` assigns every cell to a row, rows with no cell allowed."""

    RAGGED = np.array([0, 0, 0, 2, 3, 3, 5])   # rows 1 and 4 empty
    SINGLES = np.array([0, 1, 2])               # every segment length 1

    @pytest.mark.parametrize("row_of", [RAGGED, SINGLES])
    def test_log_softmax_normalizes_per_segment(self, rng, row_of):
        x = make_tensor(rng, len(row_of), requires_grad=False)
        out = F.segment_log_softmax(x, row_of).data
        totals = np.bincount(row_of, weights=np.exp(out))
        np.testing.assert_allclose(totals[np.unique(row_of)], 1.0,
                                   rtol=1e-12)
        for row in np.unique(row_of):
            cells = row_of == row
            np.testing.assert_allclose(
                out[cells],
                F.log_softmax(Tensor(x.data[cells][None, :],
                                     dtype=np.float64)).data[0],
                rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("row_of", [RAGGED, SINGLES])
    def test_log_softmax_gradient(self, rng, row_of):
        x = make_tensor(rng, len(row_of))
        w = Tensor(rng.standard_normal(len(row_of)), dtype=np.float64)
        assert_grad_close(lambda: (F.segment_log_softmax(x, row_of)
                                   * w).sum(), [x], rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("row_of", [RAGGED, SINGLES])
    def test_dot_matches_gather_and_gradient(self, rng, row_of):
        x = make_tensor(rng, int(row_of.max()) + 2, 3)  # last row unread
        y = make_tensor(rng, len(row_of), 3)
        np.testing.assert_allclose(F.segment_dot(x, y, row_of).data,
                                   (x.data[row_of] * y.data).sum(axis=1),
                                   rtol=1e-12)
        w = Tensor(rng.standard_normal(len(row_of)), dtype=np.float64)
        assert_grad_close(lambda: (F.segment_dot(x, y, row_of) * w).sum(),
                          [x, y], rtol=1e-6, atol=1e-8)
        np.testing.assert_array_equal(x.grad[np.setdiff1d(
            np.arange(len(x.data)), row_of)], 0.0)

    def test_float32_forward_and_backward(self, rng):
        """float32 in, float32 out and float32 gradients, matching a
        float64 rerun to float32 precision."""
        row_of = self.RAGGED

        def run(dtype):
            x = Tensor(rng_x, requires_grad=True, dtype=dtype)
            y = Tensor(rng_y, requires_grad=True, dtype=dtype)
            out = F.segment_log_softmax(F.segment_dot(x, y, row_of), row_of)
            (out * Tensor(w, dtype=dtype)).sum().backward()
            return out, x.grad, y.grad

        rng_x = rng.standard_normal((6, 4))
        rng_y = rng.standard_normal((len(row_of), 4))
        w = rng.standard_normal(len(row_of))
        out32, gx32, gy32 = run(np.float32)
        out64, gx64, gy64 = run(np.float64)
        assert out32.dtype == gx32.dtype == gy32.dtype == np.float32
        np.testing.assert_allclose(out32.data, out64.data, rtol=1e-5,
                                   atol=1e-6)
        np.testing.assert_allclose(gx32, gx64, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(gy32, gy64, rtol=1e-4, atol=1e-5)

    @staticmethod
    def tables(rng, trainable=True):
        """float64 (relation, entity) tables, both trainable or both
        frozen."""
        pair = []
        for rows in (3, 7):
            emb = nn.Embedding(rows, 4, rng=rng)
            emb.weight.data = emb.weight.data.astype(np.float64)
            emb.weight.requires_grad = trainable
            pair.append(emb)
        return pair

    def test_embedding_sum_matches_two_lookups_and_gradient(self, rng):
        """One op, ``x_r + x_e`` over flat cells with repeated indices:
        the sum of the two lookups bit for bit, and central-difference
        gradients into both trainable tables."""
        rel, ent = self.tables(rng)
        rels = np.array([0, 2, 2, 1, 0, 2], dtype=np.int32)
        tails = np.array([6, 6, 3, 0, 6, 5])
        out = embedding_sum(rel, rels, ent, tails)
        np.testing.assert_array_equal(out.data,
                                      (rel(rels) + ent(tails)).data)
        w = Tensor(rng.standard_normal((len(rels), 4)), dtype=np.float64)
        assert_grad_close(
            lambda: (embedding_sum(rel, rels, ent, tails) * w).sum(),
            [rel.weight, ent.weight], rtol=1e-6, atol=1e-8)
        np.testing.assert_array_equal(ent.weight.grad[[1, 2, 4]], 0.0)

    def test_embedding_sum_frozen_tables_record_no_graph(self, rng):
        rel, ent = self.tables(rng, trainable=False)
        out = embedding_sum(rel, np.array([1]), ent, np.array([2]))
        assert not out.requires_grad and out._prev == ()
        rel.weight.requires_grad = True   # one trainable table
        out = embedding_sum(rel, np.array([1, 1]), ent, np.array([2, 3]))
        out.sum().backward()
        np.testing.assert_array_equal(rel.weight.grad[1], 2.0)
        assert ent.weight.grad is None

    def test_embedding_sum_detaches_retained_indices(self, rng):
        """A backward closure keeps a copy of the indices, so a later
        write to the caller's array cannot redirect the gradient."""
        rel, ent = self.tables(rng)
        rels, tails = np.array([0, 1]), np.array([2, 3])
        out = embedding_sum(rel, rels, ent, tails)
        rels[:] = 2
        tails[:] = 6
        out.sum().backward()
        np.testing.assert_array_equal(rel.weight.grad[[0, 1]], 1.0)
        np.testing.assert_array_equal(rel.weight.grad[2], 0.0)
        np.testing.assert_array_equal(ent.weight.grad[[2, 3]], 1.0)
        np.testing.assert_array_equal(ent.weight.grad[6], 0.0)

    @pytest.mark.parametrize("which, bad", [
        ("rels", 3), ("rels", -1), ("tails", 7), ("tails", -1)])
    def test_embedding_sum_range_check(self, rng, which, bad):
        rel, ent = self.tables(rng)
        cells = dict(rels=np.array([0, 2]), tails=np.array([1, 6]))
        cells[which][-1] = bad
        for grad_mode in (nullcontext, no_grad):
            with grad_mode(), pytest.raises(IndexError):
                embedding_sum(rel, cells["rels"], ent, cells["tails"])

    def test_empty_frontier(self):
        none = np.zeros(0, dtype=np.int64)
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        y = Tensor(np.zeros((0, 3)), requires_grad=True)
        out = F.segment_log_softmax(F.segment_dot(x, y, none), none)
        assert out.shape == (0,)
        out.sum().backward()
        assert y.grad.shape == (0, 3)
        np.testing.assert_array_equal(x.grad, 0.0)
