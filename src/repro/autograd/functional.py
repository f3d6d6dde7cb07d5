"""Fused/stable functional operations built on the autograd tape.

Softmax-family operations get dedicated backward rules (rather than being
composed from primitives) for numerical stability and speed: they are on
the hot path of both the SR encoders and the REKS policy network.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd.scatter import add_at  # noqa: F401 (re-export)
from repro.autograd.tensor import (  # noqa: F401 (re-export)
    Tensor,
    concat,
    stack,
)


def coerce_indices(indices: np.ndarray, detach: bool) -> np.ndarray:
    """Index array ready for a table gather, preserving integer width.

    Integer inputs keep their dtype (int32 lookups stay int32 — no
    per-lookup upcast copy); anything else is cast to int64.  With
    ``detach=True`` the result never aliases the input: callers that
    record a backward closure retaining the indices (the scatter-add
    backward of an embedding gather) must not see a later in-place
    write to the caller's array.
    """
    indices = np.asarray(indices)
    if indices.dtype.kind not in "iu":
        return indices.astype(np.int64)
    if detach:
        return indices.copy()
    return indices


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    value = exp / exp.sum(axis=axis, keepdims=True)
    out = x._make_child(value, (x,), "softmax")
    if out.requires_grad:

        def _backward() -> None:
            g = out.grad
            s = out.data
            dot = (g * s).sum(axis=axis, keepdims=True)
            x._accumulate(s * (g - dot))

        out._backward = _backward
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    value = shifted - log_sum
    out = x._make_child(value, (x,), "log_softmax")
    if out.requires_grad:

        def _backward() -> None:
            g = out.grad
            soft = np.exp(out.data)
            x._accumulate(g - soft * g.sum(axis=axis, keepdims=True))

        out._backward = _backward
    return out


def segments(row_of: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(starts, counts)`` of the runs of equal values in a
    non-decreasing, non-negative ``row_of`` (one run per row that has
    a cell)."""
    counts = np.bincount(row_of)
    counts = counts[counts > 0]
    return np.cumsum(counts) - counts, counts


def segment_log_softmax(x: Tensor, row_of: np.ndarray) -> Tensor:
    """Log-softmax of a flat ``(M,)`` tensor within each row segment.

    ``row_of`` (non-decreasing) assigns every cell to a row; each row
    normalizes over its own cells only — the ragged counterpart of
    :func:`log_softmax` over a padded, masked grid.  Backward:
    ``g - softmax * segment_sum(g)``.
    """
    starts, counts = segments(row_of)
    value = x.data
    if len(value):
        shifted = value - np.repeat(np.maximum.reduceat(value, starts),
                                    counts)
        # float64 accumulation: reduceat adds left to right, and a
        # float32 running sum over a few hundred cells would lose the
        # last digits a pairwise row sum keeps.
        log_sum = np.log(np.add.reduceat(np.exp(shifted), starts,
                                         dtype=np.float64))
        value = shifted - np.repeat(log_sum.astype(value.dtype), counts)
    out = x._make_child(value, (x,), "segment_log_softmax")
    if out.requires_grad:

        def _backward() -> None:
            g = out.grad
            if not len(g):
                x._accumulate(g)
                return
            row_sum = np.add.reduceat(g, starts, dtype=np.float64)
            x._accumulate(g - np.exp(out.data) * np.repeat(
                row_sum.astype(g.dtype), counts))

        out._backward = _backward
    return out


def segment_dot(x: Tensor, y: Tensor, row_of: np.ndarray) -> Tensor:
    """``out[m] = y[m] · x[row_of[m]]``: each of the ``(M, d)`` cells of
    ``y`` dotted with its row of the ``(N, d)`` ``x``, for a
    non-decreasing ``row_of``.

    The segment row gather ``x[row_of]`` is fused into the dot, so the
    tape holds no ``(M, d)`` copy of it or of the product — on a
    training frontier those would be the largest arrays of the hop.
    Backward to ``x`` sums each run of cells into its row with one
    ``np.add.reduceat``; to ``y`` it is ``g · x[row_of]``.
    """
    row_of = np.asarray(row_of)
    out = x._make_child(np.einsum("md,md->m", y.data, x.data[row_of]),
                        (x, y), "segment_dot")
    if out.requires_grad:

        def _backward() -> None:
            g = out.grad[:, None]
            if x.requires_grad:
                grad = np.zeros_like(x.data)
                if len(row_of):
                    starts, _ = segments(row_of)
                    grad[row_of[starts]] = np.add.reduceat(
                        g * y.data, starts, axis=0)
                x._accumulate(grad)
            if y.requires_grad:
                y._accumulate(g * x.data[row_of])

        out._backward = _backward
    return out


def cross_entropy(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Categorical cross-entropy from raw logits and integer targets.

    Parameters
    ----------
    logits:
        ``(batch, num_classes)`` scores.
    targets:
        ``(batch,)`` integer class indices.
    """
    targets = np.asarray(targets, dtype=np.int64)
    logp = log_softmax(logits, axis=-1)
    batch = np.arange(targets.shape[0])
    picked = logp[batch, targets]
    loss = -picked
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    return loss


def binary_cross_entropy(probs: Tensor, targets: np.ndarray, eps: float = 1e-7,
                         reduction: str = "sum") -> Tensor:
    """Binary cross-entropy on probabilities (Eq. 14 of the paper).

    ``Lce = -sum_j [ y_j log(p_j) + (1 - y_j) log(1 - p_j) ]``

    Probabilities are clipped into ``[eps, 1-eps]`` inside the graph via
    ``clip`` so gradients remain finite at the boundaries.
    """
    targets = np.asarray(targets, dtype=probs.dtype)
    clipped = clip(probs, eps, 1.0 - eps)
    term = clipped.log() * targets + (1.0 - clipped).log() * (1.0 - targets)
    loss = -term
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    return loss


def clip(x: Tensor, low: float, high: float) -> Tensor:
    """Clamp values to ``[low, high]``; gradient is zero outside."""
    value = np.clip(x.data, low, high)
    out = x._make_child(value, (x,), "clip")
    if out.requires_grad:
        mask = (x.data >= low) & (x.data <= high)

        def _backward() -> None:
            x._accumulate(out.grad * mask)

        out._backward = _backward
    return out


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-p)``."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    return x * Tensor(mask, dtype=x.dtype)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    c = np.sqrt(2.0 / np.pi)
    inner = (x + x.pow(3.0) * 0.044715) * c
    return x * (inner.tanh() + 1.0) * 0.5


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def relu(x: Tensor) -> Tensor:
    return x.relu()


def scatter_add(src: Tensor, index, shape) -> Tensor:
    """Dense tensor of ``shape`` with ``src`` summed into ``index`` cells.

    ``index`` is anything :func:`add_at` accepts (typically a tuple of
    integer arrays, one per target axis).  Backward gathers the output
    gradient back at ``index``.  Used to aggregate per-path
    probabilities into per-(session, item) scores ``ŷ`` (Eq. 14).
    """
    data = np.zeros(shape, dtype=src.dtype)
    add_at(data, index, src.data)
    out = src._make_child(data, (src,), "scatter_add")
    if out.requires_grad:

        def _backward() -> None:
            src._accumulate(out.grad[index])

        out._backward = _backward
    return out
