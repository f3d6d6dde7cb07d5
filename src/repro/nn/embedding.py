"""Embedding table with scatter-add backward."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import init
from repro.autograd.functional import add_at, coerce_indices
from repro.autograd.tensor import Tensor, is_grad_enabled
from repro.nn.module import Module, Parameter


class Embedding(Module):
    """Dense lookup table ``(num_embeddings, dim)``.

    ``padding_idx`` rows are zeroed at construction and re-zeroed after
    every lookup's backward via gradient masking is unnecessary: the
    optimizer may update them, so callers that rely on a true zero pad
    should call :meth:`zero_padding` after optimizer steps (the session
    batcher in this project masks padded positions explicitly instead).
    """

    def __init__(self, num_embeddings: int, dim: int,
                 padding_idx: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None,
                 std: float = 0.05) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.padding_idx = padding_idx
        self.weight = Parameter(init.normal((num_embeddings, dim), rng, std=std))
        if padding_idx is not None:
            self.weight.data[padding_idx] = 0.0

    def _checked(self, indices: np.ndarray, detach: bool) -> np.ndarray:
        indices = coerce_indices(indices, detach=detach)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings})"
            )
        return indices

    def forward(self, indices: np.ndarray) -> Tensor:
        # Detach (copy) only when a backward closure will retain the
        # indices; inference gathers read the caller's array in place.
        return self.weight[self._checked(
            indices, detach=self.weight.requires_grad and is_grad_enabled())]

    def zero_padding(self) -> None:
        if self.padding_idx is not None:
            self.weight.data[self.padding_idx] = 0.0

    @classmethod
    def from_pretrained(cls, weights: np.ndarray, trainable: bool = True,
                        padding_idx: Optional[int] = None,
                        copy: bool = True) -> "Embedding":
        """Build a table from an existing matrix (e.g. TransE output).

        ``copy=False`` wraps ``weights`` **zero-copy** — the table's
        parameter aliases the given float32 buffer.  That is how
        process workers mount the frozen TransE tables exported to the
        shared-memory plane by :mod:`repro.runtime`: every worker reads
        the same physical pages.  It requires ``trainable=False`` and
        no ``padding_idx`` (both would write the foreign buffer).

        Frozen tables (``trainable=False``) come back with a
        **read-only** payload either way, so agent clones can share
        them safely: checkpoint loads go through the copy-on-write
        path in :meth:`repro.nn.module.Module.load_state_dict`, and
        in-place mutators must call
        :meth:`repro.autograd.tensor.Tensor.ensure_writable` first —
        either way nothing silently mutates a buffer another agent is
        reading.
        """
        if not copy:
            if trainable or padding_idx is not None:
                raise ValueError(
                    "from_pretrained(copy=False) shares the caller's "
                    "buffer; it requires trainable=False and no "
                    "padding_idx")
            data = np.asarray(weights)
            if data.dtype != np.float32 or data.ndim != 2:
                raise ValueError(
                    "from_pretrained(copy=False) needs a 2-D float32 "
                    f"array, got {data.dtype} {data.shape}")
            if data.flags.writeable:
                data = data.view()
                data.flags.writeable = False
            table = cls.__new__(cls)
            Module.__init__(table)
            table.num_embeddings, table.dim = data.shape
            table.padding_idx = None
            weight = Parameter(data)
            weight.requires_grad = False
            table.weight = weight
            return table
        table = cls(weights.shape[0], weights.shape[1], padding_idx=padding_idx,
                    rng=np.random.default_rng(0))
        table.weight.data[...] = weights.astype(table.weight.data.dtype)
        table.weight.requires_grad = trainable
        if not trainable and padding_idx is None:
            # Freeze the payload so clones can alias it (COW on write).
            table.weight.data.flags.writeable = False
        return table


def embedding_sum(first: Embedding, first_indices: np.ndarray,
                  second: Embedding, second_indices: np.ndarray) -> Tensor:
    """``first(first_indices) + second(second_indices)`` as one op.

    The forward gathers ``first``'s rows (a fresh array) and adds
    ``second``'s into it in place, so ``M`` lookups write one
    ``(M, dim)`` result rather than summing two gathers into a third
    (the policy's action embeddings, ``M`` flat action cells a hop).
    Backward scatter-adds the output gradient into each table that
    requires grad.  Both lookups keep :meth:`Embedding.forward`'s
    range check and its rule of detaching indices a backward closure
    retains.
    """
    grad_on = is_grad_enabled()
    lookups = [(table.weight, table._checked(
                   indices, detach=table.weight.requires_grad and grad_on))
               for table, indices in ((first, first_indices),
                                      (second, second_indices))]
    (w1, i1), (w2, i2) = lookups
    data = w1.data[i1]
    data += w2.data[i2]
    out = w1._make_child(data, (w1, w2), "embedding_sum")
    if out.requires_grad:
        trained = [(w, i) for w, i in lookups if w.requires_grad]

        def _backward() -> None:
            for weight, indices in trained:
                grad = np.zeros(weight.shape, dtype=weight.data.dtype)
                add_at(grad, indices, out.grad)
                weight._accumulate(grad)

        out._backward = _backward
    return out
