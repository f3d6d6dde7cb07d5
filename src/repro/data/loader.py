"""Batching of sessions for the encoders and the REKS agent.

Each batch carries the padded item matrix, a validity mask, the last
real item of every prefix (the REKS path starting point), the session's
user id (for the ``start_from="user"`` ablation) and the target item.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.data.schema import Session

PAD = 0


@dataclass
class SessionBatch:
    """One minibatch of session prefixes and next-item targets."""

    items: np.ndarray      # (B, T) int64, right-padded with 0
    mask: np.ndarray       # (B, T) float32, 1 for real positions
    lengths: np.ndarray    # (B,) int64
    last_items: np.ndarray  # (B,) int64 — last item of each prefix
    targets: np.ndarray    # (B,) int64 — ground-truth next item
    users: np.ndarray      # (B,) int64 — -1 where the example has none

    @property
    def batch_size(self) -> int:
        return self.items.shape[0]


def collate_examples(examples: Sequence[tuple],
                     max_length: int) -> SessionBatch:
    """Pad a list of ``(prefix_items, target, user_id)`` examples
    (``user_id`` may be None where the walk does not start from it).

    The single collation routine shared by :class:`SessionBatcher` and
    the serving layer's micro-batcher, so a coalesced micro-batch is
    laid out bit-identically to an offline batch of the same sessions.
    """
    prefixes = [ex[0][-max_length:] for ex in examples]
    lengths = np.array([len(p) for p in prefixes], dtype=np.int64)
    width = int(lengths.max())
    batch = len(examples)
    items = np.zeros((batch, width), dtype=np.int64)
    mask = np.zeros((batch, width), dtype=np.float32)
    for row, prefix in enumerate(prefixes):
        items[row, :len(prefix)] = prefix
        mask[row, :len(prefix)] = 1.0
    return SessionBatch(
        items=items,
        mask=mask,
        lengths=lengths,
        last_items=np.array([p[-1] for p in prefixes], dtype=np.int64),
        targets=np.array([ex[1] for ex in examples], dtype=np.int64),
        users=np.array([-1 if ex[2] is None else ex[2]
                        for ex in examples], dtype=np.int64),
    )


class SessionBatcher:
    """Iterate padded minibatches over a list of sessions.

    Parameters
    ----------
    sessions:
        Source sessions; each contributes (prefix, target) where the
        prefix is everything but the last item.
    batch_size:
        Maximum sessions per batch.
    max_length:
        Prefixes longer than this keep only their most recent items.
    augment:
        When True, every session of length L also contributes the
        shorter prefixes (items[:2]->items[2], ...), the standard SR
        training augmentation.
    """

    def __init__(self, sessions: Sequence[Session], batch_size: int = 128,
                 max_length: int = 10, augment: bool = False,
                 shuffle: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.batch_size = batch_size
        self.max_length = max_length
        self.shuffle = shuffle
        self.rng = rng or np.random.default_rng(0)
        self._examples: List[tuple] = []
        for session in sessions:
            items = session.items
            if len(items) < 2:
                continue
            if augment:
                for cut in range(1, len(items)):
                    self._examples.append((items[:cut], items[cut], session.user_id))
            else:
                self._examples.append((items[:-1], items[-1], session.user_id))

    def __len__(self) -> int:
        return (len(self._examples) + self.batch_size - 1) // self.batch_size

    @property
    def num_examples(self) -> int:
        return len(self._examples)

    def __iter__(self) -> Iterator[SessionBatch]:
        order = np.arange(len(self._examples))
        if self.shuffle:
            self.rng.shuffle(order)
        for start in range(0, len(order), self.batch_size):
            chunk = [self._examples[i] for i in order[start:start + self.batch_size]]
            yield self._collate(chunk)

    def _collate(self, examples: List[tuple]) -> SessionBatch:
        return collate_examples(examples, self.max_length)
