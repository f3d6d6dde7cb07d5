"""Small shared utilities: seeding, progress logging."""

from __future__ import annotations

import logging
import time
from typing import Iterator, Optional

import numpy as np

logger = logging.getLogger("repro")


def make_rng(seed: Optional[int]) -> np.random.Generator:
    """Construct a seeded generator (``None`` -> nondeterministic)."""
    return np.random.default_rng(seed)


def spawn_rngs(seed: Optional[int], count: int) -> "list[np.random.Generator]":
    """Derive ``count`` independent child generators from one seed."""
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


class Stopwatch:
    """Context manager measuring wall-clock seconds into ``.elapsed``."""

    def __init__(self) -> None:
        self.elapsed = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start


def batched(indices: np.ndarray, batch_size: int) -> Iterator[np.ndarray]:
    """Yield contiguous index chunks of at most ``batch_size``."""
    for start in range(0, len(indices), batch_size):
        yield indices[start:start + batch_size]
