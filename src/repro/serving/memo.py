"""In-flush dedup, and the retired walk memo's harness-only shell.

:func:`dedup_plan` collapses duplicate rows inside one coalesced flush
so each unique ``(suffix, user, candidate-set)`` walks **once** and
every request mapped to it reads the same answer row.  Across flushes
a repeat session is the :class:`~repro.serving.cache.ExplanationCache`'s
job: every miss is ranked at the server's ``k`` ceiling, so one entry
per session answers every ``k`` asked so far.

:class:`WalkMemo` is not on the serving path.  It exists only because
the frozen end-to-end harness (``benchmarks/e2e/layers.py``) times
``WalkMemo.key`` / ``put`` / ``get`` as a layer, and it goes with
benchmark v2.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

from repro.serving.cache import ExplanationCache


def dedup_plan(keys: Sequence[Hashable]
               ) -> Tuple[List[int], List[int]]:
    """Collapse duplicate row keys to first occurrences.

    Returns ``(uniq, row_map)``: ``uniq[j]`` is the original index of
    the j-th unique key (first-occurrence order, so the unique batch
    preserves the flush's row order) and ``row_map[i]`` is original row
    i's index into the unique batch.  ``len(uniq) == len(keys)`` means
    nothing collapsed.
    """
    index: Dict[Hashable, int] = {}
    uniq: List[int] = []
    row_map: List[int] = []
    for i, key in enumerate(keys):
        j = index.get(key)
        if j is None:
            j = len(uniq)
            index[key] = j
            uniq.append(i)
        row_map.append(j)
    return uniq, row_map


class MemoKey(NamedTuple):
    """One walk row's inputs (see :meth:`WalkMemo.key`)."""

    suffix: Tuple[int, ...]
    user: Optional[int]
    candidates: Optional[Tuple[int, ...]]
    version: int
    store_token: str
    width: int


class WalkMemo(ExplanationCache):
    """A plain LRU keyed by walk inputs, kept only for the frozen
    benchmark harness; nothing in the program stores walks in it."""

    @staticmethod
    def key(prefix_items: Sequence[int], user_id: Optional[int],
            candidates: Optional[Tuple[int, ...]],
            version: int, store_token: str, width: int = 0) -> MemoKey:
        return MemoKey(tuple(int(i) for i in prefix_items), user_id,
                       candidates, int(version), store_token, int(width))
