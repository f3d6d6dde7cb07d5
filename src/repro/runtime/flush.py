"""One flush, one path: the :class:`FlushPlan` and :func:`execute_flush`.

The server cuts a flush into a :class:`FlushPlan` once — which rows
walk, at which ``k``, under which candidate sets, and which answer row
every request reads — and :func:`execute_flush` is the only code that
turns a plan into a :class:`~repro.runtime.rowblock.RowBlock`.  The
thread executor calls it on the server's memo and workspace, a process
worker on its own; the plan reaches the worker as it is over the pipe
and flattened by :func:`repro.runtime.rings.encode_plan` over the ring.

What a flush shares is the plan's *contents*, not a code path: with
in-flush dedup off the plan is the identity (every request its own
unique row), with the walk memo off (capacity 0) every row misses, and
a plan with nothing to share is exactly the plain batch walk — one
``recommend`` at the batch's max ``k`` and padded width, every row cut
at its own ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

from repro.data.loader import collate_examples
from repro.runtime.rowblock import RowBlock, select_rows
from repro.telemetry.trace import attribute_rows, span_kind_id

_SPAN_EXEC = span_kind_id("exec")
_SPAN_COLLATE = span_kind_id("collate")
_SPAN_CASCADE = span_kind_id("cascade")


@dataclass(frozen=True)
class FlushPlan:
    """What one flush executes and how its requests read the answer.

    The first three fields are per **unique** walk row, the next three
    per **request**.  ``pairs`` lists the distinct ``(unique row, k)``
    answer rows in first-request order — one
    :class:`~repro.runtime.rowblock.RowBlock` row each — and
    ``fan_out[i]`` is the block row answering request ``i``.
    """

    rows: Sequence[tuple]   # (prefix items, target, user id) to walk
    ks: Sequence[int]       # walk k: the max k any request asks of the row
    candidates: Optional[Sequence[Sequence[int]]]  # None: cascade off
    row_map: Sequence[int]  # request -> unique row
    row_ks: Sequence[int]   # request -> its own k
    traces: Sequence[int]   # request -> sampled trace id (0: not traced)
    pairs: List[Tuple[int, int]] = field(init=False)
    fan_out: List[int] = field(init=False)

    def __post_init__(self) -> None:
        index: dict = {}
        fan_out = [index.setdefault(pair, len(index))
                   for pair in zip(self.row_map, self.row_ks)]
        object.__setattr__(self, "pairs", list(index))
        object.__setattr__(self, "fan_out", fan_out)

    @classmethod
    def build(cls, examples: Sequence[tuple], ks: Sequence[int],
              candidates: Optional[Sequence[Sequence[int]]] = None,
              traces: Optional[Sequence[int]] = None,
              dedup: Optional[Tuple[Sequence[int], Sequence[int]]] = None
              ) -> "FlushPlan":
        """The plan of one flush; every argument is per request.

        ``dedup`` is :func:`repro.serving.memo.dedup_plan`'s ``(uniq,
        row_map)`` over the requests' walk inputs, ``None`` the
        identity (nothing collapses).  A unique row walks once, at the
        max ``k`` over the requests mapped to it, under its first
        request's candidate set.
        """
        n = len(examples)
        uniq, row_map = (range(n), range(n)) if dedup is None else dedup
        if (n == 0 or len(ks) != n or len(row_map) != n
                or (candidates is not None and len(candidates) != n)
                or (traces is not None and len(traces) != n)):
            raise ValueError(
                f"bad flush shape: {n} examples, {len(ks)} ks, "
                f"{len(row_map)} mapped rows")
        walk_ks = [0] * len(uniq)
        for j, k in zip(row_map, ks):
            if k > walk_ks[j]:
                walk_ks[j] = k
        return cls([examples[i] for i in uniq], walk_ks,
                   None if candidates is None
                   else [candidates[i] for i in uniq],
                   list(row_map), list(ks),
                   [0] * n if traces is None else list(traces))


def execute_flush(agent, workspace, memo, version: int, store_token: str,
                  plan: FlushPlan, metrics
                  ) -> Tuple[RowBlock, List[tuple], List[tuple]]:
    """Answer ``plan`` on ``agent``: ``(block, spans, rowrecs)``.

    Memo lookup per unique row, one collate → constraint →
    ``recommend`` over the misses, one
    :func:`~repro.runtime.rowblock.select_rows` over ``plan.pairs``.
    The misses collate at the *flush* width (the longest truncated
    prefix over every unique row) and memo keys carry it, so a subset
    walk and a memo replay reproduce the full flush's rows bit for bit
    (see ``repro.serving.memo``).  ``workspace`` is the caller's,
    already checked out; ``memo`` is a
    :class:`~repro.serving.memo.WalkMemo` owned by the calling
    executor, keyed here — user anchor included — for both worker
    modes.

    ``spans`` are ``(kind_id, t0, dur)`` triples — collate, cascade
    (the constraint build), walk, topk, exec — and ``rowrecs`` the
    :func:`~repro.telemetry.trace.attribute_rows` records of the rows
    that walked, each under the first sampled request mapped to it;
    both are empty unless the plan carries a trace id.  ``exec`` and
    the ``exec_seconds`` histogram cover memo lookup through row
    selection.
    """
    t0 = perf_counter()
    config = agent.config
    max_len = config.max_session_length
    rows, cands = plan.rows, plan.candidates
    n = len(rows)
    sampled = any(plan.traces)
    spans: List[tuple] = []
    rowrecs: List[tuple] = []
    sources: List[Optional[tuple]] = [None] * n
    prefixes = [row[0][-max_len:] for row in rows]
    width = max(map(len, prefixes))
    keys = None
    if memo.capacity:
        by_user = config.start_from == "user"
        keys = [memo.key(prefixes[j], rows[j][2] if by_user else None,
                         None if cands is None else tuple(cands[j]),
                         version, store_token, width=width)
                for j in range(n)]
        sources = [memo.get(key) for key in keys]
        evicted = memo.evictions
    miss = [j for j in range(n) if sources[j] is None]
    # The ranking the walk itself makes, per freshly walked row, at the
    # walk's own k (memo hits carry a score row, no ranking).
    ranked: List[Optional[object]] = [None] * n
    walk_k = 0
    if miss:
        c0 = perf_counter()
        batch = collate_examples([rows[j] for j in miss], max_len,
                                 width=width)
        c1 = perf_counter()
        constraint = None
        if cands is not None:
            from repro.cascade import build_constraint

            constraint = build_constraint(
                agent, [cands[j] for j in miss], config.path_length)
        miss_ks = [plan.ks[j] for j in miss]
        walk_k = max(miss_ks)
        if sampled:
            spans.append((_SPAN_COLLATE, c0, c1 - c0))
            if constraint is not None:
                spans.append((_SPAN_CASCADE, c1, perf_counter() - c1))
            workspace.spans = spans  # recommend appends walk / topk
            workspace.row_frontier = []
        try:
            rec = agent.recommend(batch, k=walk_k, workspace=workspace,
                                  candidates=constraint)
        finally:
            frontier = workspace.row_frontier
            workspace.spans = workspace.row_frontier = None
        memo.note_walk_cost(len(miss), perf_counter() - c0)
        for idx, j in enumerate(miss):
            scores = rec.scores[idx]
            # A memoised score row must outlive the walk's matrix; a
            # row nothing keeps is read as the view it is.
            sources[j] = (scores if keys is None else scores.copy(),
                          rec.paths.row(idx))
            ranked[j] = rec.ranked_items[idx]
            if keys is not None:
                memo.put(keys[j], sources[j])
        if sampled:
            first = [0] * n
            for j, trace in zip(plan.row_map, plan.traces):
                if trace and not first[j]:
                    first[j] = trace
            rowrecs = attribute_rows([first[j] for j in miss], miss_ks,
                                     frontier, spans)
    block = select_rows(sources, plan.pairs, ranked, walk_k)
    dur = perf_counter() - t0
    if sampled:
        spans.append((_SPAN_EXEC, t0, dur))
    if metrics is not None:
        # exec_rows_total counts rows actually walked; memo hits and
        # collapsed duplicates show in their own counters.
        counts = [("exec_batches_total", 1), ("exec_rows_total", len(miss))]
        if keys is not None:
            counts += [("walk_memo_hits_total", n - len(miss)),
                       ("walk_memo_misses_total", len(miss)),
                       ("walk_memo_evictions_total",
                        memo.evictions - evicted)]
        metrics.count_observe(counts, "exec_seconds", dur)
        if keys is not None:
            metrics.gauge("walk_seconds_saved_total", memo.seconds_saved)
    return block, spans, rowrecs
