"""One flush, one path: the :class:`FlushPlan` and :func:`execute_flush`.

The server cuts a flush into a :class:`FlushPlan` once — which rows
walk, at which ``k``, under which candidate sets, and which answer row
every request reads — and :func:`execute_flush` is the only code that
turns a plan into a :class:`~repro.runtime.rowblock.RowBlock`.  The
thread executor calls it on the server's workspace, a process worker
on its own; the plan reaches the worker as it is over the pipe and
flattened by :func:`repro.runtime.rings.encode_plan` over the ring.

What a flush shares is the plan's *contents*, not a code path: with
in-flush dedup off the plan is the identity (every request its own
unique row), and either way it is the plain batch walk of its unique
rows — one ``recommend`` at the plan's max ``k``, every answer row the
first ``k`` of its walk row's ranking.
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


def execute_flush(agent, workspace, plan: FlushPlan, metrics
                  ) -> Tuple[RowBlock, List[tuple], List[tuple]]:
    """Answer ``plan`` on ``agent``: ``(block, spans, rowrecs)``.

    One collate → constraint → ``recommend`` over the plan's unique
    rows at its max ``k``, one
    :func:`~repro.runtime.rowblock.select_rows` over ``plan.pairs``.
    ``workspace`` is the caller's, already checked out.

    ``spans`` are ``(kind_id, t0, dur)`` triples — collate, cascade
    (the constraint build), walk, topk, exec — and ``rowrecs`` the
    :func:`~repro.telemetry.trace.attribute_rows` records of the walked
    rows, each under the first sampled request mapped to it; both are
    empty unless the plan carries a trace id.  ``exec`` and the
    ``exec_seconds`` histogram cover collation through row selection.
    """
    t0 = perf_counter()
    config = agent.config
    rows, cands = plan.rows, plan.candidates
    sampled = any(plan.traces)
    spans: List[tuple] = []
    rowrecs: List[tuple] = []
    batch = collate_examples(rows, config.max_session_length)
    c1 = perf_counter()
    constraint = None
    if cands is not None:
        from repro.cascade import build_constraint

        constraint = build_constraint(agent, cands, config.path_length)
    if sampled:
        spans.append((_SPAN_COLLATE, t0, c1 - t0))
        if constraint is not None:
            spans.append((_SPAN_CASCADE, c1, perf_counter() - c1))
        workspace.spans = spans  # recommend appends walk / topk
        workspace.row_frontier = []
    try:
        rec = agent.recommend(batch, k=max(plan.ks), workspace=workspace,
                              candidates=constraint)
    finally:
        frontier = workspace.row_frontier
        workspace.spans = workspace.row_frontier = None
    if sampled:
        first = [0] * len(rows)
        for j, trace in zip(plan.row_map, plan.traces):
            if trace and not first[j]:
                first[j] = trace
        rowrecs = attribute_rows(first, plan.ks, frontier, spans)
    block = select_rows(rec, plan.pairs)
    dur = perf_counter() - t0
    if sampled:
        spans.append((_SPAN_EXEC, t0, dur))
    if metrics is not None:
        metrics.count_observe(
            (("exec_batches_total", 1), ("exec_rows_total", len(rows))),
            "exec_seconds", dur)
    return block, spans, rowrecs
