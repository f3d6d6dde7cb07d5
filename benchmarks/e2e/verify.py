"""Output verification: every checked answer must equal the offline
oracle and carry real KG paths.

Two checks per sampled response:

* **structure** — scores finite and non-increasing; every non-empty
  path is, hop by hop, an edge of ``env.actions_of`` and its terminal
  entity maps to the recommended item;
* **oracle** — items and rendered explanations equal what the
  single-threaded offline API returns for the same session and ``k``
  (``trainer.recommend_sessions``; with the cascade on,
  ``agent.recommend`` under the constraint built from the provider's
  own top-M).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cascade import build_constraint
from repro.data.loader import collate_examples
from repro.kg.paths import render_path

from benchmarks.e2e.workload import (CASCADE_M, MAX_SESSION_LENGTH, Request,
                                     identity)

SAMPLE = 256
Answer = Tuple[Tuple[int, ...], Tuple[str, ...]]


def structure_error(world, k: int, result) -> Optional[str]:
    """Why ``result`` is not a well-formed answer, or None."""
    if not (len(result.items) == len(result.scores) == len(result.paths)
            == len(result.explanations) == k):
        return f"expected {k} items, got {len(result.items)}"
    scores = result.scores
    if not all(math.isfinite(s) for s in scores):
        return "non-finite score"
    if any(a < b for a, b in zip(scores, scores[1:])):
        return "scores increase down the ranking"
    env, built = world.env, world.built
    for item, path, text in zip(result.items, result.paths,
                                result.explanations):
        if path is None:
            if text:
                return f"item {item}: explanation without a path"
            continue
        for hop, rel in enumerate(path.relations):
            rels, tails = env.actions_of(path.entities[hop])
            if not ((rels == rel) & (tails == path.entities[hop + 1])).any():
                return (f"item {item}: hop {hop} "
                        f"{path.entities[hop]} -{rel}-> "
                        f"{path.entities[hop + 1]} is not a KG edge")
        if int(built.items_of_entities([path.terminal])[0]) != item:
            return f"item {item}: path ends at entity {path.terminal}"
        if text != render_path(path, built.kg):
            return f"item {item}: explanation does not render its path"
    return None


def _answers(world, rec) -> List[Answer]:
    out = []
    for row in range(len(rec.ranked_items)):
        items = tuple(int(i) for i in rec.ranked_items[row])
        texts = tuple(
            render_path(rec.paths[(row, item)], world.built.kg)
            if (row, item) in rec.paths else "" for item in items)
        out.append((items, texts))
    return out


def oracle(world, requests: Sequence[Request], provider=None
           ) -> List[Answer]:
    """The offline answer for each request, in order (under the
    cascade's constraint when its ``provider`` is given)."""
    answers: List[Optional[Answer]] = [None] * len(requests)
    agent = world.agent
    for k in sorted({k for _, k in requests}):
        rows = [i for i, (_, rk) in enumerate(requests) if rk == k]
        sessions = [requests[i][0] for i in rows]
        if provider is None:
            # 32-row batches, as served: a 256-row hop-1 frontier over
            # a graph grown by live ingestion gathers gigabytes.
            got = [answer for rec
                   in world.trainer.recommend_sessions(sessions, k=k,
                                                       batch_size=32)
                   for answer in _answers(world, rec)]
        else:
            examples = [(s.items[:-1], s.items[-1], s.user_id)
                        for s in sessions]
            candidates = [provider.top_m(identity(s), CASCADE_M,
                                         user_id=None) for s in sessions]
            got = []
            for lo in range(0, len(sessions), 32):
                rec = agent.recommend(
                    collate_examples(examples[lo:lo + 32],
                                     MAX_SESSION_LENGTH), k=k,
                    candidates=build_constraint(
                        agent, candidates[lo:lo + 32],
                        agent.config.path_length))
                got.extend(_answers(world, rec))
        for i, answer in zip(rows, got):
            answers[i] = answer
    return answers


def verify(world, requests: Sequence[Request], kept: Dict[int, object],
           provider=None, against_oracle: bool = True) -> List[str]:
    """Error messages for the kept responses (empty = all correct)."""
    errors = []
    indices = sorted(kept)
    for index in indices:
        problem = structure_error(world, requests[index][1], kept[index])
        if problem:
            errors.append(f"request {index}: {problem}")
    if against_oracle:
        expected = oracle(world, [requests[i] for i in indices], provider)
        for index, (items, texts) in zip(indices, expected):
            result = kept[index]
            if tuple(result.items) != items:
                errors.append(f"request {index}: items {result.items} "
                              f"!= oracle {items}")
            elif tuple(result.explanations) != texts:
                errors.append(f"request {index}: explanations differ "
                              f"from the oracle's")
    return errors
