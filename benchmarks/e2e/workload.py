"""Seeded traffic generator and the five workload definitions.

Everything here is a pure function of ``(catalogue size, training
users, seed)``: the program under test receives only the generated
:class:`~repro.data.schema.Session` lists.

A request's *cache identity* is its prefix (``items[:-1]``) truncated
to ``max_session_length`` — what ``ExplanationCache``/``WalkMemo`` key
on with the default ``start_from="last_item"``.  "Distinct" sessions
are distinct in that identity, so the length mix below is over
**prefix** lengths: a one-item prefix has only ``n_items`` identities,
which no cache-bypassing workload could be built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.data.schema import Session

PREFIX_LENGTHS = (2, 3, 4, 6, 8, 12)
PREFIX_WEIGHTS = (0.30, 0.25, 0.20, 0.12, 0.08, 0.05)
ITEM_ZIPF = 1.05
MAX_SESSION_LENGTH = 10  # REKSConfig.max_session_length (the default)

Request = Tuple[Session, int]


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def popularity_order(n_items: int) -> np.ndarray:
    """Item ids from most to least popular: one fixed permutation.

    Which items are hot is part of the workload, not of the seed: a
    walk's cost follows the degree of the items it starts from, and
    with a per-seed permutation the same commit's throughput moved 15%
    between seeds (4% between runs of one seed).
    """
    return np.random.default_rng(0).permutation(n_items) + 1  # 1-based


def identity(session: Session) -> Tuple[int, ...]:
    return tuple(session.items[:-1][-MAX_SESSION_LENGTH:])


def distinct_sessions(n: int, n_items: int, users: Sequence[int],
                      seed: int, exponent: float = ITEM_ZIPF
                      ) -> List[Session]:
    """``n`` sessions with pairwise distinct cache identities.

    Items are Zipf(``exponent``) over ``popularity_order`` (0 is
    uniform); draws whose identity was already produced are rejected,
    which flattens the head of the shortest prefixes a little and is
    what "every request walks" requires.
    """
    rng = np.random.default_rng(seed)
    ranked = popularity_order(n_items)
    item_p = zipf_weights(n_items, exponent)
    users = np.asarray(users)
    seen = set()
    out: List[Session] = []
    while len(out) < n:
        want = n - len(out)
        lengths = rng.choice(PREFIX_LENGTHS, size=want, p=PREFIX_WEIGHTS)
        draws = ranked[rng.choice(n_items, size=int(lengths.sum()) + want,
                                  p=item_p)]
        who = users[rng.integers(0, len(users), size=want)]
        at = 0
        for length, user in zip(lengths, who):
            items = [int(i) for i in draws[at:at + length + 1]]
            at += length + 1
            session = Session(items=items, user_id=int(user), day=0)
            key = identity(session)
            if key not in seen:
                seen.add(key)
                out.append(session)
    return out


@dataclass(frozen=True)
class Spec:
    """One workload: how the server is built and how it is driven.

    ``pool`` is how many distinct sessions are generated — sized so a
    host twice as fast as the reference one still does not exhaust it
    within ``run_seconds``; ``warmup`` requests are driven first and
    discarded.
    """

    name: str
    pool: int
    warmup: int
    server: dict
    hot: bool = False         # requests are Zipf draws over the pool
    cascade: bool = False
    live: bool = False


CASCADE_M = 50            # cascade_cold: first-stage candidates per request
HOT_ZIPF = 1.1
HOT_KS = (5, 10, 20)
HOT_REQUESTS = 120_000
COLD_K = 10

SPECS = {
    "cold_unique": Spec("cold_unique", pool=40_000, warmup=640, server={}),
    "hot_zipf": Spec("hot_zipf", pool=2_000, warmup=8_000, server={},
                     hot=True),
    "process_cold": Spec("process_cold", pool=40_000, warmup=640,
                         server={"worker_mode": "process",
                                 "transport": "ring"}),
    "cascade_cold": Spec("cascade_cold", pool=40_000, warmup=640,
                         server={}, cascade=True),
    "live_update": Spec("live_update", pool=40_000, warmup=640, server={},
                        live=True),
}

# Every server, fixed here so a bigger host runs the same program.
SERVER_BASE = dict(workers=2, max_batch=32, max_wait_ms=2.0)
WINDOW = 32


def requests_for(spec: Spec, n_items: int, users: Sequence[int],
                 seed: int, shrink: int = 1) -> List[Request]:
    """The request list of one workload (warm-up slice first).

    ``shrink`` divides every count (the ``--smoke`` mode uses 40).
    The four cold workloads share one list per seed, so they differ
    from ``cold_unique`` in the server (and the writer) only.
    """
    pool = distinct_sessions(max(spec.pool // shrink, 64), n_items, users,
                             seed)
    if not spec.hot:
        return [(session, COLD_K) for session in pool]
    rng = np.random.default_rng(seed + 1)
    n = max(HOT_REQUESTS // shrink, 256)
    picks = rng.choice(len(pool), size=n, p=zipf_weights(len(pool), HOT_ZIPF))
    ks = rng.choice(HOT_KS, size=n)
    return [(pool[i], int(k)) for i, k in zip(picks, ks)]
