"""Request-coalescing serving layer for REKS recommendation traffic.

The batch-oriented core (:class:`~repro.core.agent.REKSAgent`) answers
one ``SessionBatch`` at a time on one thread; this package turns it
into an interactive service: concurrent single-session requests are
coalesced into micro-batches (flushed on size or deadline, whichever
first), executed by one thread (or a fleet of worker processes)
owning its :class:`~repro.core.environment.RolloutWorkspace`, and
answered with per-request rankings plus rendered explanation paths.  See
``README.md`` in this directory for the architecture note.

Quickstart::

    with trainer.serve(max_batch=32, max_wait_ms=2.0) as server:
        result = server.recommend_one(session, k=10)
        print(result.items, result.explanations[0])
        print(server.stats().to_dict())
"""

from repro.serving.cache import ExplanationCache
from repro.serving.memo import dedup_plan
from repro.serving.scheduler import (
    BatchScheduler,
    PendingRequest,
    SchedulerClosed,
)
from repro.serving.server import (
    RecommendationServer,
    ServedResult,
    ServerClosed,
)
from repro.serving.stats import ServerStats, StatsSnapshot

__all__ = [
    "BatchScheduler",
    "PendingRequest",
    "SchedulerClosed",
    "ExplanationCache",
    "dedup_plan",
    "RecommendationServer",
    "ServedResult",
    "ServerClosed",
    "ServerStats",
    "StatsSnapshot",
]
