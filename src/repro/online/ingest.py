"""Streaming delta ingestion: new sessions and KG triples, live.

The offline pipeline freezes both the session log and the KG before
training; this module is the online counterpart.  A
:class:`DeltaIngestor` accepts streamed sessions and raw triples,
derives the same session-edges the offline builder would have
(directed ``co_occur`` between consecutive distinct items, plus the
bidirectional ``purchase`` pair when the KG has user entities), and
stages them into the live :class:`~repro.core.environment.KGEnvironment`
overlay — visible to in-flight walks immediately, folded into fresh
CSR tables by periodic compaction (``compact_every`` staged edges, or
an explicit :meth:`compact`).

Ingested sessions are also buffered as fine-tuning examples; the
:class:`~repro.online.updater.OnlineUpdater` drains them each round.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence

from repro.core.environment import KGEnvironment
from repro.data.schema import Session
from repro.kg.builder import BuiltKG


class DeltaIngestor:
    """Validates, stages, and buffers streamed deltas for one live stack."""

    def __init__(self, built: BuiltKG, env: KGEnvironment, *,
                 compact_every: int = 1024) -> None:
        if compact_every < 1:
            raise ValueError(
                f"compact_every must be >= 1, got {compact_every}")
        self.built = built
        self.env = env
        self.compact_every = compact_every
        self._lock = threading.Lock()
        self._pending: List[Session] = []
        self._co_occur = built.kg.relation_id("co_occur")
        try:
            self._purchase: Optional[int] = built.kg.relation_id("purchase")
        except KeyError:
            self._purchase = None
        # Lifetime counters (monotonic; survive drains and compactions).
        self.sessions_ingested = 0
        self.triples_ingested = 0
        self.edges_staged = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest_sessions(self, sessions: Sequence[Session]) -> int:
        """Accept a batch of completed sessions.

        Each session is validated (>= 2 items, ids within the trained
        catalog — new items need a retrain, not a delta), converted to
        KG edges exactly the way :func:`repro.kg.builder.build_kg`
        derives them from the training split, staged into the live
        environment, and buffered for the next fine-tune round.
        Returns the number of *new* KG edges staged (duplicates of
        already-known transitions cost nothing).
        """
        accepted: List[Session] = []
        heads: List[int] = []
        rels: List[int] = []
        tails: List[int] = []
        n_items = self.built.n_items
        for session in sessions:
            if len(session.items) < 2:
                raise ValueError(
                    f"ingested sessions need >= 2 items, got "
                    f"{len(session.items)}")
            for item in session.items:
                if not 1 <= item <= n_items:
                    raise ValueError(
                        f"item id {item} outside the trained catalog "
                        f"1..{n_items}; online ingestion cannot grow "
                        f"the item set")
            accepted.append(session)
            entities = self.built.entities_of_items(session.items)
            for src, dst in zip(entities[:-1], entities[1:]):
                if src != dst:
                    heads.append(int(src))
                    rels.append(self._co_occur)
                    tails.append(int(dst))
            if self._purchase is not None \
                    and self.built.user_entity is not None \
                    and 0 <= session.user_id < len(self.built.user_entity):
                user = int(self.built.user_entity[session.user_id])
                for entity in entities:
                    heads.extend((user, int(entity)))
                    rels.extend((self._purchase, self._purchase))
                    tails.extend((int(entity), user))
        staged = self.env.stage_edges(heads, rels, tails) if heads else 0
        with self._lock:
            self._pending.extend(accepted)
            self.sessions_ingested += len(accepted)
            self.edges_staged += staged
        self.compact_if_due()
        return staged

    def ingest_triples(self, heads, relation, tails) -> int:
        """Accept raw KG triples (e.g. fresh catalog metadata).

        ``relation`` is a relation id or name; entities must already
        exist.  Returns the number of new edges staged.
        """
        if isinstance(relation, str):
            relation = self.built.kg.relation_id(relation)
        heads = list(heads)
        tails = list(tails)
        staged = self.env.stage_edges(
            heads, [int(relation)] * len(heads), tails)
        with self._lock:
            self.triples_ingested += len(heads)
            self.edges_staged += staged
        self.compact_if_due()
        return staged

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact_if_due(self) -> int:
        """Fold the overlay once it holds ``compact_every`` staged
        edges (see :meth:`~repro.core.environment.KGEnvironment.compact`)."""
        if self.env.staged_edges >= self.compact_every:
            return self.env.compact()
        return 0

    def compact(self) -> int:
        """Force a compaction regardless of the staged-edge count."""
        return self.env.compact()

    # ------------------------------------------------------------------
    # Fine-tune hand-off
    # ------------------------------------------------------------------
    @property
    def pending_sessions(self) -> int:
        with self._lock:
            return len(self._pending)

    def drain_sessions(self, max_sessions: Optional[int] = None
                       ) -> List[Session]:
        """Hand the buffered sessions to a fine-tune round (FIFO)."""
        with self._lock:
            if max_sessions is None or max_sessions >= len(self._pending):
                drained, self._pending = self._pending, []
            else:
                drained = self._pending[:max_sessions]
                self._pending = self._pending[max_sessions:]
        return drained

    def __repr__(self) -> str:
        return (f"DeltaIngestor(pending={self.pending_sessions}, "
                f"sessions={self.sessions_ingested}, "
                f"edges_staged={self.edges_staged}, "
                f"staged_now={self.env.staged_edges}, "
                f"compact_every={self.compact_every})")
