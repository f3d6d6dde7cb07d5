"""CSR graph store.

The capped KG adjacency the walk policy reads on every hot-path step,
as one immutable bundle:

* :class:`~repro.graphstore.store.CSRTables` — the ``(indptr, rels,
  tails, degrees)`` int32 arrays of one generation, a cached content
  digest, and the frontier gather / per-entity slice queries;
* :func:`~repro.graphstore.store.merge_capped` — the base-first capped
  merge that compaction runs over the whole bundle.

Consumers: ``repro.core.environment`` (owns a bundle per environment),
``repro.runtime`` (exports it as one shared-memory plane generation to
process workers).  See ``README.md`` in this directory for the
compaction, digest and publish scheme.
"""

from repro.graphstore.store import CSRTables, merge_capped

__all__ = ["CSRTables", "merge_capped"]
