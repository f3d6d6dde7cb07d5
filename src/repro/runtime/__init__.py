"""Shared-memory multiprocess execution plane for serving and updates.

``repro.runtime`` is the layer that lets the REKS stack run as a
**process fleet** instead of a thread pile, without copying the big
read-only state per process:

* :class:`~repro.runtime.plane.TablePlane` — one generation of the hot
  path's large read-only arrays (the CSR adjacency bundle, republished
  after each compaction, and the frozen TransE embedding tables)
  exported to POSIX
  shared memory and re-attached as zero-copy NumPy views in children;
* :class:`~repro.runtime.workers.ProcessWorkerPool` — spec-rebuilt
  inference agents in child processes executing serving micro-batches
  with true parallelism, bit-identical to thread mode, with model-swap
  and adjacency broadcasts plus dead-worker respawn;
* :class:`~repro.runtime.flush.FlushPlan` /
  :func:`~repro.runtime.flush.execute_flush` — what one serving flush
  executes, and the one function that executes it for thread and
  process workers alike;
* :class:`~repro.runtime.rings.RingPair` — the zero-copy exec
  dataplane: one shared-memory request slot and one response slot per
  worker (sequence-number publish, flat int/float codecs, no
  pickling) that every flush rides, grown when a plan outgrows them,
  while control messages stay on the pipe;
* :class:`~repro.runtime.plane.PlaneArena` — reusable double-buffered
  backing segments so steady-state CSR publishes allocate zero new
  segments;
* :class:`~repro.runtime.lease.FileLease` — advisory cross-process
  lease (stale-holder takeover) guarding shared on-disk resources such
  as the checkpoint registry.

Consumers: ``repro.serving`` (``worker_mode="process"``),
``repro.online`` (subprocess updater, file-locked registry).  See
``README.md`` in this directory for lifecycle and spawn-vs-fork
caveats.
"""

from repro.runtime.lease import FileLease, LeaseTimeout
from repro.runtime.plane import PlaneArena, PlaneManifest, TablePlane
from repro.runtime.rings import (
    RingFull,
    RingManifest,
    RingPair,
    RingUnsuitable,
)
from repro.runtime.workers import (
    AgentSpec,
    ProcessWorkerPool,
    WorkerDied,
    WorkerError,
    build_worker_agent,
    csr_from_plane,
    export_csr_plane,
    export_embedding_plane,
    resolve_context,
)

__all__ = [
    "AgentSpec",
    "FileLease",
    "LeaseTimeout",
    "PlaneArena",
    "PlaneManifest",
    "ProcessWorkerPool",
    "RingFull",
    "RingManifest",
    "RingPair",
    "RingUnsuitable",
    "TablePlane",
    "WorkerDied",
    "WorkerError",
    "build_worker_agent",
    "csr_from_plane",
    "export_csr_plane",
    "export_embedding_plane",
    "resolve_context",
]
