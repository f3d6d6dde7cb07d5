"""The shared-memory table plane: one copy of the big read-only arrays.

Every hot-path query reads a handful of large, effectively immutable
numeric tables — the capped CSR adjacency
(:class:`repro.graphstore.CSRTables`) and the frozen TransE-initialized
entity/relation embedding tables.  Threads share
them for free; *processes* do not, and naively forking a worker per
core would duplicate hundreds of megabytes at paper dims and silently
diverge after the first compaction.

A :class:`TablePlane` is one **generation** of those tables exported to
OS shared memory:

* the exporting (parent) process copies each array once into a single
  ``multiprocessing.shared_memory`` segment and keeps ownership — the
  process fleet needs POSIX shared memory, which its rings need too;
* a picklable :class:`PlaneManifest` — segment name and a name →
  (dtype, shape, offset) directory — travels to workers over their
  bootstrap pipe;
* :meth:`TablePlane.attach` maps the segment in the worker and hands
  back **zero-copy, read-only** NumPy views; every worker reads the
  same physical pages.

Generations are keyed (by convention with the environment
``fingerprint()``), and a plane is immutable once published: a
compaction or table change exports a *new* plane and broadcasts its
manifest, workers re-attach with one atomic bundle swap, and the old
generation is unlinked once nobody needs it.  See ``README.md`` in
this directory for the lifecycle and the spawn-vs-fork caveats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.telemetry.block import attach_shm

_ALIGN = 64  # cache-line align every array inside the segment


@dataclass(frozen=True)
class _Entry:
    """Location of one array inside the plane."""

    dtype: str
    shape: Tuple[int, ...]
    offset: int          # byte offset into the shm segment


@dataclass(frozen=True)
class PlaneManifest:
    """Everything a foreign process needs to attach a plane (picklable)."""

    key: str                       # generation key (env fingerprint)
    segment: str                   # shm name
    nbytes: int
    entries: Dict[str, _Entry] = field(default_factory=dict)


def layout_size(arrays: Mapping[str, np.ndarray]) -> int:
    """Bytes one plane generation of ``arrays`` occupies (with the
    per-array cache-line alignment :meth:`TablePlane.publish` uses)."""
    total = 0
    for arr in arrays.values():
        total = -(-total // _ALIGN) * _ALIGN
        total += arr.nbytes
    return total


def _write(shm, capacity: int, arrays: Mapping[str, np.ndarray],
           key: str) -> Tuple[PlaneManifest, Dict[str, np.ndarray]]:
    """Lay ``arrays`` out in ``shm`` and copy them in: the manifest and
    the read-only views.  Raises :class:`ArenaOverflow` when they need
    more than ``capacity`` bytes."""
    total, entries = 0, {}
    for name, arr in arrays.items():
        total = -(-total // _ALIGN) * _ALIGN
        entries[name] = _Entry(dtype=str(arr.dtype), shape=arr.shape,
                               offset=total)
        total += arr.nbytes
    if total > capacity:
        raise ArenaOverflow(
            f"generation needs {total} bytes, arena holds {capacity}")
    views: Dict[str, np.ndarray] = {}
    for name, arr in arrays.items():
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf,
                          offset=entries[name].offset)
        view[...] = arr
        view.flags.writeable = False
        views[name] = view
    return PlaneManifest(key=key, segment=shm.name, nbytes=total,
                         entries=entries), views


def _create_shm(size: int):
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(create=True, size=max(size, 1))


class TablePlane:
    """One published generation of shared read-only tables.

    Construct through :meth:`publish` (owner side) or :meth:`attach`
    (worker side); both expose the same mapping interface, and the
    arrays they hand out are always read-only — mutation goes through
    the copy-on-write hooks on the consuming tensors, never through
    the plane.
    """

    def __init__(self, manifest: PlaneManifest,
                 arrays: Dict[str, np.ndarray],
                 shm=None, owner: bool = False) -> None:
        self.manifest = manifest
        self._arrays = arrays
        self._shm = shm
        self._owner = owner
        self._closed = False

    # ------------------------------------------------------------------
    # Publication (owner side)
    # ------------------------------------------------------------------
    @classmethod
    def publish(cls, arrays: Mapping[str, np.ndarray], *,
                key: str) -> "TablePlane":
        """Export ``arrays`` as a new generation in one fresh shared-
        memory segment.  The returned plane *owns* the segment:
        :meth:`unlink` retires it."""
        size = layout_size(arrays)
        shm = _create_shm(size)
        manifest, views = _write(shm, size, arrays, key)
        return cls(manifest, views, shm=shm, owner=True)

    # ------------------------------------------------------------------
    # Attachment (worker side)
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, manifest: PlaneManifest,
               untrack: bool = False) -> "TablePlane":
        """Map a published plane into this process, zero-copy.

        ``untrack=True`` detaches this process's resource tracker from
        the segment on Python < 3.13 — needed only by **foreign**
        attachers (processes not started by the publisher's
        interpreter), whose private tracker would otherwise unlink the
        live plane when they exit (see
        :func:`repro.telemetry.block.attach_shm`); multiprocessing
        workers share the publisher's tracker and must leave this False.
        """
        shm = attach_shm(manifest.segment, untrack)
        views = {}
        for name, entry in manifest.entries.items():
            view = np.ndarray(entry.shape, dtype=np.dtype(entry.dtype),
                              buffer=shm.buf, offset=entry.offset)
            view.flags.writeable = False
            views[name] = view
        return cls(manifest, views, shm=shm, owner=False)

    # ------------------------------------------------------------------
    # Mapping interface
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def keys(self):
        return self._arrays.keys()

    @property
    def key(self) -> str:
        return self.manifest.key

    @property
    def nbytes(self) -> int:
        return self.manifest.nbytes

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach this process's mapping (views become invalid)."""
        if self._closed:
            return
        self._closed = True
        self._arrays = {}
        if self._shm is not None:
            try:
                self._shm.close()
            except OSError:  # pragma: no cover - defensive
                pass

    def unlink(self) -> None:
        """Retire the segment (owner only; attachers just close)."""
        self.close()
        if self._owner and self._shm is not None:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "TablePlane":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unlink() if self._owner else self.close()

    def __repr__(self) -> str:
        return (f"TablePlane(key={self.key!r}, "
                f"segment={self.manifest.segment!r}, "
                f"arrays={sorted(self._arrays)}, nbytes={self.nbytes})")


class ArenaOverflow(RuntimeError):
    """The arrays do not fit this arena's fixed capacity."""


class PlaneArena:
    """A reusable backing segment for successive plane generations.

    Publishing a fresh :class:`TablePlane` per delta generation means
    one ``shm_open`` + zero-fill + (eventually) ``unlink`` per
    compaction — steady-state churn that scales with publish
    frequency, not delta size.  An arena is allocated **once** and
    rewritten in place: :meth:`write` lays a new generation's arrays
    into the same segment and returns a non-owning :class:`TablePlane`
    over them (same manifest format — attachers cannot tell an
    arena-backed plane from a one-shot one).

    The safety contract is the caller's: only write into an arena no
    attacher still maps (the pool double-buffers — it writes each
    generation into the *spare* arena and flips, so the arena being
    overwritten is always two generations stale and every worker
    dropped it at the previous broadcast).

    Capacity is fixed: :meth:`write` raises :class:`ArenaOverflow`
    when a generation has outgrown it — the caller allocates a bigger
    arena, which is the only time steady state pays a segment
    allocation again.
    """

    def __init__(self, capacity: int, shm) -> None:
        self.segment = shm.name
        self.capacity = capacity
        self._shm = shm
        self.writes = 0

    @classmethod
    def create(cls, capacity: int) -> "PlaneArena":
        return cls(capacity, _create_shm(capacity))

    def fits(self, arrays: Mapping[str, np.ndarray]) -> bool:
        return layout_size(arrays) <= self.capacity

    def write(self, arrays: Mapping[str, np.ndarray], *,
              key: str) -> TablePlane:
        """Lay one generation into the arena; returns a non-owning
        plane (the arena keeps the storage — its :meth:`unlink`, not
        the plane's, retires the segment)."""
        manifest, views = _write(self._shm, self.capacity, arrays, key)
        self.writes += 1
        return TablePlane(manifest, views, owner=False)

    def unlink(self) -> None:
        if self._shm is not None:
            try:
                self._shm.close()
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shm = None

    def __repr__(self) -> str:
        return (f"PlaneArena(segment={self.segment!r}, "
                f"capacity={self.capacity}, writes={self.writes})")
