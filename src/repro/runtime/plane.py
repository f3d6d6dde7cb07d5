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
  ``multiprocessing.shared_memory`` segment (or one ``.npy`` file per
  array under a directory, for the mmap backend) and keeps ownership;
* a picklable :class:`PlaneManifest` — segment name, backend, and a
  name → (dtype, shape, offset) directory — travels to workers over
  their bootstrap pipe;
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

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

_ALIGN = 64  # cache-line align every array inside the segment


@dataclass(frozen=True)
class _Entry:
    """Location of one array inside the plane."""

    dtype: str
    shape: Tuple[int, ...]
    offset: int          # byte offset into the shm segment (shm backend)
    filename: str = ""   # per-array file name (mmap backend)


@dataclass(frozen=True)
class PlaneManifest:
    """Everything a foreign process needs to attach a plane (picklable)."""

    key: str                       # generation key (env fingerprint)
    backend: str                   # "shm" | "mmap"
    segment: str                   # shm name, or the directory path
    nbytes: int
    entries: Dict[str, _Entry] = field(default_factory=dict)


def _attach_shm(name: str, untrack: bool):
    """Open an existing shared-memory segment without adopting it.

    On 3.13+ ``track=False`` keeps the attaching process's resource
    tracker out of the segment's lifetime (the publishing owner stays
    responsible for the unlink).  On 3.11/3.12 every attach registers
    with the process's resource tracker; ``multiprocessing`` children
    — fork *and* spawn — share the publisher's tracker (its fd rides
    in the spawn preparation data), so the registration is a set no-op
    there and the owner's ``unlink`` deregisters cleanly.  Only a
    **foreign** process (one not started by the publisher's
    interpreter) has a private tracker that would adopt the segment
    and unlink it at exit; such attachers pass ``untrack=True``.
    """
    from multiprocessing import shared_memory

    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    shm = shared_memory.SharedMemory(name=name)
    if untrack:
        try:  # pragma: no cover - spawn-context only
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    return shm


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
    def publish(cls, arrays: Mapping[str, np.ndarray], *, key: str,
                backend: str = "auto",
                directory: Optional[Path] = None) -> "TablePlane":
        """Export ``arrays`` as a new plane generation.

        ``backend="auto"`` prefers OS shared memory and falls back to
        mmap'd per-array ``.npy`` files (``directory`` then names where
        they live; a temp dir is created when omitted).  The returned
        plane *owns* the storage: :meth:`unlink` retires it.
        """
        if backend not in ("auto", "shm", "mmap"):
            raise ValueError(f"unknown plane backend {backend!r}")
        if backend in ("auto", "shm"):
            try:
                return cls._publish_shm(arrays, key=key)
            except (ImportError, OSError):
                if backend == "shm":
                    raise
        return cls._publish_mmap(arrays, key=key, directory=directory)

    @classmethod
    def _publish_shm(cls, arrays: Mapping[str, np.ndarray],
                     key: str) -> "TablePlane":
        from multiprocessing import shared_memory

        contiguous = {name: np.ascontiguousarray(arr)
                      for name, arr in arrays.items()}
        total, entries = 0, {}
        for name, arr in contiguous.items():
            total = -(-total // _ALIGN) * _ALIGN
            entries[name] = _Entry(dtype=str(arr.dtype), shape=arr.shape,
                                   offset=total)
            total += arr.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        views: Dict[str, np.ndarray] = {}
        for name, arr in contiguous.items():
            entry = entries[name]
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf,
                              offset=entry.offset)
            view[...] = arr
            view.flags.writeable = False
            views[name] = view
        manifest = PlaneManifest(key=key, backend="shm", segment=shm.name,
                                 nbytes=total, entries=entries)
        return cls(manifest, views, shm=shm, owner=True)

    @classmethod
    def _publish_mmap(cls, arrays: Mapping[str, np.ndarray], key: str,
                      directory: Optional[Path]) -> "TablePlane":
        import tempfile

        if directory is None:
            directory = Path(tempfile.mkdtemp(prefix="reks-plane-"))
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        total, entries, views = 0, {}, {}
        for index, (name, arr) in enumerate(arrays.items()):
            arr = np.ascontiguousarray(arr)
            safe = "".join(c if c.isalnum() or c in "-_." else "_"
                           for c in name)
            filename = f"{index:02d}-{safe}.npy"
            np.save(directory / filename, arr)
            entries[name] = _Entry(dtype=str(arr.dtype), shape=arr.shape,
                                   offset=0, filename=filename)
            total += arr.nbytes
            views[name] = np.load(directory / filename, mmap_mode="r")
        manifest = PlaneManifest(key=key, backend="mmap",
                                 segment=str(directory), nbytes=total,
                                 entries=entries)
        return cls(manifest, views, owner=True)

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
        live plane when they exit (see :func:`_attach_shm`);
        multiprocessing workers share the publisher's tracker and must
        leave this False.
        """
        if manifest.backend == "shm":
            shm = _attach_shm(manifest.segment, untrack)
            views = {}
            for name, entry in manifest.entries.items():
                view = np.ndarray(entry.shape, dtype=np.dtype(entry.dtype),
                                  buffer=shm.buf, offset=entry.offset)
                view.flags.writeable = False
                views[name] = view
            return cls(manifest, views, shm=shm, owner=False)
        if manifest.backend == "mmap":
            directory = Path(manifest.segment)
            views = {
                name: np.load(directory / entry.filename, mmap_mode="r")
                for name, entry in manifest.entries.items()}
            return cls(manifest, views, owner=False)
        raise ValueError(f"unknown plane backend {manifest.backend!r}")

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
        """Retire the storage (owner only; attachers just close)."""
        self.close()
        if not self._owner:
            return
        if self.manifest.backend == "shm" and self._shm is not None:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        elif self.manifest.backend == "mmap":
            import shutil

            shutil.rmtree(self.manifest.segment, ignore_errors=True)

    def __enter__(self) -> "TablePlane":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unlink() if self._owner else self.close()

    def __repr__(self) -> str:
        return (f"TablePlane(key={self.key!r}, "
                f"backend={self.manifest.backend!r}, "
                f"arrays={sorted(self._arrays)}, nbytes={self.nbytes})")


class ArenaOverflow(RuntimeError):
    """The arrays do not fit this arena's fixed capacity."""


def layout_size(arrays: Mapping[str, np.ndarray]) -> int:
    """Bytes one plane generation of ``arrays`` occupies (with the
    per-array cache-line alignment :meth:`TablePlane.publish` uses)."""
    total = 0
    for arr in arrays.values():
        total = -(-total // _ALIGN) * _ALIGN
        total += arr.nbytes
    return total


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

    ``backend="shm"`` is a fixed-capacity shared-memory segment
    (:meth:`write` raises :class:`ArenaOverflow` when a generation has
    outgrown it — the caller allocates a bigger arena, which is the
    only time steady state pays a segment allocation again);
    ``backend="mmap"`` is a reusable directory of ``.npy`` files with
    effectively unbounded capacity.
    """

    def __init__(self, backend: str, segment: str, capacity: int,
                 shm=None) -> None:
        self.backend = backend
        self.segment = segment
        self.capacity = capacity
        self._shm = shm
        self.writes = 0

    @classmethod
    def create(cls, capacity: int, backend: str = "auto",
               directory: Optional[Path] = None) -> "PlaneArena":
        if backend not in ("auto", "shm", "mmap"):
            raise ValueError(f"unknown plane backend {backend!r}")
        if backend in ("auto", "shm"):
            try:
                from multiprocessing import shared_memory

                shm = shared_memory.SharedMemory(create=True,
                                                 size=max(capacity, 1))
                return cls("shm", shm.name, capacity, shm=shm)
            except (ImportError, OSError):
                if backend == "shm":
                    raise
        import tempfile

        if directory is None:
            directory = Path(tempfile.mkdtemp(prefix="reks-arena-"))
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        return cls("mmap", str(directory), capacity)

    def fits(self, arrays: Mapping[str, np.ndarray]) -> bool:
        if self.backend == "mmap":
            return True
        return layout_size(arrays) <= self.capacity

    def write(self, arrays: Mapping[str, np.ndarray], *,
              key: str) -> TablePlane:
        """Lay one generation into the arena; returns a non-owning
        plane (the arena keeps the storage — its :meth:`unlink`, not
        the plane's, retires the segment)."""
        contiguous = {name: np.ascontiguousarray(arr)
                      for name, arr in arrays.items()}
        if self.backend == "shm":
            total, entries = 0, {}
            for name, arr in contiguous.items():
                total = -(-total // _ALIGN) * _ALIGN
                entries[name] = _Entry(dtype=str(arr.dtype),
                                       shape=arr.shape, offset=total)
                total += arr.nbytes
            if total > self.capacity:
                raise ArenaOverflow(
                    f"generation needs {total} bytes, arena holds "
                    f"{self.capacity}")
            views: Dict[str, np.ndarray] = {}
            for name, arr in contiguous.items():
                entry = entries[name]
                view = np.ndarray(arr.shape, dtype=arr.dtype,
                                  buffer=self._shm.buf,
                                  offset=entry.offset)
                view[...] = arr
                view.flags.writeable = False
                views[name] = view
            manifest = PlaneManifest(key=key, backend="shm",
                                     segment=self.segment, nbytes=total,
                                     entries=entries)
            self.writes += 1
            return TablePlane(manifest, views, owner=False)
        # mmap: rewrite the per-array files in the reusable directory.
        directory = Path(self.segment)
        total, entries, views = 0, {}, {}
        for index, (name, arr) in enumerate(contiguous.items()):
            safe = "".join(c if c.isalnum() or c in "-_." else "_"
                           for c in name)
            filename = f"{index:02d}-{safe}.npy"
            np.save(directory / filename, arr)
            entries[name] = _Entry(dtype=str(arr.dtype), shape=arr.shape,
                                   offset=0, filename=filename)
            total += arr.nbytes
            views[name] = np.load(directory / filename, mmap_mode="r")
        manifest = PlaneManifest(key=key, backend="mmap",
                                 segment=self.segment, nbytes=total,
                                 entries=entries)
        self.writes += 1
        return TablePlane(manifest, views, owner=False)

    def unlink(self) -> None:
        if self.backend == "shm" and self._shm is not None:
            try:
                self._shm.close()
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shm = None
        elif self.backend == "mmap":
            import shutil

            shutil.rmtree(self.segment, ignore_errors=True)

    def __repr__(self) -> str:
        return (f"PlaneArena(backend={self.backend!r}, "
                f"segment={self.segment!r}, capacity={self.capacity}, "
                f"writes={self.writes})")
