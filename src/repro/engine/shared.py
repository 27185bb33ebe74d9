"""Shared-memory plane stores: packed bit planes other processes can see.

The persistent shard workers of :mod:`repro.engine.pool` only pay off if
the data-movement glue between parent and workers is not the bottleneck:
re-pickling image slices and weights per batch would serialize exactly
the bytes the fleets are about to compute on. This module supplies the
storage side of the zero-copy answer — POSIX shared memory
(:mod:`multiprocessing.shared_memory`) with an *explicit* segment
lifecycle, behind two small abstractions:

* :class:`SharedSegment` — one named segment with create / attach /
  close / unlink semantics. Created segments are *owned* (closing them
  releases the name system-wide); attached segments are mappings into
  someone else's allocation. A process-local recycler keeps a bounded
  free list of owned segments so hot paths that allocate fleets per
  chunk (the functional layer engines) reuse mappings instead of paying
  ``shm_open``/``mmap`` per chunk.
* :class:`SharedPlaneStore` — :class:`~repro.engine.packed.PackedArrayFleet`
  whose uint64 word planes live inside a :class:`SharedSegment` instead
  of a private allocation. Same lockstep primitives, same cycle
  accounting, bit-identical behaviour (the plane ops never see the
  difference); the only new surface is the lifecycle — ``segment_name``
  to publish, :meth:`SharedPlaneStore.attach` to map the same planes
  from another process, ``close()`` to drop them.

Segment names are scoped: every segment this module creates is named
``{scope}-{pid}-{token}-{seq}``, where the scope defaults to ``repro``
and worker processes set a pool-specific scope via
:func:`set_segment_scope`. The scope is what makes crash cleanup
deterministic — a pool that loses a worker cannot ask it which plane
segments it had created, but it can (and does) sweep ``/dev/shm`` for
the worker's scope prefix (:func:`unlink_scope`).

Accounting invariant, pinned by the lifecycle tests: after a pool shuts
down — normally, via ``Server.close()``, after a worker crash, or after
a double ``close()`` — no segment created under its scope remains
linked, and :func:`shared_segment_stats` reports zero active segments in
every surviving process.
"""

from __future__ import annotations

import itertools
import os
import secrets
from multiprocessing import shared_memory

import numpy as np

from repro.common.errors import ArrayStateError
from repro.engine.packed import PackedArrayFleet

__all__ = [
    "SegmentStats",
    "SharedPlaneStore",
    "SharedSegment",
    "release_pooled_segments",
    "reset_shared_state",
    "set_segment_scope",
    "shared_segment_stats",
    "unlink_scope",
]

#: Where Linux exposes POSIX shared memory as files (the sweep target of
#: :func:`unlink_scope`; other platforms fall back to name-by-name
#: unlinking of whatever lifecycle owners recorded).
SHM_DIR = "/dev/shm"

#: Most owned-and-closed segments the process-local recycler keeps alive
#: for reuse before further closes unlink immediately.
RECYCLER_CAP = 16

#: Scope prefix for segments created by this process (workers override
#: it with their pool's scope so the parent can sweep after a crash).
_scope = "repro"
#: Collision guard: pid reuse must not collide with a leaked segment of
#: a dead process that had the same pid.
_TOKEN = secrets.token_hex(4)
_seq = itertools.count()

#: Open-mapping counts per segment name in this process (an owner and a
#: local attachment to the same segment both count) — the "nothing
#: leaked" ledger.
_active: dict[str, int] = {}
#: Owned, closed, still-linked segments kept for reuse, keyed by the
#: exact payload size they were created for.
_recycler: dict[int, list[shared_memory.SharedMemory]] = {}


def set_segment_scope(scope: str) -> None:
    """Prefix every segment this process creates from now on.

    Pool workers call this at startup with a per-worker scope derived
    from the pool's, so the parent can unlink a crashed worker's
    segments by prefix without knowing their names.
    """
    global _scope
    if not scope or "/" in scope:
        raise ArrayStateError(f"invalid segment scope {scope!r}")
    _scope = scope


def _new_name(scope: str | None = None) -> str:
    return f"{scope or _scope}-{os.getpid()}-{_TOKEN}-{next(_seq)}"


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without registering it for cleanup.

    Python <= 3.12 registers *attached* segments with the resource
    tracker as if this process had created them, so every attaching
    process would later try to unlink (or warn about) segments whose
    lifecycle the owner already controls. Ownership here is explicit —
    only the creator's registration should exist — so attachment
    briefly suppresses the tracker hook. (``SharedMemory(track=False)``
    is 3.13+; this is the documented workaround for earlier runtimes.)
    """
    try:  # pragma: no cover - private API may move
        from multiprocessing import resource_tracker
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
    except Exception:
        return shared_memory.SharedMemory(name=name, create=False)
    try:
        return shared_memory.SharedMemory(name=name, create=False)
    finally:
        resource_tracker.register = original


class SharedSegment:
    """One shared-memory segment with explicit create/attach/close/unlink.

    Construct via :meth:`create` (owner: closing releases the name
    system-wide, or returns the segment to the process-local recycler)
    or :meth:`attach` (mapping only: closing just drops this process's
    view). ``view()`` exposes the payload as a NumPy array; views must
    be dropped before ``close()`` (closing with live exports raises).
    """

    __slots__ = ("_shm", "nbytes", "owner", "_recycle", "_closed", "_pid")

    def __init__(self, shm: shared_memory.SharedMemory, nbytes: int,
                 owner: bool, recycle: bool):
        self._shm = shm
        self.nbytes = nbytes
        self.owner = owner
        self._recycle = recycle
        self._closed = False
        # Ownership is per-process: a forked child inherits the owner
        # object but must never unlink (or recycle) the parent's name.
        self._pid = os.getpid()
        _active[shm.name] = _active.get(shm.name, 0) + 1

    @classmethod
    def create(cls, nbytes: int, recycle: bool = False,
               scope: str | None = None) -> "SharedSegment":
        """Allocate (or recycle) an owned zero-filled segment."""
        if nbytes <= 0:
            raise ArrayStateError(
                f"shared segment must hold at least one byte, got {nbytes}")
        # A recycled segment keeps the name (and scope prefix) it was
        # born with, so explicit-scope requests — pool arenas, which a
        # crash sweep must find by prefix — always allocate fresh.
        pooled = None if scope is not None else _recycler.get(nbytes)
        if pooled:
            shm = pooled.pop()
            wipe = np.frombuffer(shm.buf, dtype=np.uint8, count=nbytes)
            wipe[:] = 0
            del wipe
        else:
            shm = shared_memory.SharedMemory(name=_new_name(scope),
                                             create=True, size=nbytes)
        return cls(shm, nbytes, owner=True, recycle=recycle)

    @classmethod
    def attach(cls, name: str, nbytes: int | None = None) -> "SharedSegment":
        """Map an existing segment by name (non-owning)."""
        try:
            shm = _attach_untracked(name)
        except FileNotFoundError:
            raise ArrayStateError(
                f"shared segment {name!r} does not exist (already "
                f"unlinked?)") from None
        if nbytes is not None and shm.size < nbytes:
            size = shm.size
            shm.close()
            raise ArrayStateError(
                f"shared segment {name!r} holds {size} bytes, "
                f"need {nbytes}")
        return cls(shm, nbytes if nbytes is not None else shm.size,
                   owner=False, recycle=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def view(self, dtype, shape, offset: int = 0) -> np.ndarray:
        """A writable NumPy window into the payload."""
        if self._closed:
            raise ArrayStateError(
                f"shared segment {self.name!r} is closed")
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return np.frombuffer(self._shm.buf, dtype=dtype, count=count,
                             offset=offset).reshape(shape)

    def close(self, unlink: bool | None = None) -> None:
        """Drop this mapping; owners also release (or recycle) the name.

        Idempotent. ``unlink=True`` forces an owner to unlink even when
        the segment was created recyclable; ``unlink=False`` keeps the
        name linked (handing ownership to whoever re-attaches).
        """
        if self._closed:
            return
        self._closed = True
        count = _active.get(self.name, 1) - 1
        if count:
            _active[self.name] = count
        else:
            _active.pop(self.name, None)
        if self._pid != os.getpid():
            # Forked child closing an inherited owner handle: drop the
            # mapping only — the creating process still owns the name.
            self._shm.close()
            return
        if self.owner and unlink is not False:
            if self._recycle and unlink is not True and _recycler_room():
                _recycler.setdefault(self.nbytes, []).append(self._shm)
                return
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already swept
                pass
            return
        self._shm.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def _recycler_room() -> bool:
    return sum(len(v) for v in _recycler.values()) < RECYCLER_CAP


def release_pooled_segments() -> int:
    """Unlink every recycled segment; returns how many were released.

    Pool workers call this between shutdown and exit, and the parent
    pool calls it when closing, so a drained pool leaves nothing in
    ``/dev/shm``.
    """
    released = 0
    for pooled in _recycler.values():
        for shm in pooled:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already swept
                pass
            released += 1
    _recycler.clear()
    return released


def reset_shared_state() -> None:
    """Forget shared-memory state inherited across a fork.

    A forked worker inherits the parent's recycler and active ledger by
    value; if it released them at exit (:func:`release_pooled_segments`
    unlinks by name) it would destroy segments the parent still owns
    and may hand out again. Pool workers call this before serving:
    inherited recycled mappings are unmapped — never unlinked — and the
    ledger starts empty so the worker only accounts for its own
    segments.
    """
    for pooled in _recycler.values():
        for shm in pooled:
            try:
                shm.close()
            except Exception:  # pragma: no cover - unmap best-effort
                pass
    _recycler.clear()
    _active.clear()


class SegmentStats(dict):
    """Segment accounting with a leak check.

    A plain dict (``stats["active"]``, ``stats["pooled"]`` keep working)
    plus :meth:`check`, which turns the snapshot into an actionable leak
    report — the shared-memory analogue of the verify package's shadow
    trackers.
    """

    def check(self) -> list[str]:
        """Leak report; empty when every segment is accounted for.

        A clean teardown (every store closed, every pool drained,
        :func:`release_pooled_segments` run) must leave no open
        mappings, no pooled spares and no on-disk segment files bearing
        this process tree's token. Anything else is reported as a
        human-readable problem string — tests assert ``check() == []``
        after every close path.
        """
        problems = []
        if self["active"]:
            names = ", ".join(sorted(self.get("active_names", ())))
            problems.append(
                f"{self['active']} segment mapping(s) still open: {names}")
        if self["pooled"]:
            problems.append(
                f"{self['pooled']} recycled segment(s) not released "
                f"(call release_pooled_segments())")
        for name in self.get("unswept", ()):
            problems.append(
                f"segment file {name!r} is linked in {SHM_DIR} but "
                f"neither open nor pooled (leaked by a crashed or "
                f"unswept owner)")
        return problems


def _unswept_segments(accounted: set[str]) -> list[str]:
    """On-disk segment files of this process tree minus ``accounted``.

    Every segment this process — or a forked pool worker, which inherits
    the token — creates carries ``-{pid}-{_TOKEN}-`` in its name, so a
    token scan of :data:`SHM_DIR` finds exactly our leftovers, whatever
    scope prefixes were in use, without touching other processes'
    segments.
    """
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-Linux hosts
        return []
    marker = f"-{_TOKEN}-"
    return sorted(entry for entry in os.listdir(SHM_DIR)
                  if marker in entry and entry not in accounted)


def shared_segment_stats() -> SegmentStats:
    """Accounting for the lifecycle tests: open vs recycled segments.

    The returned :class:`SegmentStats` snapshot also carries the open
    mapping names and any unswept on-disk segment files, and can audit
    itself via :meth:`SegmentStats.check`.
    """
    pooled_names = {shm.name for spares in _recycler.values()
                    for shm in spares}
    accounted = set(_active) | pooled_names
    return SegmentStats(
        active=len(_active),
        pooled=sum(len(v) for v in _recycler.values()),
        active_names=sorted(_active),
        unswept=_unswept_segments(accounted))


def unlink_scope(scope: str) -> int:
    """Unlink every linked segment whose name starts with ``scope``.

    The crash path: a terminated worker cannot release its own plane
    segments, but every segment it created carries its scope prefix, so
    the parent sweeps them here. Returns how many names were released.

    Each swept name is also dropped from the resource tracker: the dead
    worker registered its created segments there but never lived to
    unregister them, and a supervised pool respawning workers would
    otherwise accumulate stale registrations (and shutdown warnings)
    across incarnations.
    """
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-Linux hosts
        return 0
    swept = 0
    for entry in os.listdir(SHM_DIR):
        if entry.startswith(scope):
            try:
                os.unlink(os.path.join(SHM_DIR, entry))
                swept += 1
            except OSError:  # pragma: no cover - raced another closer
                pass
            try:  # pragma: no cover - private API may move
                from multiprocessing import resource_tracker
                resource_tracker.unregister(f"/{entry}", "shared_memory")
            except Exception:
                pass
    return swept


class SharedPlaneStore(PackedArrayFleet):
    """Packed uint64 bit planes living in a shared-memory segment.

    Behaviourally identical to :class:`~repro.engine.packed.PackedArrayFleet`
    — every lockstep primitive, the cycle accounting and the tail-word
    invariant are inherited unchanged; only the backing allocation of
    ``_words`` moves into a :class:`SharedSegment`, so another process
    can map the very same planes with :meth:`attach` instead of
    receiving a pickled copy. This is the store the pool driver's
    workers run their warm fleets on.

    Lifecycle: a store constructed normally *owns* its segment (created
    recyclable: ``close()`` returns it to the process-local free list,
    :func:`release_pooled_segments` unlinks it for good); a store built
    via :meth:`attach` only maps the owner's planes and never unlinks.
    After ``close()`` every primitive raises — a closed store must fail
    loudly, not compute on unmapped memory.
    """

    def __init__(self, n_arrays: int = 1, rows: int = 256, cols: int = 256,
                 *, attach_to: str | None = None):
        self._segment: SharedSegment | None = None
        self._attach_to = attach_to
        super().__init__(n_arrays, rows, cols)

    def _alloc_words(self) -> np.ndarray:
        shape = (self.rows, self.n_arrays, self.n_words)
        nbytes = int(np.prod(shape, dtype=np.int64)) * 8
        if self._attach_to is None:
            self._segment = SharedSegment.create(nbytes, recycle=True)
        else:
            self._segment = SharedSegment.attach(self._attach_to, nbytes)
        return self._segment.view(np.uint64, shape)

    @classmethod
    def attach(cls, name: str, n_arrays: int, rows: int = 256,
               cols: int = 256) -> "SharedPlaneStore":
        """Map the planes of an existing store (same geometry) by name."""
        return cls(n_arrays, rows, cols, attach_to=name)

    @property
    def segment_name(self) -> str:
        """The shared-memory name another process attaches to."""
        if self._segment is None:
            raise ArrayStateError("plane store is closed")
        return self._segment.name

    @property
    def owner(self) -> bool:
        """Whether closing this store releases the segment itself."""
        return self._segment is not None and self._segment.owner

    def _check_open(self) -> None:
        if self._segment is None:
            raise ArrayStateError(
                "plane store is closed; its shared segment is gone")

    def row_plane(self, row: int) -> np.ndarray:
        self._check_open()
        return super().row_plane(row)

    def word_block(self, top_row: int, n_rows: int) -> np.ndarray:
        self._check_open()
        return super().word_block(top_row, n_rows)

    def close(self, unlink: bool | None = None) -> None:
        """Release the mapping (idempotent); owners recycle or unlink."""
        if self._segment is None:
            return
        segment, self._segment = self._segment, None
        self._words = None
        segment.close(unlink=unlink)

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    @property
    def nbytes(self) -> int:
        if self._segment is None:
            raise ArrayStateError("plane store is closed")
        return self._segment.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("closed" if self._segment is None
                 else f"segment={self._segment.name!r}")
        return (f"{type(self).__name__}(n_arrays={self.n_arrays}, "
                f"rows={self.rows}, cols={self.cols}, {state})")
