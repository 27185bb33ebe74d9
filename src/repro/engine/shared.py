"""Shared-memory segments: the pool's input and output arenas.

The persistent shard workers of :mod:`repro.engine.pool` compute on
their own private plane stores, as each socket's cache computes on its
own arrays; only a batch's inputs and outputs cross between processes.
Re-pickling those payloads per batch would put serialization on the
serving path, so they travel through POSIX shared memory
(:mod:`multiprocessing.shared_memory`) instead, behind one small
abstraction with an *explicit* lifecycle:

* :class:`SharedSegment` — one named segment with create / attach /
  view / close / unlink semantics. Created segments are *owned*
  (closing them releases the name system-wide); attached segments are
  mappings into someone else's allocation.

Segment names are scoped: every segment this module creates is named
``{scope}-{pid}-{token}-{seq}``, where the scope defaults to ``repro``
and a pool passes its own (``SharedSegment.create(scope=...)``). The
scope is what makes crash cleanup deterministic — a pool torn down
mid-batch sweeps ``/dev/shm`` for its prefix (:func:`unlink_scope`)
instead of trusting every close path to have run.

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

__all__ = [
    "SegmentStats",
    "SharedSegment",
    "shared_segment_stats",
    "unlink_scope",
]

#: Where Linux exposes POSIX shared memory as files (the sweep target of
#: :func:`unlink_scope`; other platforms fall back to name-by-name
#: unlinking of whatever lifecycle owners recorded).
SHM_DIR = "/dev/shm"

#: Collision guard: pid reuse must not collide with a leaked segment of
#: a dead process that had the same pid.
_TOKEN = secrets.token_hex(4)
_seq = itertools.count()

#: Open-mapping counts per segment name in this process (an owner and a
#: local attachment to the same segment both count) — the "nothing
#: leaked" ledger.
_active: dict[str, int] = {}


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
    system-wide) or :meth:`attach` (mapping only: closing just drops
    this process's view). ``view()`` exposes the payload as a NumPy
    array; views must be dropped before ``close()`` (closing with live
    exports raises).
    """

    __slots__ = ("_shm", "nbytes", "owner", "_closed", "_pid")

    def __init__(self, shm: shared_memory.SharedMemory, nbytes: int,
                 owner: bool):
        self._shm = shm
        self.nbytes = nbytes
        self.owner = owner
        self._closed = False
        # Ownership is per-process: a forked child inherits the owner
        # object but must never unlink the parent's name.
        self._pid = os.getpid()
        _active[shm.name] = _active.get(shm.name, 0) + 1

    @classmethod
    def create(cls, nbytes: int, scope: str = "repro") -> "SharedSegment":
        """Allocate an owned zero-filled segment named under ``scope``."""
        if nbytes <= 0:
            raise ArrayStateError(
                f"shared segment must hold at least one byte, got {nbytes}")
        if not scope or "/" in scope:
            raise ArrayStateError(f"invalid segment scope {scope!r}")
        name = f"{scope}-{os.getpid()}-{_TOKEN}-{next(_seq)}"
        shm = shared_memory.SharedMemory(name=name, create=True,
                                         size=nbytes)
        return cls(shm, nbytes, owner=True)

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
                   owner=False)

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

    def close(self, unlink: bool = True) -> None:
        """Drop this mapping; owners also unlink the name.

        Idempotent. ``unlink=False`` keeps an owner's name linked
        (handing it to whoever re-attaches, or to a scope sweep).
        """
        if self._closed:
            return
        self._closed = True
        count = _active.get(self.name, 1) - 1
        if count:
            _active[self.name] = count
        else:
            _active.pop(self.name, None)
        self._shm.close()
        # A forked child closing an inherited owner handle only drops
        # the mapping: the creating process still owns the name.
        if self.owner and unlink and self._pid == os.getpid():
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already swept
                pass

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


class SegmentStats(dict):
    """Segment accounting with a leak check.

    A plain dict (``stats["active"]`` keeps working) plus :meth:`check`,
    which turns the snapshot into an actionable leak report — the
    shared-memory analogue of the verify package's shadow trackers.
    """

    def check(self) -> list[str]:
        """Leak report; empty when every segment is accounted for.

        A clean teardown (every segment closed, every pool drained) must
        leave no open mappings and no on-disk segment files bearing this
        process's token. Anything else is reported as a human-readable
        problem string — tests assert ``check() == []`` after every
        close path.
        """
        problems = []
        if self["active"]:
            names = ", ".join(sorted(self.get("active_names", ())))
            problems.append(
                f"{self['active']} segment mapping(s) still open: {names}")
        for name in self.get("unswept", ()):
            problems.append(
                f"segment file {name!r} is linked in {SHM_DIR} but not "
                f"open (leaked by a crashed or unswept owner)")
        return problems


def _unswept_segments(accounted: set[str]) -> list[str]:
    """On-disk segment files of this process minus ``accounted``.

    Every segment this process creates carries ``-{pid}-{_TOKEN}-`` in
    its name, so a token scan of :data:`SHM_DIR` finds exactly our
    leftovers, whatever scope prefixes were in use, without touching
    other processes' segments.
    """
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-Linux hosts
        return []
    marker = f"-{_TOKEN}-"
    return sorted(entry for entry in os.listdir(SHM_DIR)
                  if marker in entry and entry not in accounted)


def shared_segment_stats() -> SegmentStats:
    """Accounting for the lifecycle tests: open segment mappings.

    The returned :class:`SegmentStats` snapshot also carries the open
    mapping names and any unswept on-disk segment files, and can audit
    itself via :meth:`SegmentStats.check`.
    """
    return SegmentStats(
        active=len(_active),
        active_names=sorted(_active),
        unswept=_unswept_segments(set(_active)))


def unlink_scope(scope: str) -> int:
    """Unlink every linked segment whose name starts with ``scope``.

    The crash path: a pool torn down mid-batch may not get to close
    its arenas (a live view blocks the unmap), but every segment it
    created carries its scope prefix, so its ``close`` sweeps them here.
    Returns how many names were released.

    Each swept name is also dropped from the resource tracker, which
    registered it at creation: a name unlinked behind the tracker's back
    would otherwise be reported as leaked (and unlinked again) when the
    process exits.
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
