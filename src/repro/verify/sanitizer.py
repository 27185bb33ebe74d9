"""Shadow-state sanitizer: the dynamic oracle behind the static passes.

:class:`ShadowPlaneStore` wraps any
:class:`~repro.engine.fleet.PlaneStore` and tracks one bit of shadow
state per wordline: *has anything ever written this row?* Every read path
of the store seam — the compute read ``read_plane`` (every sensed row of
every compute cycle, heritage logicals included), the sparsity probe
``plane_any``, cross-array moves, tag-masked writes (which read the
destination through the write drivers' mux), and host reads
(``read_row``/``dump_bits``) — checks the shadow first and raises a
structured :class:`~repro.common.errors.VerifyError` at the exact
offending primitive. That makes it the runtime ground truth the static
``uninit-read`` pass is tested against: a program the static pass calls
clean must execute under the sanitizer without raising, and a seeded
uninitialized read must trip both.

Shadow granularity is per-row (not per-column): the lockstep execution
model runs the same bit-serial program on every bitline, so partial-row
host loads are treated as initialising the row. Physically the arrays
power up to well-defined zeros — the sanitizer is checking *program*
discipline (the paper's "validate once, broadcast everywhere" contract),
not electrical state.

Composition, not inheritance: the wrapper holds the real store and
forwards everything it does not check
(:class:`~repro.engine.fleet.PlaneStoreWrapper`), so it works identically
over the unpacked reference store and the packed word store.

Opt in via ``make_fleet(..., sanitize=True)`` or ``NEURALCACHE_SANITIZE=1``.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import VerifyError
from repro.engine.fleet import PlaneStore, PlaneStoreWrapper

__all__ = ["ShadowPlaneStore"]


class ShadowPlaneStore(PlaneStoreWrapper):
    """A :class:`PlaneStore` wrapper that traps uninitialized reads."""

    def __init__(self, store: PlaneStore):
        super().__init__(store)
        self._shadow = np.zeros(store.rows, dtype=bool)

    # -- shadow state --------------------------------------------------
    def _require(self, row: int, what: str) -> None:
        if 0 <= row < self.rows and not self._shadow[row]:
            raise VerifyError(
                f"{what} reads wordline {row} before anything wrote it",
                check="uninit-read", op=what, row=row)

    def _mark(self, row: int, n_rows: int = 1) -> None:
        self._shadow[max(row, 0):row + n_rows] = True

    @property
    def shadow_written(self) -> np.ndarray:
        """Copy of the per-row init state (True = initialized)."""
        return self._shadow.copy()

    def mark_initialized(self, row: int, n_rows: int = 1) -> None:
        """Declare externally staged rows initialized (test preloads)."""
        self._mark(row, n_rows)

    def reset_shadow(self) -> None:
        """Forget all init state (e.g. between program runs)."""
        self._shadow[:] = False

    # -- checked read paths --------------------------------------------
    def read_plane(self, row: int) -> np.ndarray:
        self._require(row, "compute sensing")
        return self._store.read_plane(row)

    def plane_any(self, row: int) -> bool:
        # Explicit proxy: the sparsity engine's zero-plane probe senses
        # real state, so the row must be initialized like any other read
        # — and when the probe says "all zero" (the only answer that
        # elides work), re-check against the raw plane so a store whose
        # zero flag drifts from its contents (e.g. a packed tail-mask
        # bug) trips here, at the skip decision, not as silent corruption.
        self._require(row, "sparsity zero-plane probe")
        result = bool(self._store.plane_any(row))
        if not result and bool(np.any(self._store.row_plane(row))):
            raise VerifyError(
                f"sparsity probe reported wordline {row} all-zero but the "
                f"plane holds set bits: the skipped step would have "
                f"changed state", check="sparse-skip", op="plane_any",
                row=row)
        return result

    def read_row(self, row: int) -> np.ndarray:
        self._require(row, "host read")
        return self._store.read_row(row)

    def dump_bits(self, top_row: int, n_rows: int, col_offset: int = 0,
                  n_cols: int | None = None) -> np.ndarray:
        for row in range(top_row, top_row + n_rows):
            self._require(row, "host dump")
        return self._store.dump_bits(top_row, n_rows, col_offset, n_cols)

    # -- checked write paths (masked writes read the destination) ------
    def store_plane(self, row: int, plane: np.ndarray,
                    mask: np.ndarray | None = None) -> None:
        if mask is not None:
            self._require(row, "tag-masked write-back")
        self._store.store_plane(row, plane, mask)
        self._mark(row)

    def move_plane(self, src_row: int, dst_row: int, stride: int,
                   group: int) -> None:
        # Explicit proxy: the inner store's move_plane reads the source
        # wordline through its own row_plane, which would bypass the
        # shadow if this fell through __getattr__.
        self._require(src_row, "cross-array move")
        self._store.move_plane(src_row, dst_row, stride, group)
        self._mark(dst_row)

    def write_row(self, row: int, bits: np.ndarray,
                  mask: np.ndarray | None = None) -> None:
        if mask is not None:
            self._require(row, "masked host write")
        self._store.write_row(row, bits, mask)
        self._mark(row)

    def load_bits(self, top_row: int, bits: np.ndarray,
                  col_offset: int = 0) -> None:
        self._store.load_bits(top_row, bits, col_offset)
        n_rows = np.asarray(bits).shape[-2]
        self._mark(top_row, n_rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShadowPlaneStore({self._store!r})"
