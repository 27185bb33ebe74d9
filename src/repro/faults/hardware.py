"""Hardware fault model: stuck cells, dead wordlines, flaky sense amps.

The paper computes inside commodity 6T SRAM arrays, so device
non-idealities are not an exotic concern — a manufacturing defect or a
marginal cell shows up directly in the bit-serial arithmetic.
:class:`FaultyPlaneStore` makes those defects injectable behind the
:class:`~repro.engine.fleet.PlaneStore` seam, the same composition point
the shadow sanitizer uses, so any fleet (unpacked or packed) can run
on electrically imperfect arrays without the sequencer knowing.

Fault semantics:

* **stuck-at cells** clamp on *write*: whatever value a write drives
  into a stuck cell, the stored bit is the stuck value. Every write path
  of the seam (the compute write ``store_plane``, ``write_row``,
  ``load_bits``, ``move_plane``) re-applies the per-row clamp masks, and
  the clamp is applied once at construction so stuck-at-1 cells read 1
  even before the first write. Reads then see the clamped storage for
  free — every sensed row of a compute cycle is read from the stored
  planes.
* **dead wordlines** are whole rows stuck at 0 (a broken row driver):
  modeled as stuck-at-0 across every column of that row.
* **flaky sense amps** are *read*-side and transient: one model on every
  sensed row. Each chosen column's amp flips the bit it senses with
  probability ``flaky_rate`` on every ``read_plane`` — the one compute
  read, so a two-row cycle (an add, a heritage logical) samples its amps
  once per operand row. Storage is untouched, so the same row can read
  differently twice.

Determinism: the stuck-at set is sampled from ``(seed, fault_index)``
via a *rate-independent* uniform field — each cell draws one u ~ U[0,1)
and is faulty iff ``u < stuck_rate`` — so the fault set at a lower rate
is a strict subset of the set at any higher rate. That nesting is what
makes the ``fault-sweep`` accuracy curve monotone by construction
rather than by luck. Flaky-amp draws come from an independent seeded
stream and are consumed one batch per sensed row, so a re-run replays
the same flips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import SimulationError
from repro.engine.fleet import PlaneStore, PlaneStoreWrapper

__all__ = ["FaultyPlaneStore", "HardwareFaultModel"]


@dataclass(frozen=True)
class HardwareFaultModel:
    """A seeded description of the electrical defects to inject."""

    #: Seed of the stuck-at field and the flaky-amp flip stream.
    seed: int = 0
    #: Per-cell stuck-at probability (nested across rates, see module
    #: docstring). The stuck value is a fair coin per faulty cell.
    stuck_rate: float = 0.0
    #: Explicit stuck cells as ``(array, row, col, value)`` tuples.
    stuck_cells: tuple = ()
    #: Whole rows stuck at 0, as ``(array, row)`` tuples.
    dead_wordlines: tuple = ()
    #: Flaky sense amps, as ``(array, col)`` tuples.
    flaky_columns: tuple = ()
    #: Per-sensing flip probability of each flaky amp.
    flaky_rate: float = 0.5

    def __post_init__(self):
        for name in ("stuck_rate", "flaky_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise SimulationError(
                    f"{name} must be a probability in [0, 1], got {rate}")
        object.__setattr__(self, "stuck_cells",
                           tuple(tuple(c) for c in self.stuck_cells))
        object.__setattr__(self, "dead_wordlines",
                           tuple(tuple(c) for c in self.dead_wordlines))
        object.__setattr__(self, "flaky_columns",
                           tuple(tuple(c) for c in self.flaky_columns))
        for array, row, col, value in self.stuck_cells:
            if min(array, row, col) < 0 or value not in (0, 1):
                raise SimulationError(
                    f"stuck cell ({array}, {row}, {col}, {value}) must "
                    f"have non-negative coordinates and a 0/1 value")
        for array, row in self.dead_wordlines:
            if min(array, row) < 0:
                raise SimulationError(
                    f"dead wordline ({array}, {row}) must have "
                    f"non-negative coordinates")
        for array, col in self.flaky_columns:
            if min(array, col) < 0:
                raise SimulationError(
                    f"flaky column ({array}, {col}) must have "
                    f"non-negative coordinates")

    @property
    def any_faults(self) -> bool:
        """Whether this model injects anything at all."""
        return bool(self.stuck_rate > 0 or self.stuck_cells
                    or self.dead_wordlines
                    or (self.flaky_columns and self.flaky_rate > 0))


class FaultyPlaneStore(PlaneStoreWrapper):
    """A :class:`PlaneStore` wrapper that injects electrical defects.

    Composition over the inner store
    (:class:`~repro.engine.fleet.PlaneStoreWrapper`) — exactly like the
    shadow sanitizer, and composable with it
    (``ShadowPlaneStore(FaultyPlaneStore(store))`` is what ``make_fleet``
    builds when both are active: discipline is checked on the program's
    accesses, defects corrupt the storage underneath). ``fault_index`` distinguishes the fleets one executor
    creates, so each gets its own slice of the seeded defect field.

    Fault coordinates outside this fleet's geometry are ignored — one
    model can describe a campaign over heterogeneous fleets.
    """

    def __init__(self, store: PlaneStore, model: HardwareFaultModel,
                 fault_index: int = 0):
        super().__init__(store)
        self.model = model
        self.fault_index = fault_index
        #: row -> (keep_mask, force_mask) native planes; the stuck-at
        #: clamp is ``dst = (dst & keep) | force``.
        self._clamps: dict[int, tuple] = {}
        self._flaky_cells = [
            (array, col) for array, col in model.flaky_columns
            if array < self.n_arrays and col < self.cols]
        self._flaky_rng = np.random.default_rng(
            (model.seed, fault_index, 0xF1A))
        self._build_clamps()
        for row in self._clamps:
            self._clamp(row)

    # -- defect sampling ----------------------------------------------
    def _build_clamps(self) -> None:
        model = self.model
        shape = (self.n_arrays, self.rows, self.cols)
        stuck0 = np.zeros(shape, dtype=bool)
        stuck1 = np.zeros(shape, dtype=bool)
        if model.stuck_rate > 0.0:
            rng = np.random.default_rng((model.seed, self.fault_index))
            # Rate-independent field: same (seed, index) -> same u and
            # stuck values at every rate, so fault sets nest.
            field = rng.random(shape, dtype=np.float32)
            values = rng.integers(0, 2, size=shape, dtype=np.uint8)
            faulty = field < model.stuck_rate
            stuck1 |= faulty & (values == 1)
            stuck0 |= faulty & (values == 0)
        for array, row, col, value in model.stuck_cells:
            if array < self.n_arrays and row < self.rows and col < self.cols:
                stuck1[array, row, col] = bool(value)
                stuck0[array, row, col] = not value
        for array, row in model.dead_wordlines:
            if array < self.n_arrays and row < self.rows:
                stuck0[array, row, :] = True
                stuck1[array, row, :] = False
        faulty_rows = np.nonzero((stuck0 | stuck1).any(axis=(0, 2)))[0]
        for row in faulty_rows:
            stuck = (stuck0[:, row] | stuck1[:, row]).astype(np.uint8)
            keep = self._store.plane_not(self._store.pack_plane(stuck))
            force = self._store.pack_plane(
                stuck1[:, row].astype(np.uint8))
            self._clamps[int(row)] = (keep, force)

    @property
    def faulty_rows(self) -> tuple[int, ...]:
        """Rows holding at least one stuck cell (sorted)."""
        return tuple(sorted(self._clamps))

    # -- fault application --------------------------------------------
    def _clamp(self, row: int) -> None:
        clamp = self._clamps.get(row)
        if clamp is None:
            return
        keep, force = clamp
        dst = self._store.row_plane(row)
        dst[...] = (dst & keep) | force

    def _clamp_span(self, top_row: int, n_rows: int) -> None:
        if not self._clamps:
            return
        for row in range(top_row, top_row + n_rows):
            self._clamp(row)

    def _amp_flips(self):
        """Native plane of this sensed row's amp flips, or ``None``.

        One draw per flaky amp per call, hit or miss, so the flip
        stream is a pure function of (seed, fault_index, read count).
        """
        if not self._flaky_cells or self.model.flaky_rate <= 0:
            return None
        draws = self._flaky_rng.random(len(self._flaky_cells))
        flips = np.zeros((self.n_arrays, self.cols), dtype=np.uint8)
        hit = False
        for (array, col), draw in zip(self._flaky_cells, draws):
            if draw < self.model.flaky_rate:
                flips[array, col] = 1
                hit = True
        if not hit:
            return None
        return self._store.pack_plane(flips)

    # -- read paths (flaky amps corrupt sensing, not storage) ---------
    def read_plane(self, row: int) -> np.ndarray:
        plane = self._store.read_plane(row)
        flips = self._amp_flips()
        return plane if flips is None else plane ^ flips

    # -- write paths (stuck cells clamp what was just driven) ---------
    def store_plane(self, row: int, plane: np.ndarray,
                    mask: np.ndarray | None = None) -> None:
        self._store.store_plane(row, plane, mask)
        self._clamp(row)

    def write_row(self, row: int, bits: np.ndarray,
                  mask: np.ndarray | None = None) -> None:
        self._store.write_row(row, bits, mask)
        self._clamp(row)

    def load_bits(self, top_row: int, bits: np.ndarray,
                  col_offset: int = 0) -> None:
        self._store.load_bits(top_row, bits, col_offset)
        self._clamp_span(top_row, np.asarray(bits).shape[-2])

    def move_plane(self, src_row: int, dst_row: int, stride: int,
                   group: int) -> None:
        self._store.move_plane(src_row, dst_row, stride, group)
        self._clamp(dst_row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultyPlaneStore({self._store!r}, "
                f"index={self.fault_index})")
