"""Functional model of an 8KB compute-capable SRAM array.

The paper's arrays (Figure 3d) have 256 wordlines by 256 bitlines. Activating
two wordlines simultaneously performs a wired operation on every bitline in
the analog domain (Figure 2b):

* sensing the bit-line (``BL``) yields ``A AND B``;
* sensing the bit-line complement (``BLB``) yields ``(NOT A) AND (NOT B)``,
  i.e. ``A NOR B``.

This module models that behaviour digitally and bit-exactly. Word-line
under-drive (the 0.66 V read voltage that protects cells during multi-row
activation) only affects delay and energy, which are captured by
:mod:`repro.sram.energy`; functionally reads are non-destructive.

Since the array-fleet refactor, :class:`SRAMArray` is a thin ``n_arrays=1``
view over a :class:`repro.engine.fleet.PlaneStore` — the vectorized engine
that executes the same primitives across *all* arrays of a slice at once.
It only talks to the backing store through the store seam (the compute
read ``read_plane`` and write ``store_plane``, plane ops and the
host-currency bulk paths), so it views the unpacked
:class:`~repro.engine.fleet.ArrayFleet`, the packed
:class:`~repro.engine.packed.PackedArrayFleet` and their sanitizer and
fault wrappers interchangeably while its own scalar API stays 0/1 uint8
vectors. :meth:`SRAMArray.sense` is the one place the two Figure 2b rails
are materialised; the sequencers combine the sensed planes directly. The API and the cycle accounting
are unchanged: the fleet's lockstep counters coincide with the per-array
counters when the fleet has one member, so the 8.6 pJ / 15.4 pJ
per-256-bitline-cycle energy charging (22 nm numbers from Sec. V) is
unaffected.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ArrayStateError
from repro.engine.bitserial import sense_rows
from repro.engine.fleet import (
    DEFAULT_COLS,
    DEFAULT_ROWS,
    ArrayFleet,
    PlaneStore,
)

__all__ = ["DEFAULT_COLS", "DEFAULT_ROWS", "SRAMArray"]


class SRAMArray:
    """A single compute-capable SRAM array: a plane-store fleet of one.

    Parameters
    ----------
    rows:
        Number of wordlines (default 256).
    cols:
        Number of bitlines (default 256). Each bitline is one bit-serial
        ALU slot.
    fleet:
        Optional existing single-array plane store to view (unpacked or
        packed). By default a fresh ``ArrayFleet(1, rows, cols)`` backs
        the array.
    """

    def __init__(self, rows: int = DEFAULT_ROWS, cols: int = DEFAULT_COLS,
                 fleet: PlaneStore | None = None):
        if fleet is None:
            fleet = ArrayFleet(1, rows, cols)
        elif fleet.n_arrays != 1:
            raise ArrayStateError(
                f"SRAMArray views exactly one array, got a fleet of "
                f"{fleet.n_arrays}")
        self.fleet = fleet
        self.rows = fleet.rows
        self.cols = fleet.cols

    # ------------------------------------------------------------------
    # Fleet-view plumbing
    # ------------------------------------------------------------------
    @property
    def _bits(self) -> np.ndarray:
        """The array's bit plane (a live view into the backing fleet).

        Only the unpacked reference store has a byte-per-bit tensor to
        view; packed-backed arrays must go through :meth:`dump_bits`.
        """
        if not isinstance(self.fleet, ArrayFleet):
            raise ArrayStateError(
                f"{type(self.fleet).__name__} has no byte-per-bit view; "
                f"use dump_bits")
        return self.fleet._bits[0]

    @property
    def access_cycles(self) -> int:
        """Plain read/write cycles (delegated to the fleet counter)."""
        return self.fleet.access_cycles

    @access_cycles.setter
    def access_cycles(self, value: int) -> None:
        self.fleet.access_cycles = value

    @property
    def compute_cycles(self) -> int:
        """Two-row activation cycles (delegated to the fleet counter)."""
        return self.fleet.compute_cycles

    @compute_cycles.setter
    def compute_cycles(self, value: int) -> None:
        self.fleet.compute_cycles = value

    # ------------------------------------------------------------------
    # Plain SRAM behaviour (single wordline)
    # ------------------------------------------------------------------
    def read_row(self, row: int) -> np.ndarray:
        """Read one wordline; returns a copy of its 0/1 bit vector."""
        return self.fleet.read_row(row)[0]

    def write_row(self, row: int, bits: np.ndarray,
                  mask: np.ndarray | None = None) -> None:
        """Write one wordline.

        ``mask`` models the per-column bit-line drivers gated by the tag
        latch (Figure 7): columns where ``mask == 0`` keep their old value.
        """
        self.fleet._check_row(row)
        bits = self._coerce_bits(bits)
        self.fleet.access_cycles += 1
        self._store(row, bits, mask)

    # ------------------------------------------------------------------
    # Compute behaviour (two simultaneous wordlines)
    # ------------------------------------------------------------------
    def sense(self, row_a: int, row_b: int) -> tuple[np.ndarray, np.ndarray]:
        """Activate two wordlines and sense both bit-line rails.

        Returns ``(bl, blb)`` where ``bl[i] = A[i] AND B[i]`` and
        ``blb[i] = A[i] NOR B[i]`` for every bitline ``i``, exactly as in
        Figure 2b. Reads are non-destructive (the silicon guarantees this
        via word-line under-drive; 20 fabricated test chips tolerate 64
        simultaneous rows, the architecture only ever uses two).
        """
        fleet = self.fleet
        a, b = sense_rows(fleet, row_a, row_b)
        return (fleet.unpack_plane(a & b)[0],
                fleet.unpack_plane(fleet.plane_not(a | b))[0])

    def sense_single(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """Activate one wordline in compute mode (the other operand reads
        as all-ones on BL sensing, i.e. ``bl = A`` and ``blb = NOT A``).

        Used for moves and tag loads, which only need one operand row.
        """
        fleet = self.fleet
        (a,) = sense_rows(fleet, row)
        return (fleet.unpack_plane(a)[0],
                fleet.unpack_plane(fleet.plane_not(a))[0])

    def write_back(self, row: int, bits: np.ndarray,
                   mask: np.ndarray | None = None) -> None:
        """Phase-2 write of a compute cycle (WWL activation).

        Does *not* count an extra cycle: the paper's compute cycle has a
        sensing phase and a write-back phase inside one clock.
        """
        self.fleet._check_row(row)
        bits = self._coerce_bits(bits)
        self._store(row, bits, mask)

    def _store(self, row: int, bits: np.ndarray,
               mask: np.ndarray | None) -> None:
        """Write already-validated bits into the backing fleet plane
        through the store seam (single validation pass; the fleet's own
        coercion is skipped)."""
        fleet = self.fleet
        plane = fleet.pack_plane(bits[None, :])
        packed_mask = (None if mask is None else
                       fleet.pack_plane(self._coerce_bits(mask)[None, :]))
        fleet.store_plane(row, plane, packed_mask)

    # ------------------------------------------------------------------
    # Test/host-side helpers (no cycle accounting; data arrives via TMU)
    # ------------------------------------------------------------------
    def load_bits(self, top_row: int, bits: np.ndarray,
                  col_offset: int = 0) -> None:
        """Bulk-store a bit matrix with its row 0 at ``top_row``.

        This is the host/TMU path used to initialise array contents; cycle
        costs for getting data into the array are charged by the transfer
        models, not here.
        """
        bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
        self.fleet.load_bits(top_row, bits[None, :, :], col_offset)

    def dump_bits(self, top_row: int, n_rows: int,
                  col_offset: int = 0, n_cols: int | None = None) -> np.ndarray:
        """Bulk-read a bit matrix (host/TMU path, no cycle accounting)."""
        return self.fleet.dump_bits(top_row, n_rows, col_offset, n_cols)[0]

    def reset_counters(self) -> None:
        """Zero the access/compute cycle counters."""
        self.fleet.reset_counters()

    # ------------------------------------------------------------------
    def _coerce_bits(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (self.cols,):
            raise ArrayStateError(
                f"expected a row of {self.cols} bits, got shape {bits.shape}")
        if np.any(bits > 1):
            raise ArrayStateError("bit values must be 0 or 1")
        return bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SRAMArray(rows={self.rows}, cols={self.cols}, "
                f"access={self.access_cycles}, compute={self.compute_cycles})")
