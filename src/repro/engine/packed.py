"""Packed-bit plane store: 64 bit-columns per machine word.

:class:`ArrayFleet` keeps one uint8 byte per bit — convenient to inspect,
but 8x more memory and 8x less ALU work per NumPy op than the hardware
analogy allows. :class:`PackedArrayFleet` stores the same
``(n_arrays, rows, cols)`` bit tensor as wordline-major
``(rows, n_arrays, n_words)`` uint64 words (column ``c`` at bit
``c % 64`` of word ``c // 64``, LSB-first), so every lockstep primitive —
two-row sensing as ``a & b`` / ``~a & ~b`` on whole words, tag-gated
write-back, column shifts — touches 8x fewer bytes and processes 64
bit-serial lanes per machine word, and one wordline across the fleet, or
a run of wordlines, is one contiguous block. That is exactly how
bit-level SRAM-compute reproductions get their throughput, and it drops
the resident plane memory 8x for serving-scale fleets.

Every primitive lives once in :class:`~repro.engine.fleet.PlaneStore`;
this module supplies the packed storage, the native plane ops
(complement, column shift, host pack/unpack) and two fast paths:

* ``fused = True`` with :meth:`PackedArrayFleet.word_block`: the
  sequencer (:class:`~repro.engine.bitserial.FleetBitSerialUnit`) runs
  its hot composites as fused word-level kernels over whole operand
  blocks instead of one Python call per modeled cycle;
* :meth:`PackedArrayFleet.load_values` / :meth:`~PackedArrayFleet.dump_values`:
  host integers convert to and from packed words through byte views and
  an 8x8 bit-matrix transpose, never through a 0/1 byte-per-bit tensor.

Every packed fleet takes both, in the serial driver and in every pool
worker alike. The unpacked reference keeps the per-primitive path, and
so do the sanitizer and fault-injection wrappers, which declare both
entry points themselves: a fused kernel would touch the planes without
passing their checks and defects. :class:`PackedFleetPeriphery`
inherits the full-adder logic from
:class:`~repro.engine.fleet.FleetPeriphery` and only re-homes the
carry/tag latches in packed words. Property tests pin the packed store —
fused kernels included — bit-exact and cycle-exact against the unpacked
reference for every bit-serial sequence, including ragged
``cols % 64 != 0`` geometries where the tail word is only partially
populated.

Invariant: bits at column positions >= ``cols`` (the tail of the last
word) are always zero, in the store, in every plane a compute cycle
senses or writes, and in the periphery latches. Compute planes only ever
come from the store's own rows and ops, and the one op that could set
tail bits, ``plane_not``, masks them (so does the all-ones
``const_plane``); host bits enter through ``pack_plane``, which packs
exactly ``cols`` columns.
"""

from __future__ import annotations

import os

import numpy as np

from repro.common.bits import (
    WORD_BITS,
    ints_to_packed_planes,
    pack_bit_plane,
    packed_planes_to_ints,
    packed_words,
    unpack_bit_plane,
)
from repro.common.errors import ArrayStateError
from repro.engine.fleet import (
    DEFAULT_COLS,
    DEFAULT_ROWS,
    ArrayFleet,
    FleetPeriphery,
    PlaneStore,
)

__all__ = ["PackedArrayFleet", "PackedFleetPeriphery", "make_fleet"]


def _column_mask(cols: int) -> np.ndarray:
    """Per-word active-column mask: all-ones, tail word partially set."""
    n_words = packed_words(cols)
    mask = np.full(n_words, ~np.uint64(0), dtype=np.uint64)
    tail = cols % WORD_BITS
    if tail:
        mask[-1] = np.uint64((1 << tail) - 1)
    mask.flags.writeable = False
    return mask


class PackedArrayFleet(PlaneStore):
    """``n_arrays`` lockstep compute arrays on packed uint64 bit planes.

    Same public surface and cycle accounting as :class:`ArrayFleet` (both
    are :class:`PlaneStore` implementations); only the native plane
    currency differs — ``(n_arrays, n_words)`` uint64 words instead of
    ``(n_arrays, cols)`` uint8 bits. Host-facing methods (``read_row``,
    ``write_row``, ``load_bits``, ``dump_bits``) still speak 0/1 uint8 and
    convert at the boundary; ``load_values``/``dump_values`` speak ints.
    """

    fused = True

    def __init__(self, n_arrays: int = 1, rows: int = DEFAULT_ROWS,
                 cols: int = DEFAULT_COLS):
        super().__init__(n_arrays, rows, cols)
        self.n_words = packed_words(cols)
        self._mask = _column_mask(cols)
        # Wordline-major, so one wordline across the fleet and a run of
        # wordlines (an operand) are each one contiguous block.
        self._words = np.zeros((rows, n_arrays, self.n_words),
                               dtype=np.uint64)

    # -- plane ops ------------------------------------------------------
    def row_plane(self, row: int) -> np.ndarray:
        return self._words[row]

    def word_block(self, top_row: int, n_rows: int) -> np.ndarray:
        """Writable ``(n_rows, n_arrays, n_words)`` view of the wordlines
        ``[top_row, top_row + n_rows)`` — the operand block the fused
        kernels of :class:`~repro.engine.bitserial.FleetBitSerialUnit`
        read and write whole."""
        self._check_region(top_row, n_rows, 0, self.cols)
        return self._words[top_row:top_row + n_rows]

    def const_plane(self, bit: int):
        # The mask doubles as the all-ones plane (it is read-only).
        return self._mask if bit else np.uint64(0)

    def plane_not(self, plane: np.ndarray) -> np.ndarray:
        return ~plane & self._mask

    def shift_plane(self, plane: np.ndarray, shift: int) -> np.ndarray:
        """Funnel-shift whole words: column ``c`` receives column
        ``c + shift``, zero-filling past the last populated column."""
        if shift <= 0:
            raise ArrayStateError(f"column shift must be positive, got {shift}")
        q, r = divmod(shift, WORD_BITS)
        out = np.zeros_like(plane)
        n = self.n_words
        if q >= n:
            return out
        if r == 0:
            out[..., :n - q] = plane[..., q:]
        else:
            out[..., :n - q] = plane[..., q:] >> np.uint64(r)
            if q + 1 < n:
                out[..., :n - q - 1] |= (plane[..., q + 1:]
                                         << np.uint64(WORD_BITS - r))
        return out

    def pack_plane(self, bits: np.ndarray) -> np.ndarray:
        return pack_bit_plane(bits, self.n_words)

    def unpack_plane(self, plane: np.ndarray) -> np.ndarray:
        return unpack_bit_plane(plane, self.cols)

    def make_periphery(self) -> "PackedFleetPeriphery":
        return PackedFleetPeriphery(self.n_arrays, self.cols)

    def _read_region(self, top_row: int, n_rows: int, col_offset: int,
                     n_cols: int) -> np.ndarray:
        rows = self.unpack_plane(self.word_block(top_row, n_rows))
        return rows.transpose(1, 0, 2)[:, :, col_offset:col_offset + n_cols]

    def _write_region(self, top_row: int, n_rows: int, col_offset: int,
                      bits: np.ndarray) -> None:
        block = self.word_block(top_row, n_rows)
        bits = bits.transpose(1, 0, 2)
        n_cols = bits.shape[-1]
        if col_offset == 0 and n_cols == self.cols:
            block[...] = self.pack_plane(bits)
            return
        # Sub-word column range: read-modify-write the affected rows.
        region = self.unpack_plane(block)
        region[:, :, col_offset:col_offset + n_cols] = bits
        block[...] = self.pack_plane(region)

    def load_values(self, top_row: int, values: np.ndarray,
                    nbits: int) -> None:
        """Host ints straight to packed words (byte view plus the 8x8
        bit-matrix transpose), with no 0/1 bit tensor in between."""
        self._check_value_shape(values)
        block = self.word_block(top_row, values.shape[1] * nbits)
        planes = ints_to_packed_planes(values, nbits, self.n_words)
        block[...] = planes.transpose(2, 0, 1, 3).reshape(block.shape)

    def dump_values(self, top_row: int, nbits: int) -> np.ndarray:
        return packed_planes_to_ints(self.word_block(top_row, nbits),
                                     self.cols)

    @property
    def nbytes(self) -> int:
        return self._words.nbytes


class PackedFleetPeriphery(FleetPeriphery):
    """Column peripherals whose carry/tag latches are packed uint64 words.

    The full-adder logic is inherited unchanged from
    :class:`~repro.engine.fleet.FleetPeriphery` — bitwise ops are
    representation-agnostic — so only latch storage lives here, with the
    all-ones latch states masked to the active columns.
    """

    def _alloc_latches(self) -> None:
        self.n_words = packed_words(self.cols)
        self._mask = _column_mask(self.cols)
        self.carry = np.zeros((self.n_arrays, self.n_words),
                              dtype=np.uint64)
        self.tag = np.broadcast_to(self._mask,
                                   (self.n_arrays, self.n_words)).copy()

    def set_carry(self) -> None:
        self.carry[:] = self._mask

    def set_tag_all(self) -> None:
        self.tag[:] = self._mask


def make_fleet(n_arrays: int = 1, rows: int = DEFAULT_ROWS,
               cols: int = DEFAULT_COLS,
               packed: bool = False,
               sanitize: bool | None = None,
               faults=None) -> PlaneStore:
    """Construct a plane store behind the :class:`PlaneStore` seam.

    ``packed`` selects the storage: ``False`` is the unpacked
    byte-per-bit reference, ``True`` the packed uint64 production store
    (what the fleet backends and every pool worker run on). Anything
    but a ``bool`` is rejected.

    ``faults`` wraps the store in a hardware fault injector
    (:class:`repro.faults.hardware.FaultyPlaneStore`) for the given
    :class:`~repro.faults.hardware.HardwareFaultModel`; with the default
    ``None`` the ambient model installed via
    :func:`repro.faults.context.hardware_faults` (if any) applies, which
    is how a model reaches the fleets an executor builds internally.

    ``sanitize`` wraps the result in the shadow-state sanitizer
    (:class:`repro.verify.sanitizer.ShadowPlaneStore`), which tracks
    per-row init state and raises :class:`~repro.common.errors.VerifyError`
    at the exact primitive that reads an uninitialized wordline. ``None``
    (the default) defers to the ``NEURALCACHE_SANITIZE`` environment
    variable, so a whole test run can be sanitized without code changes.
    The sanitizer composes *outside* the fault injector: program
    discipline is checked on the access stream, defects corrupt the
    storage underneath.
    """
    if sanitize is None:
        sanitize = os.environ.get("NEURALCACHE_SANITIZE", "") not in ("", "0")
    if not isinstance(packed, bool):
        raise ArrayStateError(
            f"unknown plane store {packed!r}; use False (unpacked) or "
            f"True (packed)")
    store = (PackedArrayFleet if packed else ArrayFleet)(n_arrays, rows,
                                                          cols)
    from repro.faults.context import wrap_fleet
    store = wrap_fleet(store, faults)
    if sanitize:
        from repro.verify.sanitizer import ShadowPlaneStore
        return ShadowPlaneStore(store)
    return store
