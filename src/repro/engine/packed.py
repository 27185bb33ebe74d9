"""Packed-bit plane store: one bit-column per bit of a machine word.

:class:`ArrayFleet` keeps one uint8 byte per bit — convenient to inspect,
but 8x more memory and 8x less ALU work per NumPy op than the hardware
analogy allows. :class:`PackedArrayFleet` stores the same
``(n_arrays, rows, cols)`` bit tensor as wordline-major
``(rows, n_arrays, n_words)`` words whose width follows the array width
(:func:`~repro.common.bits.word_dtype`): the narrowest of
uint8/16/32/64 that holds ``cols`` columns, and uint64 words, several
per wordline, beyond 64 columns. Column ``c`` sits at bit ``c % w`` of
word ``c // w`` (LSB-first, ``w`` bits per word), so every lockstep
primitive — two-row sensing as ``a & b`` / ``~a & ~b`` on whole words,
tag-gated write-back, column shifts — touches 8x fewer bytes than the
byte-per-bit store and processes ``w`` bit-serial lanes per machine
word. A 16-column array's wordline is one uint16 rather than a quarter
of a uint64, and one wordline across the fleet, or a run of wordlines,
is one contiguous block. That is exactly how bit-level SRAM-compute
reproductions get their throughput, and it drops the resident plane
memory 8x for serving-scale fleets.

Every primitive lives once in :class:`~repro.engine.fleet.PlaneStore`;
this module supplies the packed storage, the native plane ops
(complement, column shift, host pack/unpack) and two fast paths:

* ``fused = True`` with :meth:`PackedArrayFleet.word_block`: the
  sequencer (:class:`~repro.engine.bitserial.FleetBitSerialUnit`) runs
  its hot composites as fused word-level kernels over whole operand
  blocks instead of one Python call per modeled cycle;
* :meth:`PackedArrayFleet.load_values` / :meth:`~PackedArrayFleet.dump_values`:
  host integers convert to and from packed words through byte views and
  an 8x8 bit-matrix transpose, never through a 0/1 byte-per-bit tensor;
  :meth:`PackedArrayFleet.load_words` takes words already in the store's
  layout (a conv layer's compiled filter table, a batch's window words)
  and gathers them into the rows from a table with one ``np.take``,
  with no conversion at all. The fused ``shift_copy`` and
  ``move_across`` shift and permute straight into their destination
  blocks.

Every packed fleet takes both, in the serial driver and in every pool
worker alike. The unpacked reference keeps the per-primitive path, and
so do the sanitizer and fault-injection wrappers, which declare both
entry points themselves: a fused kernel would touch the planes without
passing their checks and defects. :class:`PackedFleetPeriphery`
inherits the full-adder logic from
:class:`~repro.engine.fleet.FleetPeriphery` and only re-homes the
carry/tag latches in packed words. Property tests pin the packed store —
fused kernels included — bit-exact and cycle-exact against the unpacked
reference for every bit-serial sequence, at every word width and
including ragged geometries (``cols`` not a multiple of the word width)
where the tail word is only partially populated.

Invariant: bits at column positions >= ``cols`` (the tail of the last
word: bits ``cols % w`` and up when ``w`` does not divide ``cols``) are
always zero, whatever the word width, in the store, in every plane a
compute cycle senses or writes, and in the periphery latches. Compute
planes only ever come from the store's own rows and ops, and the one op
that could set tail bits, ``plane_not``, masks them (so does the
all-ones ``const_plane``); host bits enter through ``pack_plane``, which
packs exactly ``cols`` columns, and ``load_words`` masks the words it
stores on ragged geometries. Every plane a store op returns keeps the
store's word dtype: shift counts are Python ints and the constant planes
are dtype-matched, since NumPy's promotion rules would widen a uint16
plane combined with a ``np.uint64`` scalar back to uint64.
"""

from __future__ import annotations

import os

import numpy as np

from repro.common.bits import (
    ints_to_packed_planes,
    pack_bit_plane,
    packed_planes_to_ints,
    packed_words,
    unpack_bit_plane,
    word_bits,
    word_dtype,
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
    """Per-word active-column mask in the store's word dtype: all-ones,
    tail word partially set."""
    dtype = word_dtype(cols)
    mask = np.full(packed_words(cols), np.iinfo(dtype).max, dtype=dtype)
    tail = cols % word_bits(cols)
    if tail:
        mask[-1] = (1 << tail) - 1
    mask.flags.writeable = False
    return mask


class PackedArrayFleet(PlaneStore):
    """``n_arrays`` lockstep compute arrays on packed word bit planes.

    Same public surface and cycle accounting as :class:`ArrayFleet` (both
    are :class:`PlaneStore` implementations); only the native plane
    currency differs — ``(n_arrays, n_words)`` words of :attr:`dtype`
    (sized to ``cols``) instead of ``(n_arrays, cols)`` uint8 bits.
    Host-facing methods (``read_row``, ``write_row``, ``load_bits``,
    ``dump_bits``) still speak 0/1 uint8 and convert at the boundary;
    ``load_values``/``dump_values`` speak ints.
    """

    fused = True

    def __init__(self, n_arrays: int = 1, rows: int = DEFAULT_ROWS,
                 cols: int = DEFAULT_COLS):
        super().__init__(n_arrays, rows, cols)
        self.n_words = packed_words(cols)
        self.word_bits = word_bits(cols)
        self.dtype = word_dtype(cols)
        self._mask = _column_mask(cols)
        self._zero = self.dtype.type(0)
        # Wordline-major, so one wordline across the fleet and a run of
        # wordlines (an operand) are each one contiguous block.
        self._words = np.zeros((rows, n_arrays, self.n_words),
                               dtype=self.dtype)

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
        return self._mask if bit else self._zero

    def plane_not(self, plane: np.ndarray) -> np.ndarray:
        return ~plane & self._mask

    def shift_plane(self, plane: np.ndarray, shift: int,
                    out: np.ndarray | None = None) -> np.ndarray:
        """Funnel-shift whole words: column ``c`` receives column
        ``c + shift``, zero-filling past the last populated column.
        With ``out`` (the fused ``shift_copy``'s destination block) the
        words shift straight into it."""
        if shift <= 0:
            raise ArrayStateError(f"column shift must be positive, got {shift}")
        if out is None:
            out = np.empty_like(plane)
        q, r = divmod(shift, self.word_bits)
        n = self.n_words
        kept = max(n - q, 0)
        head = out[..., :kept]
        if r == 0:
            head[...] = plane[..., q:]
        elif kept:
            # Python-int shift counts keep the plane's word dtype.
            np.right_shift(plane[..., q:], r, out=head)
            if kept > 1:
                head[..., :-1] |= plane[..., q + 1:] << (self.word_bits - r)
        out[..., kept:] = 0
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

    def load_words(self, top_row: int, words: np.ndarray,
                   index: np.ndarray) -> None:
        """Words straight into the rows, one ``take`` from the table with
        no bits or ints between. Ragged geometries clear the tail bits
        the words may carry."""
        words = self._check_words(words, index)
        block = self.word_block(top_row, words.shape[0])
        # ``_check_words`` bounded the index, so ``clip`` skips the
        # buffered copy ``take`` makes to check it.
        np.take(words, index, axis=1, out=block, mode="clip")
        if self.cols % self.word_bits:
            block &= self._mask

    def dump_values(self, top_row: int, nbits: int,
                    arrays: np.ndarray | None = None) -> np.ndarray:
        """Packed words straight to host ints; ``arrays`` selects the
        arrays' words before the conversion, so unread arrays cost no
        transpose."""
        block = self.word_block(top_row, nbits)
        if arrays is not None:
            block = block[:, arrays]
        return packed_planes_to_ints(block, self.cols)

    @property
    def nbytes(self) -> int:
        return self._words.nbytes


class PackedFleetPeriphery(FleetPeriphery):
    """Column peripherals whose carry/tag latches are packed words (the
    store's word dtype for the same ``cols``).

    The full-adder logic is inherited unchanged from
    :class:`~repro.engine.fleet.FleetPeriphery` — bitwise ops are
    representation-agnostic — so only latch storage lives here, with the
    all-ones latch states masked to the active columns.
    """

    def _alloc_latches(self) -> None:
        self.n_words = packed_words(self.cols)
        self._mask = _column_mask(self.cols)
        self.carry = np.zeros((self.n_arrays, self.n_words),
                              dtype=self._mask.dtype)
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
    byte-per-bit reference, ``True`` the packed word production store
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
