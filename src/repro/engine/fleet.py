"""Vectorized model of a fleet of compute-capable SRAM arrays.

The paper's parallelism story (Sec. III-IV) is that *thousands* of 256x256
arrays execute the same bit-serial instruction in lockstep: one compute
cycle activates the same two wordlines in every array of a slice.
:class:`ArrayFleet` models exactly that — ``n_arrays`` arrays stored as one
``(n_arrays, rows, cols)`` uint8 tensor, with every primitive (two-row
sensing, masked write-back, plain reads/writes) operating on *all arrays
per call* as NumPy bit-plane operations.

Cycle accounting is lockstep: one compute cycle senses wordlines and
writes one back *in every array of the fleet*, because the hardware
broadcasts one instruction to every array, and the sequencer charges it
once. A fleet of one array therefore behaves exactly like the original
scalar :class:`repro.sram.array.SRAMArray`, which is now a thin
``n_arrays=1`` view over this class.

The storage format sits behind the :class:`PlaneStore` seam: every
lockstep primitive is written once here in terms of a handful of abstract
*plane ops* (``row_plane``, ``plane_not``, ``shift_plane``, pack/unpack),
so the same sequencer code drives both the unpacked reference store
(:class:`ArrayFleet`, one byte per bit) and the packed store
(:class:`repro.engine.packed.PackedArrayFleet`, one bit-column per bit
of a word sized to the array width, uint8 to uint64 — 8x smaller,
several times faster per lockstep op).

Plane currency: host-facing methods (``read_row``, ``write_row``,
``load_bits``, ``dump_bits``) always speak 0/1 uint8, whatever the store,
and ``load_words`` speaks the packed store's words whatever the store
(the reference form unpacks them into ``load_bits``, so conv staging
converts its filter and window words once and every store checks them
as it checks bits); the compute read and write (``read_plane``,
``store_plane``) and the plane ops speak the store's *native* planes —
uint8 ``(n_arrays, cols)`` for the unpacked store, ``(n_arrays,
n_words)`` words of the store's word dtype for the packed one. Every compute cycle goes through that one
read and that one write, so a wrapper that checks or corrupts them sees
all compute traffic.
Callers that sequence compute cycles treat native planes as opaque values
supporting ``& | ^``.

This module must stay dependency-light (NumPy + error types only): the
single-array classes in :mod:`repro.sram` import it, so importing anything
from :mod:`repro.core` here would create a cycle.
"""

from __future__ import annotations

import functools
from typing import Any

import numpy as np

from repro.common.bits import (
    bitplanes_to_int,
    int_to_bitplanes,
    packed_words,
    unpack_bit_plane,
    word_dtype,
)
from repro.common.errors import ArrayStateError

#: Geometry of the 8KB array used throughout the paper.
DEFAULT_ROWS = 256
DEFAULT_COLS = 256


def mux(mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bitwise select: ``a`` where a mask bit is set, else ``b``.

    ``b ^ ((a ^ b) & mask)`` works unchanged on 0/1 uint8 planes and on
    packed word planes of any width — it is the store-agnostic form of the
    tag-gated write drivers of Figure 7.
    """
    return b ^ ((a ^ b) & mask)


@functools.lru_cache(maxsize=64)
def _hop_perm(n_arrays: int, stride: int, group: int) -> np.ndarray:
    """The (read-only) permutation of a valid cross-array hop, built once
    per fleet size and hop: every fleet of a layer repeats the same few
    hops on every reduction level and operand."""
    idx = np.arange(n_arrays)
    perm = idx - idx % group + (idx % group + stride) % group
    perm.flags.writeable = False
    return perm


class PlaneStore:
    """Shared lockstep primitives over an abstract bit-plane storage.

    Subclasses provide the storage and the native plane ops; every
    primitive (and all its bounds/value validation) lives here exactly
    once, so the packed and unpacked stores cannot drift apart.

    This interface is also the composition seam for cross-cutting
    wrappers — the shadow-state sanitizer
    (:class:`repro.verify.sanitizer.ShadowPlaneStore`) and the hardware
    fault injector (:class:`repro.faults.hardware.FaultyPlaneStore`)
    both wrap any store behind it, and
    :func:`~repro.engine.packed.make_fleet` stacks them (sanitizer
    outside, faults inside) without the sequencer knowing.

    Parameters
    ----------
    n_arrays:
        Number of arrays in the fleet (>= 1). All arrays receive the same
        instruction each cycle; data differs per array.
    rows:
        Wordlines per array (default 256).
    cols:
        Bitlines per array (default 256). Each bitline of each array is one
        bit-serial ALU slot, so the fleet exposes ``n_arrays * cols`` lanes.
    """

    #: Whether :class:`~repro.engine.bitserial.FleetBitSerialUnit` may run
    #: its hot composites as fused word-level kernels over
    #: :meth:`word_block` views instead of one primitive call per cycle.
    #: Only the packed stores set it; the unpacked reference and the
    #: sanitizer/fault wrappers keep the per-primitive path.
    fused = False

    def __init__(self, n_arrays: int = 1, rows: int = DEFAULT_ROWS,
                 cols: int = DEFAULT_COLS):
        if n_arrays <= 0:
            raise ArrayStateError(
                f"fleet must contain at least one array, got {n_arrays}")
        if rows <= 0 or cols <= 0:
            raise ArrayStateError(f"array must be non-empty, got {rows}x{cols}")
        self.n_arrays = n_arrays
        self.rows = rows
        self.cols = cols
        self.access_cycles = 0
        self.compute_cycles = 0

    # ------------------------------------------------------------------
    # Native plane ops (the seam subclasses implement)
    # ------------------------------------------------------------------
    def row_plane(self, row: int) -> np.ndarray:
        """Writable native view of one wordline across every array."""
        raise NotImplementedError

    def const_plane(self, bit: int):
        """A broadcastable constant native plane (all-0 or all-1 columns).

        May be a scalar or a shared read-only array; callers must not
        mutate it.
        """
        raise NotImplementedError

    def word_block(self, top_row: int, n_rows: int) -> np.ndarray:
        """Writable native view of ``n_rows`` wordlines, stacked
        ``(n_rows, n_arrays, ...)``: the operand block of the fused
        kernels (stores with :attr:`fused` set)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The compute read and the compute write over row_plane.
    # ``row_plane`` alone cannot tell a sensed wordline from a driven
    # one, so every per-primitive compute cycle of FleetBitSerialUnit —
    # arithmetic, moves and the Compute Cache heritage ops alike — and
    # SRAMArray.sense go through these two instead. That is what lets
    # the shadow-state sanitizer and the fault injector observe every
    # compute-phase access by overriding just these two, without being
    # in the default path.
    # ------------------------------------------------------------------
    def read_plane(self, row: int) -> np.ndarray:
        """Native view of one wordline being *sensed* (compute read)."""
        return self.row_plane(row)

    def store_plane(self, row: int, plane: np.ndarray,
                    mask: np.ndarray | None = None) -> None:
        """Write-back phase of a compute cycle: store a native plane.

        Performs no plane validation — the caller is the sequencer whose
        planes came from this store's own ops — and charges no cycle:
        the sensing and write-back phases share one clock. ``mask``
        models the tag-gated write drivers; masked columns keep their
        value (an implicit read of the destination row).
        """
        dst = self.row_plane(row)
        if mask is None:
            dst[...] = plane
        else:
            dst[...] = mux(mask, plane, dst)

    def plane_not(self, plane: np.ndarray) -> np.ndarray:
        """Complement of the active columns of a native plane."""
        raise NotImplementedError

    def shift_plane(self, plane: np.ndarray, shift: int) -> np.ndarray:
        """Move bits ``shift`` columns toward column 0, zero-filling at the
        right edge (the column-mux / sense-amp-cycling moves of
        Sec. III-D)."""
        raise NotImplementedError

    def pack_plane(self, bits: np.ndarray) -> np.ndarray:
        """Host 0/1 uint8 ``(n_arrays, cols)`` -> native plane."""
        raise NotImplementedError

    def unpack_plane(self, plane: np.ndarray) -> np.ndarray:
        """Native plane -> fresh host 0/1 uint8 ``(n_arrays, cols)``."""
        raise NotImplementedError

    def make_periphery(self):
        """Column peripherals whose latches use this store's native planes."""
        raise NotImplementedError

    def _read_region(self, top_row: int, n_rows: int, col_offset: int,
                     n_cols: int) -> np.ndarray:
        """Host uint8 ``(n_arrays, n_rows, n_cols)`` copy of a region."""
        raise NotImplementedError

    def _write_region(self, top_row: int, n_rows: int, col_offset: int,
                      bits: np.ndarray) -> None:
        """Store validated host bits ``(n_arrays, n_rows, n_cols)``."""
        raise NotImplementedError

    @property
    def nbytes(self) -> int:
        """Resident bytes of the backing bit-plane storage."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Plain SRAM behaviour (single wordline, all arrays; host currency)
    # ------------------------------------------------------------------
    def read_row(self, row: int) -> np.ndarray:
        """Read one wordline of every array; returns ``(n_arrays, cols)``."""
        self._check_row(row)
        self.access_cycles += 1
        return self.unpack_plane(self.row_plane(row))

    def write_row(self, row: int, bits: np.ndarray,
                  mask: np.ndarray | None = None) -> None:
        """Write one wordline of every array.

        ``mask`` models the per-column bit-line drivers gated by the tag
        latch (Figure 7): positions where ``mask == 0`` keep their value.
        """
        self._check_row(row)
        plane = self.pack_plane(self._coerce_bits(bits))
        self.access_cycles += 1
        dst = self.row_plane(row)
        if mask is None:
            dst[...] = plane
        else:
            dst[...] = mux(self.pack_plane(self._coerce_bits(mask)),
                           plane, dst)

    # ------------------------------------------------------------------
    # Compute behaviour (native currency)
    # ------------------------------------------------------------------
    def plane_any(self, row: int) -> bool:
        """True when any bit of ``row`` is set in *any* array of the fleet.

        This is the zero-plane probe of the sparsity engine: a bit-serial
        sequencer may skip a multiply/add step fleet-wide only when the
        driving operand plane is all-zero across every array. Modeled as
        free (0 cycles) — the hardware analogue is a per-wordline zero
        flag the periphery maintains as planes are written, and on the
        packed store the probe is one ``np.any`` over native words
        (exact, because bits past the last column are invariantly zero).
        """
        self._check_row(row)
        return bool(self.row_plane(row).any())

    def move_plane(self, src_row: int, dst_row: int, stride: int,
                   group: int) -> None:
        """Rotate one wordline's planes between arrays of a reduction group.

        Arrays are partitioned into consecutive groups of ``group`` along
        the fleet axis; every array's ``dst_row`` receives ``src_row`` from
        the array ``stride`` positions ahead *within its group*, wrapping
        at the group boundary. The wrap keeps every destination plane
        defined — donor arrays at the top of a group receive rotated data
        they never read, instead of garbage.

        This is the inter-array hop of cross-array reduction (Sec. III-D /
        IV-C): sense-amp-paired arrays at stride 1, quadrant-bus and ring
        hops at larger strides. Because every store keeps the fleet axis
        first in its native planes (``row_plane`` returns ``(n_arrays,
        ...)``), one permutation along axis 0 implements the hop for the
        unpacked and packed stores alike. Raw plane op: no cycle
        accounting here — sequencers charge hop cycles themselves.
        """
        self._check_row(src_row)
        self._check_row(dst_row)
        perm = self._group_perm(stride, group)
        src = self.row_plane(src_row)
        dst = self.row_plane(dst_row)
        dst[...] = src[perm]

    def _group_perm(self, stride: int, group: int) -> np.ndarray:
        """Validated fleet-axis permutation of one cross-array hop: index
        ``i`` names the array whose plane array ``i`` receives."""
        if group < 2 or group > self.n_arrays:
            raise ArrayStateError(
                f"cross-array group must have 2..{self.n_arrays} arrays, "
                f"got {group}")
        if self.n_arrays % group:
            raise ArrayStateError(
                f"fleet of {self.n_arrays} arrays does not divide into "
                f"groups of {group}")
        if not 1 <= stride < group:
            raise ArrayStateError(
                f"cross-array stride must be in 1..{group - 1}, got {stride}")
        return _hop_perm(self.n_arrays, stride, group)

    # ------------------------------------------------------------------
    # Test/host-side helpers (no cycle accounting; data arrives via TMU)
    # ------------------------------------------------------------------
    def load_bits(self, top_row: int, bits: np.ndarray,
                  col_offset: int = 0) -> None:
        """Bulk-store a bit tensor with its row 0 at ``top_row``.

        ``bits`` is ``(n_arrays, n_rows, n_cols)``, or ``(n_rows, n_cols)``
        to broadcast the same plane into every array, with values 0/1.
        This is the host/TMU initialisation path; transfer costs are
        charged by the transfer models, not here.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim == 2:
            bits = np.broadcast_to(bits, (self.n_arrays, *bits.shape))
        if bits.ndim != 3 or bits.shape[0] != self.n_arrays:
            raise ArrayStateError(
                f"expected a ({self.n_arrays}, rows, cols) bit tensor, got "
                f"shape {bits.shape}")
        if np.any(bits > 1):
            raise ArrayStateError("bit values must be 0 or 1")
        _, n_rows, n_cols = bits.shape
        self._check_region(top_row, n_rows, col_offset, n_cols)
        self._write_region(top_row, n_rows, col_offset, bits)

    def dump_bits(self, top_row: int, n_rows: int, col_offset: int = 0,
                  n_cols: int | None = None) -> np.ndarray:
        """Bulk-read ``(n_arrays, n_rows, n_cols)`` (host/TMU path)."""
        if n_cols is None:
            n_cols = self.cols - col_offset
        self._check_region(top_row, n_rows, col_offset, n_cols)
        return self._read_region(top_row, n_rows, col_offset, n_cols)

    def load_values(self, top_row: int, values: np.ndarray,
                    nbits: int) -> None:
        """Store host integers as ``nbits``-row fields (host/TMU path).

        ``values`` is ``(n_arrays, n_fields, cols)`` non-negative ints;
        field ``t`` fills wordlines ``top_row + t * nbits`` onward, LSB
        first, masked to ``nbits``. This reference form builds the 0/1
        bit tensor and loads it through :meth:`load_bits`, so wrappers
        that check or corrupt that call see every host write; the packed
        store converts ints to words directly.
        """
        self._check_value_shape(values)
        n_arrays, n_fields, cols = values.shape
        planes = int_to_bitplanes(values.reshape(-1, cols), nbits)
        self.load_bits(top_row,
                       planes.reshape(n_arrays, n_fields * nbits, cols))

    def load_words(self, top_row: int, words: np.ndarray,
                   index: np.ndarray) -> None:
        """Store packed words as wordlines ``top_row`` onward (host/TMU
        path).

        ``words`` is a table of ``n`` planes, ``(n_rows, n, n_words)`` in
        the packed store's layout for this ``cols``
        (:func:`~repro.common.bits.pack_bit_plane`: words of
        ``word_dtype(cols)``, column ``c`` at bit ``c % w`` of word
        ``c // w``); array ``i`` receives plane ``index[i]``, its row
        ``k`` at wordline ``top_row + k``, so one table of distinct
        planes loads every array that shares one. Bits past the last
        column are ignored. This reference form unpacks the words and
        loads them through :meth:`load_bits`, so wrappers that check or
        corrupt that call see every host write; the packed store takes
        the words straight into its rows.
        """
        words = self._check_words(words, index)
        bits = unpack_bit_plane(words[:, index], self.cols)
        self.load_bits(top_row, bits.transpose(1, 0, 2))

    def dump_values(self, top_row: int, nbits: int,
                    arrays: np.ndarray | None = None) -> np.ndarray:
        """Read ``(n_arrays, cols)`` int64 from the ``nbits`` rows at
        ``top_row``, LSB first (host path; reference form over
        :meth:`dump_bits`).

        ``arrays`` (an index array) converts only those arrays' values,
        ``(len(arrays), cols)``. This reference form still dumps every
        array and indexes the bits, so wrappers check each row it reads
        exactly as the full read does; the packed store selects the
        arrays' words before converting.
        """
        bits = self.dump_bits(top_row, nbits)
        return bitplanes_to_int(bits if arrays is None else bits[arrays])

    def reset_counters(self) -> None:
        """Zero the lockstep access/compute cycle counters."""
        self.access_cycles = 0
        self.compute_cycles = 0

    # ------------------------------------------------------------------
    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise ArrayStateError(
                f"row {row} outside array of {self.rows} rows")

    def _check_region(self, top_row: int, n_rows: int, col_offset: int,
                      n_cols: int) -> None:
        """Bounds for a rectangular host-path region (load and dump share
        this, so a dump can no longer wrap a negative offset or silently
        truncate past the last column)."""
        if n_rows < 0 or top_row < 0 or top_row + n_rows > self.rows:
            raise ArrayStateError(
                f"rows [{top_row}, {top_row + n_rows}) outside array of "
                f"{self.rows} rows")
        if n_cols < 0 or col_offset < 0 or col_offset + n_cols > self.cols:
            raise ArrayStateError(
                f"columns [{col_offset}, {col_offset + n_cols}) outside array "
                f"of {self.cols} columns")

    def _check_value_shape(self, values: np.ndarray) -> None:
        if (values.ndim != 3 or values.shape[0] != self.n_arrays
                or values.shape[2] != self.cols):
            raise ArrayStateError(
                f"expected ({self.n_arrays}, n_fields, {self.cols}) values, "
                f"got shape {values.shape}")

    def _check_words(self, words: np.ndarray,
                     index: np.ndarray) -> np.ndarray:
        """Validate a :meth:`load_words` table and its array index."""
        words = np.asarray(words)
        dtype = word_dtype(self.cols)
        if (words.ndim != 3 or words.dtype != dtype
                or words.shape[2] != packed_words(self.cols)):
            raise ArrayStateError(
                f"expected (rows, n, {packed_words(self.cols)}) {dtype} "
                f"words, got {words.dtype} of shape {words.shape}")
        n = words.shape[1]
        if (index.shape != (self.n_arrays,) or index.min() < 0
                or index.max() >= n):
            raise ArrayStateError(
                f"expected {self.n_arrays} word indices into {n} planes")
        return words

    def _coerce_bits(self, bits: np.ndarray) -> np.ndarray:
        """Validate host 0/1 bits, broadcasting ``(cols,)`` to every array."""
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape == (self.cols,):
            bits = np.broadcast_to(bits, (self.n_arrays, self.cols))
        if bits.shape != (self.n_arrays, self.cols):
            raise ArrayStateError(
                f"expected ({self.n_arrays}, {self.cols}) bits, got shape "
                f"{bits.shape}")
        if np.any(bits > 1):
            raise ArrayStateError("bit values must be 0 or 1")
        return bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(n_arrays={self.n_arrays}, "
                f"rows={self.rows}, cols={self.cols}, "
                f"access={self.access_cycles}, "
                f"compute={self.compute_cycles})")


class ArrayFleet(PlaneStore):
    """``n_arrays`` compute SRAM arrays executing in lockstep.

    The unpacked *reference* store: one uint8 byte per bit, native planes
    are the host planes. Kept byte-per-bit so tests and debuggers can look
    straight at ``_bits``; the production store is
    :class:`repro.engine.packed.PackedArrayFleet`.
    """

    def __init__(self, n_arrays: int = 1, rows: int = DEFAULT_ROWS,
                 cols: int = DEFAULT_COLS):
        super().__init__(n_arrays, rows, cols)
        self._bits = np.zeros((n_arrays, rows, cols), dtype=np.uint8)

    # -- plane ops ------------------------------------------------------
    def row_plane(self, row: int) -> np.ndarray:
        return self._bits[:, row]

    def const_plane(self, bit: int):
        return np.uint8(1) if bit else np.uint8(0)

    def plane_not(self, plane: np.ndarray) -> np.ndarray:
        return plane ^ 1

    def shift_plane(self, plane: np.ndarray, shift: int) -> np.ndarray:
        if shift <= 0:
            raise ArrayStateError(f"column shift must be positive, got {shift}")
        shifted = np.zeros_like(plane)
        if shift < plane.shape[-1]:
            shifted[..., :-shift] = plane[..., shift:]
        return shifted

    def pack_plane(self, bits: np.ndarray) -> np.ndarray:
        return bits

    def unpack_plane(self, plane: np.ndarray) -> np.ndarray:
        return plane.copy()

    def make_periphery(self) -> "FleetPeriphery":
        return FleetPeriphery(self.n_arrays, self.cols)

    def _read_region(self, top_row: int, n_rows: int, col_offset: int,
                     n_cols: int) -> np.ndarray:
        return self._bits[:, top_row:top_row + n_rows,
                          col_offset:col_offset + n_cols].copy()

    def _write_region(self, top_row: int, n_rows: int, col_offset: int,
                      bits: np.ndarray) -> None:
        self._bits[:, top_row:top_row + n_rows,
                   col_offset:col_offset + bits.shape[-1]] = bits

    @property
    def nbytes(self) -> int:
        return self._bits.nbytes


class FleetPeriphery:
    """Column peripherals (Figure 7) for every array of a fleet at once.

    The carry and tag latches are ``(n_arrays, cols)`` planes; the
    combinational full-adder logic evaluates on whole planes. It is the
    one latch model: a one-array
    :class:`~repro.sram.bitserial.BitSerialUnit` drives a periphery of
    ``n_arrays=1``. The sequencer latches sensed planes straight into
    ``tag``/``carry`` — they come from the store's own ops, so nothing
    here re-validates them.
    :class:`repro.engine.packed.PackedFleetPeriphery` subclasses this with
    packed word latches; the adder logic is shared, only latch storage
    differs.
    """

    def __init__(self, n_arrays: int, cols: int):
        if n_arrays <= 0 or cols <= 0:
            raise ArrayStateError(
                f"periphery needs positive dimensions, got "
                f"{n_arrays}x{cols}")
        self.n_arrays = n_arrays
        self.cols = cols
        self._alloc_latches()

    def _alloc_latches(self) -> None:
        """Allocate the carry (cleared) and tag (all-enabled) latches in
        this periphery's native plane format."""
        self.carry = np.zeros((self.n_arrays, self.cols), dtype=np.uint8)
        self.tag = np.ones((self.n_arrays, self.cols), dtype=np.uint8)

    # -- latch management (resets happen during instruction issue and cost
    # -- no array cycles)
    def clear_carry(self) -> None:
        self.carry[:] = 0

    def set_carry(self) -> None:
        self.carry[:] = 1

    def set_tag_all(self) -> None:
        self.tag[:] = 1

    # -- combinational logic -------------------------------------------
    def add_step(self, a_and_b: np.ndarray,
                 a_xor_b: np.ndarray) -> np.ndarray:
        """The sum/carry latch update from pre-decoded AND/XOR planes.

        This is the single implementation of the adder logic: the
        per-cycle path of
        :class:`~repro.engine.bitserial.FleetBitSerialUnit` and the
        packed store's periphery both land here, so the carry semantics
        cannot drift between them. The carry latch supplies carry-in and
        is overwritten with the carry-out; returns the sum plane.
        """
        carry = self.carry
        total = a_xor_b ^ carry
        carry[...] = a_and_b | (a_xor_b & carry)
        return total


class PlaneStoreWrapper:
    """Shared scaffolding of the wrappers that compose around a store.

    The shadow-state sanitizer
    (:class:`repro.verify.sanitizer.ShadowPlaneStore`) and the hardware
    fault injector (:class:`repro.faults.hardware.FaultyPlaneStore`) hold
    the real store and forward everything they do not override, so they
    work identically over the unpacked and the packed store. This base
    keeps what both need and nothing else; subclasses add only their
    checks or defects on the read and write paths.

    The cycle counters are property proxies onto the inner store —
    sequencer code does ``fleet.compute_cycles += 1`` and both halves of
    that read-modify-write must land on the same counter.

    The fused and host-value entry points are declared here rather than
    forwarded: the inner store's fused kernels, int/word host conversion
    and word copies would reach its storage without passing through the
    wrapper. The sequencer therefore runs the per-primitive path, and
    host values and words go through the reference conversion over the
    wrapper's own ``load_bits``/``dump_bits``.
    """

    fused = False

    def __init__(self, store: PlaneStore):
        self._store = store
        self.n_arrays = store.n_arrays
        self.rows = store.rows
        self.cols = store.cols

    @property
    def access_cycles(self) -> int:
        return self._store.access_cycles

    @access_cycles.setter
    def access_cycles(self, value: int) -> None:
        self._store.access_cycles = value

    @property
    def compute_cycles(self) -> int:
        return self._store.compute_cycles

    @compute_cycles.setter
    def compute_cycles(self, value: int) -> None:
        self._store.compute_cycles = value

    def word_block(self, top_row: int, n_rows: int) -> np.ndarray:
        raise ArrayStateError(
            f"{type(self).__name__} exposes no word blocks: wrapped stores "
            f"run the per-primitive path")

    load_values = PlaneStore.load_values
    load_words = PlaneStore.load_words
    dump_values = PlaneStore.dump_values

    def __getattr__(self, name: str) -> Any:
        # Only reached for names the wrapper does not define: plane ops,
        # row checks, make_periphery, nbytes, reset_counters, ...
        return getattr(self._store, name)
