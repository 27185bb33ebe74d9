"""Fleet-wide bit-serial arithmetic: one instruction, every array at once.

:class:`FleetBitSerialUnit` holds the bit-serial operation sequences
(copy, addition per Fig. 4, predicated multiplication per Fig. 6,
restoring division, subtraction/compare, max/min folding, ReLU, selective
copies, in-array tree reduction per Fig. 5) and drives them over any
:class:`~repro.engine.fleet.PlaneStore` — the unpacked
:class:`~repro.engine.fleet.ArrayFleet` reference or the packed
:class:`~repro.engine.packed.PackedArrayFleet` — so every cycle executes
on *all* ``n_arrays * cols`` bitlines simultaneously — the data
parallelism the paper's compute-cache slices actually have.

Two execution paths, chosen by the store alone
(:attr:`~repro.engine.fleet.PlaneStore.fused`). The *per-primitive*
path runs every modeled cycle as one call into the store and the
periphery; it is the reference, and it is what the unpacked
:class:`~repro.engine.fleet.ArrayFleet` and the sanitizer and fault
wrappers run, because their checks and defects act on each primitive
access. The packed store takes the *fused* path for the hot
composites (``zero``, ``write_scalar``, the copies, ``add``,
``add_into``, ``sub``, ``sub_into``, ``multiply`` and so ``mac``,
``mac_taps``, ``move_across`` and so both reduction trees): one
word-level kernel per composite over whole operand blocks, with the
carry in a local word plane and the cycles charged from the closed
forms of :class:`repro.sram.cost.CycleCosts`. ``multiply`` folds its
partial products with 3:2 compressors and resolves them with one
ripple add; ``mac_taps`` runs a block of a conv's taps as one such
multiply over the stacked taps and one carry-save sum over the tap
axis. Sparsity probes, ``skip_step`` reports, both latches and both
counters end exactly as on the per-primitive path, which the property
tests check composite by composite.

:class:`repro.sram.bitserial.BitSerialUnit` is the ``n_arrays=1`` view of
this unit over one :class:`~repro.sram.array.SRAMArray`'s store, so the
sequences exist once. Cycle accounting is lockstep: ``self.cycles`` after
any operation equals what each member array charges when it runs alone,
because the hardware broadcasts each instruction to the whole fleet.
Property tests run lockstep fleets against isolated one-array units on
random operands and assert results equal integer arithmetic and cycle
counts equal :class:`repro.sram.cost.CycleCosts` in its ``derived``
preset.

Operands use transposed layout: an :class:`Operand` names the wordline
of its least-significant bit and its width; element ``(array, column)``
of the fleet occupies bitline ``column`` of that array. :class:`Operand`
is *defined* here and re-exported by :mod:`repro.sram.bitserial`.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ArrayStateError, LayoutError
from repro.engine.fleet import ArrayFleet, PlaneStore, mux

#: Module-wide trace hook: when set (by repro.verify.recorder), every
#: *top-level* composite operation on any FleetBitSerialUnit is reported
#: as ``hook(unit, method_name, args, kwargs)`` before it executes.
#: Nested composite calls (mac -> multiply -> load_tag, ...) are
#: suppressed via a per-unit depth counter, so a recorded program is the
#: sequence of calls the *engine* made — the unit of transformation the
#: static verifier reasons about. ``None`` (the default) costs one global
#: read per composite call.
_TRACE_HOOK = None


def set_trace_hook(hook):
    """Install (or clear, with ``None``) the composite-call trace hook.

    Returns the previously installed hook so callers can restore it —
    :func:`repro.verify.recorder.record_programs` is the intended user.
    """
    global _TRACE_HOOK
    previous = _TRACE_HOOK
    _TRACE_HOOK = hook
    return previous


def _traced(fn):
    """Report top-level calls of ``fn`` to the trace hook, if installed."""
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        hook = _TRACE_HOOK
        if hook is None:
            return fn(self, *args, **kwargs)
        if not self._trace_depth:
            hook(self, name, args, kwargs)
        self._trace_depth += 1
        try:
            return fn(self, *args, **kwargs)
        finally:
            self._trace_depth -= 1

    return wrapper


@functools.cache
def _costs():
    """The closed-form ``derived`` cycle costs the fused kernels charge
    (imported lazily: :mod:`repro.sram` imports this module)."""
    from repro.sram.cost import CycleCosts
    return CycleCosts.derived()


def _ripple_add(a, b, carry: np.ndarray, out) -> np.ndarray:
    """Word-parallel ripple-carry add of two stacked plane blocks.

    For every plane ``k`` of ``a``, ``a[k] + b[k]`` plus the running
    carry (initially ``carry``) writes sum plane ``k`` to ``out[k]``;
    returns the carry-out plane. This is the per-bit sum/carry step of
    the column periphery, one bitline per bit of the store's word. Each
    step reads its operands before it writes, so ``out`` may alias ``a``
    or ``b`` row for row.
    """
    for k in range(len(a)):
        ak = a[k]
        bk = b[k]
        x = ak ^ bk
        g = ak & bk
        out[k] = x ^ carry
        carry = g | (x & carry)
    return carry


def _carry_into(total, addend) -> np.ndarray:
    """The carry-out of the add ``prev + addend`` that left ``total``
    (``total`` as wide as ``prev``, ``addend`` at most as wide): the add
    wrapped exactly when ``total < addend``, i.e. when ``total``'s rows
    above ``addend`` are zero and its low rows borrow from ``addend``.
    Tail bits are not masked."""
    n = len(addend)
    flipped = ~addend
    not_below = _ripple_add(total[:n], flipped, ~total.dtype.type(0),
                            flipped)
    if n < len(total):
        not_below |= np.bitwise_or.reduce(total[n:], axis=0)
    return ~not_below


def _carry_save_multiply(a, b, steps, out) -> None:
    """Stacked products ``out[t] = a[t] * b[t]`` by carry-save shift-adds.

    ``a`` and ``b`` are ``(taps, n, ...)`` plane blocks and ``out`` a
    zeroed ``(taps, 2n, ...)`` block; ``steps[j]`` is False only where
    multiplier plane ``j`` is all-zero in every tap (such a plane adds
    nothing). Multiplier plane ``j``'s partial product ``a & b[j]``
    enters rows ``[j, j + n)`` through one 3:2 compressor over the
    whole block: sums stay in ``out``, carries go one row up in a carry
    block, and row ``j`` is final afterwards. One ripple add then
    resolves the rows above the last live plane.
    """
    n = a.shape[1]
    live = np.flatnonzero(steps)
    if not len(live):
        return
    first, last = int(live[0]), int(live[-1])
    np.bitwise_and(a, b[:, first, None], out=out[:, first:first + n])
    if last == first:
        return
    carries = np.zeros_like(out)
    for j in range(first + 1, last + 1):
        s = out[:, j:j + n]
        c = carries[:, j:j + n]
        t = s ^ c
        g = s & c
        if steps[j]:
            p = a & b[:, j, None]
            np.bitwise_xor(t, p, out=s)
            t &= p
            g |= t
        else:
            s[...] = t
        carries[:, j + 1:j + n + 1] = g
    # Row ``last + n`` of ``out`` is still zero, so the add cannot carry
    # past it: the product fits ``2n`` rows.
    top = slice(last + 1, last + n + 1)
    rows = out[:, top].swapaxes(0, 1)
    _ripple_add(rows, carries[:, top].swapaxes(0, 1), out.dtype.type(0),
                rows)


def _carry_save_fold(stack) -> tuple[np.ndarray, np.ndarray]:
    """Fold a stack of operand blocks ``(k, rows, ...)`` with 3:2
    compressors until two remain; their sum equals the stack's modulo
    ``2**rows`` (carries out of the top row are dropped)."""
    while len(stack) > 2:
        m = len(stack) // 3
        x, y, z = stack[:m], stack[m:2 * m], stack[2 * m:3 * m]
        folded = np.empty((len(stack) - m, *stack.shape[1:]), stack.dtype)
        t = x ^ y
        np.bitwise_xor(t, z, out=folded[:m])
        carry = folded[m:2 * m]
        carry[:, 0] = 0
        np.bitwise_or(x[:, :-1] & y[:, :-1], t[:, :-1] & z[:, :-1],
                      out=carry[:, 1:])
        folded[2 * m:] = stack[3 * m:]
        stack = folded
    return stack[0], stack[1]


def _add_into_block(src, acc) -> np.ndarray:
    """``acc += src`` over word blocks (``acc`` at least as tall):
    full adds over ``src``, then the carry ripple through the rest of
    ``acc``, stopped once the carry plane is all-zero (every later step
    would rewrite ``acc`` unchanged). Returns the carry-out plane."""
    carry = _ripple_add(src, acc, acc.dtype.type(0), acc)
    for k in range(len(src), len(acc)):
        if not carry.any():
            break
        plane = acc[k]
        carry, acc[k] = plane & carry, plane ^ carry
    return carry


def sense_rows(fleet: PlaneStore, *rows: int) -> list[np.ndarray]:
    """The sensing phase of one compute cycle, fleet-wide.

    Activates one wordline, or two distinct ones (Figure 2b), in every
    array, charges the one lockstep compute cycle to ``fleet`` and returns
    the rows' native planes from its compute read ``read_plane``. The
    rails follow from the planes: ``a & b`` on BL, ``NOT (a | b)`` on
    BLB; one row reads ``a`` and ``NOT a``.
    """
    for row in rows:
        fleet._check_row(row)
    if len(rows) == 2 and rows[0] == rows[1]:
        raise ArrayStateError(
            f"compute sensing requires two distinct wordlines, got {rows[0]}")
    fleet.compute_cycles += 1
    return [fleet.read_plane(row) for row in rows]


def _host_ints(values) -> np.ndarray:
    """Host values for ``load_values``: uint8 arrays (input and filter
    bytes) stay uint8, which the packed store converts on its one-byte
    path, and everything else becomes int64."""
    values = np.asarray(values)
    if values.dtype == np.uint8:
        return values
    return values.astype(np.int64, copy=False)


def _reads_before_writes(dst: "Operand", *srcs: "Operand") -> bool:
    """True when a row-by-row sequence that writes bit ``k`` of ``dst``
    in the cycle reading bit ``k`` of every ``src`` never senses a row
    it already wrote — so reading the operand blocks whole and writing
    the result block whole give the per-cycle result."""
    return all(dst.row <= src.row or not dst.overlaps(src) for src in srcs)


@dataclass(frozen=True)
class Operand:
    """A vertical (transposed) operand: LSB at wordline ``row``, ``nbits`` tall."""

    row: int
    nbits: int

    def __post_init__(self) -> None:
        if self.row < 0:
            raise LayoutError(f"operand row must be >= 0, got {self.row}")
        if self.nbits <= 0:
            raise LayoutError(f"operand width must be positive, got {self.nbits}")

    def bit(self, b: int) -> int:
        """Wordline index of bit ``b`` (LSB-first)."""
        if not 0 <= b < self.nbits:
            raise LayoutError(f"bit {b} outside operand of {self.nbits} bits")
        return self.row + b

    @property
    def end(self) -> int:
        """One past the last wordline used by this operand."""
        return self.row + self.nbits

    def overlaps(self, other: "Operand") -> bool:
        """True when the two operands share any wordline."""
        return self.row < other.end and other.row < self.end


class FleetBitSerialUnit:
    """Drives a whole fleet of SRAM arrays through bit-serial sequences.

    ``fleet`` is any :class:`~repro.engine.fleet.PlaneStore` — the
    unpacked :class:`~repro.engine.fleet.ArrayFleet` reference or the
    packed :class:`~repro.engine.packed.PackedArrayFleet`. The sequences
    below only touch planes through the store's native ops (and a
    periphery the store itself supplies), so they run unmodified, with
    identical results and cycle counts, on either representation.
    """

    def __init__(self, fleet: PlaneStore | None = None,
                 sparsity: bool = False):
        self.fleet = fleet if fleet is not None else ArrayFleet()
        self.periphery = self.fleet.make_periphery()
        self.cycles = 0
        #: Cycles the dense sequence would have spent on steps the
        #: sparsity engine skipped. ``cycles + skipped_cycles`` is the
        #: paper's data-independent accounting (``dense_cycles``).
        self.skipped_cycles = 0
        #: Skip all-zero-plane multiply/add steps fleet-wide (BitWave-style
        #: bit-plane sparsity). Off by default: the dense reference path.
        self.sparsity = bool(sparsity)
        #: Run the hot composites as fused word-level kernels: decided by
        #: the store alone (see :attr:`PlaneStore.fused`).
        self._fused = self.fleet.fused
        self._trace_depth = 0

    @property
    def n_arrays(self) -> int:
        """Arrays executing in lockstep."""
        return self.fleet.n_arrays

    @property
    def cols(self) -> int:
        """Bitlines per array (parallel element slots per array)."""
        return self.fleet.cols

    @property
    def rows(self) -> int:
        """Wordlines per array."""
        return self.fleet.rows

    # ==================================================================
    # Host-side data movement (no compute cycles; data enters via the
    # TMU / bus models, which charge their own time)
    # ==================================================================
    def write_values(self, op: Operand, values: np.ndarray | int) -> None:
        """Store one integer per (array, bitline) into ``op``.

        ``values`` is ``(n_arrays, cols)``; a scalar or a ``(cols,)``
        vector broadcasts to every array (host/TMU path).
        """
        if np.isscalar(values):
            values = np.full((self.n_arrays, self.cols), int(values),
                             dtype=np.int64)
        values = _host_ints(values)
        if values.shape == (self.cols,):
            values = np.broadcast_to(values, (self.n_arrays, self.cols))
        if values.shape != (self.n_arrays, self.cols):
            raise ArrayStateError(
                f"expected ({self.n_arrays}, {self.cols}) values, got shape "
                f"{values.shape}")
        self.fleet.load_values(op.row, values[:, None, :], op.nbits)

    def write_value_block(self, base: Operand, values: np.ndarray,
                          nbits: int) -> None:
        """Store a contiguous block of equal-width fields in one host load.

        ``values`` is ``(n_arrays, n_fields, cols)``; field ``t`` occupies
        ``nbits`` wordlines starting at ``base.row + t * nbits``. All the
        fields are loaded in a *single* ``load_values`` call — on the
        packed store that is one int-to-word conversion for the whole
        block instead of ``n_fields`` separate ones, which is the
        conversion hot spot when a conv layer loads its tap planes
        (host/TMU path, no compute cycles either way).
        """
        values = _host_ints(values)
        if (values.ndim != 3 or values.shape[0] != self.n_arrays
                or values.shape[2] != self.cols):
            raise ArrayStateError(
                f"expected ({self.n_arrays}, n_fields, {self.cols}) "
                f"values, got shape {values.shape}")
        n_fields = values.shape[1]
        if base.nbits != n_fields * nbits:
            raise LayoutError(
                f"block of {n_fields} x {nbits}-bit fields needs "
                f"{n_fields * nbits} rows, operand has {base.nbits}")
        self.fleet.load_values(base.row, values, nbits)

    def write_words(self, op: Operand, words: np.ndarray,
                    index: np.ndarray) -> None:
        """Store packed words into ``op``'s wordlines in one host load.

        ``words`` is a table of planes, ``(op.nbits, n, n_words)`` in the
        packed store's word layout
        (:meth:`~repro.engine.fleet.PlaneStore.load_words`), row ``k`` for
        wordline ``op.row + k``; array ``i`` receives plane ``index[i]``.
        Conv layers load their compiled filter words and their converted
        input words this way, so the host converts each distinct plane
        once, not once per fleet (host/TMU path, no compute cycles).
        """
        if words.ndim != 3 or words.shape[0] != op.nbits:
            raise LayoutError(
                f"words for {op.nbits} rows must be (rows, n, n_words), "
                f"got shape {words.shape}")
        self.fleet.load_words(op.row, words, index)

    def read_values(self, op: Operand,
                    arrays: np.ndarray | None = None) -> np.ndarray:
        """Read back ``(n_arrays, cols)`` integers from ``op``.

        ``arrays`` (an index array) reads only those arrays,
        ``(len(arrays), cols)``: the same rows, converted for fewer
        arrays, e.g. only the arrays that hold outputs after a
        reduction.
        """
        return self.fleet.dump_values(op.row, op.nbits, arrays)

    # ==================================================================
    # Single-cycle primitives
    #
    # These are the inner loop of the per-primitive path: every
    # bit-serial op expands to thousands of calls. They operate on native
    # row planes through the store's one compute read (``read_plane``) and
    # one compute write (``store_plane``) — the planes come from the
    # store's own ops, so nothing re-validates them — while still
    # advancing the fleet's lockstep compute counter and checking row
    # bounds so layout bugs surface as ArrayStateError. Planes are opaque:
    # only ``& | ^``, the store's plane ops and the periphery touch them,
    # which is what lets the packed store run these sequences unmodified.
    # ==================================================================
    def _write_plane(self, dst_row: int, plane: np.ndarray,
                     predicated: bool) -> None:
        """Write-back phase of one compute cycle (tag-gated drivers)."""
        self.fleet.store_plane(
            dst_row, plane, self.periphery.tag if predicated else None)

    def _cycle_copy_row(self, src_row: int, dst_row: int,
                        predicated: bool = False, invert: bool = False,
                        shift: int = 0) -> None:
        """One move cycle: sense ``src_row`` (BL rail, or BLB when
        ``invert``), optionally shift across bitlines through the column
        mux, and write ``dst_row`` — in every array at once."""
        fleet = self.fleet
        fleet._check_row(src_row)
        fleet._check_row(dst_row)
        fleet.compute_cycles += 1
        src = fleet.read_plane(src_row)
        plane = fleet.plane_not(src) if invert else src
        if shift:
            plane = fleet.shift_plane(plane, shift)
        self._write_plane(dst_row, plane, predicated)
        self.cycles += 1

    def _cycle_add_bit(self, row_a: int, row_b: int, dst_row: int,
                       predicated: bool = False) -> None:
        """One fleet-wide full-adder cycle (``dst_row`` may equal ``row_b``
        for in-place accumulation, as in Fig. 6). The two sensed rails
        give ``A AND B`` and ``A NOR B``; their NOR is ``A XOR B``
        (Figure 7), computed here directly as ``a ^ b``."""
        fleet = self.fleet
        fleet._check_row(row_a)
        fleet._check_row(row_b)
        fleet._check_row(dst_row)
        fleet.compute_cycles += 1
        a = fleet.read_plane(row_a)
        b = fleet.read_plane(row_b)
        total = self.periphery.add_step(a & b, a ^ b)
        self._write_plane(dst_row, total, predicated)
        self.cycles += 1

    def _cycle_half_add_bit(self, row_a: int, dst_row: int,
                            const_bit: int = 0,
                            predicated: bool = False) -> None:
        """One adder cycle with a constant second operand (0 or 1)."""
        fleet = self.fleet
        fleet._check_row(row_a)
        fleet._check_row(dst_row)
        fleet.compute_cycles += 1
        a = fleet.read_plane(row_a)
        if const_bit:
            # B=1: A&B=A, A^B=~A
            total = self.periphery.add_step(a, fleet.plane_not(a))
        else:
            total = self.periphery.add_step(fleet.const_plane(0), a)  # B=0
        self._write_plane(dst_row, total, predicated)
        self.cycles += 1

    def _cycle_write_const(self, row: int, bit: int,
                           predicated: bool = False) -> None:
        """One cycle writing a constant bit to a wordline of every array."""
        fleet = self.fleet
        fleet._check_row(row)
        fleet.compute_cycles += 1
        self._write_plane(row, fleet.const_plane(bit), predicated)
        self.cycles += 1

    def _cycle_store_carry(self, dst_row: int, predicated: bool = False) -> None:
        """One cycle writing the carry latches to a wordline."""
        self.fleet._check_row(dst_row)
        self.fleet.compute_cycles += 1
        self._write_plane(dst_row, self.periphery.carry, predicated)
        self.cycles += 1

    def _cycle_store_tag(self, dst_row: int) -> None:
        """One cycle writing the tag latches to a wordline."""
        self.fleet._check_row(dst_row)
        self.fleet.compute_cycles += 1
        self.fleet.store_plane(dst_row, self.periphery.tag)
        self.cycles += 1

    def load_tag(self, row: int, invert: bool = False) -> None:
        """Latch a wordline into the tag latches (1 cycle)."""
        fleet = self.fleet
        fleet._check_row(row)
        fleet.compute_cycles += 1
        a = fleet.read_plane(row)
        self.periphery.tag[...] = fleet.plane_not(a) if invert else a
        self.cycles += 1

    def set_tag_all(self) -> None:
        """Re-enable all write drivers (free: happens at instruction issue)."""
        self.periphery.set_tag_all()

    def _report_skip(self, kind: str, source: Operand, dest: Operand,
                     cycles: int) -> None:
        """Account one sparsity skip and surface it to the trace hook.

        ``source`` is the operand region whose planes were probed all-zero,
        ``dest`` the region the skipped step would have written (and
        provably leaves unchanged), ``cycles`` the dense cost not spent.
        The ``skip_step`` pseudo-op is reported through the trace hook
        *directly* — not via ``_traced`` — because skips fire inside
        composites (``mac`` -> ``multiply``) where the depth counter
        suppresses nested records; the verifier checks every skip's
        soundness regardless of nesting.
        """
        self.skipped_cycles += cycles
        hook = _TRACE_HOOK
        if hook is not None:
            hook(self, "skip_step", (kind, source, dest, cycles), {})

    def _report_plane_skip(self, n: int, b: Operand, product: Operand,
                           j: int) -> None:
        """Report ``multiply``'s skipped iteration ``j`` (multiplier plane
        ``b.bit(j)`` all-zero): the predicated copy into ``product[0:n]``
        for ``j == 0``, else the shift-add into ``product[j:j + n + 1]``."""
        if j == 0:
            self._report_skip("multiply-plane", Operand(b.bit(j), 1),
                              Operand(product.bit(0), n), n + 1)
        else:
            self._report_skip("multiply-plane", Operand(b.bit(j), 1),
                              Operand(product.bit(j), n + 1), n + 2)

    # ==================================================================
    # Fused word-level kernels (stores with ``fused`` set: the packed
    # store). Each runs one composite over whole
    # ``(nbits, n_arrays, n_words)`` operand blocks
    # from ``fleet.word_block``: the carry lives in a local word plane,
    # results are written back per block, and the cycles charged are the
    # closed forms of ``CycleCosts.derived``. Latches, counters and skip
    # reports end exactly as the per-primitive sequence leaves them; a
    # composite whose destination would overwrite a source row before the
    # sequence senses it takes the per-primitive path instead.
    # ==================================================================
    def _charge(self, cycles: int) -> None:
        """Charge ``cycles`` lockstep compute cycles to unit and fleet."""
        self.fleet.compute_cycles += cycles
        self.cycles += cycles

    def _block(self, op: Operand) -> np.ndarray:
        return self.fleet.word_block(op.row, op.nbits)

    def _fused_copy(self, src: Operand, dst: Operand, predicated: bool,
                    invert: bool = False, shift: int = 0) -> None:
        """``copy``/``complement_copy``/``shift_copy`` as one block move.
        A shift between disjoint blocks writes straight into ``dst``."""
        plane = self._block(src)
        block = self._block(dst)
        if shift and not predicated and not dst.overlaps(src):
            self.fleet.shift_plane(plane, shift, out=block)
        else:
            if invert:
                plane = self.fleet.plane_not(plane)
            if shift:
                plane = self.fleet.shift_plane(plane, shift)
            block[...] = (mux(self.periphery.tag, plane, block)
                          if predicated else plane)
        self._charge(_costs().copy(src.nbits))

    def _fused_add(self, a: Operand, b: Operand, dst: Operand, carry_in: int,
                   cycles: int) -> None:
        """``dst = a + b + carry_in`` over ``a.nbits`` full-adder steps; a
        ``dst`` one row wider also receives the carry-out. Leaves the
        carry-out in the carry latch."""
        block = self._block(dst)
        carry = _ripple_add(self._block(a), self._block(b),
                            self.fleet.const_plane(carry_in), block)
        if dst.nbits > a.nbits:
            block[a.nbits] = carry
        self.periphery.carry[...] = carry
        self._charge(cycles)

    def _fused_add_into(self, src: Operand, acc: Operand) -> None:
        """Fused ``add_into`` (:func:`_add_into_block`)."""
        self.periphery.carry[...] = _add_into_block(self._block(src),
                                                    self._block(acc))
        self._charge(_costs().add_into(acc.nbits))

    def _live_planes(self, planes: np.ndarray) -> np.ndarray:
        """The sparsity probe of every plane of a ``(..., n, n_arrays,
        n_words)`` block at once: whether each plane has a bit set in any
        array (``plane_any`` per plane, in one reduction)."""
        return planes.reshape(*planes.shape[:-2], -1).any(axis=-1)

    def _fused_multiply(self, a: Operand, b: Operand,
                        product: Operand) -> None:
        """``multiply`` after the product zeroing, as one carry-save
        kernel (:func:`_carry_save_multiply`). It probes and reports the
        skipped multiplier planes in order and charges each live
        iteration's closed form, as the per-primitive loop does. The
        carry latch ends as the carry-out of the last live iteration
        ``j`` >= 1, whose add runs on every lane: product bit ``j + n``
        where the tag was set, elsewhere the carry-out of
        ``a + product[j:j + n]``, as no later plane adds anything there."""
        n = a.nbits
        addend = self._block(a)
        mult = self._block(b)
        block = self._block(product)
        live = (self._live_planes(mult) if self.sparsity
                else np.ones(n, dtype=bool))
        for j in np.flatnonzero(~live):
            self._report_plane_skip(n, b, product, int(j))
        _carry_save_multiply(addend[None], mult[None], live, block[None])
        later = np.flatnonzero(live[1:])
        if len(later):
            j = int(later[-1]) + 1
            carry = _ripple_add(addend, block[j:j + n],
                                addend.dtype.type(0), np.empty_like(addend))
            self.periphery.carry[...] = mux(mult[j], block[j + n], carry)
        costs = _costs()
        self._charge(int(live[0]) * (costs.tag_load() + costs.copy(n))
                     + len(later) * (costs.tag_load() + costs.add(n)))

    def _tap_planes(self, op: Operand, taps: int,
                    stride: int) -> np.ndarray:
        """``(taps, op.nbits, n_arrays, n_words)`` planes of ``op`` and
        its copies ``stride``, ``2 * stride``, ... rows down: a view when
        the taps are contiguous, else a gathered copy."""
        n = op.nbits
        block = self.fleet.word_block(op.row, (taps - 1) * stride + n)
        if stride != n:
            block = block[(np.arange(taps)[:, None] * stride
                           + np.arange(n)).ravel()]
        return block.reshape(taps, n, *block.shape[1:])

    def _fused_mac_taps(self, a: Operand, b: Operand, taps: int,
                        stride: int, product: Operand, acc: Operand,
                        b_acc: Operand, words: np.ndarray | None,
                        index: np.ndarray | None) -> None:
        """``mac_taps`` as one kernel: every tap's product at once
        (:func:`_carry_save_multiply` over the stacked taps), then
        ``acc`` and ``b_acc`` with all the products and inputs as one
        carry-save sum over the tap axis (:func:`_carry_save_fold`) and
        one ripple add. Skip reports and charges follow the per-tap
        loop's order and closed forms. The loop's last carry is its last
        input add that ran, so the carry latch is that add's carry-out,
        recovered from the final ``b_acc`` (:func:`_carry_into`)."""
        n = a.nbits
        fleet = self.fleet
        a_planes = self._tap_planes(a, taps, stride)
        if words is None:
            b_planes = self._tap_planes(b, taps, stride)
        else:
            # The input rows end holding the last tap's input; the other
            # taps' planes are gathered from the table alone.
            rows = (np.arange(taps)[:, None] * stride
                    + np.arange(n)).ravel()
            self.write_words(b, words[rows[-n:]], index)
            b_planes = np.take(words[rows], index, axis=1).reshape(
                taps, n, *a_planes.shape[2:])
            b_planes &= fleet.const_plane(1)
        live = (self._live_planes(b_planes) if self.sparsity
                else np.ones((taps, n), dtype=bool))
        scratch = self._block(product)
        products = np.zeros((taps, *scratch.shape), dtype=scratch.dtype)
        _carry_save_multiply(a_planes, b_planes, live.any(axis=0), products)
        scratch[...] = products[-1]
        multiplied = live.any(axis=1)
        summed = (self._live_planes(products).any(axis=1) if self.sparsity
                  else np.ones(taps, dtype=bool))

        costs = _costs()
        self._charge(
            taps * costs.const_write(2 * n)
            + int(live[:, 0].sum()) * (costs.tag_load() + costs.copy(n))
            + int(live[:, 1:].sum()) * (costs.tag_load() + costs.add(n))
            + int(summed.sum()) * costs.add_into(acc.nbits)
            + int(multiplied.sum()) * costs.add_into(b_acc.nbits))
        if self.sparsity:
            for t in range(taps):
                b_t = b if words is not None else Operand(
                    b.row + t * stride, n)
                for j in np.flatnonzero(~live[t]):
                    self._report_plane_skip(n, b_t, product, int(j))
                if not summed[t]:
                    self._report_skip("add-into", product, acc, acc.nbits)
                if not multiplied[t]:
                    self._report_skip("add-into", b_t, b_acc, b_acc.nbits)
        self.periphery.set_tag_all()

        acc_block, b_acc_block = self._block(acc), self._block(b_acc)
        # One operand stack per accumulator, side by side, zero-extended
        # to the wider one: row k of both sums folds in one block op.
        stack = np.zeros((taps + 1, max(acc.nbits, b_acc.nbits), 2,
                          *scratch.shape[1:]), dtype=scratch.dtype)
        stack[0, :acc.nbits, 0] = acc_block
        stack[0, :b_acc.nbits, 1] = b_acc_block
        stack[1:, :2 * n, 0] = products
        stack[1:, :n, 1] = b_planes
        total, carries = _carry_save_fold(stack)
        _ripple_add(total, carries, total.dtype.type(0), total)
        acc_block[...] = total[:acc.nbits, 0]
        b_acc_block[...] = total[:b_acc.nbits, 1]
        ran = np.flatnonzero(multiplied)
        if len(ran):
            self.periphery.carry[...] = _carry_into(
                b_acc_block, b_planes[ran[-1]]) & fleet.const_plane(1)

    # ==================================================================
    # Composite operations (costs mirror CycleCosts.derived)
    # ==================================================================
    def zero(self, op: Operand, predicated: bool = False) -> None:
        """Bulk-zero an operand region: ``nbits`` cycles."""
        if self._fused:
            block = self._block(op)
            if predicated:
                block &= ~self.periphery.tag
            else:
                block[...] = 0
            self._charge(_costs().const_write(op.nbits))
            return
        for b in range(op.nbits):
            self._cycle_write_const(op.bit(b), 0, predicated)

    def write_scalar(self, op: Operand, value: int) -> None:
        """Broadcast an immediate to every bitline of every array:
        ``nbits`` cycles (the quantization scalars of Sec. IV-D)."""
        if value < 0:
            raise ArrayStateError(
                "broadcast immediates must be non-negative; use two's "
                "complement encoding for signed scalars")
        if self._fused:
            block = self._block(op)
            ones = self.fleet.const_plane(1)
            for b in range(op.nbits):
                block[b] = ones if (value >> b) & 1 else 0
            self._charge(_costs().const_write(op.nbits))
            return
        for b in range(op.nbits):
            self._cycle_write_const(op.bit(b), (value >> b) & 1)

    def copy(self, src: Operand, dst: Operand, predicated: bool = False) -> None:
        """Copy ``src`` to ``dst`` (``src.nbits`` cycles)."""
        self._check_width(src, dst)
        if self._fused and _reads_before_writes(dst, src):
            self._fused_copy(src, dst, predicated)
            return
        for b in range(src.nbits):
            self._cycle_copy_row(src.bit(b), dst.bit(b), predicated)

    def complement_copy(self, src: Operand, dst: Operand,
                        predicated: bool = False) -> None:
        """Copy the bitwise complement of ``src`` (via the BLB rail)."""
        self._check_width(src, dst)
        if self._fused and _reads_before_writes(dst, src):
            self._fused_copy(src, dst, predicated, invert=True)
            return
        for b in range(src.nbits):
            self._cycle_copy_row(src.bit(b), dst.bit(b), predicated,
                                 invert=True)

    def shift_copy(self, src: Operand, dst: Operand, column_shift: int) -> None:
        """Copy ``src`` while moving every element ``column_shift`` bitlines
        left (the inter-bitline move used by reductions)."""
        self._check_width(src, dst)
        if self._fused and _reads_before_writes(dst, src):
            self._fused_copy(src, dst, False, shift=column_shift)
            return
        for b in range(src.nbits):
            self._cycle_copy_row(src.bit(b), dst.bit(b), shift=column_shift)

    def add(self, a: Operand, b: Operand, dst: Operand,
            predicated: bool = False) -> None:
        """``dst = a + b`` (Fig. 4): ``n`` adder cycles + 1 carry store."""
        if a.nbits != b.nbits:
            raise LayoutError(
                f"addition operands must match: {a.nbits} vs {b.nbits} bits")
        if dst.nbits != a.nbits + 1:
            raise LayoutError(
                f"addition destination must be {a.nbits + 1} bits, got "
                f"{dst.nbits}")
        if self._fused and not predicated and _reads_before_writes(dst, a, b):
            self._fused_add(a, b, dst, 0, _costs().add(a.nbits))
            return
        self.periphery.clear_carry()
        for k in range(a.nbits):
            self._cycle_add_bit(a.bit(k), b.bit(k), dst.bit(k), predicated)
        self._cycle_store_carry(dst.bit(a.nbits), predicated)

    def add_into(self, src: Operand, acc: Operand,
                 predicated: bool = False) -> None:
        """``acc += src`` where ``acc`` is wider than ``src``: ``acc.nbits``
        cycles (full adds over ``src``, then carry ripple through the rest).

        Under ``sparsity``, an all-zero ``src`` (every plane zero in every
        array) skips the whole sequence: adding zero with a cleared carry
        leaves ``acc`` bit-identical, so the ``acc.nbits`` cycles are
        charged to ``skipped_cycles`` instead of ``cycles``.
        """
        if src.nbits > acc.nbits:
            raise LayoutError(
                f"accumulator ({acc.nbits} bits) narrower than source "
                f"({src.nbits} bits)")
        if self.sparsity and not any(self.fleet.plane_any(src.bit(k))
                                     for k in range(src.nbits)):
            self._report_skip("add-into", src, acc, acc.nbits)
            return
        if self._fused and not predicated and _reads_before_writes(acc, src):
            self._fused_add_into(src, acc)
            return
        self.periphery.clear_carry()
        for k in range(src.nbits):
            self._cycle_add_bit(src.bit(k), acc.bit(k), acc.bit(k), predicated)
        for k in range(src.nbits, acc.nbits):
            self._cycle_half_add_bit(acc.bit(k), acc.bit(k), 0, predicated)

    def sub(self, a: Operand, b: Operand, dst: Operand,
            scratch: Operand) -> None:
        """``dst[0:n] = a - b`` (mod ``2^n``), ``dst[n]`` = not-borrow:
        ``2n + 1`` cycles. A not-borrow of 1 means ``a >= b``."""
        if a.nbits != b.nbits:
            raise LayoutError(
                f"subtraction operands must match: {a.nbits} vs {b.nbits} bits")
        if dst.nbits != a.nbits + 1:
            raise LayoutError(
                f"subtraction destination must be {a.nbits + 1} bits "
                f"(difference + not-borrow), got {dst.nbits}")
        if scratch.nbits < b.nbits:
            raise LayoutError(
                f"subtraction scratch must hold {b.nbits} bits, got "
                f"{scratch.nbits}")
        comp_b = Operand(scratch.row, b.nbits)
        self.complement_copy(b, comp_b)
        if self._fused and _reads_before_writes(dst, a, comp_b):
            self._fused_add(a, comp_b, dst, 1,
                            _costs().sub(a.nbits) - _costs().complement_copy(
                                b.nbits))
            return
        self.periphery.set_carry()
        for k in range(a.nbits):
            self._cycle_add_bit(a.bit(k), scratch.row + k, dst.bit(k))
        self._cycle_store_carry(dst.bit(a.nbits))

    def sub_into(self, acc: Operand, b: Operand, scratch: Operand) -> None:
        """``acc -= b`` modulo ``2**acc.nbits`` (two's complement in place):
        ``2n`` cycles. No borrow flag — callers that need the comparison
        use :meth:`sub`."""
        if b.nbits != acc.nbits:
            raise LayoutError(
                f"sub_into operands must match: {acc.nbits} vs {b.nbits} "
                f"bits")
        if scratch.nbits < b.nbits:
            raise LayoutError(
                f"sub_into scratch must hold {b.nbits} bits, got "
                f"{scratch.nbits}")
        comp_b = Operand(scratch.row, b.nbits)
        self.complement_copy(b, comp_b)
        if self._fused and _reads_before_writes(acc, comp_b):
            self._fused_add(acc, comp_b, acc, 1,
                            _costs().sub_into(acc.nbits)
                            - _costs().complement_copy(b.nbits))
            return
        self.periphery.set_carry()
        for k in range(acc.nbits):
            self._cycle_add_bit(acc.bit(k), scratch.row + k, acc.bit(k))

    def multiply(self, a: Operand, b: Operand, product: Operand) -> None:
        """``product = a * b`` via predicated shift-adds (Fig. 6).

        Derived cost ``n^2 + 4n - 1`` (:meth:`CycleCosts.multiply`).

        Under ``sparsity``, a multiplier bit plane ``b.bit(j)`` that is
        all-zero fleet-wide skips iteration ``j``: the tag latch would be
        all-zero, so every predicated write of the iteration is a no-op
        (``product`` was just zeroed for ``j == 0``; each ``j > 0`` block
        starts with ``clear_carry``, so no carry state crosses
        iterations). The iteration's dense cost (``n + 1`` for ``j == 0``,
        ``n + 2`` beyond) lands in ``skipped_cycles``.
        """
        n = a.nbits
        if b.nbits != n:
            raise LayoutError(
                f"multiplication operands must match: {n} vs {b.nbits} bits")
        if product.nbits != 2 * n:
            raise LayoutError(
                f"product must be {2 * n} bits, got {product.nbits}")
        for operand in (a, b):
            if operand.overlaps(product):
                raise LayoutError("product region overlaps an input operand")
        self.zero(product)
        if self._fused:
            self._fused_multiply(a, b, product)
            self.set_tag_all()
            return
        for j in range(n):
            if self.sparsity and not self.fleet.plane_any(b.bit(j)):
                self._report_plane_skip(n, b, product, j)
                continue
            self.load_tag(b.bit(j))
            if j == 0:
                for k in range(n):
                    self._cycle_copy_row(a.bit(k), product.bit(k),
                                         predicated=True)
            else:
                self.periphery.clear_carry()
                for k in range(n):
                    self._cycle_add_bit(a.bit(k), product.bit(j + k),
                                        product.bit(j + k), predicated=True)
                self._cycle_store_carry(product.bit(j + n), predicated=True)
        self.set_tag_all()

    def mac(self, a: Operand, b: Operand, product_scratch: Operand,
            acc: Operand) -> None:
        """Multiply-accumulate: ``acc += a * b``.

        Derived cost ``multiply(n) + acc.nbits`` (Sec. IV-A: 2-byte
        scratchpad for the product, 3-byte partial sum).
        """
        self.multiply(a, b, product_scratch)
        self.add_into(product_scratch, acc)

    def mac_taps(self, a: Operand, b: Operand, taps: int, stride: int,
                 product: Operand, acc: Operand, b_acc: Operand,
                 words: np.ndarray | None = None,
                 index: np.ndarray | None = None) -> None:
        """A conv's MAC loop over ``taps`` filter taps, with its input sum.

        Tap ``t`` runs ``mac(a_t, b_t, product, acc)`` then
        ``add_into(b_t, b_acc)``, where ``a_t`` is ``a`` moved
        ``t * stride`` rows down. ``b_t`` is ``b`` moved likewise
        (resident inputs) or, with ``words`` (streamed inputs), ``b``
        itself after ``write_words(b, words[t * stride:][:b.nbits],
        index)``.

        Packed stores run the whole block as one kernel
        (:meth:`_fused_mac_taps`) when the operands allow it: two taps or
        more, equal widths, and every region written (``product``, ``acc``,
        ``b_acc``, a streamed ``b``) disjoint from every other. The
        rows, cycles, skipped cycles, latches, counters and ``skip_step``
        stream end as the loop leaves them. Otherwise the loop runs as
        written. Either way a trace hook sees one ``mac_taps`` call
        followed by the block's skips, in per-tap order, and a recorded
        run executes the same code as an unrecorded one.
        """
        if self._taps_fuse(a, b, taps, stride, product, acc, b_acc, words):
            self._fused_mac_taps(a, b, taps, stride, product, acc, b_acc,
                                 words, index)
            return
        for t in range(taps):
            a_t = Operand(a.row + t * stride, a.nbits)
            if words is None:
                b_t = Operand(b.row + t * stride, b.nbits)
            else:
                b_t = b
                self.write_words(b, words[t * stride:t * stride + b.nbits],
                                 index)
            self.mac(a_t, b_t, product, acc)
            self.add_into(b_t, b_acc)

    def _taps_fuse(self, a: Operand, b: Operand, taps: int, stride: int,
                   product: Operand, acc: Operand, b_acc: Operand,
                   words: np.ndarray | None) -> bool:
        """Whether ``mac_taps`` may run as one kernel."""
        n = a.nbits
        if (not self._fused or taps < 2 or stride < 0 or b.nbits != n
                or product.nbits != 2 * n or acc.nbits < 2 * n
                or b_acc.nbits < n):
            return False
        span = (taps - 1) * stride + n
        if words is None:
            read = [Operand(a.row, span), Operand(b.row, span)]
            written = [product, acc, b_acc]
        else:
            if words.ndim != 3 or len(words) < span:
                return False
            read = [Operand(a.row, span)]
            written = [product, acc, b_acc, b]
        regions = written + read
        return not any(w.overlaps(r) for i, w in enumerate(written)
                       for k, r in enumerate(regions) if k != i)

    def divide(self, a: Operand, b: Operand, quotient: Operand,
               work: Operand) -> None:
        """Restoring division: ``quotient = a // b`` per bitline.

        ``work`` provides ``3n + 4`` contiguous scratch wordlines and
        afterwards holds ``a % b`` in its first ``n + 1`` rows. Derived
        cost ``3n^2 + 8n + 1``.
        """
        n = a.nbits
        if b.nbits != n:
            raise LayoutError(
                f"division operands must match: {n} vs {b.nbits} bits")
        if quotient.nbits != n:
            raise LayoutError(f"quotient must be {n} bits, got {quotient.nbits}")
        if work.nbits < 3 * n + 4:
            raise LayoutError(
                f"division scratch needs {3 * n + 4} rows, got {work.nbits}")
        remainder = Operand(work.row, n + 1)
        diff = Operand(remainder.end, n + 2)
        comp_b = Operand(diff.end, n)

        self.zero(remainder)
        self.complement_copy(b, comp_b)
        for i in range(n - 1, -1, -1):
            # Shift the remainder up one bit (top to bottom so rows survive).
            for k in range(n - 1, -1, -1):
                self._cycle_copy_row(remainder.bit(k), remainder.bit(k + 1))
            self._cycle_copy_row(a.bit(i), remainder.bit(0))
            # Trial subtraction: diff = remainder - b (divisor zero-extended).
            self.periphery.set_carry()
            for k in range(n):
                self._cycle_add_bit(remainder.bit(k), comp_b.bit(k),
                                    diff.bit(k))
            self._cycle_half_add_bit(remainder.bit(n), diff.bit(n),
                                     const_bit=1)
            self._cycle_store_carry(diff.bit(n + 1))
            # Commit the difference where it did not borrow.
            self.load_tag(diff.bit(n + 1))
            for k in range(n + 1):
                self._cycle_copy_row(diff.bit(k), remainder.bit(k),
                                     predicated=True)
            self._cycle_store_tag(quotient.bit(i))
        self.set_tag_all()

    def compare_ge(self, a: Operand, b: Operand, dst: Operand,
                   scratch: Operand) -> None:
        """Write ``a >= b`` (one bit per column) to ``dst``'s first row."""
        if dst.nbits < 1:
            raise LayoutError("comparison needs one destination row")
        diff = Operand(scratch.row, a.nbits + 1)
        tail = Operand(diff.end, scratch.nbits - (a.nbits + 1))
        self.sub(a, b, diff, tail)
        self._cycle_copy_row(diff.bit(a.nbits), dst.bit(0))

    def max_update(self, current: Operand, candidate: Operand,
                   scratch: Operand) -> None:
        """Fold ``candidate`` into a running ``current = max(current, candidate)``.

        ``scratch`` needs ``2n + 1`` rows. Derived cost ``sub(n) + 1 + n``.
        """
        n = current.nbits
        if candidate.nbits != n:
            raise LayoutError(
                f"max operands must match: {n} vs {candidate.nbits} bits")
        if scratch.nbits < 2 * n + 1:
            raise LayoutError(
                f"max scratch needs {2 * n + 1} rows, got {scratch.nbits}")
        diff = Operand(scratch.row, n + 1)
        comp = Operand(diff.end, n)
        self.sub(candidate, current, diff, comp)
        self.load_tag(diff.bit(n))            # tag = (candidate >= current)
        self.copy(candidate, current, predicated=True)
        self.set_tag_all()

    def min_update(self, current: Operand, candidate: Operand,
                   scratch: Operand) -> None:
        """Fold ``candidate`` into a running minimum (tag inverted)."""
        n = current.nbits
        if candidate.nbits != n:
            raise LayoutError(
                f"min operands must match: {n} vs {candidate.nbits} bits")
        if scratch.nbits < 2 * n + 1:
            raise LayoutError(
                f"min scratch needs {2 * n + 1} rows, got {scratch.nbits}")
        diff = Operand(scratch.row, n + 1)
        comp = Operand(diff.end, n)
        self.sub(candidate, current, diff, comp)
        self.load_tag(diff.bit(n), invert=True)  # tag = (candidate < current)
        self.copy(candidate, current, predicated=True)
        self.set_tag_all()

    def relu(self, op: Operand, sign_row: int) -> None:
        """Zero every element whose sign bit is set (Sec. IV-D ReLU):
        ``1 + n`` cycles."""
        self.load_tag(sign_row)
        self.zero(op, predicated=True)
        self.set_tag_all()

    def selective_copy(self, src: Operand, dst: Operand, tag_row: int,
                       invert: bool = False) -> None:
        """Copy ``src`` to ``dst`` only where ``tag_row`` enables it."""
        self.load_tag(tag_row, invert=invert)
        self.copy(src, dst, predicated=True)
        self.set_tag_all()

    # ==================================================================
    # Compute Cache heritage ops (Sec. II-B): bit-parallel logicals,
    # equality comparison and search, on the same compute read and write
    # as every sequence above.
    # ==================================================================
    def _logical(self, a: Operand, b: Operand, dst: Operand, gate) -> None:
        """``dst = gate(a, b)`` bit by bit: each cycle senses bit ``k`` of
        both operands and writes the gate's plane to bit ``k`` of
        ``dst``, so ``dst`` may alias an operand."""
        self._check_width(a, b)
        self._check_width(a, dst)
        fleet = self.fleet
        for k in range(a.nbits):
            pa, pb = sense_rows(fleet, a.bit(k), b.bit(k))
            fleet._check_row(dst.bit(k))
            fleet.store_plane(dst.bit(k), gate(pa, pb))
            self.cycles += 1

    def logical_and(self, a: Operand, b: Operand, dst: Operand) -> None:
        """``dst = a AND b`` straight off the BL rail: ``n`` cycles."""
        self._logical(a, b, dst, operator.and_)

    def logical_nor(self, a: Operand, b: Operand, dst: Operand) -> None:
        """``dst = a NOR b`` straight off the BLB rail: ``n`` cycles."""
        plane_not = self.fleet.plane_not
        self._logical(a, b, dst, lambda pa, pb: plane_not(pa | pb))

    def logical_or(self, a: Operand, b: Operand, dst: Operand) -> None:
        """``dst = a OR b`` (NOR then a complement write-back): ``2n``."""
        self.logical_nor(a, b, dst)
        self.complement_copy(dst, dst)

    def logical_xor(self, a: Operand, b: Operand, dst: Operand) -> None:
        """``dst = a XOR b`` — the NOR of the two rails (the gate of
        Fig. 7): ``n`` cycles."""
        self._logical(a, b, dst, operator.xor)

    def equality_compare(self, a: Operand, b: Operand,
                         dst_row: int) -> None:
        """Per-column ``a == b`` flag into ``dst_row``: ``n + 1`` cycles."""
        self._check_width(a, b)
        fleet = self.fleet
        neq = fleet.const_plane(0)
        for k in range(a.nbits):
            pa, pb = sense_rows(fleet, a.bit(k), b.bit(k))
            neq = neq | (pa ^ pb)
            self.cycles += 1
        self.periphery.tag[...] = fleet.plane_not(neq)
        self._cycle_store_tag(dst_row)

    def search(self, haystack: Operand, key: int, dst_row: int) -> None:
        """Flag columns whose value equals ``key``: ``n + 1`` cycles."""
        if key < 0 or key >= (1 << haystack.nbits):
            raise ArrayStateError(
                f"search key {key} does not fit {haystack.nbits} bits")
        fleet = self.fleet
        mismatch = fleet.const_plane(0)
        for k in range(haystack.nbits):
            (plane,) = sense_rows(fleet, haystack.bit(k))
            # A set key bit mismatches where the BLB rail (NOT a) is 1.
            mismatch = mismatch | (fleet.plane_not(plane) if (key >> k) & 1
                                   else plane)
            self.cycles += 1
        self.periphery.tag[...] = fleet.plane_not(mismatch)
        self._cycle_store_tag(dst_row)

    def reduce_tree(self, base: Operand, segment: Operand, elements: int,
                    width: int) -> None:
        """Sum groups of ``elements`` adjacent bitlines (Fig. 5), in every
        array of the fleet at once. After the call, each group's total sits
        on the group's first bitline; other bitlines hold garbage."""
        if elements <= 0 or elements & (elements - 1):
            raise LayoutError(
                f"reduction element count must be a power of two, got "
                f"{elements}")
        steps = elements.bit_length() - 1
        final_bits = width + steps
        if base.nbits < final_bits:
            raise LayoutError(
                f"reduction base needs {final_bits} rows, got {base.nbits}")
        if segment.nbits < final_bits:
            raise LayoutError(
                f"reduction segment needs {final_bits} rows, got "
                f"{segment.nbits}")
        for step in range(steps):
            bits = width + step
            stride = 1 << step
            self.shift_copy(Operand(base.row, bits),
                            Operand(segment.row, bits), stride)
            self.add(Operand(base.row, bits), Operand(segment.row, bits),
                     Operand(base.row, bits + 1))

    def _cycle_move_plane(self, src_row: int, dst_row: int, stride: int,
                          group: int) -> None:
        """One cross-array hop cycle: every array's ``dst_row`` receives
        ``src_row`` from the array ``stride`` ahead in its reduction group
        (wrapping), fleet-wide. One wordline per cycle, matching
        ``CycleCosts.move`` at 1 cycle/bit."""
        fleet = self.fleet
        fleet.compute_cycles += 1
        fleet.move_plane(src_row, dst_row, stride, group)
        self.cycles += 1

    def move_across(self, src: Operand, dst: Operand, stride: int,
                    group: int) -> None:
        """Copy ``src`` from the array ``stride`` positions ahead in each
        ``group``-array reduction group into this array's ``dst``:
        ``src.nbits`` cycles (one hop per wordline)."""
        self._check_width(src, dst)
        if self._fused and _reads_before_writes(dst, src):
            perm = self.fleet._group_perm(stride, group)
            block = self._block(dst)
            if dst.overlaps(src):
                block[...] = self._block(src)[:, perm]
            else:
                # Disjoint blocks: permute straight into ``dst`` (the
                # permutation is valid, so ``clip`` skips the buffer).
                np.take(self._block(src), perm, axis=1, out=block,
                        mode="clip")
            self._charge(_costs().move(src.nbits))
            return
        for b in range(src.nbits):
            self._cycle_move_plane(src.bit(b), dst.bit(b), stride, group)

    def reduce_across_arrays(self, base: Operand, segment: Operand,
                             group: int, width: int) -> None:
        """Tree-reduce ``width``-bit partials held by ``group`` consecutive
        arrays into the group's first array (Sec. III-D cross-array step).

        Level ``s`` moves ``base`` from the array ``2**s`` ahead into
        ``segment`` (sense-amp pair at stride 1, bus/ring hops beyond) and
        adds it back into ``base``. Every level works at the fixed
        reduction width, so each costs ``move(width) + add(width)`` — the
        exact terms the analytic schedule charges per
        ``ReductionPlan`` hop. After the call the group total sits in the
        group's first array at ``base``; other arrays hold garbage.
        """
        if group < 2 or group & (group - 1):
            raise LayoutError(
                f"cross-array group must be a power of two >= 2, got "
                f"{group}")
        if self.fleet.n_arrays % group:
            raise LayoutError(
                f"fleet of {self.fleet.n_arrays} arrays does not divide "
                f"into reduction groups of {group}")
        if base.nbits < width + 1:
            raise LayoutError(
                f"cross-array base needs {width + 1} rows, got {base.nbits}")
        if segment.nbits < width:
            raise LayoutError(
                f"cross-array segment needs {width} rows, got "
                f"{segment.nbits}")
        for step in range(group.bit_length() - 1):
            stride = 1 << step
            self.move_across(Operand(base.row, width),
                             Operand(segment.row, width), stride, group)
            self.add(Operand(base.row, width), Operand(segment.row, width),
                     Operand(base.row, width + 1))

    # ------------------------------------------------------------------
    def _check_width(self, src: Operand, dst: Operand) -> None:
        if src.nbits != dst.nbits:
            raise LayoutError(
                f"operand widths must match: {src.nbits} vs {dst.nbits} bits")


#: The public surface recorded by the trace hook: every composite/host op
#: plus the two standalone tag primitives. Applied after the class body so
#: the methods above stay readable (no decorator on every def) and the
#: list doubles as the authoritative "what is a program step" registry for
#: repro.verify: a recorded call binds against its method's signature.
_TRACED_METHODS = (
    "write_values", "write_value_block", "write_words", "read_values",
    "load_tag", "set_tag_all",
    "zero", "write_scalar", "copy", "complement_copy", "shift_copy",
    "add", "add_into", "sub", "sub_into", "multiply", "mac", "mac_taps",
    "divide",
    "compare_ge", "max_update", "min_update", "relu", "selective_copy",
    "logical_and", "logical_nor", "logical_or", "logical_xor",
    "equality_compare", "search", "reduce_tree",
    "move_across", "reduce_across_arrays",
)

for _name in _TRACED_METHODS:
    setattr(FleetBitSerialUnit, _name,
            _traced(getattr(FleetBitSerialUnit, _name)))
del _name
