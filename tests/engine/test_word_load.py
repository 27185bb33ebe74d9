"""Host word loads and the in-place reduction hops.

``PlaneStore.load_words`` stores words already in the packed store's
layout (a conv layer's compiled filter table, a batch's window words):
the packed store gathers them into its rows by index, the reference
form unpacks them into ``load_bits`` so the sanitizer and the fault
injector see the load. Either way it must store exactly what
``load_values`` stores for the same ints, at every word width.

The fused ``shift_copy`` and ``move_across`` write straight into their
destination blocks when the operands are disjoint; they must still equal
the column shift and the group permutation, and operands whose rows a
row-by-row sequence would overwrite before reading must still take the
per-primitive path.
"""

import numpy as np
import pytest

from repro.common.bits import ints_to_packed_planes, packed_words, word_bits
from repro.common.errors import ArrayStateError, LayoutError, VerifyError
from repro.engine import (
    ArrayFleet,
    FleetBitSerialUnit,
    Operand,
    PackedArrayFleet,
    make_fleet,
)
from repro.faults import HardwareFaultModel

RNG = np.random.default_rng(29)

COLS = [8, 13, 16, 32, 37, 64, 100, 256]
STORES = ["unpacked", "packed", "sanitized", "faulty", "sanitized-faulty"]


def store(kind, n_arrays, rows, cols):
    faults = None
    if "faulty" in kind:
        faults = HardwareFaultModel(seed=3, stuck_rate=0.05,
                                    dead_wordlines=((1, 6),))
    return make_fleet(n_arrays, rows, cols, packed=kind != "unpacked",
                      sanitize="sanitized" in kind, faults=faults)


def words_of(values, nbits):
    """``(n, fields, cols)`` ints as ``(fields * nbits, n, n_words)``
    words, field ``t``'s bit ``b`` at row ``t * nbits + b``."""
    n, fields, cols = values.shape
    planes = ints_to_packed_planes(values, nbits, packed_words(cols))
    return planes.transpose(2, 0, 1, 3).reshape(fields * nbits, n, -1)


def with_tail_bits(words, cols):
    """``words`` with every bit past the last column set."""
    tail = cols % word_bits(cols)
    if not tail:
        return words
    words = words.copy()
    words[..., -1] |= np.iinfo(words.dtype).max ^ ((1 << tail) - 1)
    return words


class TestLoadWords:
    @pytest.mark.parametrize("cols", COLS)
    @pytest.mark.parametrize("kind", STORES)
    def test_equals_load_values_of_the_same_ints(self, kind, cols):
        n_arrays, nbits = 5, 8
        values = RNG.integers(0, 1 << nbits, (n_arrays, 3, cols))
        by_values = store(kind, n_arrays, 40, cols)
        by_words = store(kind, n_arrays, 40, cols)
        by_values.load_values(4, values, nbits)
        by_words.load_words(4, with_tail_bits(words_of(values, nbits), cols),
                            np.arange(n_arrays))
        assert np.array_equal(by_words.dump_bits(4, 24),
                              by_values.dump_bits(4, 24))
        if "faulty" not in kind:
            assert np.array_equal(by_words.dump_values(12, 8), values[:, 1])

    @pytest.mark.parametrize("cols", COLS)
    @pytest.mark.parametrize("kind", STORES)
    def test_a_table_loads_by_index(self, kind, cols):
        """Array ``i`` receives plane ``index[i]`` of the table: the same
        as loading the gathered ints."""
        table = RNG.integers(0, 256, (3, 2, cols))
        index = np.array([2, 0, 0, 1, 2, 2])
        by_values = store(kind, len(index), 20, cols)
        by_words = store(kind, len(index), 20, cols)
        by_values.load_values(2, table[index], 8)
        by_words.load_words(2, words_of(table, 8), index)
        assert np.array_equal(by_words.dump_bits(2, 16),
                              by_values.dump_bits(2, 16))

    @pytest.mark.parametrize("cols", [16, 37, 256])
    def test_write_words_equals_write_value_block(self, cols):
        values = RNG.integers(0, 256, (4, 3, cols))
        for packed in (False, True):
            blocks = FleetBitSerialUnit(make_fleet(4, 30, cols,
                                                   packed=packed))
            words = FleetBitSerialUnit(make_fleet(4, 30, cols,
                                                  packed=packed))
            blocks.write_value_block(Operand(3, 24), values, 8)
            words.write_words(Operand(3, 24), words_of(values, 8),
                              np.arange(4))
            assert np.array_equal(words.fleet.dump_bits(3, 24),
                                  blocks.fleet.dump_bits(3, 24))

    @pytest.mark.parametrize("packed", [False, True],
                             ids=["unpacked", "packed"])
    def test_sanitizer_still_traps_rows_the_load_did_not_write(self,
                                                               packed):
        fleet = make_fleet(3, 24, 16, packed=packed, sanitize=True)
        fleet.load_words(4, words_of(RNG.integers(0, 256, (3, 1, 16)), 8),
                         np.arange(3))
        fleet.dump_bits(4, 8)
        with pytest.raises(VerifyError) as excinfo:
            fleet.dump_bits(4, 9)
        assert excinfo.value.check == "uninit-read"
        assert excinfo.value.row == 12
        with pytest.raises(VerifyError) as excinfo:
            FleetBitSerialUnit(fleet).copy(Operand(12, 4), Operand(0, 4))
        assert excinfo.value.check == "uninit-read"
        assert excinfo.value.row == 12

    @pytest.mark.parametrize("packed", [False, True],
                             ids=["unpacked", "packed"])
    def test_loads_are_validated(self, packed):
        fleet = make_fleet(3, 24, 16, packed=packed)
        words = words_of(RNG.integers(0, 256, (3, 1, 16)), 8)
        every = np.arange(3)
        for bad in (words.astype(np.uint32), words[:, :2], words[..., :0],
                    words[0]):
            with pytest.raises(ArrayStateError):
                fleet.load_words(0, bad, every)
        for index in (np.array([0, 1]), np.array([0, 1, 3]),
                      np.array([0, -1, 2])):
            with pytest.raises(ArrayStateError):
                fleet.load_words(0, words, index)
        with pytest.raises(ArrayStateError):
            fleet.load_words(20, words, every)       # past the last row
        with pytest.raises(LayoutError):
            FleetBitSerialUnit(fleet).write_words(Operand(0, 7), words,
                                                  every)


def pair(n_arrays, cols, rows=24):
    return (FleetBitSerialUnit(ArrayFleet(n_arrays, rows, cols)),
            FleetBitSerialUnit(PackedArrayFleet(n_arrays, rows, cols)))


def load_both(units, bits):
    for unit in units:
        unit.fleet.load_bits(0, bits)


class TestInPlaceHops:
    @pytest.mark.parametrize("cols", COLS)
    def test_shift_copy_equals_the_column_shift(self, cols):
        w = word_bits(cols)
        bits = RNG.integers(0, 2, (3, 24, cols), dtype=np.uint8)
        for shift in sorted({1, w - 1, w, w + 1, cols, cols + 5} - {0}):
            ref, packed = pair(3, cols)
            load_both((ref, packed), bits)
            for unit in (ref, packed):
                unit.shift_copy(Operand(0, 6), Operand(10, 6), shift)
            want = bits.copy()
            want[:, 10:16] = 0
            if shift < cols:
                want[:, 10:16, :cols - shift] = bits[:, 0:6, shift:]
            assert np.array_equal(packed.fleet.dump_bits(0, 24), want)
            assert np.array_equal(ref.fleet.dump_bits(0, 24), want)
            assert packed.cycles == ref.cycles

    @pytest.mark.parametrize("cols", COLS)
    def test_move_across_equals_the_group_permutation(self, cols):
        bits = RNG.integers(0, 2, (8, 24, cols), dtype=np.uint8)
        for stride, group in ((1, 2), (1, 4), (3, 4), (2, 8)):
            ref, packed = pair(8, cols)
            load_both((ref, packed), bits)
            for unit in (ref, packed):
                unit.move_across(Operand(2, 7), Operand(12, 7), stride,
                                 group)
            idx = np.arange(8)
            perm = idx - idx % group + (idx % group + stride) % group
            want = bits.copy()
            want[:, 12:19] = bits[perm, 2:9]
            assert np.array_equal(packed.fleet.dump_bits(0, 24), want)
            assert np.array_equal(ref.fleet.dump_bits(0, 24), want)
            assert packed.cycles == ref.cycles

    @pytest.mark.parametrize("kind", ["shift_copy", "move_across"])
    @pytest.mark.parametrize("src_row,dst_row", [(4, 6), (4, 4), (6, 4)],
                             ids=["writes-first", "same", "reads-first"])
    def test_overlapping_operands(self, kind, src_row, dst_row):
        """A destination above its overlapping source would be read after
        it is written, so that case runs per primitive (one write per
        row); the others stay fused. Every case equals the reference."""
        bits = RNG.integers(0, 2, (4, 24, 16), dtype=np.uint8)
        ref, packed = pair(4, 16)
        load_both((ref, packed), bits)
        writes = []
        fleet = packed.fleet
        store_plane, move_plane = fleet.store_plane, fleet.move_plane
        fleet.store_plane = lambda row, *a: (writes.append(row),
                                             store_plane(row, *a))
        fleet.move_plane = lambda src, dst, *a: (writes.append(dst),
                                                 move_plane(src, dst, *a))
        last = (5,) if kind == "shift_copy" else (1, 2)
        for unit in (ref, packed):
            getattr(unit, kind)(Operand(src_row, 6), Operand(dst_row, 6),
                                *last)
        assert np.array_equal(packed.fleet.dump_bits(0, 24),
                              ref.fleet.dump_bits(0, 24))
        per_primitive = dst_row > src_row
        assert writes == (list(range(dst_row, dst_row + 6))
                          if per_primitive else [])
