"""The column peripherals of one compute array (Figure 7).

A one-array :class:`~repro.sram.BitSerialUnit` drives the latches its
array's plane store supplies: a ``FleetPeriphery`` with one member, so
every plane here is ``(1, cols)``.
"""

import numpy as np
import pytest

from repro.common.errors import ArrayStateError
from repro.sram import BitSerialUnit, Operand, SRAMArray


def bits(values):
    return np.array([values], dtype=np.uint8)


def unit_for(cols):
    return BitSerialUnit(SRAMArray(rows=8, cols=cols))


def periphery(cols):
    return unit_for(cols).periphery


class TestLatches:
    def test_carry_starts_cleared_and_tag_enabled(self):
        p = periphery(4)
        assert p.carry.shape == p.tag.shape == (1, 4)
        assert np.all(p.carry == 0)
        assert np.all(p.tag == 1)

    def test_set_and_clear_carry(self):
        p = periphery(4)
        p.set_carry()
        assert np.all(p.carry == 1)
        p.clear_carry()
        assert np.all(p.carry == 0)

    def test_load_tag_and_inverted_load(self):
        unit = unit_for(4)
        unit.array.write_row(0, np.array([1, 0, 1, 0], dtype=np.uint8))
        unit.load_tag(0)
        assert np.array_equal(unit.periphery.tag, bits([1, 0, 1, 0]))
        unit.load_tag(0, invert=True)
        assert np.array_equal(unit.periphery.tag, bits([0, 1, 0, 1]))

    def test_write_mask_follows_predication(self):
        unit = unit_for(4)
        unit.array.write_row(0, np.array([0, 1, 1, 0], dtype=np.uint8))
        unit.load_tag(0)
        unit.write_scalar(Operand(1, 1), 1)
        unit.zero(Operand(2, 2))
        unit.copy(Operand(1, 1), Operand(2, 1))
        unit.copy(Operand(1, 1), Operand(3, 1), predicated=True)
        assert np.array_equal(unit.array.read_row(2), [1, 1, 1, 1])
        assert np.array_equal(unit.array.read_row(3), [0, 1, 1, 0])


class TestFullAdder:
    def test_xor_from_rails_truth_table(self):
        # (A, B) in {00, 01, 10, 11} -> AND = 0001, NOR = 1000, XOR = 0110:
        # XOR is the NOR of the two rails (the gate of Figure 7).
        unit = unit_for(4)
        unit.array.write_row(0, np.array([0, 0, 1, 1], dtype=np.uint8))
        unit.array.write_row(1, np.array([0, 1, 0, 1], dtype=np.uint8))
        bl_and, blb_nor = unit.array.sense(0, 1)
        assert np.array_equal(bl_and, [0, 0, 0, 1])
        assert np.array_equal(blb_nor, [1, 0, 0, 0])
        unit.logical_xor(Operand(0, 1), Operand(1, 1), Operand(2, 1))
        assert np.array_equal(unit.array.read_row(2), [0, 1, 1, 0])
        assert np.array_equal(unit.array.read_row(2),
                              1 - (bl_and | blb_nor))

    @pytest.mark.parametrize("a,b,cin,s,cout", [
        (0, 0, 0, 0, 0), (0, 1, 0, 1, 0), (1, 0, 0, 1, 0), (1, 1, 0, 0, 1),
        (0, 0, 1, 1, 0), (0, 1, 1, 0, 1), (1, 0, 1, 0, 1), (1, 1, 1, 1, 1),
    ])
    def test_full_add_truth_table(self, a, b, cin, s, cout):
        p = periphery(1)
        p.carry[...] = bits([cin])
        total = p.add_step(bits([a & b]), bits([a ^ b]))
        assert total[0, 0] == s
        assert p.carry[0, 0] == cout  # latch updated for the next cycle

    def test_full_add_vectorised(self):
        p = periphery(8)
        a = bits([0, 0, 0, 0, 1, 1, 1, 1])
        b = bits([0, 0, 1, 1, 0, 0, 1, 1])
        cin = bits([0, 1, 0, 1, 0, 1, 0, 1])
        p.carry[...] = cin
        total = p.add_step(a & b, a ^ b)
        expected = a + b + cin
        assert np.array_equal(total, expected & 1)
        assert np.array_equal(p.carry, expected >> 1)


class TestWritebackMux:
    def test_shape_validation(self):
        # The tag-gated write-back mask covers exactly the array's
        # bitlines, one enable per column.
        array = SRAMArray(rows=8, cols=4)
        ones = np.ones(4, dtype=np.uint8)
        with pytest.raises(ArrayStateError):
            array.write_back(0, ones, mask=np.array([1, 0], dtype=np.uint8))
        with pytest.raises(ArrayStateError):
            array.write_back(0, ones, mask=bits([1, 0, 1, 0]))
