"""The column peripherals of one compute array (Figure 7).

A one-array :class:`~repro.sram.BitSerialUnit` drives the latches its
array's plane store supplies: a ``FleetPeriphery`` with one member, so
every plane here is ``(1, cols)``.
"""

import numpy as np
import pytest

from repro.common.errors import ArrayStateError
from repro.sram import BitSerialUnit, SRAMArray


def bits(values):
    return np.array([values], dtype=np.uint8)


def periphery(cols):
    return BitSerialUnit(SRAMArray(rows=8, cols=cols)).periphery


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
        p = periphery(4)
        p.load_tag(bits([1, 0, 1, 0]))
        assert np.array_equal(p.tag, bits([1, 0, 1, 0]))
        p.load_tag(bits([1, 0, 1, 0]), invert=True)
        assert np.array_equal(p.tag, bits([0, 1, 0, 1]))

    def test_write_mask_follows_predication(self):
        p = periphery(4)
        p.load_tag(bits([0, 1, 1, 0]))
        assert p.write_mask(predicated=False) is None
        assert np.array_equal(p.write_mask(predicated=True),
                              bits([0, 1, 1, 0]))

    def test_latch_loads_reject_non_binary_values(self):
        p = periphery(4)
        with pytest.raises(ArrayStateError, match="0 or 1"):
            p.load_tag(bits([0, 2, 0, 0]))
        with pytest.raises(ArrayStateError, match="0 or 1"):
            p.load_carry(bits([3, 0, 0, 0]))


class TestFullAdder:
    def test_xor_from_rails_truth_table(self):
        # (A, B) in {00, 01, 10, 11} -> AND = 0001, NOR = 1000, XOR = 0110
        bl_and = bits([0, 0, 0, 1])
        blb_nor = bits([1, 0, 0, 0])
        assert np.array_equal(
            periphery(4).xor_from_rails(bl_and, blb_nor), bits([0, 1, 1, 0]))

    @pytest.mark.parametrize("a,b,cin,s,cout", [
        (0, 0, 0, 0, 0), (0, 1, 0, 1, 0), (1, 0, 0, 1, 0), (1, 1, 0, 0, 1),
        (0, 0, 1, 1, 0), (0, 1, 1, 0, 1), (1, 0, 1, 0, 1), (1, 1, 1, 1, 1),
    ])
    def test_full_add_truth_table(self, a, b, cin, s, cout):
        p = periphery(1)
        p.load_carry(bits([cin]))
        bl_and = bits([a & b])
        blb_nor = bits([(1 - a) & (1 - b)])
        total, carry = p.full_add(bl_and, blb_nor)
        assert total[0, 0] == s
        assert carry[0, 0] == cout
        assert p.carry[0, 0] == cout  # latch updated for the next cycle

    def test_full_add_vectorised(self):
        p = periphery(8)
        a = bits([0, 0, 0, 0, 1, 1, 1, 1])
        b = bits([0, 0, 1, 1, 0, 0, 1, 1])
        cin = bits([0, 1, 0, 1, 0, 1, 0, 1])
        p.load_carry(cin)
        total, carry = p.full_add(a & b, (1 - a) & (1 - b))
        expected = a + b + cin
        assert np.array_equal(total, expected & 1)
        assert np.array_equal(carry, expected >> 1)


class TestWritebackMux:
    def test_shape_validation(self):
        # The tag plane gates the write-back drivers column by column, so
        # it must cover exactly the array's bitlines.
        p = periphery(4)
        with pytest.raises(ArrayStateError):
            p.load_tag(bits([1, 0]))
        with pytest.raises(ArrayStateError):
            p.load_tag(np.array([1, 0, 1, 0], dtype=np.uint8))
