"""The ArrayFleet primitive model and the SRAMArray thin-view contract."""

import numpy as np
import pytest

from repro.common.bits import bitplanes_to_int, int_to_bitplanes
from repro.common.errors import ArrayStateError
from repro.engine import ArrayFleet, FleetBitSerialUnit, FleetPeriphery, Operand
from repro.sram import SRAMArray

RNG = np.random.default_rng(7)


class TestFleetPrimitives:
    def test_sense_is_per_array_and_lockstep(self):
        # The two Figure 2b rails, fleet-wide: AND off BL, NOR off BLB.
        unit = FleetBitSerialUnit(ArrayFleet(3, rows=8, cols=4))
        a = RNG.integers(0, 2, (3, 4)).astype(np.uint8)
        b = RNG.integers(0, 2, (3, 4)).astype(np.uint8)
        unit.fleet.load_bits(0, a[:, None, :])
        unit.fleet.load_bits(1, b[:, None, :])
        unit.logical_and(Operand(0, 1), Operand(1, 1), Operand(2, 1))
        assert np.array_equal(unit.fleet.dump_bits(2, 1)[:, 0], a & b)
        # One instruction broadcast = one compute cycle, fleet-wide.
        assert unit.fleet.compute_cycles == 1
        unit.logical_nor(Operand(0, 1), Operand(1, 1), Operand(3, 1))
        assert np.array_equal(unit.fleet.dump_bits(3, 1)[:, 0],
                              (1 - a) & (1 - b))
        assert unit.fleet.compute_cycles == 2

    def test_sense_single_rails(self):
        # One sensed row gives the value (BL) and its complement (BLB):
        # a 1-bit search for key 1 flags a, for key 0 flags NOT a.
        unit = FleetBitSerialUnit(ArrayFleet(2, rows=4, cols=4))
        a = RNG.integers(0, 2, (2, 4)).astype(np.uint8)
        unit.fleet.load_bits(2, a[:, None, :])
        unit.search(Operand(2, 1), key=1, dst_row=0)
        unit.search(Operand(2, 1), key=0, dst_row=1)
        assert np.array_equal(unit.fleet.dump_bits(0, 1)[:, 0], a)
        assert np.array_equal(unit.fleet.dump_bits(1, 1)[:, 0], 1 - a)

    def test_sense_same_row_rejected(self):
        unit = FleetBitSerialUnit(ArrayFleet(2, rows=4, cols=4))
        with pytest.raises(ArrayStateError, match="two distinct"):
            unit.logical_and(Operand(1, 1), Operand(1, 1), Operand(2, 1))

    def test_write_back_mask_per_array(self):
        fleet = ArrayFleet(2, rows=4, cols=4)
        mask = np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.uint8)
        fleet.store_plane(0, np.ones((2, 4), dtype=np.uint8), mask=mask)
        assert np.array_equal(fleet.dump_bits(0, 1)[:, 0], mask)
        assert fleet.compute_cycles == 0  # write-back shares the cycle

    def test_load_bits_broadcasts_2d_plane(self):
        fleet = ArrayFleet(3, rows=4, cols=4)
        plane = RNG.integers(0, 2, (2, 4)).astype(np.uint8)
        fleet.load_bits(1, plane)
        dumped = fleet.dump_bits(1, 2)
        for k in range(3):
            assert np.array_equal(dumped[k], plane)

    def test_row_bounds_checked(self):
        fleet = ArrayFleet(1, rows=4, cols=4)
        with pytest.raises(ArrayStateError):
            fleet.read_row(4)
        with pytest.raises(ArrayStateError):
            fleet.load_bits(3, np.zeros((1, 2, 4), dtype=np.uint8))

    def test_dump_bits_column_bounds_checked(self):
        # Regression: a negative col_offset used to wrap around and read
        # the wrong region, and an oversized n_cols silently truncated.
        fleet = ArrayFleet(1, rows=4, cols=8)
        fleet.load_bits(0, np.ones((1, 1, 8), dtype=np.uint8))
        with pytest.raises(ArrayStateError, match="columns"):
            fleet.dump_bits(0, 1, col_offset=-2, n_cols=2)
        with pytest.raises(ArrayStateError, match="columns"):
            fleet.dump_bits(0, 1, col_offset=6, n_cols=4)
        with pytest.raises(ArrayStateError, match="columns"):
            fleet.dump_bits(0, 1, col_offset=9)
        with pytest.raises(ArrayStateError, match="columns"):
            fleet.dump_bits(0, 1, col_offset=0, n_cols=-1)
        # In-bounds reads still work, including the full-width default.
        assert fleet.dump_bits(0, 1, col_offset=6).shape == (1, 1, 2)
        assert fleet.dump_bits(0, 1, col_offset=2, n_cols=3).shape == (1, 1, 3)

    def test_load_bits_rejects_non_binary_payload(self):
        # Regression: values > 1 used to land in the store and break the
        # sense rails' complement math.
        fleet = ArrayFleet(1, rows=4, cols=4)
        bad = np.full((1, 1, 4), 2, dtype=np.uint8)
        with pytest.raises(ArrayStateError, match="0 or 1"):
            fleet.load_bits(0, bad)
        with pytest.raises(ArrayStateError, match="0 or 1"):
            fleet.load_bits(0, np.full((1, 4), 255, dtype=np.uint8))

    def test_counters_reset(self):
        fleet = ArrayFleet(2, rows=4, cols=4)
        fleet.read_row(0)
        FleetBitSerialUnit(fleet).logical_and(Operand(0, 1), Operand(1, 1),
                                              Operand(2, 1))
        assert (fleet.access_cycles, fleet.compute_cycles) == (1, 1)
        fleet.reset_counters()
        assert (fleet.access_cycles, fleet.compute_cycles) == (0, 0)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ArrayStateError):
            ArrayFleet(0)


class TestPeriphery:
    def test_full_add_matches_truth_table(self):
        # All 8 (a, b, carry-in) cases, in both arrays of a fleet.
        periphery = FleetPeriphery(2, 8)
        a = np.array([[0, 0, 0, 0, 1, 1, 1, 1]] * 2, dtype=np.uint8)
        b = np.array([[0, 0, 1, 1, 0, 0, 1, 1]] * 2, dtype=np.uint8)
        cin = np.array([[0, 1, 0, 1, 0, 1, 0, 1]] * 2, dtype=np.uint8)
        periphery.carry[...] = cin
        total = periphery.add_step(a & b, a ^ b)
        assert np.array_equal(total, (a + b + cin) % 2)
        # The carry latch holds the carry-out for the next cycle.
        assert np.array_equal(periphery.carry, (a + b + cin) // 2)

    def test_tag_gates_write_mask(self):
        unit = FleetBitSerialUnit(ArrayFleet(2, rows=4, cols=4))
        periphery = unit.periphery
        # Carry starts cleared and every write driver enabled.
        assert np.all(periphery.carry == 0)
        assert np.all(periphery.tag == 1)
        tag = np.array([[1, 0, 1, 0], [0, 0, 1, 1]], dtype=np.uint8)
        unit.fleet.load_bits(0, tag[:, None, :])
        unit.write_values(Operand(1, 1), 1)
        unit.zero(Operand(2, 2))
        unit.load_tag(0)
        assert np.array_equal(periphery.tag, tag)
        # A predicated write lands only where the tag enables a driver.
        unit.copy(Operand(1, 1), Operand(2, 1), predicated=True)
        assert np.array_equal(unit.fleet.dump_bits(2, 1)[:, 0], tag)
        unit.load_tag(0, invert=True)
        unit.copy(Operand(1, 1), Operand(3, 1), predicated=True)
        assert np.array_equal(unit.fleet.dump_bits(3, 1)[:, 0], 1 - tag)
        unit.set_tag_all()
        assert np.all(periphery.tag == 1)


class TestSRAMArrayIsAFleetView:
    def test_backed_by_single_array_fleet(self):
        array = SRAMArray(rows=16, cols=8)
        assert isinstance(array.fleet, ArrayFleet)
        assert array.fleet.n_arrays == 1

    def test_counters_are_the_fleet_counters(self):
        array = SRAMArray(rows=16, cols=8)
        array.read_row(0)
        array.sense(0, 1)
        assert array.fleet.access_cycles == array.access_cycles == 1
        assert array.fleet.compute_cycles == array.compute_cycles == 1

    def test_writes_through_view_land_in_fleet(self):
        array = SRAMArray(rows=16, cols=8)
        bits = RNG.integers(0, 2, 8).astype(np.uint8)
        array.write_row(3, bits)
        assert np.array_equal(array.fleet.dump_bits(3, 1)[0, 0], bits)

    def test_multi_array_fleet_rejected(self):
        with pytest.raises(ArrayStateError):
            SRAMArray(fleet=ArrayFleet(2, 16, 8))


class TestBitPlaneHelpers:
    def test_roundtrip(self):
        values = RNG.integers(0, 1 << 12, (3, 5)).astype(np.int64)
        planes = int_to_bitplanes(values, 12)
        assert planes.shape == (3, 12, 5)
        assert np.array_equal(bitplanes_to_int(planes), values)

    def test_masks_to_width(self):
        values = np.array([[255]], dtype=np.int64)
        assert bitplanes_to_int(int_to_bitplanes(values, 4))[0, 0] == 15

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            int_to_bitplanes(np.array([[-1]]), 4)
