"""The ArrayFleet primitive model and the SRAMArray thin-view contract."""

import numpy as np
import pytest

from repro.common.bits import bitplanes_to_int, int_to_bitplanes
from repro.common.errors import ArrayStateError
from repro.engine import ArrayFleet, FleetPeriphery
from repro.sram import SRAMArray

RNG = np.random.default_rng(7)


class TestFleetPrimitives:
    def test_sense_is_per_array_and_lockstep(self):
        fleet = ArrayFleet(3, rows=8, cols=4)
        a = RNG.integers(0, 2, (3, 4)).astype(np.uint8)
        b = RNG.integers(0, 2, (3, 4)).astype(np.uint8)
        fleet.load_bits(0, a[:, None, :])
        fleet.load_bits(1, b[:, None, :])
        bl, blb = fleet.sense(0, 1)
        assert np.array_equal(bl, a & b)
        assert np.array_equal(blb, (1 - a) & (1 - b))
        # One instruction broadcast = one compute cycle, fleet-wide.
        assert fleet.compute_cycles == 1

    def test_sense_single_rails(self):
        fleet = ArrayFleet(2, rows=4, cols=4)
        a = RNG.integers(0, 2, (2, 4)).astype(np.uint8)
        fleet.load_bits(2, a[:, None, :])
        bl, blb = fleet.sense_single(2)
        assert np.array_equal(bl, a)
        assert np.array_equal(blb, 1 - a)

    def test_sense_same_row_rejected(self):
        fleet = ArrayFleet(2, rows=4, cols=4)
        with pytest.raises(ArrayStateError):
            fleet.sense(1, 1)

    def test_write_back_mask_per_array(self):
        fleet = ArrayFleet(2, rows=4, cols=4)
        mask = np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.uint8)
        fleet.write_back(0, np.ones((2, 4), dtype=np.uint8), mask=mask)
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
        fleet.sense(0, 1)
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
        bl_and, blb_nor = a & b, (1 - a) & (1 - b)
        assert np.array_equal(periphery.xor_from_rails(bl_and, blb_nor),
                              a ^ b)
        periphery.load_carry(cin)
        total, carry = periphery.full_add(bl_and, blb_nor)
        assert np.array_equal(total, (a + b + cin) % 2)
        assert np.array_equal(carry, (a + b + cin) // 2)
        # The carry latch holds the carry-out for the next cycle.
        assert np.array_equal(periphery.carry, (a + b + cin) // 2)

    def test_latch_loads_reject_non_binary_planes(self):
        # Regression: load_tag/load_carry used to accept values > 1,
        # silently corrupting later add_step carry logic.
        periphery = FleetPeriphery(2, 4)
        bad = np.full((2, 4), 3, dtype=np.uint8)
        with pytest.raises(ArrayStateError, match="0 or 1"):
            periphery.load_tag(bad)
        with pytest.raises(ArrayStateError, match="0 or 1"):
            periphery.load_tag(bad, invert=True)
        with pytest.raises(ArrayStateError, match="0 or 1"):
            periphery.load_carry(bad)
        # Valid 0/1 planes still latch.
        good = np.eye(2, 4, dtype=np.uint8)
        periphery.load_carry(good)
        assert np.array_equal(periphery.carry, good)
        # A plane must cover every column of every array.
        for wrong in (good[0], good[:, :3], np.ones((1, 4), np.uint8)):
            with pytest.raises(ArrayStateError, match="column bits"):
                periphery.load_tag(wrong)
            with pytest.raises(ArrayStateError, match="column bits"):
                periphery.load_carry(wrong)

    def test_tag_gates_write_mask(self):
        periphery = FleetPeriphery(2, 4)
        # Carry starts cleared and every write driver enabled.
        assert np.all(periphery.carry == 0)
        assert np.all(periphery.tag == 1)
        assert periphery.write_mask(False) is None
        tag = np.array([[1, 0, 1, 0], [0, 0, 1, 1]], dtype=np.uint8)
        periphery.load_tag(tag)
        assert np.array_equal(periphery.write_mask(True), tag)
        periphery.load_tag(tag, invert=True)
        assert np.array_equal(periphery.write_mask(True), 1 - tag)
        periphery.set_tag_all()
        assert np.all(periphery.write_mask(True) == 1)


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
