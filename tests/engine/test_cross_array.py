"""Cross-array movement and reduction over the modeled interconnect.

``PlaneStore.move_plane`` is the raw one-wordline hop (a rotation within
each reduction group along the fleet axis); ``move_across`` charges it at
one cycle per wordline, and ``reduce_across_arrays`` composes the
log2(group) tree the analytic schedule prices per ``ReductionPlan`` hop.
Both store flavours (unpacked, packed) share the same base
implementation, so every test runs over both.
"""

import numpy as np
import pytest

from repro.common.errors import ArrayStateError, LayoutError, VerifyError
from repro.engine import FleetBitSerialUnit, Operand, make_fleet

RNG = np.random.default_rng(47)

STORES = ["unpacked", "packed"]


def store_for(kind, n_arrays=8, rows=64, cols=16, sanitize=False):
    return make_fleet(n_arrays, rows, cols, packed=kind == "packed",
                      sanitize=sanitize)


def group_permutation(n_arrays, stride, group):
    """Source array feeding each destination array, as documented."""
    idx = np.arange(n_arrays)
    return idx - idx % group + (idx % group + stride) % group


@pytest.mark.parametrize("kind", STORES)
class TestMovePlane:
    def test_rotation_within_groups(self, kind):
        store = store_for(kind)
        unit = FleetBitSerialUnit(store)
        a, b = Operand(0, 8), Operand(8, 8)
        av = RNG.integers(0, 256, (8, 16)).astype(np.int64)
        unit.write_values(a, av)
        for bit in range(8):
            store.move_plane(a.bit(bit), b.bit(bit), stride=1, group=4)
        assert np.array_equal(unit.read_values(b),
                              av[group_permutation(8, 1, 4)])

    def test_wrap_around_brings_first_array_last(self, kind):
        # stride = group-1 is a backwards rotation by one: no array ever
        # reads a donor outside its own group.
        store = store_for(kind)
        unit = FleetBitSerialUnit(store)
        a, b = Operand(0, 4), Operand(8, 4)
        av = np.arange(8 * 16).reshape(8, 16).astype(np.int64) % 16
        unit.write_values(a, av)
        for bit in range(4):
            store.move_plane(a.bit(bit), b.bit(bit), stride=3, group=4)
        assert np.array_equal(unit.read_values(b),
                              av[group_permutation(8, 3, 4)])

    def test_in_place_rotation_is_safe(self, kind):
        # src_row == dst_row must rotate, not smear: the gather snapshots
        # the source plane before any destination write.
        store = store_for(kind)
        unit = FleetBitSerialUnit(store)
        a = Operand(0, 8)
        av = RNG.integers(0, 256, (8, 16)).astype(np.int64)
        unit.write_values(a, av)
        for bit in range(8):
            store.move_plane(a.bit(bit), a.bit(bit), stride=1, group=8)
        assert np.array_equal(unit.read_values(a),
                              av[group_permutation(8, 1, 8)])

    def test_whole_fleet_group(self, kind):
        store = store_for(kind)
        unit = FleetBitSerialUnit(store)
        a, b = Operand(0, 4), Operand(8, 4)
        av = RNG.integers(0, 16, (8, 16)).astype(np.int64)
        unit.write_values(a, av)
        for bit in range(4):
            store.move_plane(a.bit(bit), b.bit(bit), stride=5, group=8)
        assert np.array_equal(unit.read_values(b), av[(np.arange(8) + 5) % 8])

    def test_raw_plane_op_charges_no_cycles(self, kind):
        # Cycle accounting lives in the unit composites, not the store.
        store = store_for(kind)
        unit = FleetBitSerialUnit(store)
        unit.write_values(Operand(0, 1), 1)
        before = store.compute_cycles
        store.move_plane(0, 8, stride=1, group=2)
        assert store.compute_cycles == before

    def test_validation(self, kind):
        store = store_for(kind)
        with pytest.raises(ArrayStateError, match="group"):
            store.move_plane(0, 8, stride=1, group=1)
        with pytest.raises(ArrayStateError, match="group"):
            store.move_plane(0, 8, stride=1, group=16)
        with pytest.raises(ArrayStateError, match="group"):
            store.move_plane(0, 8, stride=1, group=3)
        with pytest.raises(ArrayStateError, match="stride"):
            store.move_plane(0, 8, stride=0, group=4)
        with pytest.raises(ArrayStateError, match="stride"):
            store.move_plane(0, 8, stride=4, group=4)
        with pytest.raises(ArrayStateError):
            store.move_plane(64, 8, stride=1, group=4)
        with pytest.raises(ArrayStateError):
            store.move_plane(0, -1, stride=1, group=4)


@pytest.mark.parametrize("kind", STORES)
class TestMoveAcross:
    def test_costs_one_cycle_per_wordline(self, kind):
        store = store_for(kind)
        unit = FleetBitSerialUnit(store)
        unit.write_values(Operand(0, 8), 3)
        before = unit.cycles
        compute_before = store.compute_cycles
        unit.move_across(Operand(0, 8), Operand(8, 8), stride=1, group=4)
        assert unit.cycles - before == 8
        assert store.compute_cycles - compute_before == 8

    def test_width_mismatch_rejected(self, kind):
        store = store_for(kind)
        unit = FleetBitSerialUnit(store)
        unit.write_values(Operand(0, 8), 3)
        with pytest.raises(LayoutError):
            unit.move_across(Operand(0, 8), Operand(8, 4), stride=1,
                             group=4)


@pytest.mark.parametrize("kind", STORES)
class TestReduceAcrossArrays:
    @pytest.mark.parametrize("group", [2, 4, 8])
    def test_group_leader_holds_the_group_sum(self, kind, group):
        store = store_for(kind)
        unit = FleetBitSerialUnit(store)
        base, segment = Operand(0, 9), Operand(16, 8)
        av = RNG.integers(0, 32, (8, 16)).astype(np.int64)
        unit.write_values(Operand(base.row, 8), av)
        unit.zero(Operand(base.row + 8, 1))
        unit.reduce_across_arrays(base, segment, group=group, width=8)
        got = unit.read_values(base)
        expected = av.reshape(8 // group, group, 16).sum(axis=1)
        assert np.array_equal(got[::group], expected)

    def test_cycle_cost_per_level_is_move_plus_add(self, kind):
        # Each tree level moves then adds at the fixed reduction width:
        # width + (width + 1) cycles, matching CycleCosts under the
        # derived preset — the exact charge ReductionPlan accounts.
        store = store_for(kind)
        unit = FleetBitSerialUnit(store)
        base, segment = Operand(0, 9), Operand(16, 8)
        unit.write_values(Operand(base.row, 8), 1)
        unit.zero(Operand(base.row + 8, 1))
        before = unit.cycles
        unit.reduce_across_arrays(base, segment, group=4, width=8)
        levels = 2
        assert unit.cycles - before == levels * (8 + 9)

    def test_validation(self, kind):
        store = store_for(kind)
        unit = FleetBitSerialUnit(store)
        unit.write_values(Operand(0, 9), 1)
        with pytest.raises(LayoutError, match="power of two"):
            unit.reduce_across_arrays(Operand(0, 9), Operand(16, 8),
                                      group=3, width=8)
        with pytest.raises(LayoutError, match="power of two"):
            unit.reduce_across_arrays(Operand(0, 9), Operand(16, 8),
                                      group=1, width=8)
        with pytest.raises(LayoutError, match="divide"):
            unit.reduce_across_arrays(Operand(0, 9), Operand(16, 8),
                                      group=16, width=8)
        with pytest.raises(LayoutError, match="base"):
            unit.reduce_across_arrays(Operand(0, 8), Operand(16, 8),
                                      group=4, width=8)
        with pytest.raises(LayoutError, match="segment"):
            unit.reduce_across_arrays(Operand(0, 9), Operand(16, 4),
                                      group=4, width=8)


class TestSanitized:
    def test_move_from_uninitialized_row_raises(self):
        store = store_for("unpacked", sanitize=True)
        unit = FleetBitSerialUnit(store)
        with pytest.raises(VerifyError) as excinfo:
            unit.move_across(Operand(32, 4), Operand(0, 4), stride=1,
                             group=4)
        assert excinfo.value.check == "uninit-read"

    def test_move_marks_destination_rows(self):
        store = store_for("unpacked", sanitize=True)
        unit = FleetBitSerialUnit(store)
        unit.write_values(Operand(0, 4), 5)
        unit.move_across(Operand(0, 4), Operand(8, 4), stride=1, group=4)
        assert store.shadow_written[8:12].all()

    def test_legal_reduction_runs_clean(self):
        store = store_for("packed", sanitize=True)
        unit = FleetBitSerialUnit(store)
        av = RNG.integers(0, 16, (8, 16)).astype(np.int64)
        unit.write_values(Operand(0, 8), av)
        unit.zero(Operand(8, 1))
        unit.reduce_across_arrays(Operand(0, 9), Operand(16, 8),
                                  group=8, width=8)
        got = unit.read_values(Operand(0, 9))
        assert np.array_equal(got[0], av.sum(axis=0))

