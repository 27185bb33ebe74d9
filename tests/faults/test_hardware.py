"""FaultyPlaneStore: defect semantics behind the PlaneStore seam."""

import numpy as np
import pytest

from repro.common.errors import ArrayStateError, SimulationError, VerifyError
from repro.engine import make_fleet
from repro.faults import FaultyPlaneStore, HardwareFaultModel


def fresh_store(packed=True, **model_kwargs):
    model = HardwareFaultModel(**model_kwargs)
    return make_fleet(n_arrays=2, rows=8, cols=64, packed=packed,
                      sanitize=False, faults=model)


def bits(store, row):
    return store.unpack_plane(store.read_plane(row))


class TestModelValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(SimulationError, match="stuck_rate"):
            HardwareFaultModel(stuck_rate=1.5)
        with pytest.raises(SimulationError, match="flaky_rate"):
            HardwareFaultModel(flaky_rate=-0.1)

    def test_coordinates_must_be_sane(self):
        with pytest.raises(SimulationError, match="stuck cell"):
            HardwareFaultModel(stuck_cells=((0, -1, 0, 1),))
        with pytest.raises(SimulationError, match="0/1 value"):
            HardwareFaultModel(stuck_cells=((0, 0, 0, 2),))
        with pytest.raises(SimulationError, match="dead wordline"):
            HardwareFaultModel(dead_wordlines=((-1, 0),))
        with pytest.raises(SimulationError, match="flaky column"):
            HardwareFaultModel(flaky_columns=((0, -3),))

    def test_any_faults_flag(self):
        assert not HardwareFaultModel().any_faults
        assert not HardwareFaultModel(flaky_columns=((0, 1),),
                                      flaky_rate=0.0).any_faults
        assert HardwareFaultModel(stuck_rate=1e-6).any_faults
        assert HardwareFaultModel(dead_wordlines=((0, 1),)).any_faults


class TestStuckCells:
    def test_stuck_at_one_reads_one_before_any_write(self):
        store = fresh_store(stuck_cells=((0, 2, 5, 1),))
        assert bits(store, 2)[0, 5] == 1

    def test_stuck_cells_clamp_every_write_path(self):
        store = fresh_store(stuck_cells=((0, 2, 5, 0), (1, 2, 7, 1)))
        ones = store.pack_plane(np.ones((2, 64), dtype=np.uint8))
        store.store_plane(2, ones)
        plane = bits(store, 2)
        assert plane[0, 5] == 0         # stuck-at-0 swallowed the write
        assert plane[1, 7] == 1
        assert plane[0, 6] == 1         # neighbours took the value
        store.write_row(2, np.zeros((2, 64), dtype=np.uint8))
        plane = bits(store, 2)
        assert plane[0, 5] == 0
        assert plane[1, 7] == 1         # stuck-at-1 survived the clear

    def test_compute_sensing_sees_the_clamped_storage(self):
        store = fresh_store(stuck_cells=((0, 3, 0, 0),))
        ones = store.pack_plane(np.ones((2, 64), dtype=np.uint8))
        store.store_plane(2, ones)
        store.store_plane(3, ones)
        # The AND of rows 2 and 3, from the compute read of each row.
        sensed = store.unpack_plane(store.read_plane(2)
                                    & store.read_plane(3))
        assert sensed[0, 0] == 0        # the stuck cell broke the AND
        assert sensed[0, 1] == 1

    def test_faulty_rows_lists_the_clamped_rows(self):
        store = fresh_store(stuck_cells=((0, 2, 5, 1),),
                            dead_wordlines=((1, 6),))
        inner = store  # make_fleet returns the wrapper directly here
        assert isinstance(inner, FaultyPlaneStore)
        assert inner.faulty_rows == (2, 6)

    def test_out_of_geometry_faults_are_ignored(self):
        store = fresh_store(stuck_cells=((9, 2, 5, 1), (0, 99, 0, 1)),
                            dead_wordlines=((0, 99),))
        assert store.faulty_rows == ()


class TestDeadWordlines:
    def test_dead_row_reads_zero_whatever_was_driven(self):
        store = fresh_store(dead_wordlines=((0, 4),))
        ones = store.pack_plane(np.ones((2, 64), dtype=np.uint8))
        store.store_plane(4, ones)
        plane = bits(store, 4)
        assert not plane[0].any()       # array 0 row 4 is dead
        assert plane[1].all()           # array 1 is healthy


class TestFlakySenseAmps:
    def test_storage_is_untouched_and_flips_are_transient(self):
        store = fresh_store(flaky_columns=((0, 3),), flaky_rate=0.5,
                            seed=1)
        zeros = store.pack_plane(np.zeros((2, 64), dtype=np.uint8))
        store.store_plane(2, zeros)
        reads = [bits(store, 2)[0, 3] for _ in range(64)]
        assert set(reads) == {0, 1}     # flaky: sometimes flips
        # The cell itself never changed: a fault-free attach would read
        # 0 — check via the unclamped row buffer.
        assert store._store.read_row(2)[0, 3] == 0

    def test_flip_stream_is_seeded(self):
        def stream(seed):
            store = fresh_store(flaky_columns=((0, 3),), flaky_rate=0.5,
                                seed=seed)
            zeros = store.pack_plane(np.zeros((2, 64), dtype=np.uint8))
            store.store_plane(2, zeros)
            return [bits(store, 2)[0, 3] for _ in range(32)]

        assert stream(7) == stream(7)
        assert stream(7) != stream(8)


class TestSeededField:
    def test_fault_sets_nest_across_rates(self):
        """Raising the rate only ever adds defects (monotone sweeps)."""
        def stuck_set(rate):
            model = HardwareFaultModel(seed=11, stuck_rate=rate)
            store = make_fleet(n_arrays=2, rows=8, cols=64, packed=True,
                               sanitize=False, faults=model)
            zeros = store.pack_plane(np.zeros((2, 64), dtype=np.uint8))
            ones = store.pack_plane(np.ones((2, 64), dtype=np.uint8))
            cells = set()
            for row in range(8):
                store.store_plane(row, zeros)
                for a, c in zip(*np.nonzero(bits(store, row))):
                    cells.add((int(a), row, int(c), 1))
                store.store_plane(row, ones)
                unpacked = bits(store, row)
                for a, c in zip(*np.nonzero(unpacked == 0)):
                    cells.add((int(a), row, int(c), 0))
            return cells

        low, high = stuck_set(0.02), stuck_set(0.2)
        assert low and low < high       # non-empty strict subset

    def test_rate_zero_model_is_a_passthrough(self):
        rng = np.random.default_rng(0)
        payload = rng.integers(0, 2, size=(2, 64), dtype=np.uint8)
        faulty = fresh_store()
        clean = make_fleet(n_arrays=2, rows=8, cols=64, packed=True,
                           sanitize=False)
        for store in (faulty, clean):
            store.store_plane(2, store.pack_plane(payload))
        assert np.array_equal(bits(faulty, 2), bits(clean, 2))
        assert faulty.faulty_rows == ()


class TestComposition:
    def test_sanitizer_wraps_outside_the_fault_injector(self):
        model = HardwareFaultModel(stuck_cells=((0, 2, 5, 1),))
        store = make_fleet(n_arrays=2, rows=8, cols=64, packed=True,
                           sanitize=True, faults=model)
        # Discipline still enforced on the access stream...
        with pytest.raises(VerifyError):
            store.read_plane(7)         # uninitialized row
        # ...while defects corrupt initialized storage underneath.
        zeros = store.pack_plane(np.zeros((2, 64), dtype=np.uint8))
        store.store_plane(2, zeros)
        assert bits(store, 2)[0, 5] == 1

    def test_counters_proxy_to_the_inner_store(self):
        store = fresh_store(stuck_cells=((0, 2, 5, 1),))
        store.access_cycles += 3        # read-modify-write on the proxy
        store.compute_cycles += 2
        assert store._store.access_cycles == 3
        assert store._store.compute_cycles == 2
        store.reset_counters()          # inner-store method via getattr
        assert store.access_cycles == 0
        assert store.compute_cycles == 0

    def test_unpacked_store_works_too(self):
        store = fresh_store(packed=False, stuck_cells=((0, 2, 5, 1),))
        store.store_plane(2, store.pack_plane(
            np.zeros((2, 64), dtype=np.uint8)))
        assert bits(store, 2)[0, 5] == 1


class TestPerPrimitivePath:
    """A faulty store keeps the per-primitive path on every store kind,
    so stuck cells clamp host values too and the flaky-amp draw stream
    is the one the per-primitive sequence consumes."""

    MODEL = HardwareFaultModel(
        seed=7, stuck_rate=0.002,
        stuck_cells=((0, 3, 5, 1), (1, 20, 9, 0)),
        flaky_columns=((0, 2), (1, 33), (2, 64)), flaky_rate=0.3)

    #: Defects of a 16-column fleet, whose packed store holds one uint16
    #: word per wordline: stuck cells in both polarities and flaky amps
    #: at the first, a middle and the last column.
    NARROW_MODEL = HardwareFaultModel(
        seed=7, stuck_rate=0.004,
        stuck_cells=((0, 3, 5, 1), (1, 20, 15, 0)),
        flaky_columns=((0, 0), (1, 9), (2, 15)), flaky_rate=0.3)

    def run_program(self, packed, cols=100, model=MODEL):
        from repro.engine import FleetBitSerialUnit, Operand

        rng = np.random.default_rng(11)
        store = make_fleet(4, 96, cols, packed=packed, sanitize=False,
                           faults=model)
        assert store.fused is False
        unit = FleetBitSerialUnit(store, sparsity=True)
        assert not unit._fused
        a, b, acc = Operand(0, 8), Operand(8, 8), Operand(40, 24)
        unit.write_values(a, rng.integers(0, 256, (4, cols)))
        unit.write_values(b, rng.integers(0, 256, (4, cols)) & 0b10110101)
        unit.zero(acc)
        unit.mac(a, b, Operand(16, 16), acc)
        unit.add_into(a, acc)
        unit.reduce_tree(Operand(40, 28), Operand(64, 28), 4, 24)
        unit.reduce_across_arrays(Operand(40, 28), Operand(64, 27), 2, 27)
        out = unit.read_values(Operand(40, 28))
        return out, unit.cycles, unit.skipped_cycles, store._flaky_rng.random()

    def test_packed_matches_unpacked_and_the_recorded_stream(self):
        packed = self.run_program(packed=True)
        unpacked = self.run_program(packed=False)
        assert np.array_equal(packed[0], unpacked[0])
        assert packed[1:] == unpacked[1:]
        # Pinned from the per-primitive sequence over the packed store:
        # output checksum, cycles, skipped cycles and the next flaky-amp
        # draw (which pins how many draws the program consumed).
        assert int(packed[0].sum()) == 46466455732
        assert packed[1:] == (302, 20, 0.6486326507571981)

    def test_narrow_packed_words_match_unpacked(self):
        # 16 columns: the packed store's uint16 words take the stuck-cell
        # masks and flaky-amp flips exactly where the byte-per-bit
        # reference does.
        packed = self.run_program(True, 16, self.NARROW_MODEL)
        unpacked = self.run_program(False, 16, self.NARROW_MODEL)
        assert np.array_equal(packed[0], unpacked[0])
        assert packed[1:] == unpacked[1:]
        clean = self.run_program(True, 16, HardwareFaultModel())
        assert not np.array_equal(packed[0], clean[0])

    def test_stuck_cells_clamp_host_values(self):
        from repro.engine import FleetBitSerialUnit, Operand

        store = fresh_store(stuck_cells=((0, 2, 5, 1), (1, 3, 7, 0)))
        unit = FleetBitSerialUnit(store)
        unit.write_values(Operand(0, 4), 0b1000)
        got = unit.read_values(Operand(0, 4))
        assert got[0, 5] == 0b1100         # bit 2 stuck at 1
        assert got[1, 7] == 0b0000         # bit 3 stuck at 0
        assert got[0, 6] == got[1, 6] == 0b1000
        with pytest.raises(ArrayStateError, match="per-primitive"):
            store.word_block(0, 1)
