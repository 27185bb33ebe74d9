"""ShadowPlaneStore behaviour over every store flavour and entry point."""

import numpy as np
import pytest

from repro.common.errors import ArrayStateError, VerifyError
from repro.engine.bitserial import FleetBitSerialUnit, Operand
from repro.engine.packed import PackedArrayFleet, make_fleet
from repro.sram import BitSerialUnit, SRAMArray
from repro.verify import ShadowPlaneStore

ROWS, COLS = 64, 16

STORES = ["unpacked", "packed"]


def fleet_for(kind, sanitize=True):
    return make_fleet(1, ROWS, COLS, packed=(kind == "packed"),
                      sanitize=sanitize)


@pytest.mark.parametrize("kind", STORES)
class TestOverBothStores:
    def test_legal_program_runs_clean(self, kind):
        unit = FleetBitSerialUnit(fleet_for(kind))
        a, b, dst = Operand(0, 4), Operand(4, 4), Operand(8, 5)
        unit.write_values(a, 5)
        unit.write_values(b, 9)
        unit.add(a, b, dst)
        assert int(unit.read_values(dst)[0, 0]) == 14

    def test_uninit_compute_read_raises(self, kind):
        unit = FleetBitSerialUnit(fleet_for(kind))
        with pytest.raises(VerifyError) as excinfo:
            unit.copy(Operand(32, 4), Operand(0, 4))
        err = excinfo.value
        assert err.check == "uninit-read"
        assert err.row == 32

    def test_uninit_host_read_raises(self, kind):
        unit = FleetBitSerialUnit(fleet_for(kind))
        with pytest.raises(VerifyError, match="wordline 16"):
            unit.read_values(Operand(16, 4))

    def test_predicated_write_requires_initialized_dst(self, kind):
        # A tag-masked write is a read-modify-write of the destination.
        unit = FleetBitSerialUnit(fleet_for(kind))
        unit.write_values(Operand(0, 4), 5)
        unit.write_values(Operand(8, 1), 1)
        unit.load_tag(8)
        with pytest.raises(VerifyError) as excinfo:
            unit.copy(Operand(0, 4), Operand(16, 4), predicated=True)
        assert excinfo.value.check == "uninit-read"
        assert excinfo.value.row == 16

    def test_error_points_at_the_offending_row(self, kind):
        # Rows 0..3 written; the read of r2:4 trips exactly at row 4.
        unit = FleetBitSerialUnit(fleet_for(kind))
        unit.write_values(Operand(0, 4), 5)
        with pytest.raises(VerifyError) as excinfo:
            unit.read_values(Operand(2, 4))
        assert excinfo.value.row == 4

    def test_single_array_unit_is_covered(self, kind):
        # The SRAMArray/BitSerialUnit path writes through the same store
        # seam, so the ControlFSM side inherits the sanitizer too.
        unit = BitSerialUnit(SRAMArray(ROWS, COLS, fleet=fleet_for(kind)))
        unit.write_values(Operand(0, 4), 5)
        unit.zero(Operand(4, 4))
        unit.copy(Operand(0, 4), Operand(8, 4))
        assert int(unit.read_values(Operand(8, 4))[0]) == 5
        with pytest.raises(VerifyError):
            unit.copy(Operand(32, 4), Operand(4, 4))


class TestShadowState:
    def test_mark_and_reset(self):
        store = fleet_for("unpacked")
        assert not store.shadow_written.any()
        store.mark_initialized(10, 4)
        assert store.shadow_written[10:14].all()
        assert store.shadow_written.sum() == 4
        store.reset_shadow()
        assert not store.shadow_written.any()

    def test_writes_mark_rows(self):
        unit = FleetBitSerialUnit(fleet_for("unpacked"))
        unit.write_values(Operand(0, 4), 5)   # host load_bits path
        unit.zero(Operand(8, 2))              # compute write path
        written = np.flatnonzero(unit.fleet.shadow_written)
        assert written.tolist() == [0, 1, 2, 3, 8, 9]

    def test_mark_initialized_allows_preloaded_reads(self):
        unit = FleetBitSerialUnit(fleet_for("unpacked"))
        unit.fleet.mark_initialized(0, 4)
        unit.copy(Operand(0, 4), Operand(8, 4))  # no raise

    def test_counters_are_shared_with_the_inner_store(self):
        store = fleet_for("unpacked")
        unit = FleetBitSerialUnit(store)
        unit.write_values(Operand(0, 4), 5)
        unit.zero(Operand(8, 4))
        assert store.compute_cycles == store._store.compute_cycles == 4
        store.reset_counters()
        assert store.compute_cycles == 0

    def test_plane_ops_pass_through(self):
        store = fleet_for("unpacked")
        assert store.rows == ROWS and store.cols == COLS
        plane = store.pack_plane(np.zeros((1, COLS), dtype=np.uint8))
        assert store.unpack_plane(store.plane_not(plane)).all()


class TestSparsityProbe:
    """The zero-plane probe is a sensed read: init-checked, and its
    "all zero" answer is cross-checked against the raw plane."""

    @pytest.mark.parametrize("kind", STORES)
    def test_uninitialized_probe_raises(self, kind):
        store = fleet_for(kind)
        with pytest.raises(VerifyError) as excinfo:
            store.plane_any(5)
        assert excinfo.value.check == "uninit-read"
        assert excinfo.value.row == 5

    @pytest.mark.parametrize("kind", STORES)
    def test_honest_probe_passes_through(self, kind):
        unit = FleetBitSerialUnit(fleet_for(kind))
        unit.write_values(Operand(0, 2), 2)  # row 0 zero, row 1 set
        assert unit.fleet.plane_any(0) is False
        assert unit.fleet.plane_any(1) is True

    @pytest.mark.parametrize("kind", STORES)
    def test_lying_probe_raises_at_the_skip_decision(self, kind):
        """A store whose zero flag drifts from its contents must trip
        the sanitizer before the elided work could corrupt state."""
        unit = FleetBitSerialUnit(fleet_for(kind))
        unit.write_values(Operand(0, 1), 1)  # row 0 holds set bits
        shadow = unit.fleet
        inner = shadow._store
        original = inner.plane_any
        inner.plane_any = lambda row: False
        try:
            with pytest.raises(VerifyError) as excinfo:
                shadow.plane_any(0)
        finally:
            inner.plane_any = original
        assert excinfo.value.check == "sparse-skip"
        assert excinfo.value.row == 0
        assert "all-zero" in str(excinfo.value)


class TestOptIn:
    def test_make_fleet_sanitize_flag(self, monkeypatch):
        monkeypatch.delenv("NEURALCACHE_SANITIZE", raising=False)
        assert isinstance(make_fleet(1, ROWS, COLS, sanitize=True),
                          ShadowPlaneStore)
        assert not isinstance(make_fleet(1, ROWS, COLS),
                              ShadowPlaneStore)

    def test_env_gate(self, monkeypatch):
        monkeypatch.setenv("NEURALCACHE_SANITIZE", "1")
        assert isinstance(make_fleet(1, ROWS, COLS), ShadowPlaneStore)
        monkeypatch.setenv("NEURALCACHE_SANITIZE", "0")
        assert not isinstance(make_fleet(1, ROWS, COLS), ShadowPlaneStore)

    def test_explicit_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("NEURALCACHE_SANITIZE", "1")
        assert not isinstance(make_fleet(1, ROWS, COLS, sanitize=False),
                              ShadowPlaneStore)

    def test_wraps_the_requested_store_kind(self):
        store = make_fleet(1, ROWS, COLS, packed=True, sanitize=True)
        assert isinstance(store, ShadowPlaneStore)
        assert isinstance(store._store, PackedArrayFleet)


class TestFusedPathStaysChecked:
    """A sanitized packed store runs the per-primitive path: the fused
    kernels and int/word host conversion of the inner store would
    otherwise touch its planes without passing the shadow checks."""

    def test_wrapper_declares_the_fused_entry_points(self):
        store = make_fleet(2, ROWS, COLS, packed=True, sanitize=True)
        assert store.fused is False
        assert not FleetBitSerialUnit(store)._fused
        with pytest.raises(ArrayStateError, match="per-primitive"):
            store.word_block(0, 4)

    def test_uninit_read_inside_mac_still_raises(self):
        unit = FleetBitSerialUnit(
            make_fleet(2, ROWS, COLS, packed=True, sanitize=True))
        a, b = Operand(0, 8), Operand(8, 8)
        unit.write_values(a, 7)          # b is never written
        unit.zero(Operand(32, 24))
        with pytest.raises(VerifyError) as excinfo:
            unit.mac(a, b, Operand(16, 16), Operand(32, 24))
        assert excinfo.value.check == "uninit-read"
        assert excinfo.value.row == b.row

    def test_host_values_mark_and_check_rows(self):
        store = make_fleet(2, ROWS, COLS, packed=True, sanitize=True)
        unit = FleetBitSerialUnit(store)
        unit.write_value_block(Operand(4, 16),
                               np.full((2, 2, COLS), 9, dtype=np.uint8), 8)
        assert store.shadow_written[4:20].all()
        assert not store.shadow_written[20]
        assert np.array_equal(unit.read_values(Operand(12, 8)),
                              np.full((2, COLS), 9))
        with pytest.raises(VerifyError) as excinfo:
            unit.read_values(Operand(16, 8))
        assert excinfo.value.check == "uninit-read"
        assert excinfo.value.row == 20
