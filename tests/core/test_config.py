"""Tests for the top-level configuration bundle."""

import dataclasses

import pytest

from repro.cache.dram import DramModel
from repro.cache.geometry import xeon_45mb
from repro.common.errors import SimulationError
from repro.config import NeuralCacheConfig
from repro.sram.cost import CycleCosts
from repro.sram.energy import ArrayEnergyModel


class TestDefaults:
    def test_paper_defaults(self):
        config = NeuralCacheConfig()
        assert config.geometry.total_arrays == 4480
        assert config.costs.mode == "paper"
        assert config.frequency_hz == 2.5e9
        assert config.sockets == 2
        assert config.element_bits == 8

    def test_interconnect_bound_to_geometry(self):
        config = NeuralCacheConfig()
        assert config.interconnect.geometry is config.geometry
        assert config.interconnect.frequency_hz == config.frequency_hz

    def test_with_geometry_preserves_other_fields(self):
        """Every field but the geometry survives, each set away from its
        default so that a dropped one shows."""
        config = NeuralCacheConfig(
            costs=CycleCosts.derived(),
            dram=DramModel(effective_bandwidth_gbps=12.5),
            energy=ArrayEnergyModel.at_28nm(), frequency_hz=3e9, sockets=4,
            output_buffer_fraction=0.25, split_threshold_bytes=5,
            pack_limit=8, element_bits=4, input_gather_calibration=2.0,
            output_gather_calibration=3.0, input_reuse_floor=0.75,
            partial_sum_bits=20, reduction_bits=28)
        default = NeuralCacheConfig()
        scaled = config.with_geometry(xeon_45mb())
        assert scaled.geometry.slices == 18
        assert scaled.costs is config.costs
        for field in dataclasses.fields(NeuralCacheConfig):
            if field.name == "geometry":
                continue
            value = getattr(config, field.name)
            assert value != getattr(default, field.name), field.name
            assert getattr(scaled, field.name) == value, field.name

    def test_io_way_slots(self):
        config = NeuralCacheConfig()
        # 14 slices x 1 reserved I/O way x 16 arrays x 256 bitlines.
        assert config.io_way_slots == 14 * 16 * 256

    def test_output_buffer_bytes(self):
        config = NeuralCacheConfig()
        expected = 14 * 128 * 1024 * 0.5
        assert config.output_buffer_bytes == pytest.approx(expected)


class TestPeakThroughput:
    def test_peak_ops_matches_28_tops_claim(self):
        """Sec. VII: 'Neural Cache achieves 28 TOPs/s at 22nm'. One op =
        one 8-bit multiply at the paper's n^2+5n-2 cycles."""
        config = NeuralCacheConfig()
        peak = config.peak_ops_per_second()
        assert peak == pytest.approx(28e12, rel=0.01)

    def test_peak_scales_with_capacity(self):
        base = NeuralCacheConfig()
        big = base.with_geometry(xeon_45mb())
        ratio = big.peak_ops_per_second() / base.peak_ops_per_second()
        assert ratio == pytest.approx(18 / 14)

    def test_custom_op_cost(self):
        config = NeuralCacheConfig()
        assert config.peak_ops_per_second(op_cycles=1) == pytest.approx(
            config.geometry.alu_slots * 2.5e9)
        with pytest.raises(SimulationError):
            config.peak_ops_per_second(op_cycles=0)


class TestValidation:
    def test_bad_frequency(self):
        with pytest.raises(SimulationError):
            NeuralCacheConfig(frequency_hz=0)

    def test_bad_sockets(self):
        with pytest.raises(SimulationError):
            NeuralCacheConfig(sockets=0)

    def test_bad_buffer_fraction(self):
        with pytest.raises(SimulationError):
            NeuralCacheConfig(output_buffer_fraction=0.0)
        with pytest.raises(SimulationError):
            NeuralCacheConfig(output_buffer_fraction=1.5)

    def test_bad_calibrations(self):
        with pytest.raises(SimulationError):
            NeuralCacheConfig(input_gather_calibration=0.5)
        with pytest.raises(SimulationError):
            NeuralCacheConfig(output_gather_calibration=0.0)
        with pytest.raises(SimulationError):
            NeuralCacheConfig(input_reuse_floor=0.0)

    def test_bad_thresholds(self):
        with pytest.raises(SimulationError):
            NeuralCacheConfig(split_threshold_bytes=0)
        with pytest.raises(SimulationError):
            NeuralCacheConfig(pack_limit=0)
        with pytest.raises(SimulationError):
            NeuralCacheConfig(element_bits=0)

    def test_derived_cost_preset_accepted(self):
        config = NeuralCacheConfig(costs=CycleCosts.derived())
        assert config.costs.mode == "derived"