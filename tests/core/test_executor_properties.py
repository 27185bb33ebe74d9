"""Property and consistency tests for the analytic simulator.

These probe the model's internal coherence rather than specific paper
numbers: conservation (parts sum to wholes), monotonicity (more hardware
never hurts; more work never helps), and batching asymptotics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import xeon_e5_2697_v3
from repro.common.errors import SimulationError
from repro.config import NeuralCacheConfig
from repro.core.executor import NeuralCacheSimulator
from repro.core.functional import FunctionalConv
from repro.core.mapping import map_conv
from repro.core.schedule import PHASES, PhaseBreakdown
from repro.nn import Conv2D, build_inception_v3, build_vgg_tiny, initialise_weights
from repro.nn.graph import Network


@pytest.fixture(scope="module")
def inception_sim():
    return NeuralCacheSimulator(build_inception_v3())


class TestConservation:
    def test_layer_times_sum_to_total(self, inception_sim):
        result = inception_sim.run()
        assert sum(r.latency for r in result.layers) == pytest.approx(
            result.total_time - result.spill_time)

    def test_layer_energy_sums_to_total(self, inception_sim):
        result = inception_sim.run()
        assert sum(r.schedule.total_energy for r in result.layers) == \
            pytest.approx(result.total_energy - result.spill_energy)

    def test_breakdown_sums_to_layer_time(self, inception_sim):
        result = inception_sim.run()
        for layer in result.layers:
            assert layer.schedule.time.total == pytest.approx(layer.latency)

    def test_fractions_sum_to_one(self, inception_sim):
        fractions = inception_sim.run().breakdown().fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)


class TestMonotonicity:
    def test_more_slices_never_slower(self):
        net = build_vgg_tiny()
        base = xeon_e5_2697_v3()
        times = []
        for slices in (7, 14, 28):
            config = NeuralCacheConfig().with_geometry(
                base.scaled_to_slices(slices))
            times.append(NeuralCacheSimulator(net, config).latency())
        assert times[0] >= times[1] >= times[2]

    def test_slower_dram_never_faster(self):
        from repro.cache.dram import DramModel
        net = build_vgg_tiny()
        fast = NeuralCacheConfig(dram=DramModel(effective_bandwidth_gbps=20))
        slow = NeuralCacheConfig(dram=DramModel(effective_bandwidth_gbps=5))
        assert (NeuralCacheSimulator(net, fast).latency()
                < NeuralCacheSimulator(net, slow).latency())

    def test_larger_batch_never_increases_per_image_compute(self,
                                                            inception_sim):
        b1 = inception_sim.run(1)
        b8 = inception_sim.run(8)
        # Per-image time drops (filter amortisation beats spill growth at
        # small batches).
        assert b8.latency_per_image < b1.latency_per_image

    def test_spill_time_asymptote(self, inception_sim):
        """Per-image spill converges: overflow - buffer/N is bounded by
        2x the overflowing output volume."""
        per_image = [inception_sim.run(b).spill_time / b
                     for b in (32, 64, 128, 256)]
        assert per_image == sorted(per_image)          # increasing
        assert per_image[-1] - per_image[-2] < per_image[1] - per_image[0] \
            or per_image[-1] == pytest.approx(per_image[-2], rel=0.1)


@given(st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=256),
       st.integers(min_value=1, max_value=32),
       st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_schedule_positive_and_finite(r, s, channels, out_channels, stride):
    """Any mappable conv produces a finite, positive, internally
    consistent schedule."""
    from repro.core.schedule import schedule_layer
    config = NeuralCacheConfig()
    conv = Conv2D(out_channels, (r, s), stride=stride, padding="same")
    mapping = map_conv(config, "prop", conv, (16, 16, channels))
    schedule = schedule_layer(config, mapping)
    assert np.isfinite(schedule.latency)
    assert schedule.latency > 0
    assert schedule.total_energy > 0
    assert schedule.time.mac > 0
    for phase, seconds in schedule.time.as_dict().items():
        assert seconds >= 0, phase


class TestFunctionalGuards:
    def test_taps_guard_message(self):
        net = Network(name="deep")
        x = net.add_input("in", (4, 4, 64))
        conv = Conv2D(2, (3, 3))
        net.add("c", conv, x)
        weights = initialise_weights(net)
        with pytest.raises(SimulationError, match="taps per output"):
            FunctionalConv(conv, (4, 4, 64), weights.for_node("c"))


_phase_values = st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)
                            for _ in PHASES])


@settings(max_examples=100, deadline=None)
@given(_phase_values, _phase_values,
       st.floats(allow_nan=False, allow_infinity=False))
def test_phase_breakdown_arithmetic_is_fieldwise(a_values, b_values, factor):
    a = PhaseBreakdown(**dict(zip(PHASES, a_values)))
    b = PhaseBreakdown(**dict(zip(PHASES, b_values)))
    assert (a + b).as_dict() == {
        phase: x + y for phase, x, y in zip(PHASES, a_values, b_values)}
    assert a.scaled(factor).as_dict() == {
        phase: x * factor for phase, x in zip(PHASES, a_values)}
