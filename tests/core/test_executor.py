"""Tests for the analytic simulator, anchored to the paper's evaluation."""

import pytest

import repro.core.executor as executor
from repro.cache.geometry import capacity_sweep, xeon_45mb, xeon_60mb
from repro.common.errors import SimulationError
from repro.config import NeuralCacheConfig
from repro.core.executor import (
    InferenceResult,
    LayerResult,
    NeuralCacheSimulator,
    simulate_inference,
)
from repro.core.mapping import map_node
from repro.core.schedule import PHASES, LayerSchedule, PhaseBreakdown, schedule_layer
from repro.nn import build_inception_v3
from repro.nn.models import model_zoo


@pytest.fixture(scope="module")
def net():
    return build_inception_v3()


@pytest.fixture(scope="module")
def sim(net):
    return NeuralCacheSimulator(net)


@pytest.fixture(scope="module")
def result(sim):
    return sim.run()


class TestTotals:
    def test_latency_in_paper_band(self, result):
        # Paper: 4.72 ms; the model lands within ~20%.
        assert 3.7e-3 < result.total_time < 5.7e-3

    def test_energy_in_paper_band(self, result):
        # Paper: 0.246 J per inference.
        assert 0.15 < result.total_energy < 0.35

    def test_power_near_53w(self, result):
        # Paper: 52.92 W average.
        assert 40 < result.average_power < 65

    def test_every_mapped_layer_scheduled(self, result, net):
        assert len(result.layers) == 109

    def test_per_image_metrics_at_batch_1(self, result):
        assert result.latency_per_image == result.total_time
        assert result.energy_per_image == result.total_energy


class TestBreakdown:
    """Figure 14: filter 46%, input 15%, MAC 20%, reduce 10%, quant 5%,
    output 4%, pooling 0.04%."""

    def test_filter_loading_dominates(self, result):
        fractions = result.breakdown().fractions()
        assert fractions["filter_load"] == max(fractions.values())
        assert 0.40 < fractions["filter_load"] < 0.60

    def test_input_streaming_share(self, result):
        assert 0.08 < result.breakdown().fractions()["input_stream"] < 0.22

    def test_mac_share(self, result):
        assert 0.14 < result.breakdown().fractions()["mac"] < 0.26

    def test_reduction_share(self, result):
        assert 0.04 < result.breakdown().fractions()["reduction"] < 0.14

    def test_quantization_share(self, result):
        assert 0.01 < result.breakdown().fractions()["quantization"] < 0.09

    def test_output_share(self, result):
        assert 0.02 < result.breakdown().fractions()["output_move"] < 0.08

    def test_pooling_negligible(self, result):
        assert result.breakdown().fractions()["pooling"] < 0.01

    def test_phase_order_matches_paper(self, result):
        # filter > mac > input > reduction > quant >= output > pooling
        f = result.breakdown().fractions()
        assert f["filter_load"] > f["mac"] > f["reduction"]
        assert f["pooling"] < f["quantization"]


class TestGroupReporting:
    def test_group_latency_covers_all_groups(self, result, net):
        groups = result.group_latency()
        assert set(groups) == set(net.groups())
        assert all(v > 0 for v in groups.values())

    def test_mixed_layers_dominate(self, result):
        # Fig. 13: the mixed modules carry most of the time.
        groups = result.group_latency()
        mixed = sum(v for k, v in groups.items() if k.startswith("Mixed"))
        assert mixed > 0.5 * sum(groups.values())

    def test_group_breakdown_sums_to_total(self, result):
        per_group = result.group_breakdown()
        total = sum(bd.total for bd in per_group.values())
        assert total == pytest.approx(
            result.total_time - result.spill_time)


class TestBatching:
    """Figure 16: throughput rises with batch size and plateaus."""

    def test_filter_load_amortised(self, sim):
        single = sim.run(1)
        batched = sim.run(8)
        assert (batched.breakdown().filter_load
                == pytest.approx(single.breakdown().filter_load))
        assert batched.latency_per_image < single.total_time

    def test_throughput_improves_then_plateaus(self, sim):
        t1 = sim.throughput(1)
        t4 = sim.throughput(4)
        t64 = sim.throughput(64)
        t256 = sim.throughput(256)
        assert t4 > t1
        assert t256 == pytest.approx(t64, rel=0.25)  # plateau

    def test_peak_throughput_in_paper_band(self, sim):
        # Paper: 604 inf/s at the highest batch size (dual socket).
        peak = max(sim.throughput(b) for b in (1, 4, 16, 64, 256))
        assert 450 < peak < 800

    def test_dual_socket_scaling(self, net):
        single = NeuralCacheSimulator(net, NeuralCacheConfig(sockets=1))
        dual = NeuralCacheSimulator(net, NeuralCacheConfig(sockets=2))
        assert dual.throughput(4) == pytest.approx(2 * single.throughput(4))

    def test_spills_only_with_batching(self, sim):
        assert sim.run(1).spill_time == 0
        assert sim.run(16).spill_time > 0  # the early, big-output layers

    def test_bad_batch_size_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.run(0)


class TestCapacityScaling:
    """Table IV: 35 MB -> 45 MB -> 60 MB keeps getting faster."""

    def test_latency_decreases_with_capacity(self, net):
        times = []
        for geometry in capacity_sweep():
            config = NeuralCacheConfig().with_geometry(geometry)
            times.append(NeuralCacheSimulator(net, config).latency())
        assert times[0] > times[1] > times[2]

    def test_scaling_ratios_near_paper(self, net):
        # Paper ratios: 4.12/4.72 = 0.873 and 3.79/4.72 = 0.803.
        base = NeuralCacheSimulator(net).latency()
        t45 = NeuralCacheSimulator(
            net, NeuralCacheConfig().with_geometry(xeon_45mb())).latency()
        t60 = NeuralCacheSimulator(
            net, NeuralCacheConfig().with_geometry(xeon_60mb())).latency()
        assert t45 / base == pytest.approx(0.873, abs=0.06)
        assert t60 / base == pytest.approx(0.803, abs=0.06)

    def test_filter_load_unchanged_by_capacity(self, net):
        # Sec. VI-D: "Filter loading will not be affected".
        base = NeuralCacheSimulator(net).run().breakdown().filter_load
        big = NeuralCacheSimulator(
            net, NeuralCacheConfig().with_geometry(xeon_60mb())
        ).run().breakdown().filter_load
        assert big == pytest.approx(base)


class TestConvenience:
    def test_simulate_inference_wrapper(self, net):
        result = simulate_inference(net)
        assert result.batch_size == 1
        assert result.total_time > 0

    def test_mapping_lookup(self, sim):
        mapping = sim.mapping_for("Conv2d_2b_3x3")
        assert mapping.serial_passes == 43
        with pytest.raises(SimulationError):
            sim.mapping_for("nope")


def _reference_batched(per_layer, batch_size) -> PhaseBreakdown:
    """Filters load once per batch; every other phase repeats per image."""
    per_image = PhaseBreakdown(**{
        phase: getattr(per_layer, phase)
        for phase in PHASES if phase != "filter_load"})
    return per_image.scaled(batch_size) + PhaseBreakdown(
        filter_load=per_layer.filter_load)


def _reference_run(network, config, batch_size) -> InferenceResult:
    """A batch simulated the direct way: map and schedule every layer
    afresh, then weight the phases by the batch and charge the spills."""
    layers = []
    spill_time = spill_energy = 0.0
    first_layer = True
    for node in network.layer_nodes():
        mapping = map_node(config, network, node)
        if mapping is None:
            continue
        schedule = schedule_layer(config, mapping,
                                  input_from_dram=first_layer)
        first_layer = False
        if batch_size > 1:
            schedule = LayerSchedule(
                mapping=mapping,
                time=_reference_batched(schedule.time, batch_size),
                energy=_reference_batched(schedule.energy, batch_size),
                compute_cycles_per_pass=schedule.compute_cycles_per_pass)
            overflow = (batch_size * mapping.output_bytes
                        - config.output_buffer_bytes)
            if overflow > 0:
                spill_time += config.dram.transfer_time(2.0 * overflow)
                spill_energy += config.dram.transfer_energy(2.0 * overflow)
        layers.append(LayerResult(name=node.name, group=node.group,
                                  schedule=schedule))
    return InferenceResult(layers=tuple(layers), batch_size=batch_size,
                           spill_time=spill_time, spill_energy=spill_energy)


class TestScheduleOnce:
    """Each layer is scheduled once per simulator; batch sizes re-weight
    the cached schedules (Sec. IV-E) with the same floats."""

    def test_each_layer_scheduled_once(self, net, monkeypatch):
        calls = []
        real = executor.schedule_layer

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(executor, "schedule_layer", counting)
        sim = NeuralCacheSimulator(net)
        assert calls == []  # construction maps; scheduling waits for use
        sim.run(1)
        sim.run(8)
        for batch_size in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            sim.throughput(batch_size)
        sim.run(4).breakdown()
        assert len(calls) == len(sim.mappings)

    @pytest.mark.parametrize("model", ["inception-v3", "resnet-tiny",
                                       "vgg-tiny"])
    def test_matches_fresh_schedules_exactly(self, model):
        network = model_zoo()[model]
        for geometry in capacity_sweep():
            config = NeuralCacheConfig().with_geometry(geometry)
            sim = NeuralCacheSimulator(network, config)
            for batch_size in (1, 2, 7, 64, 256):
                reference = _reference_run(network, config, batch_size)
                assert sim.run(batch_size) == reference
                assert sim.throughput(batch_size) == (
                    config.sockets * batch_size / reference.total_time)
