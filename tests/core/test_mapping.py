"""Tests for the data-layout engine, anchored to Sec. IV and Sec. VI-A."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bits import is_power_of_two
from repro.common.errors import MappingError
from repro.config import NeuralCacheConfig
from repro.core.mapping import (
    ReductionPlan,
    _reduction_plan,
    map_conv,
    map_network,
    map_node,
    map_pool,
)
from repro.nn import AvgPool, Conv2D, MaxPool, build_inception_v3
from repro.sram.layout import max_conv_filter_bytes

CFG = NeuralCacheConfig()


def conv_mapping(kernel, channels, out_channels=8, size=16, stride=1,
                 padding="same"):
    conv = Conv2D(out_channels=out_channels, kernel=kernel, stride=stride,
                  padding=padding)
    return map_conv(CFG, "layer", conv, (size, size, channels))


class TestWorkedExample:
    """Sec. VI-A: Conv2d_2b_3x3 of Inception v3."""

    @pytest.fixture(scope="class")
    def mapping(self):
        net = build_inception_v3()
        node = net.node("Conv2d_2b_3x3")
        return map_conv(CFG, node.name, net.conv_of(node),
                        net.input_shape_of(node.name))

    def test_parallel_convolutions_about_32k(self, mapping):
        assert mapping.parallel_outputs == 32256  # "~32 thousand"

    def test_43_serial_passes(self, mapping):
        assert mapping.serial_passes == 43

    def test_utilization_99_7_percent(self, mapping):
        assert mapping.utilization == pytest.approx(0.997, abs=0.001)

    def test_channels_not_padded(self, mapping):
        assert mapping.channels_padded == 32
        assert mapping.convs_per_array == 8


class TestFilterPacking:
    def test_1x1_packs_16_channels(self):
        mapping = conv_mapping((1, 1), channels=768)
        assert mapping.pack_factor == 16
        assert mapping.filter_bytes_per_bitline == 16
        assert mapping.effective_channels == 48
        assert mapping.channels_padded == 64

    def test_small_channel_1x1_packs_fully(self):
        mapping = conv_mapping((1, 1), channels=3)
        assert mapping.pack_factor == 3
        assert mapping.channels_padded == 1

    def test_packing_keeps_all_channels_within_two_arrays(self):
        # Sec. IV-A: "by packing all channels in the network it is
        # guaranteed to fit within 2 arrays that share sense amps".
        for channels in (64, 192, 768, 1280, 2048):
            mapping = conv_mapping((1, 1), channels=channels)
            assert mapping.arrays_per_conv <= 2

    def test_no_packing_for_multibyte_windows(self):
        assert conv_mapping((3, 3), channels=64).pack_factor == 1


class TestFilterSplitting:
    def test_5x5_splits_in_three(self):
        mapping = conv_mapping((5, 5), channels=48)
        assert mapping.split_factor == 3
        assert mapping.filter_bytes_per_bitline == 9
        assert mapping.effective_channels == 144

    def test_split_threshold_is_9_bytes(self):
        assert conv_mapping((3, 3), channels=8).split_factor == 1
        assert conv_mapping((2, 5), channels=8).split_factor == 2

    def test_split_respects_wordline_budget(self):
        budget = max_conv_filter_bytes(CFG.geometry.array_rows)
        for kernel in ((5, 5), (7, 7), (3, 9), (11, 11)):
            mapping = conv_mapping(kernel, channels=4)
            assert mapping.filter_bytes_per_bitline <= budget


class TestChannelRounding:
    @pytest.mark.parametrize("channels", [3, 17, 48, 100, 192, 300])
    def test_padded_channels_are_powers_of_two(self, channels):
        mapping = conv_mapping((3, 3), channels=channels)
        assert is_power_of_two(mapping.channels_padded)
        assert mapping.channels_padded >= mapping.effective_channels

    def test_large_channels_span_two_arrays(self):
        mapping = conv_mapping((3, 3), channels=448)
        assert mapping.channels_padded == 512
        assert mapping.arrays_per_conv == 2
        assert mapping.convs_per_array == 0
        assert mapping.cross_array_steps == 1


class TestParallelisation:
    def test_parallel_never_exceeds_work(self):
        mapping = conv_mapping((3, 3), channels=4, out_channels=2, size=4)
        assert mapping.parallel_outputs <= mapping.total_outputs
        assert mapping.serial_passes == 1

    def test_utilization_bounds(self):
        mapping = conv_mapping((3, 3), channels=32, size=64)
        assert 0 < mapping.utilization <= 1

    def test_outputs_last_pass(self):
        mapping = conv_mapping((3, 3), channels=32, out_channels=64,
                               size=147)
        expected = (mapping.total_outputs
                    - (mapping.serial_passes - 1) * mapping.parallel_outputs)
        assert mapping.outputs_last_pass == expected


class TestPoolMapping:
    def test_maxpool_has_no_filters_or_reduction(self):
        pool = MaxPool(kernel=(3, 3), stride=2, padding="valid")
        mapping = map_pool(CFG, "pool", pool, (147, 147, 64))
        assert mapping.kind == "maxpool"
        assert mapping.filter_load_bytes == 0
        assert mapping.channels_padded == 1
        assert mapping.convs_per_array == CFG.geometry.array_cols

    def test_large_avgpool_window_splits(self):
        pool = AvgPool(kernel=(8, 8), stride=1, padding="valid")
        mapping = map_pool(CFG, "pool", pool, (8, 8, 2048))
        assert mapping.kind == "avgpool"
        assert mapping.split_factor > 1
        assert mapping.filter_bytes_per_bitline <= 9


class TestNetworkMapping:
    def test_inception_maps_completely(self):
        net = build_inception_v3()
        mappings = map_network(CFG, net)
        # 95 convs + 4 max pools + 10 average pools.
        assert len(mappings) == 109
        assert all(m.arrays_per_conv <= 2 for m in mappings)
        assert all(m.serial_passes >= 1 for m in mappings)

    def test_concat_maps_to_none(self):
        net = build_inception_v3()
        node = net.node("Mixed_5b/concat")
        assert map_node(CFG, net, node) is None

    def test_degenerate_1x1x1_still_maps(self):
        mapping = map_conv(CFG, "tiny", Conv2D(1, (1, 1)), (1, 1, 1))
        assert mapping.total_outputs == 1
        assert mapping.serial_passes == 1

    def test_array_too_small_for_any_filter_rejected(self):
        # An 80-row array leaves no word lines for filters at all.
        from repro.cache.geometry import CacheGeometry
        tiny = CacheGeometry(name="tiny", array_rows=80)
        config = NeuralCacheConfig().with_geometry(tiny)
        with pytest.raises(MappingError):
            map_conv(config, "bad", Conv2D(1, (3, 3), padding="same"),
                     (8, 8, 2))

    def test_array_too_small_names_the_layer(self):
        from repro.cache.geometry import CacheGeometry
        tiny = CacheGeometry(name="tiny", array_rows=40)
        config = NeuralCacheConfig().with_geometry(tiny)
        with pytest.raises(MappingError,
                           match=r"layer 'pool1': arrays of 40 rows"):
            map_pool(config, "pool1", MaxPool((2, 2), stride=2), (8, 8, 4))


@given(st.integers(min_value=1, max_value=11),
       st.integers(min_value=1, max_value=11),
       st.integers(min_value=1, max_value=512),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=60, deadline=None)
def test_mapping_invariants_property(r, s, channels, out_channels):
    conv = Conv2D(out_channels=out_channels, kernel=(r, s), padding="same")
    mapping = map_conv(CFG, "prop", conv, (16, 16, channels))
    budget = max_conv_filter_bytes(CFG.geometry.array_rows)
    # Word-line budget holds (packed 1x1s stream inputs a byte at a time).
    if mapping.pack_factor == 1:
        assert mapping.filter_bytes_per_bitline <= budget
    assert is_power_of_two(mapping.channels_padded)
    assert mapping.parallel_outputs <= mapping.total_outputs
    assert 0 < mapping.utilization <= 1
    assert (mapping.serial_passes - 1) * mapping.parallel_outputs \
        < mapping.total_outputs
    assert (mapping.serial_passes * mapping.parallel_outputs
            >= mapping.total_outputs)


class TestReductionPlan:
    """Cross-array reduction plans: group structure and hop classes."""

    def test_single_array_layers_have_an_empty_plan(self):
        mapping = conv_mapping((3, 3), channels=32)
        assert mapping.arrays_per_conv == 1
        assert mapping.reduction_plan.group_size == 1
        assert mapping.reduction_plan.hops == ()
        assert mapping.cross_array_steps == 0

    def test_two_array_span_is_one_sense_amp_hop(self):
        mapping = conv_mapping((3, 3), channels=448)
        plan = mapping.reduction_plan
        assert plan.group_size == 2
        assert [h.kind for h in plan.hops] == ["pair"]
        assert plan.hops[0].span == 2
        assert (plan.hops[0].bits_per_cycle
                == CFG.interconnect.bank_bits_per_cycle)

    def test_hop_kinds_follow_the_interconnect_reach(self):
        # pair while the hop stays inside a sub-array (2 arrays), bus up
        # to a slice (320 arrays), ring beyond — widths straight from
        # InterconnectModel.
        plan = _reduction_plan(CFG, "wide", 1024)
        kinds = [h.kind for h in plan.hops]
        spans = [h.span for h in plan.hops]
        assert spans == [2 << level for level in range(10)]
        assert kinds == (["pair"] + ["bus"] * 7 + ["ring"] * 2)
        widths = {h.kind: h.bits_per_cycle for h in plan.hops}
        assert widths["pair"] == CFG.interconnect.bank_bits_per_cycle
        assert widths["bus"] == CFG.interconnect.quadrant_bus_bytes_per_cycle * 8
        assert widths["ring"] == CFG.interconnect.ring_bytes_per_cycle * 8

    def test_non_power_of_two_span_rejected_at_map_time(self):
        # 24-column arrays make a padded channel count of 64 span three
        # arrays — unreachable by the reduction tree.
        from repro.cache.geometry import CacheGeometry
        config = NeuralCacheConfig(pack_limit=1).with_geometry(
            CacheGeometry(name="cols24", array_cols=24))
        with pytest.raises(MappingError, match="power-of-two"):
            map_conv(config, "bad", Conv2D(8, (1, 1)), (8, 8, 64))

    def test_plan_validates_its_own_shape(self):
        from repro.core.mapping import ReductionHop
        with pytest.raises(MappingError):
            ReductionPlan(group_size=3, hops=())
        with pytest.raises(MappingError):
            ReductionPlan(group_size=4, hops=(
                ReductionHop(level=0, kind="pair", span=2,
                             bits_per_cycle=32),))

    def test_cross_array_cycles_match_the_legacy_formula(self):
        # The plan-based charge must be cycle-identical to the old
        # ``steps * (move(w) + add(w))`` accounting under both presets.
        from repro.sram.cost import CycleCosts
        width = CFG.reduction_bits
        for span in (2, 4, 16):
            plan = _reduction_plan(CFG, "span", span)
            for costs in (CycleCosts.derived(), CycleCosts.paper()):
                legacy = plan.levels * (costs.move(width) + costs.add(width))
                assert plan.cross_array_cycles(costs, width) == legacy
