"""Tests for the per-array word-line layout (Figure 10).

The mapper sizes layers with the region constants and
:func:`max_conv_filter_bytes`; the functional executor lays out its real
rows with ``repro.core.functional._conv_rows``, so the Figure 10 region
tests below pin that layout.
"""

import dataclasses

import pytest

from repro.common.errors import SimulationError
from repro.config import NeuralCacheConfig
from repro.core.functional import ConvStaging, _conv_rows
from repro.core.mapping import map_conv
from repro.nn import Conv2D, Network, initialise_weights
from repro.sram import max_conv_filter_bytes
from repro.sram.layout import (
    PARTIAL_SUM_BITS,
    REDUCTION_SEGMENT_BITS,
    SCRATCHPAD_BITS,
)

CONV_3X3 = Conv2D(8, (3, 3))
SHAPE = (8, 8, 8)


def rows_3x3():
    """The executor's regions for a plain 3x3 conv: filters, inputs,
    scratchpad, partial sums, reduction segment, input sums."""
    mapping = map_conv(NeuralCacheConfig(), "c", CONV_3X3, SHAPE)
    return _conv_rows(mapping, mapping.filter_bytes_per_bitline)


class TestConvLayout:
    def test_figure10a_regions_for_3x3(self):
        filters, inputs, scratch, partial, _, _ = rows_3x3()
        assert (filters.row, filters.nbits) == (0, 72)    # R.S x 8
        assert (inputs.row, inputs.nbits) == (72, 72)
        assert (scratch.row, scratch.nbits) == (144, SCRATCHPAD_BITS)
        assert partial.row == scratch.end
        assert partial.nbits >= PARTIAL_SUM_BITS

    def test_3x3_fits_a_256_row_array(self):
        assert rows_3x3()[-1].end <= 256

    def test_oversized_filter_rejected(self):
        # 240-row arrays still take a 9-byte filter in the mapper's
        # budget, but the executor's 3x3 layout needs all 256 rows.
        net = Network(name="tall")
        x = net.add_input("in", SHAPE)
        net.add("c", CONV_3X3, x)
        weights = initialise_weights(net, seed=0)
        base = NeuralCacheConfig()
        short = base.with_geometry(
            dataclasses.replace(base.geometry, array_rows=240))
        with pytest.raises(SimulationError, match="needs 256 rows, but an array has 240"):
            ConvStaging.compile(CONV_3X3, SHAPE, weights.for_node("c"),
                                short, "c")


class TestReductionLayout:
    def test_figure10b_regions(self):
        _, _, _, partial, segment, xsum = rows_3x3()
        assert (segment.row, segment.nbits) == (partial.end,
                                                REDUCTION_SEGMENT_BITS)
        assert xsum.row == segment.end

    def test_reduction_after_conv_keeps_filters_and_inputs(self):
        # The reduction regions sit below the filters and inputs, which
        # stay resident for the next batch (Sec. IV-E).
        filters, inputs, _, partial, segment, xsum = rows_3x3()
        for region in (partial, segment, xsum):
            assert not region.overlaps(filters)
            assert not region.overlaps(inputs)


class TestFilterCeiling:
    def test_max_filter_bytes_is_eleven(self):
        """With 256 rows, filters + inputs + fixed regions cap R'.S' at 11
        bytes — which is why the paper splits filters above 9 bytes."""
        assert max_conv_filter_bytes(256) == 11

    def test_paper_split_threshold_fits(self):
        assert 9 <= max_conv_filter_bytes(256)

    def test_smaller_arrays_have_smaller_ceilings(self):
        assert max_conv_filter_bytes(128) < max_conv_filter_bytes(256)
