"""Stacked conv fleets: consecutive skip-equivalent chunks run as one.

A conv layer's arrays split into chunks of at most ``MAX_FLEET_ARRAYS``;
each chunk is one sparsity skip domain. Consecutive chunks whose skip
signatures agree run as one lockstep fleet of up to
``FLEET_BYTE_BUDGET`` packed bytes per wordline. These tests pin that
stacking is unobservable — outputs and per-layer cycle reports, skipped
and dense-equivalent cycles included, equal one fleet per chunk
(``FLEET_BYTE_BUDGET = 0``) — and that a fleet never mixes signatures
or outgrows its budgets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bits import packed_bytes, packed_planes_to_ints
from repro.config import NeuralCacheConfig
from repro.core import functional
from repro.core.functional import FunctionalConv, FunctionalExecutor
from repro.nn import (
    AvgPool,
    Conv2D,
    FullyConnected,
    Network,
    QuantizedTensor,
    ReferenceExecutor,
    initialise_weights,
)
from repro.nn.models import spanning_config


def span_net() -> Network:
    """A 1x1 conv whose 64 packed lanes span four 16-column arrays
    under :func:`spanning_config`, then a pooled FC head."""
    net = Network(name="stack-span")
    x = net.add_input("in", (2, 2, 256))
    x = net.add("c", Conv2D(8, (1, 1)), x)
    x = net.add("gap", AvgPool((2, 2), padding="valid"), x)
    net.add("fc", FullyConnected(4), x)
    return net


def plain_net() -> Network:
    """Two single-array convs under the default geometry."""
    net = Network(name="stack-plain")
    x = net.add_input("in", (6, 6, 4))
    x = net.add("c1", Conv2D(4, (3, 3), padding="same"), x)
    net.add("c2", Conv2D(8, (1, 1)), x)
    return net


NETWORKS = {
    "spanning": (span_net, spanning_config),
    "default": (plain_net, NeuralCacheConfig),
}

#: How one image of a stream is drawn: all zeros, magnitudes capped at a
#: power of two minus one, or full-range random bytes.
image_kinds = st.one_of(
    st.just(("zero", 0)),
    st.tuples(st.just("capped"), st.sampled_from([1, 3, 15, 63])),
    st.just(("random", 255)),
)


def stream(net, weights, kinds, seed):
    rng = np.random.default_rng(seed)
    return [QuantizedTensor(rng.integers(0, cap + 1, net.input_shape,
                                         dtype=np.uint8),
                            weights.input_params)
            for _, cap in kinds]


def run(net, weights, config, images, sparsity):
    executor = FunctionalExecutor(net, weights, config=config, packed=True,
                                  sparsity=sparsity)
    outputs = executor.run_batch(images)
    return outputs, dict(executor.reports)


@settings(max_examples=24, deadline=None)
@given(network=st.sampled_from(sorted(NETWORKS)),
       kinds=st.lists(image_kinds, min_size=1, max_size=4),
       sparsity=st.booleans(),
       max_arrays=st.sampled_from([2, 4, 8, None]),
       seed=st.integers(0, 2**16))
def test_stacked_fleets_match_one_fleet_per_chunk(network, kinds, sparsity,
                                                  max_arrays, seed):
    build, make_config = NETWORKS[network]
    net = build()
    config = make_config()
    weights = initialise_weights(net, seed=seed % 7)
    images = stream(net, weights, kinds, seed)

    with pytest.MonkeyPatch.context() as mp:
        if max_arrays is not None:
            mp.setattr(functional, "MAX_FLEET_ARRAYS", max_arrays)
        stacked_out, stacked_reports = run(net, weights, config, images,
                                           sparsity)
        mp.setattr(functional, "FLEET_BYTE_BUDGET", 0)
        chunk_out, chunk_reports = run(net, weights, config, images,
                                       sparsity)

    assert stacked_reports == chunk_reports
    for name, report in stacked_reports.items():
        assert report.skipped == chunk_reports[name].skipped
        assert report.dense_cycles == chunk_reports[name].dense_cycles
    for name, tensors in chunk_out.items():
        for got, want in zip(stacked_out[name], tensors):
            assert np.array_equal(got.data, want.data), name
    golden = ReferenceExecutor(net, weights)
    for image, got in zip(images, stacked_out[net.output_name]):
        assert np.array_equal(got.data, golden.run_output(image).data)


def signature(filter_plane, input_plane):
    """One chunk's skip signature, recomputed independently: per tap, the
    OR of its input bytes and whether any product is nonzero."""
    ors = np.bitwise_or.reduce(input_plane, axis=(0, 2))
    products = ((filter_plane.astype(np.int64) * input_plane) != 0).any(
        axis=(0, 2))
    return tuple(ors.tolist()), tuple(products.tolist())


def word_planes(words, index, cols):
    """The ``(arrays, taps, cols)`` bytes a fleet loads from a
    ``(taps * 8, n, n_words)`` word table at ``index``."""
    taps = words.shape[0] // 8
    picked = words[:, index].reshape(taps, 8, len(index), -1)
    return packed_planes_to_ints(picked.transpose(1, 0, 2, 3),
                                 cols).transpose(1, 0, 2)


class FleetSpy:
    """Records the filter and input planes every conv compute fleet
    loads: on each shared-runner fleet whose program has a ``mac`` step,
    the word tables handed to ``write_words`` (filters, resident inputs)
    and to ``mac_taps`` (streamed inputs), by first row."""

    def __init__(self, mp):
        self.fleets = []
        self.loads = None            # first row -> tables, inside a fleet
        run_fleet = functional._run_fleet
        unit = functional.FleetBitSerialUnit
        write_words, mac_taps = unit.write_words, unit.mac_taps

        def spy(engine, n_arrays, layout, steps, passes=True):
            if "mac" in dict(steps):
                self.loads = {}
            try:
                return run_fleet(engine, n_arrays, layout, steps, passes)
            finally:
                if self.loads is not None:
                    cols = engine.config.geometry.array_cols
                    self.fleets.append(tuple(
                        word_planes(np.concatenate(self.loads[row]),
                                    np.arange(n_arrays), cols)
                        for row in sorted(self.loads)))
                    self.loads = None

        def load(row, words, index):
            if self.loads is not None:
                self.loads.setdefault(row, []).append(words[:, index])

        def spy_write(unit, op, words, index):
            load(op.row, words, index)
            return write_words(unit, op, words, index)

        def spy_mac(unit, a, b, taps, stride, *rest, words=None,
                    index=None):
            if words is not None:
                load(b.row, words[:taps * stride], index)
            loads, self.loads = self.loads, None   # not its per-tap loads
            try:
                return mac_taps(unit, a, b, taps, stride, *rest,
                                words=words, index=index)
            finally:
                self.loads = loads

        mp.setattr(functional, "_run_fleet", spy)
        mp.setattr(unit, "write_words", spy_write)
        mp.setattr(unit, "mac_taps", spy_mac)


def single_conv(config):
    net = Network(name="stack-unit")
    x = net.add_input("in", (2, 2, 256))
    net.add("c", Conv2D(4, (1, 1)), x)
    weights = initialise_weights(net, seed=5)
    engine = FunctionalConv(net.conv_of(net.node("c")), net.input_shape,
                            weights.for_node("c"), config, name="c",
                            output_params=weights.activation_params,
                            packed=True, sparsity=True)
    return net, weights, engine


def test_skip_runs_split_where_signatures_change():
    """Runs break exactly where a chunk's signature differs from the one
    before it. Chunks of 3 arrays x 2 taps x 4 columns; the last one is
    ragged."""
    filters = np.ones((13, 2, 4), dtype=np.uint8)
    inputs = np.zeros((13, 2, 4), dtype=np.uint8)
    inputs[0:3] = 0x81                   # chunk 0
    # chunk 1 stays all zero
    inputs[6:9, 0] = 0x81                # chunk 2: tap 1 narrower
    inputs[6:9, 1] = 0x0F
    inputs[9, 0, 2] = 0x81               # chunk 3: one array, same ORs
    inputs[9, 1, 0] = 0x0F
    inputs[12] = inputs[9]               # chunk 4 (ragged): same again
    starts = np.array([0, 3, 6, 9, 12])

    def runs():
        return functional._skip_runs(
            functional._byte_words(filters.transpose(1, 0, 2)),
            functional._byte_words(inputs.transpose(1, 0, 2)), starts)

    assert runs() == [(0, 3), (3, 6), (6, 13)]
    # A zero filter lane changes only the product half of chunk 4's
    # signature; its input ORs are unchanged.
    filters[12, 1, 0] = 0
    assert runs() == [(0, 3), (3, 6), (6, 12), (12, 13)]


def test_fleets_never_mix_signatures():
    """One chunk per image: images of different sparsity never share a
    fleet, and consecutive images with equal signatures do."""
    net, weights, engine = single_conv(spanning_config())
    caps = [0, 15, 255, 255, 0, 0, 3]
    rng = np.random.default_rng(1)
    images = [QuantizedTensor(rng.integers(0, cap + 1, net.input_shape,
                                           dtype=np.uint8),
                              weights.input_params) for cap in caps]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functional, "MAX_FLEET_ARRAYS", 64)
        spy = FleetSpy(mp)
        engine.run_batch(images)
    per_image = 64               # 2 * 2 * 4 outputs, 4 arrays each
    assert [fp.shape[0] // per_image for fp, _ in spy.fleets] == \
        [1, 1, 2, 2, 1]
    for filter_plane, input_plane in spy.fleets:
        chunks = {signature(filter_plane[a:a + per_image],
                            input_plane[a:a + per_image])
                  for a in range(0, filter_plane.shape[0], per_image)}
        assert len(chunks) == 1


@pytest.mark.parametrize("budget", [64, 200, functional.FLEET_BYTE_BUDGET])
def test_fleets_stay_within_the_budgets(budget):
    """Dense chunks all share one signature, so only the budgets bound a
    fleet: packed bytes per wordline (two per 16-column array), whole
    chunks, and the staged elements."""
    config = spanning_config()
    net, weights, engine = single_conv(config)
    images = stream(net, weights, [("random", 255)] * 8, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functional, "MAX_FLEET_ARRAYS", 8)
        mp.setattr(functional, "FLEET_BYTE_BUDGET", budget)
        spy = FleetSpy(mp)
        engine.run_batch(images)
    sizes = [fp.shape[0] for fp, _ in spy.fleets]
    row_bytes = packed_bytes(config.geometry.array_cols)
    assert row_bytes == 2
    assert sum(sizes) == 8 * 64
    assert all(size % 8 == 0 for size in sizes)
    assert max(sizes) == min(budget // row_bytes // 8 * 8, 8 * 64)
    assert max(sizes) * row_bytes <= budget
    for filter_plane, _ in spy.fleets:
        assert filter_plane.size <= functional.GATHER_BUDGET_ELEMENTS
