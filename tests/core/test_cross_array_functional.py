"""Spanning layers end-to-end: outputs whose channels exceed one array.

``inception-span`` registers a real Inception layer
(Mixed_5c/Branch_0/Conv2d_0a_1x1) under a geometry that makes each output
span four arrays, so these tests exercise the full cross-array reduction
path — mapping plan, fleet execution, chunking, sharding — gated
bit-exact against the golden NumPy reference and cycle-consistent with
the analytic schedule.
"""

import dataclasses

import numpy as np
import pytest

from repro.common.bits import packed_planes_to_ints
from repro.core import functional
from repro.core.functional import FunctionalConv, FunctionalExecutor
from repro.core.schedule import reduction_cycles_per_pass
from repro.engine.backend import FleetExecutor, deterministic_images
from repro.engine.sharding import ShardedBackend
from repro.nn import Conv2D, QuantizedTensor, ReferenceExecutor
from repro.nn.models import build_inception_span, spanning_config
from repro.sram.cost import CycleCosts

RNG = np.random.default_rng(55)

SPAN_LAYER = "Mixed_5c/Branch_0/Conv2d_0a_1x1"


@pytest.fixture(scope="module")
def net():
    return build_inception_span()


@pytest.fixture(scope="module")
def config():
    return spanning_config()


class TestSpanningMapping:
    def test_the_registered_layer_really_spans(self, net, config):
        from repro.core.mapping import map_conv
        node = net.node(SPAN_LAYER)
        mapping = map_conv(config, node.name, net.conv_of(node),
                           net.input_shape_of(node.name))
        assert mapping.arrays_per_conv == 4
        assert mapping.channels_padded == 64
        plan = mapping.reduction_plan
        assert plan.group_size == 4
        assert [h.kind for h in plan.hops] == ["pair", "bus"]


class TestBitExactOnTheFleet:
    def test_fleet_packed_verifies(self, net, config):
        result = FleetExecutor(config=config, packed=True,
                               verify=True).run(net, batch_size=2)
        assert result.verified_images == 2

    def test_fleet_unpacked_verifies(self, net, config):
        result = FleetExecutor(config=config, packed=False,
                               verify=True).run(net, batch_size=1)
        assert result.verified_images == 1

    @pytest.mark.parametrize("driver", ["serial", "pool"])
    def test_shard_drivers_never_split_a_group(self, net, config, driver):
        # Shards slice whole images, never arrays, so reduction groups
        # stay intact on every driver; results must match the unsharded
        # fleet bit for bit.
        reference = FleetExecutor(config=config, packed=True,
                                  verify=False).run(net, batch_size=3)
        sharded = ShardedBackend(config=config, shards=2,
                                 driver=driver).run(net, batch_size=3)
        got = sharded.outputs[net.output_name]
        want = reference.outputs[net.output_name]
        assert np.array_equal(got.data, want.data)


class TestGroupAlignedChunking:
    @pytest.mark.parametrize("max_arrays", [2, 4, 6, 7])
    def test_chunk_limits_keep_groups_whole(self, net, config, max_arrays,
                                            monkeypatch):
        # MAX_FLEET_ARRAYS values below or not a multiple of the span
        # must round to whole reduction groups (and at least one): any
        # split group would mix garbage into the tree and fail the
        # bit-exactness gate.
        monkeypatch.setattr(functional, "MAX_FLEET_ARRAYS", max_arrays)
        result = FleetExecutor(config=config, packed=True,
                               verify=True).run(net, batch_size=2)
        assert result.verified_images == 2

    def test_chunked_outputs_match_unchunked(self, net, config, monkeypatch):
        full = FleetExecutor(config=config, packed=True,
                             verify=False).run(net, batch_size=2)
        monkeypatch.setattr(functional, "MAX_FLEET_ARRAYS", 4)
        chunked = FleetExecutor(config=config, packed=True,
                                verify=False).run(net, batch_size=2)
        got = chunked.outputs[net.output_name]
        want = full.outputs[net.output_name]
        assert np.array_equal(got.data, want.data)


class TestCycleConsistency:
    def test_functional_reduction_matches_analytic_schedule(self, config):
        # The functional engine executes two reduction trees per pass
        # (the MAC partials and the input-sum correction), each costed
        # exactly like the analytic reduction_cycles_per_pass under the
        # derived preset.
        derived = dataclasses.replace(config, costs=CycleCosts.derived())
        conv = Conv2D(64, (1, 1))
        shape = (4, 4, 256)
        from repro.nn import Network, initialise_weights
        net = Network(name="span-cycles")
        x = net.add_input("in", shape)
        net.add("c", conv, x)
        weights = initialise_weights(net, seed=3)
        image = QuantizedTensor.from_real(
            RNG.uniform(0, 6, shape), weights.input_params)
        engine = FunctionalConv(conv, shape, weights.for_node("c"),
                                config=derived,
                                output_params=weights.activation_params,
                                packed=True)
        assert engine.mapping.arrays_per_conv == 4
        got = engine.run(image)
        reference = ReferenceExecutor(net, weights).run_output(image)
        assert np.array_equal(got.data, reference.data)
        per_pass = reduction_cycles_per_pass(derived, engine.mapping)
        assert engine.report.reduction == engine.report.passes * 2 * per_pass


class TestExecutorIntegration:
    def test_functional_executor_runs_the_whole_model(self, net, config):
        backend = FleetExecutor(config=config, packed=True, verify=False)
        weights = backend.weights_for(net)
        image = deterministic_images(net, weights, backend.seed, 1)[0]
        executor = FunctionalExecutor(net, weights, config=config,
                                      packed=True)
        out = executor.run(image)[net.output_name]
        want = ReferenceExecutor(net, weights).run_output(image)
        assert np.array_equal(out.data, want.data)
        span_report = executor.reports[SPAN_LAYER]
        assert span_report.reduction > 0


def word_planes(words, index, cols):
    """The ``(arrays, taps, cols)`` bytes a fleet loads from a
    ``(taps * 8, n, n_words)`` word table at ``index``."""
    taps = words.shape[0] // 8
    picked = words[:, index].reshape(taps, 8, len(index), -1)
    return packed_planes_to_ints(picked.transpose(1, 0, 2, 3),
                                 cols).transpose(1, 0, 2)


class TestSpanningStaging:
    """Spanning arrays stage as indices into the batch's window words
    and the compiled filter words; the planes they load must equal the
    per-(array, lane) index gather over every group-aligned range of
    arrays, including ranges that start or end inside a row of output
    channels or an image."""

    @staticmethod
    def reference_planes(engine, windows, a0, a1, arrays_per_image, cols):
        filters = engine.staging.filters
        m = filters.shape[0]
        span = engine.mapping.arrays_per_conv
        local = np.arange(a0, a1) % arrays_per_image
        img = np.arange(a0, a1) // arrays_per_image
        out = local // span
        lane = (local % span)[:, None] * cols + np.arange(cols)[None, :]
        ivals = windows[img[:, None], (out // m)[:, None], lane]
        fvals = filters[(out % m)[:, None], lane]
        return fvals.transpose(0, 2, 1), ivals.transpose(0, 2, 1)

    @pytest.mark.parametrize("kernel,shape", [((1, 1), (3, 5, 256)),
                                              ((2, 2), (3, 4, 17))],
                             ids=["packed-1x1-span4", "2x2-span2"])
    def test_view_staging_matches_the_index_gather(self, config, kernel,
                                                   shape):
        from repro.nn import Network, initialise_weights
        conv = Conv2D(3, kernel)
        net = Network(name="span-staging")
        net.add("c", conv, net.add_input("in", shape))
        weights = initialise_weights(net, seed=5)
        engine = FunctionalConv(conv, shape, weights.for_node("c"),
                                config=config, packed=True)
        span = engine.mapping.arrays_per_conv
        assert span > 1
        cols = config.geometry.array_cols
        data = RNG.integers(0, 256, (3, *shape), dtype=np.uint8)
        windows = engine.staging.gather_windows(data, 7)
        words = engine.staging.window_words(windows)
        e, f, m = conv.output_shape(shape)
        arrays_per_image = e * f * m * span
        groups = 3 * e * f * m
        bounds = [(0, groups), (0, 1), (1, m + 2), (m, 2 * m),
                  (2, groups - 1), (e * f * m - 1, e * f * m + m + 1),
                  (groups - 1, groups)]
        for g0, g1 in bounds:
            a0, a1 = g0 * span, g1 * span
            filter_index, inputs, input_index = engine._stage_chunk(
                words, a0, a1)[:3]
            assert inputs is words
            got = (word_planes(engine.staging.filter_words, filter_index,
                               cols),
                   word_planes(inputs, input_index, cols))
            want = self.reference_planes(engine, windows, a0, a1,
                                         arrays_per_image, cols)
            assert got[0].shape == (a1 - a0, engine.plan.taps, cols)
            assert np.array_equal(got[0], want[0]), (g0, g1)
            assert np.array_equal(got[1], want[1]), (g0, g1)
