"""Bit-exact equivalence: the in-cache functional path vs the golden
executor. This is the reproduction's analogue of the paper's simulator
verification against instrumented TensorFlow traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.core.functional import (
    MAX_FUNCTIONAL_TAPS,
    CycleReport,
    FunctionalAvgPool,
    FunctionalConv,
    FunctionalExecutor,
    FunctionalMaxPool,
)
from repro.nn import (
    AvgPool,
    Concat,
    Conv2D,
    FullyConnected,
    MaxPool,
    Network,
    QuantizedTensor,
    ReferenceExecutor,
    initialise_weights,
)
from repro.nn.reference import avgpool_quantized, maxpool_quantized

RNG = np.random.default_rng(2024)


def single_conv_case(conv: Conv2D, input_shape, seed=0):
    net = Network(name="case")
    x = net.add_input("in", input_shape)
    net.add("c", conv, x)
    weights = initialise_weights(net, seed=seed)
    image = QuantizedTensor.from_real(
        RNG.uniform(0, 6, input_shape), weights.input_params)
    reference = ReferenceExecutor(net, weights).run_output(image)
    engine = FunctionalConv(conv, input_shape, weights.for_node("c"),
                            output_params=weights.activation_params)
    return engine, image, reference


class TestConvEquivalence:
    @pytest.mark.parametrize("kernel,padding,stride", [
        ((3, 3), "same", 1),
        ((3, 3), "valid", 1),
        ((3, 3), "valid", 2),
        ((1, 3), "same", 1),
        ((3, 1), "same", 1),
        ((2, 2), "valid", 2),
    ])
    def test_plain_convolutions(self, kernel, padding, stride):
        conv = Conv2D(4, kernel, stride=stride, padding=padding)
        engine, image, reference = single_conv_case(conv, (7, 7, 5))
        got = engine.run(image)
        assert np.array_equal(got.data, reference.data)

    def test_packed_1x1(self):
        conv = Conv2D(6, (1, 1))
        engine, image, reference = single_conv_case(conv, (5, 5, 24))
        assert engine.mapping.pack_factor == 16
        got = engine.run(image)
        assert np.array_equal(got.data, reference.data)

    def test_packed_1x1_exact_multiple(self):
        conv = Conv2D(3, (1, 1))
        engine, image, reference = single_conv_case(conv, (4, 4, 32))
        got = engine.run(image)
        assert np.array_equal(got.data, reference.data)

    def test_split_5x5(self):
        conv = Conv2D(2, (5, 5), padding="valid")
        engine, image, reference = single_conv_case(conv, (8, 8, 4))
        assert engine.mapping.split_factor == 3
        got = engine.run(image)
        assert np.array_equal(got.data, reference.data)

    def test_split_7x7(self):
        conv = Conv2D(2, (7, 7), padding="same")
        engine, image, reference = single_conv_case(conv, (8, 8, 2))
        assert engine.mapping.split_factor > 1
        got = engine.run(image)
        assert np.array_equal(got.data, reference.data)

    def test_no_relu_host_requant(self):
        conv = Conv2D(4, (3, 3), relu=False)
        engine, image, reference = single_conv_case(conv, (6, 6, 4))
        got = engine.run(image)
        assert np.array_equal(got.data, reference.data)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_weight_seeds(self, seed):
        conv = Conv2D(5, (3, 3))
        engine, image, reference = single_conv_case(conv, (6, 6, 4),
                                                    seed=seed)
        got = engine.run(image)
        assert np.array_equal(got.data, reference.data)

    def test_cycle_report_populated(self):
        conv = Conv2D(4, (3, 3))
        engine, image, _ = single_conv_case(conv, (6, 6, 4))
        engine.run(image)
        assert engine.report.mac > 0
        assert engine.report.reduction > 0
        assert engine.report.quantization > 0
        assert engine.report.passes > 0

    def test_mac_cycles_match_derived_cost_model(self):
        """Functional MAC cycles per pass equal the analytic formula."""
        from repro.sram.cost import CycleCosts
        costs = CycleCosts.derived()
        conv = Conv2D(4, (3, 3))
        engine, image, _ = single_conv_case(conv, (6, 6, 4))
        engine.run(image)
        taps = engine.mapping.filter_bytes_per_bitline
        per_pass = taps * (costs.mac(8, 24) + costs.add_into(24))
        assert engine.report.mac == engine.report.passes * per_pass

    def test_shape_validation(self):
        conv = Conv2D(4, (3, 3))
        engine, _, _ = single_conv_case(conv, (6, 6, 4))
        bad = QuantizedTensor.from_real(RNG.uniform(0, 6, (5, 5, 4)))
        with pytest.raises(SimulationError):
            engine.run(bad)

    def test_oversized_layer_rejected(self):
        conv = Conv2D(4, (3, 3))
        net = Network(name="big")
        x = net.add_input("in", (8, 8, 64))  # 3*3*64 = 576 taps
        net.add("c", conv, x)
        weights = initialise_weights(net)
        assert 3 * 3 * 64 > MAX_FUNCTIONAL_TAPS
        with pytest.raises(SimulationError):
            FunctionalConv(conv, (8, 8, 64), weights.for_node("c"))


class TestFleetLegacyParity:
    """The fleet path still computes what the removed one-array-at-a-time
    path did, on the five conv shapes the two were compared on: plain,
    packed 1x1, split filter, stride 2 and host requant. Outputs are
    checked against the golden executor, cycle reports against the
    reports both paths produced (recorded when they agreed)."""

    @pytest.mark.parametrize("conv,shape,report", [
        (Conv2D(4, (3, 3), padding="same"), (6, 6, 4),         # plain
         CycleReport(mac=3861, reduction=600, quantization=1436,
                     passes=3)),
        (Conv2D(6, (1, 1)), (5, 5, 24),                        # packed 1x1
         CycleReport(mac=4576, reduction=196, quantization=1436,
                     passes=2)),
        (Conv2D(2, (5, 5), padding="valid"), (8, 8, 4),        # split
         CycleReport(mac=2574, reduction=832, quantization=1445,
                     passes=2)),
        (Conv2D(4, (3, 3), stride=2, padding="valid"), (7, 7, 5),
         CycleReport(mac=2574, reduction=612, quantization=1436,
                     passes=2)),
        (Conv2D(4, (3, 3), relu=False), (6, 6, 4),             # host requant
         CycleReport(mac=3861, reduction=600, quantization=439,
                     passes=3)),
    ], ids=[f"conv{i}-shape{i}" for i in range(5)])
    def test_vectorized_matches_legacy(self, conv, shape, report):
        net = Network(name="parity")
        x = net.add_input("in", shape)
        net.add("c", conv, x)
        weights = initialise_weights(net, seed=9)
        image = QuantizedTensor.from_real(
            np.random.default_rng(9).uniform(0, 6, shape),
            weights.input_params)
        engine = FunctionalConv(conv, shape, weights.for_node("c"),
                                output_params=weights.activation_params)
        got = engine.run(image)
        expected = ReferenceExecutor(net, weights).run_output(image)
        assert np.array_equal(got.data, expected.data)
        assert engine.report == report

    def test_chunked_fleet_matches_unchunked(self, monkeypatch):
        """Memory-bounded chunking changes nothing observable."""
        import repro.core.functional as functional_module

        conv = Conv2D(4, (3, 3), padding="same")
        engine, image, reference = single_conv_case(conv, (6, 6, 4))
        full = engine.run(image)
        monkeypatch.setattr(functional_module, "MAX_FLEET_ARRAYS", 2)
        chunked_engine, _, _ = single_conv_case(conv, (6, 6, 4))
        chunked = chunked_engine.run(image)
        assert np.array_equal(chunked.data, full.data)
        assert np.array_equal(chunked.data, reference.data)
        assert chunked_engine.report == engine.report


class TestPoolEquivalence:
    @pytest.mark.parametrize("kernel,stride,padding", [
        ((2, 2), 2, "valid"),
        ((3, 3), 1, "same"),
        ((3, 3), 2, "valid"),
    ])
    def test_maxpool(self, kernel, stride, padding):
        pool = MaxPool(kernel=kernel, stride=stride, padding=padding)
        data = RNG.integers(0, 256, (7, 7, 3)).astype(np.uint8)
        x = QuantizedTensor(data, initialise_weights(
            _pool_net(pool, (7, 7, 3))).input_params)
        engine = FunctionalMaxPool(pool, (7, 7, 3))
        got = engine.run(x)
        expected = maxpool_quantized(data, kernel, stride, padding)
        assert np.array_equal(got.data, expected)
        assert engine.report.pooling > 0

    @pytest.mark.parametrize("kernel,stride,padding", [
        ((2, 2), 2, "valid"),
        ((3, 3), 1, "same"),
        ((4, 4), 1, "valid"),
    ])
    def test_avgpool(self, kernel, stride, padding):
        pool = AvgPool(kernel=kernel, stride=stride, padding=padding)
        data = RNG.integers(0, 256, (8, 8, 2)).astype(np.uint8)
        x = QuantizedTensor(data, initialise_weights(
            _pool_net(pool, (8, 8, 2))).input_params)
        engine = FunctionalAvgPool(pool, (8, 8, 2))
        got = engine.run(x)
        expected = avgpool_quantized(data, kernel, stride, padding)
        assert np.array_equal(got.data, expected)

    @pytest.mark.parametrize("size", [16, 17])
    def test_avgpool_window_sum_fits_its_accumulator(self, size):
        """A 17x17 window of 255s sums to 73,695, past 16 bits: the
        window-sum accumulator widens with the window instead of
        wrapping (a 16-bit one returned 28). 16x16 (256 taps) is the
        last window a 16-bit accumulator holds."""
        shape = (size, size, 2)
        pool = AvgPool(kernel=(size, size), padding="valid")
        net = _pool_net(pool, shape)
        weights = initialise_weights(net)
        golden = ReferenceExecutor(net, weights)
        for data in (np.full(shape, 255, dtype=np.uint8),
                     RNG.integers(0, 256, shape).astype(np.uint8)):
            x = QuantizedTensor(data, weights.input_params)
            got = FunctionalAvgPool(pool, shape).run(x)
            assert np.array_equal(got.data, golden.run_output(x).data)
        full = QuantizedTensor(np.full(shape, 255, dtype=np.uint8),
                               weights.input_params)
        assert (FunctionalAvgPool(pool, shape).run(full).data == 255).all()


def _pool_net(pool, shape):
    net = Network(name="p")
    x = net.add_input("in", shape)
    net.add("pool", pool, x)
    return net


class TestEndToEnd:
    def make_inception_like(self):
        """A miniature network exercising every layer type the real
        Inception v3 uses: stem convs, a branching mixed module with
        packing and splitting, pooling and an FC head."""
        net = Network(name="mini-inception")
        x = net.add_input("in", (12, 12, 3))
        x = net.add("stem1", Conv2D(8, (3, 3), stride=2, padding="valid"), x)
        x = net.add("stem2", Conv2D(16, (3, 3), padding="same"), x)
        b0 = net.add("mix/b0", Conv2D(4, (1, 1)), x)
        b1 = net.add("mix/b1a", Conv2D(4, (1, 1)), x)
        b1 = net.add("mix/b1b", Conv2D(6, (5, 5), padding="same"), b1)
        b2 = net.add("mix/pool", AvgPool((3, 3), stride=1, padding="same"), x)
        b2 = net.add("mix/b2", Conv2D(4, (1, 1)), b2)
        x = net.add("mix/concat", Concat(), (b0, b1, b2))
        x = net.add("mp", MaxPool((3, 3), stride=2, padding="valid"), x)
        x = net.add("gap", AvgPool((2, 2), stride=1, padding="valid"), x)
        net.add("fc", FullyConnected(10), x)
        return net

    def test_full_network_bit_exact(self):
        net = self.make_inception_like()
        weights = initialise_weights(net, seed=7)
        image = QuantizedTensor.from_real(
            RNG.uniform(0, 6, (12, 12, 3)), weights.input_params)
        reference = ReferenceExecutor(net, weights).run(image)
        executor = FunctionalExecutor(net, weights)
        got = executor.run(image)
        for node in net.layer_nodes():
            assert np.array_equal(got[node.name].data,
                                  reference[node.name].data), node.name

    def test_reports_for_every_compute_node(self):
        net = self.make_inception_like()
        weights = initialise_weights(net, seed=7)
        image = QuantizedTensor.from_real(
            RNG.uniform(0, 6, (12, 12, 3)), weights.input_params)
        executor = FunctionalExecutor(net, weights)
        executor.run(image)
        compute_nodes = {n.name for n in net.layer_nodes()
                         if not n.name.endswith("concat")}
        assert compute_nodes == set(executor.reports)
        total = executor.total_report()
        assert total.mac > 0
        assert total.pooling > 0

    def test_input_shape_checked(self):
        net = self.make_inception_like()
        weights = initialise_weights(net)
        bad = QuantizedTensor.from_real(RNG.uniform(0, 6, (5, 5, 3)),
                                        weights.input_params)
        with pytest.raises(SimulationError):
            FunctionalExecutor(net, weights).run(bad)


@given(st.integers(min_value=0, max_value=2**31),
       st.integers(min_value=2, max_value=9),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=15, deadline=None)
def test_conv_equivalence_property(seed, size, channels, out_channels):
    """Random geometry + random weights: functional == golden, always."""
    conv = Conv2D(out_channels, (3, 3), padding="same")
    net = Network(name="prop")
    x = net.add_input("in", (size, size, channels))
    net.add("c", conv, x)
    weights = initialise_weights(net, seed=seed % (2**32))
    rng = np.random.default_rng(seed)
    image = QuantizedTensor.from_real(
        rng.uniform(0, 6, (size, size, channels)), weights.input_params)
    reference = ReferenceExecutor(net, weights).run_output(image)
    engine = FunctionalConv(conv, (size, size, channels),
                            weights.for_node("c"),
                            output_params=weights.activation_params)
    got = engine.run(image)
    assert np.array_equal(got.data, reference.data)


@given(st.integers(min_value=0, max_value=2**31),
       st.sampled_from([(1, 3), (3, 1), (2, 2), (1, 5)]),
       st.sampled_from(["same", "valid"]),
       st.sampled_from([1, 2]))
@settings(max_examples=15, deadline=None)
def test_conv_equivalence_kernel_stride_property(seed, kernel, padding,
                                                 stride):
    """Asymmetric kernels, both paddings and both strides stay bit-exact."""
    size, channels = 6, 3
    if padding == "valid" and (kernel[0] > size or kernel[1] > size):
        return
    conv = Conv2D(4, kernel, stride=stride, padding=padding)
    net = Network(name="prop2")
    x = net.add_input("in", (size, size, channels))
    net.add("c", conv, x)
    weights = initialise_weights(net, seed=seed % (2**32))
    rng = np.random.default_rng(seed + 1)
    image = QuantizedTensor.from_real(
        rng.uniform(0, 6, (size, size, channels)), weights.input_params)
    reference = ReferenceExecutor(net, weights).run_output(image)
    engine = FunctionalConv(conv, (size, size, channels),
                            weights.for_node("c"),
                            output_params=weights.activation_params)
    assert np.array_equal(engine.run(image).data, reference.data)


@given(st.integers(min_value=9, max_value=30))
@settings(max_examples=10, deadline=None)
def test_packed_conv_channel_boundaries_property(channels):
    """1x1 packing across ragged channel counts (partial last lane)."""
    conv = Conv2D(3, (1, 1))
    net = Network(name="prop3")
    x = net.add_input("in", (3, 3, channels))
    net.add("c", conv, x)
    weights = initialise_weights(net, seed=channels)
    rng = np.random.default_rng(channels)
    image = QuantizedTensor.from_real(
        rng.uniform(0, 6, (3, 3, channels)), weights.input_params)
    reference = ReferenceExecutor(net, weights).run_output(image)
    engine = FunctionalConv(conv, (3, 3, channels), weights.for_node("c"),
                            output_params=weights.activation_params)
    assert np.array_equal(engine.run(image).data, reference.data)
