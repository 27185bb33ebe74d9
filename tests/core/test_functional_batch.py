"""Batch-in-fleet execution: a batched pass must be indistinguishable
from the per-image loop.

The batch dimension folds into the fleet's array axis
(``batch * arrays_per_image`` arrays, arrays aligned to image
boundaries), so for every layer type, every batch size and both plane
stores, ``run_batch`` must produce bit-exact outputs AND an identical
cycle report to looping ``run`` — batching changes wall-clock, not
modeled cycles. Chunked cases (the batched fleet exceeding
``MAX_FLEET_ARRAYS``) are covered explicitly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.core import functional
from repro.core.functional import (
    CycleReport,
    FunctionalAdd,
    FunctionalAvgPool,
    FunctionalBatchNorm,
    FunctionalConv,
    FunctionalExecutor,
    FunctionalMaxPool,
)
from repro.nn import (
    AvgPool,
    Conv2D,
    MaxPool,
    Network,
    QuantizedTensor,
    initialise_weights,
)
from repro.nn.tensor import QuantParams

RNG = np.random.default_rng(77)

BATCH_SIZES = [1, 3, 8]
#: A ``MAX_FLEET_ARRAYS`` that chunks fleets after 2 arrays: any batch > 1
#: straddles chunk boundaries, so ragged chunking is exercised on every
#: stage.
TINY_CHUNKS = 2


def conv_case(conv, shape, seed=0):
    net = Network(name="batch-case")
    x = net.add_input("in", shape)
    net.add("c", conv, x)
    weights = initialise_weights(net, seed=seed)
    return (lambda packed: FunctionalConv(
                conv, shape, weights.for_node("c"),
                output_params=weights.activation_params, packed=packed),
            weights.input_params)


def images_for(shape, params, batch, seed=1):
    rng = np.random.default_rng(seed)
    return [QuantizedTensor.from_real(rng.uniform(0, 6, shape), params)
            for _ in range(batch)]


def assert_batched_matches_loop(make_engine, images, run_batch, run_one):
    """Core property: fresh-engine batched pass == fresh-engine loop."""
    batched_engine = make_engine()
    batched_out = run_batch(batched_engine, images)
    loop_engine = make_engine()
    loop_out = [run_one(loop_engine, image) for image in images]
    for got, want in zip(batched_out, loop_out):
        assert np.array_equal(got.data, want.data)
        assert got.params == want.params
    assert batched_engine.report == loop_engine.report
    return batched_engine.report


def _repeated(report: CycleReport, n_images: int) -> CycleReport:
    """``report`` summed once per image: the batch total of ``n_images``
    dense passes whose per-image report is ``report``."""
    total = CycleReport()
    for _ in range(n_images):
        total = total.merged(report)
    return total


CONV_VARIANTS = [
    (Conv2D(8, (3, 3), padding="same"), (8, 8, 8)),       # plain + ReLU
    (Conv2D(6, (1, 1)), (5, 5, 24)),                      # packed 1x1
    (Conv2D(2, (5, 5), padding="valid"), (8, 8, 4)),      # split filters
    (Conv2D(4, (3, 3), stride=2, padding="valid"), (7, 7, 5)),
    (Conv2D(4, (3, 3), relu=False), (6, 6, 4)),           # host requant
]


class TestConvBatched:
    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("conv,shape", CONV_VARIANTS)
    def test_every_variant_matches_loop(self, conv, shape, packed):
        make, params = conv_case(conv, shape)
        images = images_for(shape, params, batch=3)
        assert_batched_matches_loop(
            lambda: make(packed), images,
            lambda e, xs: e.run_batch(xs), lambda e, x: e.run(x))

    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_batch_sizes(self, batch, packed):
        conv, shape = CONV_VARIANTS[0]
        make, params = conv_case(conv, shape)
        images = images_for(shape, params, batch=batch)
        report = assert_batched_matches_loop(
            lambda: make(packed), images,
            lambda e, xs: e.run_batch(xs), lambda e, x: e.run(x))
        # Data-independent sequences: the batch total is exactly the
        # per-image report summed once per image of the batch.
        single = make(packed)
        single.run(images[0])
        assert _repeated(single.report, batch) == report

    @pytest.mark.parametrize("packed", [False, True])
    def test_chunked_batch_matches_unchunked(self, packed, monkeypatch):
        """batch * arrays_per_image > MAX_FLEET_ARRAYS: the batched fleet
        splits into many ragged chunks, observably changing nothing."""
        conv, shape = CONV_VARIANTS[0]
        make, params = conv_case(conv, shape)
        images = images_for(shape, params, batch=3)
        full = make(packed)
        full_out = full.run_batch(images)
        monkeypatch.setattr(functional, "MAX_FLEET_ARRAYS", TINY_CHUNKS)
        tiny = make(packed)
        tiny_out = tiny.run_batch(images)
        for got, want in zip(tiny_out, full_out):
            assert np.array_equal(got.data, want.data)
        assert tiny.report == full.report

    def test_empty_batch_rejected(self):
        make, _ = conv_case(*CONV_VARIANTS[0])
        with pytest.raises(SimulationError, match="at least one image"):
            make(False).run_batch([])

    def test_mixed_params_rejected(self):
        conv, shape = CONV_VARIANTS[0]
        make, params = conv_case(conv, shape)
        images = images_for(shape, params, batch=2)
        other = QuantizedTensor(images[1].data,
                                QuantParams(params.scale * 2,
                                            params.zero_point))
        with pytest.raises(SimulationError, match="share quantization"):
            make(False).run_batch([images[0], other])


class TestPoolBatched:
    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_maxpool(self, batch, packed):
        shape = (7, 7, 3)
        pool = MaxPool(kernel=(3, 3), stride=1, padding="same")
        params = QuantParams(scale=0.05, zero_point=9)
        images = [QuantizedTensor(
                      RNG.integers(0, 256, shape).astype(np.uint8), params)
                  for _ in range(batch)]
        assert_batched_matches_loop(
            lambda: FunctionalMaxPool(pool, shape, packed=packed), images,
            lambda e, xs: e.run_batch(xs), lambda e, x: e.run(x))

    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_avgpool(self, batch, packed):
        shape = (8, 8, 2)
        pool = AvgPool(kernel=(3, 3), stride=2, padding="same")
        params = QuantParams(scale=0.05, zero_point=9)
        images = [QuantizedTensor(
                      RNG.integers(0, 256, shape).astype(np.uint8), params)
                  for _ in range(batch)]
        assert_batched_matches_loop(
            lambda: FunctionalAvgPool(pool, shape, packed=packed), images,
            lambda e, xs: e.run_batch(xs), lambda e, x: e.run(x))

    @pytest.mark.parametrize("packed", [False, True])
    def test_maxpool_chunked(self, packed, monkeypatch):
        shape = (7, 7, 3)
        pool = MaxPool(kernel=(2, 2), stride=2, padding="valid")
        params = QuantParams(scale=0.05, zero_point=9)
        images = [QuantizedTensor(
                      RNG.integers(0, 256, shape).astype(np.uint8), params)
                  for _ in range(4)]
        full = FunctionalMaxPool(pool, shape, packed=packed)
        full_out = full.run_batch(images)
        monkeypatch.setattr(functional, "MAX_FLEET_ARRAYS", TINY_CHUNKS)
        tiny = FunctionalMaxPool(pool, shape, packed=packed)
        tiny_out = tiny.run_batch(images)
        for got, want in zip(tiny_out, full_out):
            assert np.array_equal(got.data, want.data)
        assert tiny.report == full.report


class TestAddAndBnBatched:
    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_add(self, batch, relu, packed):
        shape = (5, 5, 4)
        params = QuantParams(scale=0.05, zero_point=12)
        a_list = [QuantizedTensor(
                      RNG.integers(0, 256, shape).astype(np.uint8), params)
                  for _ in range(batch)]
        b_list = [QuantizedTensor(
                      RNG.integers(0, 256, shape).astype(np.uint8), params)
                  for _ in range(batch)]
        batched = FunctionalAdd(shape, relu=relu, packed=packed)
        batched_out = batched.run_batch(a_list, b_list)
        loop = FunctionalAdd(shape, relu=relu, packed=packed)
        loop_out = [loop.run(a, b) for a, b in zip(a_list, b_list)]
        for got, want in zip(batched_out, loop_out):
            assert np.array_equal(got.data, want.data)
        assert batched.report == loop.report

    def test_add_batch_length_mismatch_rejected(self):
        shape = (3, 3, 2)
        params = QuantParams(scale=0.05, zero_point=12)
        ts = [QuantizedTensor(
                  RNG.integers(0, 256, shape).astype(np.uint8), params)
              for _ in range(3)]
        with pytest.raises(SimulationError, match="operand batches"):
            FunctionalAdd(shape).run_batch(ts[:2], ts)

    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_batchnorm(self, batch, relu, packed):
        from repro.nn.reference import BnWeights

        shape = (5, 5, 6)
        rng = np.random.default_rng(3)
        bn = BnWeights(
            multiplier=rng.integers(1 << 10, 1 << 14, 6, dtype=np.int64),
            bias=rng.integers(-(1 << 20), 1 << 20, 6, dtype=np.int64),
            shift=12)
        params = QuantParams(scale=0.02, zero_point=10)
        images = [QuantizedTensor(
                      RNG.integers(0, 256, shape).astype(np.uint8), params)
                  for _ in range(batch)]
        batched = FunctionalBatchNorm(shape, bn, relu=relu, zp_out=30,
                                      packed=packed)
        batched_out = batched.run_batch(images)
        loop = FunctionalBatchNorm(shape, bn, relu=relu, zp_out=30,
                                   packed=packed)
        loop_out = [loop.run(x) for x in images]
        for got, want in zip(batched_out, loop_out):
            assert np.array_equal(got.data, want.data)
        assert batched.report == loop.report


class TestExecutorBatched:
    def _mini_net(self):
        """Conv, branch, avg/max pooling, concat and an FC head."""
        from repro.nn import Concat, FullyConnected

        net = Network(name="mini-batch")
        x = net.add_input("in", (8, 8, 4))
        x = net.add("stem", Conv2D(8, (3, 3), padding="same"), x)
        b0 = net.add("b0", Conv2D(4, (1, 1)), x)
        b1 = net.add("pool", AvgPool((3, 3), stride=1, padding="same"), x)
        b1 = net.add("b1", Conv2D(4, (1, 1)), b1)
        x = net.add("cat", Concat(), (b0, b1))
        x = net.add("mp", MaxPool((2, 2), stride=2, padding="valid"), x)
        x = net.add("gap", AvgPool((4, 4), stride=1, padding="valid"), x)
        net.add("fc", FullyConnected(5), x)
        return net

    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_run_batch_matches_run_loop(self, batch, packed):
        net = self._mini_net()
        weights = initialise_weights(net, seed=11)
        images = images_for((8, 8, 4), weights.input_params, batch, seed=5)
        batched = FunctionalExecutor(net, weights, packed=packed)
        results = batched.run_batch(images)
        batched_total = batched.total_report()
        loop = FunctionalExecutor(net, weights, packed=packed)
        total = CycleReport()
        for i, image in enumerate(images):
            outs = loop.run(image)
            total = total.merged(loop.total_report())
            for name, tensor in outs.items():
                assert np.array_equal(results[name][i].data, tensor.data), \
                    name
        assert batched_total == total

    def test_chunked_executor_matches(self, monkeypatch):
        net = self._mini_net()
        weights = initialise_weights(net, seed=11)
        images = images_for((8, 8, 4), weights.input_params, 3, seed=5)
        full = FunctionalExecutor(net, weights)
        out = net.output_name
        full_out = full.run_batch(images)[out]
        monkeypatch.setattr(functional, "MAX_FLEET_ARRAYS", TINY_CHUNKS)
        tiny = FunctionalExecutor(net, weights)
        tiny_out = tiny.run_batch(images)[out]
        for got, want in zip(tiny_out, full_out):
            assert np.array_equal(got.data, want.data)
        assert full.total_report() == tiny.total_report()

    def test_empty_batch_rejected(self):
        net = self._mini_net()
        weights = initialise_weights(net)
        with pytest.raises(SimulationError, match="at least one image"):
            FunctionalExecutor(net, weights).run_batch([])


class TestCycleReportScaled:
    """A batch's cycle total is the per-image report once per image."""

    def test_batched_pass_never_double_counts(self):
        """Regression: a batched pass reports exactly the per-image
        report once per image — merging per-image totals again would
        double-count."""
        conv, shape = CONV_VARIANTS[0]
        make, params = conv_case(conv, shape)
        images = images_for(shape, params, batch=4)
        batched = make(False)
        batched.run_batch(images)
        single = make(False)
        single.run(images[0])
        assert batched.report == _repeated(single.report, 4)
        assert batched.report != _repeated(single.report, 8)


@given(st.integers(min_value=0, max_value=2**31),
       st.integers(min_value=1, max_value=5),
       st.booleans())
@settings(max_examples=10, deadline=None)
def test_batched_conv_property(seed, batch, packed):
    """Random weights/images, any batch, either store: the batched pass
    is indistinguishable from the per-image loop."""
    conv = Conv2D(4, (3, 3), padding="same")
    shape = (6, 6, 3)
    net = Network(name="prop-batch")
    x = net.add_input("in", shape)
    net.add("c", conv, x)
    weights = initialise_weights(net, seed=seed % (2**32))
    rng = np.random.default_rng(seed)
    images = [QuantizedTensor.from_real(rng.uniform(0, 6, shape),
                                        weights.input_params)
              for _ in range(batch)]

    def make():
        return FunctionalConv(conv, shape, weights.for_node("c"),
                              output_params=weights.activation_params,
                              packed=packed)

    batched = make()
    batched_out = batched.run_batch(images)
    loop = make()
    loop_out = [loop.run(image) for image in images]
    for got, want in zip(batched_out, loop_out):
        assert np.array_equal(got.data, want.data)
    assert batched.report == loop.report
