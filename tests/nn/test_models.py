"""Tests for the model zoo and the element-wise Add layer."""

import numpy as np
import pytest

from repro.common.errors import ShapeError, SimulationError
from repro.config import NeuralCacheConfig
from repro.core.executor import NeuralCacheSimulator
from repro.core.functional import MAX_FUNCTIONAL_TAPS
from repro.engine.backend import get_backend
from repro.nn import (
    Add,
    QuantizedTensor,
    ReferenceExecutor,
    build_lenet5,
    build_mlp,
    build_resnet_tiny,
    build_vgg_tiny,
    initialise_weights,
    model_zoo,
)
from repro.nn.models import model_zoo_configs
from repro.nn.reference import add_quantized

RNG = np.random.default_rng(31)


class TestAddLayer:
    def test_shape_inference(self):
        assert Add().output_shape((4, 4, 8), (4, 4, 8)) == (4, 4, 8)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ShapeError):
            Add().output_shape((4, 4, 8), (4, 4, 16))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ShapeError):
            Add().output_shape((4, 4, 8))

    def test_add_quantized_exact(self):
        a = RNG.integers(0, 256, (3, 3, 2)).astype(np.uint8)
        b = RNG.integers(0, 256, (3, 3, 2)).astype(np.uint8)
        zp = 30
        out = add_quantized(a, b, zp)
        expected = np.clip(a.astype(int) + b.astype(int) - zp, 0, 255)
        assert np.array_equal(out, expected.astype(np.uint8))

    def test_add_quantized_relu_clamps_at_zero_point(self):
        a = np.zeros((2, 2, 1), dtype=np.uint8)
        b = np.zeros((2, 2, 1), dtype=np.uint8)
        out = add_quantized(a, b, zero_point=50, relu=True)
        assert np.all(out == 50)

    def test_add_quantized_shape_check(self):
        with pytest.raises(ShapeError):
            add_quantized(np.zeros((2, 2, 1), dtype=np.uint8),
                          np.zeros((2, 2, 2), dtype=np.uint8), 0)


class TestModelShapes:
    def test_lenet(self):
        net = build_lenet5()
        assert net.input_shape == (28, 28, 1)
        assert net.node(net.output_name).output_shape == (1, 1, 10)

    def test_vgg_tiny(self):
        net = build_vgg_tiny()
        assert net.node("block3/pool").output_shape == (2, 2, 32)
        assert net.node(net.output_name).output_shape == (1, 1, 10)

    def test_vgg_validation(self):
        with pytest.raises(ShapeError):
            build_vgg_tiny(input_size=10, blocks=3)
        with pytest.raises(ShapeError):
            build_vgg_tiny(blocks=0)

    def test_resnet_tiny(self):
        net = build_resnet_tiny()
        assert net.node("stage1/block1/add").output_shape == (16, 16, 8)
        assert net.node("stage2/block1/add").output_shape == (8, 8, 16)
        assert net.node(net.output_name).output_shape == (1, 1, 10)

    def test_resnet_projection_only_on_channel_change(self):
        net = build_resnet_tiny()
        names = {n.name for n in net.layer_nodes()}
        assert "stage2/block1/projection" in names
        assert "stage1/block2/projection" not in names

    def test_resnet_validation(self):
        with pytest.raises(ShapeError):
            build_resnet_tiny(input_size=10)

    def test_mlp(self):
        net = build_mlp()
        assert net.node(net.output_name).output_shape == (1, 1, 10)
        assert len(net.conv_nodes()) == 3

    def test_zoo_names(self):
        zoo = model_zoo()
        assert set(zoo) == {"lenet5", "vgg-tiny", "resnet-tiny", "mlp",
                            "inception-v3", "inception-span"}


#: Zoo models the functional path cannot run yet, and the first layer
#: whose per-output reduction exceeds its tap bound.
OVER_TAP_BOUND = {"lenet5": "conv3", "vgg-tiny": "block3/conv_b",
                  "inception-v3": "Conv2d_2a_3x3"}


class TestZooOnTheFleet:
    @pytest.mark.parametrize("name", list(model_zoo()))
    def test_fleet_packed_coverage(self, name):
        """Which zoo models run bit-exact on ``fleet-packed`` (under
        their companion configuration), and that the rest fail loudly,
        naming the layer and the tap bound."""
        network = model_zoo()[name]
        backend = get_backend("fleet-packed", model_zoo_configs().get(name))
        if name in OVER_TAP_BOUND:
            with pytest.raises(SimulationError,
                               match=f"{OVER_TAP_BOUND[name]}.*at most "
                                     f"{MAX_FUNCTIONAL_TAPS}"):
                backend.run(network, batch_size=1)
        else:
            result = backend.run(network, batch_size=1)
            assert result.verified_images == 1


class TestModelsRunEverywhere:
    @pytest.mark.parametrize("builder", [build_lenet5, build_vgg_tiny,
                                         build_resnet_tiny, build_mlp])
    def test_reference_execution(self, builder):
        net = builder()
        weights = initialise_weights(net, seed=9)
        image = QuantizedTensor.from_real(
            RNG.uniform(0, 6, net.input_shape), weights.input_params)
        out = ReferenceExecutor(net, weights).run_output(image)
        assert out.shape == net.node(net.output_name).output_shape

    @pytest.mark.parametrize("builder", [build_lenet5, build_vgg_tiny,
                                         build_resnet_tiny, build_mlp])
    def test_analytic_simulation(self, builder):
        net = builder()
        result = NeuralCacheSimulator(net, NeuralCacheConfig()).run()
        assert result.total_time > 0
        assert result.total_energy > 0

    def test_resnet_add_layers_are_mapped(self):
        net = build_resnet_tiny()
        sim = NeuralCacheSimulator(net)
        add_mappings = [m for m in sim.mappings if m.kind == "add"]
        assert len(add_mappings) == 4
        for mapping in add_mappings:
            assert mapping.filter_load_bytes == 0
            assert mapping.channels_padded == 1
            assert mapping.input_bytes_per_output == 2

    def test_add_layers_are_cheap(self):
        """Residual adds should be a tiny share of ResNet's latency."""
        net = build_resnet_tiny()
        result = NeuralCacheSimulator(net).run()
        add_time = sum(r.latency for r in result.layers
                       if r.schedule.mapping.kind == "add")
        assert add_time < 0.05 * result.total_time
