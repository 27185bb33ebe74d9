"""A small zoo of quantized CNNs beyond Inception v3.

The paper's architecture is general — "Neural Cache can accelerate the
broader class of DNNs" — so the library ships a few classic topologies at
verification-friendly sizes. All of them map onto the cache and run
through the analytic simulator. On the functional path, ``resnet-tiny``,
``mlp`` and ``inception-span`` execute bit-exactly; ``lenet5``
(``conv3``, 400 taps), ``vgg-tiny`` (``block3/conv_b``, 288 taps) and
Inception v3 (``Conv2d_2a_3x3``, 288 taps) each have a layer whose
per-output reduction exceeds the functional path's 257-tap bound, so
they raise :class:`~repro.common.errors.SimulationError` there:

* :func:`build_lenet5` — the classic conv/pool/FC stack;
* :func:`build_vgg_tiny` — repeated 3x3 blocks with doubling channels;
* :func:`build_resnet_tiny` — residual blocks using the in-cache
  element-wise :class:`~repro.nn.layers.Add`;
* :func:`build_mlp` — FC-only, the degenerate all-1x1 case;
* :func:`build_inception_span` — one real Inception v3 layer that spans
  arrays under :func:`spanning_config`.
"""

from __future__ import annotations

from repro.common.errors import ShapeError
from repro.nn.graph import Network
from repro.nn.layers import Add, AvgPool, Conv2D, FullyConnected, MaxPool


def build_lenet5(input_size: int = 28, classes: int = 10) -> Network:
    """A LeNet-5-shaped network (conv-pool-conv-pool-FC)."""
    net = Network(name="lenet5")
    x = net.add_input("image", (input_size, input_size, 1))
    x = net.add("conv1", Conv2D(6, (5, 5), padding="same"), x, group="conv1")
    x = net.add("pool1", MaxPool((2, 2), stride=2), x, group="pool1")
    x = net.add("conv2", Conv2D(16, (5, 5), padding="valid"), x,
                group="conv2")
    x = net.add("pool2", MaxPool((2, 2), stride=2), x, group="pool2")
    x = net.add("conv3", Conv2D(32, (5, 5), padding="valid"), x,
                group="conv3")
    shape = net.node(x).output_shape
    x = net.add("gap", AvgPool((shape[0], shape[1]), padding="valid"), x,
                group="head")
    net.add("fc", FullyConnected(classes), x, group="head")
    return net


def build_vgg_tiny(input_size: int = 16, classes: int = 10,
                   base_channels: int = 8, blocks: int = 3) -> Network:
    """A miniature VGG: per block, two 3x3 convs then a 2x2 max pool."""
    if blocks < 1:
        raise ShapeError(f"need at least one block, got {blocks}")
    if input_size % (2 ** blocks):
        raise ShapeError(
            f"input size {input_size} must be divisible by 2^{blocks}")
    net = Network(name="vgg-tiny")
    x = net.add_input("image", (input_size, input_size, 3))
    channels = base_channels
    for block in range(blocks):
        group = f"block{block + 1}"
        x = net.add(f"{group}/conv_a", Conv2D(channels, (3, 3)), x,
                    group=group)
        x = net.add(f"{group}/conv_b", Conv2D(channels, (3, 3)), x,
                    group=group)
        x = net.add(f"{group}/pool", MaxPool((2, 2), stride=2), x,
                    group=group)
        channels *= 2
    size = input_size >> blocks
    x = net.add("gap", AvgPool((size, size), padding="valid"), x,
                group="head")
    net.add("fc", FullyConnected(classes), x, group="head")
    return net


def _residual_block(net: Network, name: str, src: str, channels: int,
                    stride: int = 1) -> str:
    """conv-conv plus a skip path, joined by an in-cache Add."""
    y = net.add(f"{name}/conv_a",
                Conv2D(channels, (3, 3), stride=stride), src, group=name)
    y = net.add(f"{name}/conv_b",
                Conv2D(channels, (3, 3), relu=False), y, group=name)
    skip = src
    src_shape = net.node(src).output_shape
    if stride != 1 or src_shape[2] != channels:
        skip = net.add(f"{name}/projection",
                       Conv2D(channels, (1, 1), stride=stride, relu=False),
                       src, group=name)
    return net.add(f"{name}/add", Add(relu=True), (y, skip), group=name)


def build_resnet_tiny(input_size: int = 16, classes: int = 10,
                      base_channels: int = 8) -> Network:
    """A two-stage residual network with identity and projection skips."""
    if input_size % 4:
        raise ShapeError(f"input size {input_size} must be divisible by 4")
    net = Network(name="resnet-tiny")
    x = net.add_input("image", (input_size, input_size, 3))
    x = net.add("stem", Conv2D(base_channels, (3, 3)), x, group="stem")
    x = _residual_block(net, "stage1/block1", x, base_channels)
    x = _residual_block(net, "stage1/block2", x, base_channels)
    x = _residual_block(net, "stage2/block1", x, base_channels * 2,
                        stride=2)
    x = _residual_block(net, "stage2/block2", x, base_channels * 2)
    size = net.node(x).output_shape[0]
    x = net.add("gap", AvgPool((size, size), padding="valid"), x,
                group="head")
    net.add("fc", FullyConnected(classes), x, group="head")
    return net


def build_mlp(features: int = 64, hidden: tuple[int, ...] = (32, 16),
              classes: int = 10) -> Network:
    """An all-FC network: every layer is a packed 1x1 convolution."""
    net = Network(name="mlp")
    x = net.add_input("features", (1, 1, features))
    for i, width in enumerate(hidden):
        x = net.add(f"hidden{i + 1}",
                    FullyConnected(width, relu=True), x, group="hidden")
    net.add("logits", FullyConnected(classes), x, group="head")
    return net


def build_inception_span(input_size: int = 4, classes: int = 10) -> Network:
    """The real Inception v3 layer ``Mixed_5c/Branch_0/Conv2d_0a_1x1``
    (a 1x1, 256-in/64-out convolution) at a verification-friendly spatial
    size, with a small head.

    Run under :func:`spanning_config` — 16-column arrays, pack factor 4 —
    its 64 packed channel lanes span ``arrays_per_conv = 4`` arrays per
    output, so the layer exercises the cross-array reduction path
    (sense-amp pair hop, then a quadrant-bus hop) end-to-end on the
    fleet. Under the default geometry the same network maps
    single-array and runs like any other zoo model.
    """
    net = Network(name="inception-span")
    x = net.add_input("image", (input_size, input_size, 256))
    x = net.add("Mixed_5c/Branch_0/Conv2d_0a_1x1", Conv2D(64, (1, 1)), x,
                group="Mixed_5c")
    x = net.add("gap", AvgPool((input_size, input_size), padding="valid"),
                x, group="head")
    net.add("fc", FullyConnected(classes), x, group="head")
    return net


def model_zoo() -> dict[str, Network]:
    """All bundled models by name (Inception v3 included)."""
    from repro.nn.inception import build_inception_v3
    return {
        "lenet5": build_lenet5(),
        "vgg-tiny": build_vgg_tiny(),
        "resnet-tiny": build_resnet_tiny(),
        "mlp": build_mlp(),
        "inception-v3": build_inception_v3(),
        "inception-span": build_inception_span(),
    }


def spanning_config():
    """The cache configuration that makes ``inception-span`` span arrays.

    One slice of 16-column arrays with 1x1 packing capped at 4 channels
    per bitline: Mixed_5c/Branch_0/Conv2d_0a_1x1's 256 channels become 64
    packed lanes, spanning 4 arrays per output — one sense-amp-pair hop
    and one quadrant-bus hop in the mapper's ``ReductionPlan``. Built
    here (lazily) so the verify CLI, tests and benches all pin the same
    geometry.
    """
    from repro.cache.geometry import CacheGeometry
    from repro.config import NeuralCacheConfig
    return NeuralCacheConfig(
        geometry=CacheGeometry(name="span-verify-16col", slices=1,
                               array_cols=16),
        pack_limit=4)


def model_zoo_configs() -> dict[str, object]:
    """Per-model cache configurations for zoo runs (None = default).

    ``inception-span`` only exercises cross-array reduction under
    :func:`spanning_config`; every other model uses the caller's default
    configuration.
    """
    return {"inception-span": spanning_config()}
