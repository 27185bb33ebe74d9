"""Exact cycle reports of every one-output-per-bitline layer program.

Max pool, average pool, element-wise add, batch norm and the conv
quantize stage all run on the shared bit-line runner, which charges each
fleet's cycles to one phase, its skipped cycles to ``skipped`` and (all
but the conv quantize stage) its arrays to ``passes``. Batched-versus-loop
equality cannot see a runner that drops ``passes`` or charges the wrong
phase, so these pin all six ``CycleReport`` fields, dense and with
sparsity, on a three-image batch whose middle image is all zeros.
Every layer stages more than one array per image (the conv's compute
stage too), and the FC requantizes on the host while the ReLU conv
requantizes in cache.
"""

import numpy as np
import pytest

from repro.core.functional import (
    CycleReport,
    FunctionalAdd,
    FunctionalAvgPool,
    FunctionalBatchNorm,
    FunctionalConv,
    FunctionalMaxPool,
)
from repro.nn import (
    AvgPool,
    Conv2D,
    FullyConnected,
    MaxPool,
    Network,
    QuantizedTensor,
    initialise_weights,
)
from repro.nn.reference import BnWeights
from repro.nn.tensor import QuantParams

SHAPE = (8, 8, 5)          # 320 outputs: two 256-column arrays per image
PARAMS = QuantParams(0.05, 9)


def batch(shape, params, seed):
    """Random, all-zero, random: the zero image gives the sparsity
    engine all-zero planes to skip."""
    rng = np.random.default_rng(seed)
    data = [rng.integers(0, 256, shape).astype(np.uint8),
            np.zeros(shape, dtype=np.uint8),
            rng.integers(0, 256, shape).astype(np.uint8)]
    return [QuantizedTensor(d, params) for d in data]


def conv_engine(layer, shape, sparsity):
    """A conv or FC engine with seeded weights, and a batch for it."""
    net = Network(name="pin")
    x = net.add_input("in", shape)
    net.add("c", layer, x)
    weights = initialise_weights(net, seed=3)
    conv = net.conv_of(net.node("c"))
    engine = FunctionalConv(conv, shape, weights.for_node("c"),
                            output_params=weights.activation_params,
                            packed=True, sparsity=sparsity)
    return engine, (batch(shape, weights.input_params, seed=4),)


def case(name, sparsity):
    kw = dict(packed=True, sparsity=sparsity)
    xs = batch(SHAPE, PARAMS, seed=1)
    if name == "maxpool":
        pool = MaxPool((3, 3), stride=2, padding="same")
        return FunctionalMaxPool(pool, SHAPE, **kw), (xs,)
    if name == "avgpool":
        pool = AvgPool((3, 3), stride=1, padding="same")
        return FunctionalAvgPool(pool, SHAPE, **kw), (xs,)
    if name in ("add", "add-relu"):
        engine = FunctionalAdd(SHAPE, relu=name == "add-relu", **kw)
        return engine, (xs, batch(SHAPE, PARAMS, seed=2))
    if name in ("bn", "bn-relu"):
        rng = np.random.default_rng(5)
        bn = BnWeights(multiplier=rng.integers(1 << 10, 1 << 14, SHAPE[2]),
                       bias=rng.integers(-(1 << 20), 1 << 20, SHAPE[2]),
                       shift=12)
        engine = FunctionalBatchNorm(SHAPE, bn, relu=name == "bn-relu",
                                     zp_out=20, **kw)
        return engine, (xs,)
    if name == "conv-relu":
        return conv_engine(Conv2D(8, (3, 3), padding="same"), (6, 6, 4),
                           sparsity)
    assert name == "fc"
    return conv_engine(FullyConnected(300), (1, 1, 24), sparsity)


def pin(mac=0, reduction=0, quantization=0, pooling=0, passes=0,
        skipped=0):
    return CycleReport(mac=mac, reduction=reduction,
                       quantization=quantization, pooling=pooling,
                       passes=passes, skipped=skipped)


#: (layer, sparsity) -> the report, as the per-engine fleet loops
#: produced it before the shared runner replaced them.
PINNED = {
    ("maxpool", False): pin(pooling=624, passes=3),
    ("maxpool", True): pin(pooling=624, passes=3),
    ("avgpool", False): pin(pooling=6342, passes=6),
    ("avgpool", True): pin(pooling=6342, passes=6),
    ("add", False): pin(pooling=438, passes=6),
    ("add", True): pin(pooling=438, passes=6),
    ("add-relu", False): pin(pooling=666, passes=6),
    ("add-relu", True): pin(pooling=666, passes=6),
    ("bn", False): pin(quantization=2130, passes=6),
    ("bn", True): pin(quantization=1698, passes=6, skipped=432),
    ("bn-relu", False): pin(quantization=3720, passes=6),
    ("bn-relu", True): pin(quantization=3288, passes=6, skipped=432),
    # The conv quantize stage charges cycles but no passes: ``passes``
    # counts the compute stage's arrays.
    ("conv-relu", False): pin(mac=19305, reduction=3000, quantization=8670,
                              passes=15),
    ("conv-relu", True): pin(mac=19305, reduction=3000, quantization=4788,
                             passes=15, skipped=3882),
    ("fc", False): pin(mac=20592, reduction=882, quantization=2634,
                       passes=9),
    ("fc", True): pin(mac=18828, reduction=882, quantization=1140, passes=9,
                      skipped=3258),
}


@pytest.mark.parametrize("sparsity", [False, True],
                         ids=["dense", "sparse"])
@pytest.mark.parametrize("name", ["maxpool", "avgpool", "add", "add-relu",
                                  "bn", "bn-relu", "conv-relu", "fc"])
def test_cycle_report_is_pinned(name, sparsity):
    engine, args = case(name, sparsity)
    engine.run_batch(*args)
    assert engine.report == PINNED[name, sparsity]
