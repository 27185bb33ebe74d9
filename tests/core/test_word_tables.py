"""Conv operands staged as packed words.

A conv layer's filters compile once into a table of its distinct
per-array planes, already in the packed store's words; spanning layers
convert each batch's windows to words once, and every fleet loads both
by index (``write_words``). These tests pin that the words a fleet loads
are, word for word, what loading the per-array uint8 planes with
``write_value_block`` stores; that the skip runs computed from the words
equal the runs of the uint8 signatures; and that the conv compute
stage's host memory beyond its fleet stays bounded now that 16-column
fleets stack sixteen chunks.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.common.errors import SimulationError
from repro.config import NeuralCacheConfig
from repro.core import functional
from repro.core.functional import ConvStaging, FunctionalConv
from repro.engine import FleetBitSerialUnit, Operand, PackedArrayFleet
from repro.nn import FullyConnected, QuantizedTensor, initialise_weights
from repro.nn.models import (
    build_inception_span,
    build_mlp,
    build_resnet_tiny,
    spanning_config,
)

MODELS = {"resnet-tiny": build_resnet_tiny, "mlp": build_mlp,
          "inception-span": build_inception_span}


def geometry_config(cols):
    return NeuralCacheConfig(geometry=CacheGeometry(
        name=f"words-{cols}col", slices=1, array_cols=cols))


CONFIGS = {"16col": geometry_config(16), "32col": geometry_config(32),
           "256col": NeuralCacheConfig(), "span": spanning_config()}


def conv_engines(model, config):
    """A packed engine per conv layer of ``model`` that compiles under
    ``config`` (layers over the tap or row bounds do not run
    functionally there)."""
    net = MODELS[model]()
    weights = initialise_weights(net, seed=4)
    engines = []
    for node in net.conv_nodes():
        conv = net.conv_of(node)
        shape = net.input_shape_of(node.name)
        if isinstance(node.layer, FullyConnected):
            shape = (1, 1, int(np.prod(shape)))
        try:
            staging = ConvStaging.compile(conv, shape,
                                          weights.for_node(node.name),
                                          config, node.name)
        except SimulationError:
            continue
        engines.append(FunctionalConv(conv, shape, staging=staging,
                                      weights=weights.for_node(node.name),
                                      config=config, name=node.name,
                                      packed=True))
    return engines


def uint8_planes(engine, windows, a0, a1):
    """The per-array ``(arrays, taps, cols)`` filter and input bytes of
    arrays ``[a0, a1)``, built by per-(array, lane) indexing."""
    staging = engine.staging
    filters = staging.filters
    m, lanes, taps = filters.shape
    cols = engine.config.geometry.array_cols
    n_out = windows.shape[1] * m
    span = engine.mapping.arrays_per_conv
    img, local = np.divmod(np.arange(a0, a1), staging.arrays_per_image)
    if span > 1:
        out = local // span
        lane = (local % span)[:, None] * cols + np.arange(cols)[None, :]
        ivals = windows[img[:, None], (out // m)[:, None], lane]
        fvals = filters[(out % m)[:, None], lane]
        return fvals.transpose(0, 2, 1), ivals.transpose(0, 2, 1)
    groups = staging.groups
    out = local[:, None] * groups + np.arange(groups)[None, :]
    live = out < n_out
    out = np.minimum(out, n_out - 1)
    planes = []
    for vals in (filters[out % m], windows[img[:, None], out // m]):
        vals[~live] = 0
        full = np.zeros((a1 - a0, taps, cols), dtype=np.uint8)
        full[:, :, :groups * lanes] = vals.transpose(0, 3, 1, 2).reshape(
            a1 - a0, taps, -1)
        planes.append(full)
    return planes


def block_words(planes):
    """The words ``write_value_block`` stores for ``(arrays, taps, cols)``
    bytes, as ``(taps * 8, arrays, n_words)``."""
    n, taps, cols = planes.shape
    unit = FleetBitSerialUnit(PackedArrayFleet(n, taps * 8, cols))
    unit.write_value_block(Operand(0, taps * 8), planes, 8)
    return unit.fleet.word_block(0, taps * 8)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_staged_words_equal_the_value_block_words(model, config):
    """Over a whole batch's arrays: the filter words every array loads
    from the compiled table, and its input words (window words by cell on
    spanning layers), equal what ``write_value_block`` of its uint8
    planes stores."""
    engines = conv_engines(model, CONFIGS[config])
    assert engines
    rng = np.random.default_rng(11)
    for engine in engines:
        staging = engine.staging
        data = rng.integers(0, 256, (2, *engine.input_shape),
                            dtype=np.uint8)
        windows = staging.gather_windows(data, 3)
        source = (staging.window_words(windows)
                  if engine.mapping.arrays_per_conv > 1 else windows)
        n = 2 * staging.arrays_per_image
        filter_index, inputs, input_index = engine._stage_chunk(
            source, 0, n)[:3]
        want_filters, want_inputs = uint8_planes(engine, windows, 0, n)
        assert np.array_equal(staging.filter_words[:, filter_index],
                              block_words(want_filters)), engine.name
        assert np.array_equal(inputs[:, input_index],
                              block_words(want_inputs)), engine.name
        # The table holds only distinct planes.
        planes = staging.filter_words.transpose(1, 0, 2).reshape(
            staging.filter_words.shape[1], -1)
        assert np.unique(planes, axis=0).shape == planes.shape


def test_distinct_filter_planes():
    """On 256-column arrays every resnet-tiny layer's groups tile its
    channels: one plane per layer. The span conv holds one plane per
    (filter, slot), 16 KB of uint16 words."""
    for engine in conv_engines("resnet-tiny", NeuralCacheConfig()):
        assert engine.staging.filter_words.shape[1] == 1, engine.name
    span_conv = conv_engines("inception-span", spanning_config())[0]
    assert span_conv.staging.filter_words.shape[1] == 64 * 4
    assert span_conv.staging.filter_words.nbytes == 16 * 1024


def uint8_skip_runs(filter_plane, input_plane, starts):
    """The skip runs of per-array uint8 planes: per tap, the OR of the
    chunk's input bytes and whether any lane's product is nonzero."""
    ors = np.bitwise_or.reduceat(input_plane, starts, axis=0)
    products = np.logical_or.reduceat(
        (filter_plane != 0) & (input_plane != 0), starts, axis=0)
    signature = np.concatenate([np.bitwise_or.reduce(ors, axis=2),
                                products.any(axis=2)], axis=1)
    change = np.flatnonzero((signature[1:] != signature[:-1]).any(axis=1))
    bounds = [0, *starts[change + 1].tolist(), filter_plane.shape[0]]
    return list(zip(bounds[:-1], bounds[1:]))


#: (model, config, conv index) of the layers the skip-run property runs.
SKIP_CASES = {
    "span": ("inception-span", "span", 0),
    "dense-3x3": ("resnet-tiny", "32col", 1),
    "packed-1x1": ("inception-span", "16col", 0),
}


@functools.cache
def skip_engine(case):
    model, config, index = SKIP_CASES[case]
    return conv_engines(model, CONFIGS[config])[index]


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(sorted(SKIP_CASES)),
       caps=st.lists(st.sampled_from([0, 1, 3, 15, 255]), min_size=1,
                     max_size=3),
       max_arrays=st.integers(2, 7), seed=st.integers(0, 2**16))
def test_skip_runs_from_words_equal_the_uint8_runs(case, caps, max_arrays,
                                                   seed):
    """Sparse streams, chunked at 2 to 7 arrays (on the span conv, one
    4-array group: chunk starts fall inside rows of output channels)."""
    engine = skip_engine(case)
    staging = engine.staging
    rng = np.random.default_rng(seed)
    data = np.stack([rng.integers(0, cap + 1, engine.input_shape,
                                  dtype=np.uint8) for cap in caps])
    windows = staging.gather_windows(data, 0)
    span = engine.mapping.arrays_per_conv
    per_chunk = max(max_arrays // span * span, span)
    n = len(caps) * staging.arrays_per_image
    starts = np.array([a0 for a0, _ in functional._array_chunks(
        n, per_chunk)])
    source = staging.window_words(windows) if span > 1 else windows
    filter_index, inputs, input_index = engine._stage_chunk(source, 0, n)[:3]
    got = functional._skip_runs(staging.filter_words[:, filter_index],
                                inputs[:, input_index], starts)
    assert got == uint8_skip_runs(*uint8_planes(engine, windows, 0, n),
                                  starts)


def test_compute_stage_host_memory_beyond_the_fleet(monkeypatch):
    """Over one inception-span batch, the conv compute stage's traced
    host peak, less its largest fleet, stays within 0.8x that fleet:
    staging does not grow with the fleet's array count."""
    monkeypatch.delenv("NEURALCACHE_SANITIZE", raising=False)
    net = build_inception_span()
    config = spanning_config()
    weights = initialise_weights(net, seed=0)
    rng = np.random.default_rng(0)
    images = [QuantizedTensor(rng.integers(0, 256, net.input_shape,
                                           dtype=np.uint8),
                              weights.input_params) for _ in range(8)]
    (engine,) = [e for e in conv_engines("inception-span", config)
                 if e.mapping.arrays_per_conv > 1]
    engine = FunctionalConv(engine.conv, engine.input_shape,
                            weights.for_node(engine.name), config,
                            engine.name, packed=True, sparsity=True)
    windows = engine.staging.gather_windows(
        np.stack([image.data for image in images]),
        images[0].params.zero_point)
    fleets = []
    make_fleet = functional.make_fleet

    def recorded(*args, **kwargs):
        fleet = make_fleet(*args, **kwargs)
        fleets.append(fleet.nbytes)
        return fleet

    monkeypatch.setattr(functional, "make_fleet", recorded)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        engine._compute_stage_fleet(windows)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    fleet = max(fleets)
    assert fleet == 4096 * 154 * 2       # 16 chunks of 16-column arrays
    assert peak - fleet <= 0.8 * fleet, (peak - fleet) / fleet
