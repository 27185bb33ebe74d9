"""Weight-stationary conv staging: compiled once per backend, exact on
every batch.

A fleet backend compiles each conv layer's :class:`ConvStaging` (mapping,
lane plan, window and filter tables) on the first batch and reuses it on
every later one. These tests pin that a warm backend is indistinguishable
from a fresh one — outputs and cycle reports, skipped cycles included —
that the staged planes are exactly an im2col of the inputs and filters,
and that the cache never serves stale tables or silences a narrowing
error.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bits import packed_planes_to_ints
from repro.common.errors import SimulationError
from repro.config import NeuralCacheConfig
from repro.core import functional
from repro.core.functional import (
    ConvStaging,
    FunctionalConv,
    FunctionalExecutor,
)
from repro.core.precision import LayerPrecision
from repro.engine.backend import BackendOptions, FleetExecutor, get_backend
from repro.nn import (
    Add,
    AvgPool,
    Conv2D,
    FullyConnected,
    MaxPool,
    Network,
    QuantizedBatchNorm,
    QuantizedTensor,
    ReferenceExecutor,
    initialise_weights,
)
from repro.nn.layers import same_padding_offsets
from repro.nn.models import spanning_config

#: Narrowed cases run 4-bit elements: filters and inputs stay below this.
NARROW_BITS = 4


def conv_net(shape, layer) -> Network:
    net = Network(name="staging-case")
    x = net.add_input("in", shape)
    net.add("c", layer, x)
    return net


#: name -> (network, config, precision). Each network holds one conv, so
#: a run's cycle report is that layer's report.
CASES = {
    "packed-1x1": (lambda: conv_net((4, 4, 24), Conv2D(6, (1, 1))),
                   None, None),
    "fc": (lambda: conv_net((1, 1, 40), FullyConnected(5)), None, None),
    "plain-3x3-same": (
        lambda: conv_net((5, 5, 5), Conv2D(4, (3, 3), padding="same")),
        None, None),
    "stride2-same": (
        lambda: conv_net((7, 7, 3),
                         Conv2D(4, (3, 3), stride=2, padding="same")),
        None, None),
    "stride2-valid": (
        lambda: conv_net((7, 7, 3),
                         Conv2D(4, (3, 3), stride=2, padding="valid")),
        None, None),
    "split-5x5": (
        lambda: conv_net((8, 8, 4), Conv2D(2, (5, 5), padding="valid")),
        None, None),
    "spanning": (lambda: conv_net((2, 2, 256), Conv2D(4, (1, 1))),
                 spanning_config(), None),
    "narrowed": (
        lambda: conv_net((5, 5, 4), Conv2D(4, (3, 3), padding="same")),
        None, LayerPrecision(overrides={"c": NARROW_BITS})),
}


def case_weights(net, precision, seed, low):
    """Seeded weights; ``low`` < 0 gives inputs a nonzero zero point, so
    'same' padding differs from the zero sentinel. Narrowed cases mask
    filter bytes to the narrowed width."""
    weights = initialise_weights(net, seed=seed, activation_range=(low, 6.0))
    if precision is None:
        return weights
    limit = (1 << NARROW_BITS) - 1
    narrowed = {}
    for name, conv_weights in weights.conv_weights.items():
        filters = conv_weights.filters
        narrowed[name] = dataclasses.replace(
            conv_weights, filters=QuantizedTensor(filters.data & limit,
                                                  filters.params))
    return dataclasses.replace(weights, conv_weights=narrowed)


def case_images(net, weights, batch, seed, high=256):
    rng = np.random.default_rng(seed)
    return [QuantizedTensor(rng.integers(0, high, net.input_shape,
                                         dtype=np.uint8),
                            weights.input_params)
            for _ in range(batch)]


def word_planes(words, index, cols):
    """The ``(arrays, taps, cols)`` bytes a fleet loads from a
    ``(taps * 8, n, n_words)`` word table at ``index``."""
    taps = words.shape[0] // 8
    picked = words[:, index].reshape(taps, 8, len(index), -1)
    return packed_planes_to_ints(picked.transpose(1, 0, 2, 3),
                                 cols).transpose(1, 0, 2)


class StagedPlanes:
    """Records the filter and input planes every conv chunk's staged
    words load while installed."""

    def __init__(self, mp):
        self.chunks = []
        original = FunctionalConv._stage_chunk

        def spy(engine, windows, a0, a1):
            staged = original(engine, windows, a0, a1)
            filter_index, inputs, input_index = staged[:3]
            cols = engine.config.geometry.array_cols
            self.chunks.append((
                engine, a0,
                word_planes(engine.staging.filter_words, filter_index,
                            cols),
                word_planes(inputs, input_index, cols)))
            return staged

        mp.setattr(FunctionalConv, "_stage_chunk", spy)

    def take(self):
        chunks, self.chunks = self.chunks, []
        return chunks


def im2col_sums(engine, images):
    """Independent NumPy reference: per image and output ``(i, j, m)``,
    the window-times-filter sum and the window sum."""
    conv, shape = engine.conv, engine.input_shape
    data = np.stack([x.data.reshape(shape) for x in images]).astype(np.int64)
    if conv.padding == "same":
        top, bottom = same_padding_offsets(shape[0], conv.kernel[0],
                                           conv.stride)
        left, right = same_padding_offsets(shape[1], conv.kernel[1],
                                           conv.stride)
        data = np.pad(data, ((0, 0), (top, bottom), (left, right), (0, 0)),
                      constant_values=images[0].params.zero_point)
    (r, s), stride = conv.kernel, conv.stride
    e, f, m = conv.output_shape(shape)
    cols = np.stack([data[:, i * stride:i * stride + r,
                          j * stride:j * stride + s].reshape(len(images), -1)
                     for i in range(e) for j in range(f)], axis=1)
    filters = engine.weights.filters.data.reshape(-1, m).astype(np.int64)
    raw = (cols @ filters).reshape(len(images), -1)
    xsum = np.repeat(cols.sum(axis=-1), m, axis=1)
    return raw, xsum


def assert_planes_are_im2col(chunks, images):
    """Every (array, group)'s staged dot product and input sum equal the
    im2col reference for the output it serves; dead groups and unused
    columns stage zeros."""
    chunks = sorted(chunks, key=lambda chunk: chunk[1])
    engine = chunks[0][0]
    mapping = engine.mapping
    cols = engine.config.geometry.array_cols
    fp = np.concatenate([c[2] for c in chunks]).astype(np.int64)
    ip = np.concatenate([c[3] for c in chunks]).astype(np.int64)
    raw, xsum = im2col_sums(engine, images)
    n_images, n_out = raw.shape
    dots, sums = (fp * ip).sum(axis=1), ip.sum(axis=1)   # (arrays, cols)
    span = mapping.arrays_per_conv
    if span == 1:
        lanes = mapping.channels_padded
        groups = max(cols // lanes, 1)
        used = groups * lanes
        assert not fp[:, :, used:].any() and not ip[:, :, used:].any()
        for plane in (fp, ip):
            per_group = plane[:, :, :used].reshape(-1, plane.shape[1],
                                                   groups, lanes)
            per_group = per_group.transpose(0, 2, 1, 3).reshape(
                n_images, -1, plane.shape[1] * lanes)
            assert not per_group[:, n_out:].any()     # dead groups
        dots = dots[:, :used].reshape(n_images, -1, lanes).sum(-1)[:, :n_out]
        sums = sums[:, :used].reshape(n_images, -1, lanes).sum(-1)[:, :n_out]
    else:
        dots = dots.sum(-1).reshape(n_images, n_out, span).sum(-1)
        sums = sums.sum(-1).reshape(n_images, n_out, span).sum(-1)
    np.testing.assert_array_equal(dots, raw)
    np.testing.assert_array_equal(sums, xsum)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=5, deadline=None)
@given(sparsity=st.booleans(), max_arrays=st.sampled_from([2, None]),
       batches=st.lists(st.sampled_from([1, 3, 8]), min_size=2, max_size=3),
       low=st.sampled_from([0.0, -2.0]), seed=st.integers(0, 2 ** 16))
def test_warm_backend_matches_fresh_backends(case, sparsity, max_arrays,
                                             batches, low, seed):
    """One warm backend over mixed batch sizes == a fresh backend per
    batch (outputs and cycle reports, skipped cycles included), and its
    staged planes are an im2col of the batch."""
    build, config, precision = CASES[case]
    net = build()
    if precision is not None:
        low = 0.0           # the input zero point must fit the width too
    options = BackendOptions(sparsity=sparsity, precision=precision)
    weights = case_weights(net, precision, seed, low)
    high = (1 << NARROW_BITS) if precision is not None else 256
    warm = get_backend("fleet-packed", config, options)
    golden = warm.golden_for(net, weights)
    with pytest.MonkeyPatch.context() as mp:
        if max_arrays is not None:
            mp.setattr(functional, "MAX_FLEET_ARRAYS", max_arrays)
        planes = StagedPlanes(mp)
        for k, batch in enumerate(batches):
            images = case_images(net, weights, batch, seed + k, high)
            got = warm.run_requests(net, images, weights, golden)
            staged = planes.take()
            fresh = get_backend("fleet-packed", config, options)
            want = fresh.run_requests(net, images, weights, golden)
            planes.take()
            assert got.verified == want.verified == batch
            assert got.report == want.report
            for a, b in zip(got.responses, want.responses):
                assert np.array_equal(a.data, b.data)
            assert_planes_are_im2col(staged, images)
    assert len(warm.stagings_for(net, weights)) == 1


class TestCompiledOnce:
    def test_each_conv_compiles_once_per_backend(self, monkeypatch):
        from repro.nn.models import build_resnet_tiny

        net = build_resnet_tiny()
        compiled = []
        original = ConvStaging.compile.__func__

        def counting(cls, *args, **kwargs):
            compiled.append(args[0])
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(ConvStaging, "compile", classmethod(counting))
        backend = get_backend("fleet-packed")
        weights = backend.weights_for(net)
        golden = backend.golden_for(net, weights)
        assert compiled == []       # construction and set-up compile nothing
        for batch in (2, 1, 3):
            outcome = backend.run_requests(
                net, case_images(net, weights, batch, batch), weights,
                golden)
            assert outcome.verified == batch
        assert len(compiled) == len(net.conv_nodes())

    def test_staging_is_read_only(self):
        net = CASES["plain-3x3-same"][0]()
        backend = get_backend("fleet-packed")
        weights = backend.weights_for(net)
        backend.run_requests(net, case_images(net, weights, 1, 0), weights)
        staging = backend.stagings_for(net, weights)["c"]
        for table in (staging.windows, staging.filters, staging.filter_sums,
                      staging.filter_words, staging.filter_index,
                      staging.plan.valid, staging.plan.c):
            assert not table.flags.writeable
        assert staging.windows.dtype == np.int32


class TestCacheGuard:
    @pytest.fixture()
    def net(self):
        return CASES["stride2-same"][0]()

    def test_new_weights_rebuild_their_tables(self, net):
        backend = FleetExecutor(packed=True)
        images = case_images(net, initialise_weights(net), 3, 7)
        outputs, stagings = [], []
        for seed in (1, 2):
            weights = initialise_weights(net, seed=seed)
            outcome = backend.run_requests(net, images, weights)
            assert outcome.verified == 3      # against this seed's golden
            outputs.append(outcome.responses[0].data)
            staging = backend.stagings_for(net, weights)["c"]
            fresh = ConvStaging.compile(net.conv_of(net.node("c")),
                                        net.input_shape,
                                        weights.for_node("c"),
                                        backend.config, "c")
            assert np.array_equal(staging.filters, fresh.filters)
            stagings.append(staging)
        assert stagings[0] is not stagings[1]
        assert not np.array_equal(outputs[0], outputs[1])

    def test_lru_stays_at_its_bound(self, net):
        backend = FleetExecutor(packed=True, verify=False)
        images = case_images(net, initialise_weights(net), 1, 3)
        seen = []
        for seed in range(FleetExecutor.STAGING_CACHE_SIZE + 3):
            weights = initialise_weights(net, seed=seed)
            seen.append(weights)
            backend.run_requests(net, images, weights)
            assert len(backend._stagings) == min(
                seed + 1, FleetExecutor.STAGING_CACHE_SIZE)
        # The most recent entries survive; the oldest were evicted.
        kept = {id(keys[1]) for keys in backend._stagings.keys()}
        assert kept == {id(w) for w in
                        seen[-FleetExecutor.STAGING_CACHE_SIZE:]}

    def test_explicit_weights_beat_the_backend_default(self, net):
        default = initialise_weights(net, seed=1)
        other = initialise_weights(net, seed=2)
        backend = FleetExecutor(packed=True, weights=default)
        images = case_images(net, default, 2, 5)
        warm = backend.run_requests(net, images)     # caches `default`
        assert warm.verified == 2
        explicit = backend.run_requests(net, images, weights=other)
        assert explicit.verified == 2                # other's golden
        reference = FleetExecutor(packed=True, weights=other,
                                  verify=False).run_requests(net, images)
        for a, b in zip(explicit.responses, reference.responses):
            assert np.array_equal(a.data, b.data)
        assert not all(np.array_equal(a.data, b.data) for a, b
                       in zip(explicit.responses, warm.responses))

    def test_threads_share_one_warm_backend(self, net):
        """More threads than cores, more weights than cache slots and a
        short switch interval: every thread's outcome still equals a
        fresh backend's and the cache stays within its bound."""
        backend = FleetExecutor(packed=True)
        bound = FleetExecutor.STAGING_CACHE_SIZE
        jobs = []
        for k in range(bound + 2):
            weights = initialise_weights(net, seed=k)
            images = case_images(net, weights, 3, k)
            want = FleetExecutor(packed=True).run_requests(net, images,
                                                           weights)
            jobs.append((weights, images, want))
        got = [[] for _ in jobs]

        def work(k):
            weights, images, _ = jobs[k]
            for _ in range(3):
                got[k].append(backend.run_requests(net, images, weights))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        for (_, _, want), outcomes in zip(jobs, got):
            assert len(outcomes) == 3
            for outcome in outcomes:
                assert outcome.verified == 3
                assert outcome.report == want.report
                for x, y in zip(outcome.responses, want.responses):
                    assert np.array_equal(x.data, y.data)
        assert len(backend._stagings) <= bound


class TestNarrowingStaysLoud:
    @pytest.fixture()
    def case(self):
        build, _, precision = CASES["narrowed"]
        net = build()
        return net, precision, case_weights(net, precision, 0, 0.0)

    def test_wide_input_on_a_warm_backend_raises(self, case):
        net, precision, weights = case
        backend = get_backend("fleet-packed",
                              options=BackendOptions(precision=precision))
        golden = backend.golden_for(net, weights)
        ok = case_images(net, weights, 3, 1, high=1 << NARROW_BITS)
        assert backend.run_requests(net, ok, weights, golden).verified == 3
        bad = case_images(net, weights, 3, 2, high=1 << NARROW_BITS)
        bad[1].data[2, 3, 1] = 1 << NARROW_BITS
        with pytest.raises(SimulationError, match="input operands reach 16"):
            backend.run_requests(net, bad, weights, golden)
        # The failed batch left the cache intact: valid batches still run.
        assert backend.run_requests(net, ok, weights, golden).verified == 3

    def test_wide_filter_raises_at_compile(self, case):
        net, precision, weights = case
        filters = weights.for_node("c").filters
        wide = filters.data.copy()
        wide[0, 0, 0, 0] = 1 << NARROW_BITS
        weights.conv_weights["c"] = dataclasses.replace(
            weights.for_node("c"),
            filters=QuantizedTensor(wide, filters.params))
        backend = get_backend("fleet-packed",
                              options=BackendOptions(precision=precision))
        images = case_images(net, weights, 1, 1, high=1 << NARROW_BITS)
        with pytest.raises(SimulationError, match="filter operands reach 16"):
            backend.run_requests(net, images, weights)
        assert backend.stagings_for(net, weights) == {}


def test_conv_pool_network_caches_only_conv_staging():
    """Non-conv layers keep their per-call engines; only conv staging
    is cached, and a conv + pool network stays exact across batches."""
    net = Network(name="conv-pool")
    x = net.add_input("in", (6, 6, 3))
    net.add("c", Conv2D(4, (3, 3), padding="same"), x)
    net.add("p", MaxPool(kernel=(2, 2), stride=2, padding="valid"), "c")
    backend = get_backend("fleet-packed")
    weights = backend.weights_for(net)
    for batch in (1, 3):
        outcome = backend.run_requests(
            net, case_images(net, weights, batch, batch), weights)
        assert outcome.verified == batch
    assert set(backend.stagings_for(net, weights)) == {"c"}


def test_row_layout_refused_at_compile():
    """A layer whose functional row regions overflow the array is refused
    by ``compile``, named, and never cached: a 3x3 conv over 24 channels
    under the spanning config maps 9 taps per bitline, whose regions
    need 258 of the array's 256 rows."""
    net = conv_net((6, 6, 24), Conv2D(8, (3, 3), padding="same"))
    config = spanning_config()
    backend = FleetExecutor(config, verify=False)
    weights = backend.weights_for(net)
    with pytest.raises(SimulationError,
                       match=r"layer 'c'.* needs 258 rows.* has 256"):
        ConvStaging.compile(net.conv_of(net.node("c")), net.input_shape,
                            weights.for_node("c"), config, "c")
    with pytest.raises(SimulationError, match=r"layer 'c'.* 258 rows"):
        backend.run_requests(net, case_images(net, weights, 2, 0), weights)
    assert backend.stagings_for(net, weights) == {}


def rows_config(rows: int) -> NeuralCacheConfig:
    base = NeuralCacheConfig()
    return base.with_geometry(
        dataclasses.replace(base.geometry, array_rows=rows))


def test_row_layouts_checked_against_the_geometry():
    """The row bound is the geometry's ``array_rows``, not 256: under
    128-row arrays resnet-tiny's stem (a 160-row layout) is refused by
    name, and under 170-row arrays a conv whose compute layout fits is
    still refused for its 181-row quantization layout."""
    from repro.nn.models import build_resnet_tiny

    net = build_resnet_tiny()
    config = rows_config(128)
    backend = FleetExecutor(config, verify=False)
    weights = backend.weights_for(net)
    with pytest.raises(SimulationError,
                       match=r"layer 'stem'.* needs 160 rows, but an "
                             r"array has 128"):
        backend.run_requests(net, case_images(net, weights, 1, 0), weights)

    net = conv_net((2, 2, 2), Conv2D(2, (1, 1)))
    config = rows_config(170)
    weights = FleetExecutor(config, verify=False).weights_for(net)
    with pytest.raises(SimulationError,
                       match=r"layer 'c': the quantization layout needs "
                             r"181 rows, but an array has 170"):
        ConvStaging.compile(net.conv_of(net.node("c")), net.input_shape,
                            weights.for_node("c"), config, "c")


#: Layer -> the rows its one-output-per-bitline program touches. (Max
#: pool's 33 rows sit below the 88 the mapper needs for any pool.)
BITLINE_LAYOUTS = {
    "avgpool": (AvgPool((2, 2), stride=2, padding="valid"), 108),
    "add": (Add(), 70),
    "add-relu": (Add(relu=True), 80),
    "bn": (QuantizedBatchNorm(relu=False), 100),
    "bn-relu": (QuantizedBatchNorm(relu=True), 195),
}


def bitline_engine(net, weights, config, image):
    """Node ``'l'``'s engine, built as the functional executor builds it."""
    executor = FunctionalExecutor(net, weights, config)
    return executor._build_engine(net.node("l"), [image])


@pytest.mark.parametrize("case", sorted(BITLINE_LAYOUTS))
def test_bitline_layouts_checked_against_the_geometry(case, monkeypatch):
    """Pools, add and batch norm declare their row layouts too: built one
    row short, each engine is refused by name, and at exactly its layout
    it runs bit-exact on fleets that tall."""
    layer, rows = BITLINE_LAYOUTS[case]
    net = Network(name="layout-case")
    x = net.add_input("in", (6, 6, 3))
    net.add("l", layer, (x, x) if isinstance(layer, Add) else x)
    weights = initialise_weights(net, seed=2)
    images = case_images(net, weights, 2, 0)
    with pytest.raises(SimulationError,
                       match=rf"layer 'l': the functional layout needs "
                             rf"{rows} rows, but an array has {rows - 1}$"):
        bitline_engine(net, weights, rows_config(rows - 1), images[0])

    heights = []
    make_fleet = functional.make_fleet

    def spy(*args, **kwargs):
        heights.append(kwargs["rows"])
        return make_fleet(*args, **kwargs)

    monkeypatch.setattr(functional, "make_fleet", spy)
    engine = bitline_engine(net, weights, rows_config(rows), images[0])
    operands = (images, images) if isinstance(layer, Add) else (images,)
    golden = ReferenceExecutor(net, weights)
    for image, got in zip(images, engine.run_batch(*operands)):
        assert np.array_equal(got.data, golden.run(image)["l"].data)
    assert heights and set(heights) == {rows}
