"""Functional in-cache execution: layers actually run on SRAM arrays.

This module is the reproduction's equivalent of the paper's simulator
verification ("verified by running data traces on it and matching the
results with traces obtained from instrumenting the TensorFlow model"):
convolution, pooling and quantization execute *bit by bit* on
SRAM array fleets driven by
:class:`~repro.engine.bitserial.FleetBitSerialUnit`, using the real data
layout (packing, splitting, channel padding) from the mapping engine, and
the results must match the golden NumPy executor exactly.

Execution of a convolution follows the paper's two stages:

1. **Compute stage** (per output batch, Fig. 10a -> 10b): filters sit
   transposed on the bitlines, the window streams in, one MAC per filter
   tap runs on every bitline at once, an input-sum accumulates alongside
   (for zero-point corrections), and the channel tree reduction (Fig. 5)
   collapses each output's lanes onto its head bitline. The taps run in
   blocks through ``FleetBitSerialUnit.mac_taps``, as many per block as
   :data:`FLEET_BYTE_BUDGET` allows, which the packed store runs as one
   kernel when a block has two taps or more.
2. **Quantization stage** (per layer, Sec. IV-D): raw sums and input sums
   are staged one-output-per-bitline; the zero-point corrections, ReLU
   (MSB-masked zero write) and the CPU's fixed-point requantization
   scalars are applied in cache in two's complement.

The quantization stage runs in cache for ReLU layers (every Inception v3
conv). Layers without ReLU (the final FC) can have negative accumulators;
their requantization happens on the host, as the paper also ships final
outputs to the CPU.

One runner, :func:`_run_fleet`, builds and charges every fleet, as the
paper's per-bank FSM sequences every layer kind (Sec. IV-F). Each stage
declares its row layout, which its engine checks against the geometry's
``array_rows`` when built, and hands the runner ordered ``(phase,
step)`` pairs; the fleet is only as tall as the layout, and each step's
``cycles * n_arrays`` goes to its phase. The one-output-per-bitline
stages (the conv quantization stage, max and average pooling, add and
batch norm, Sec. IV-D) chunk the batch at image boundaries
(:func:`_run_bitline_program`); the conv compute stage chunks it
aligned to reduction groups.

Execution is *vectorized*: every serial pass of a layer maps to one
member of an :class:`~repro.engine.fleet.PlaneStore` fleet, and the
whole layer executes as one lockstep bit-serial sequence across all
arrays — the paper's "thousands of arrays operating in lockstep"
(Sec. III). Cycle reports aggregate per-array cycles
(``sequence_cycles * n_arrays``). ``packed=True`` backs every fleet
with the packed plane store
(:class:`~repro.engine.packed.PackedArrayFleet`, words sized to the
array width) instead of the unpacked byte-per-bit reference; outputs and
cycle reports are identical either way.

The *batch* dimension is a fleet dimension too: every engine exposes
``run_batch``, which folds a whole batch of images into the fleet's
``n_arrays`` axis — one fleet of ``batch * arrays_per_image`` arrays,
loaded with every image's bit planes at once, runs each layer's
bit-serial sequence once per *batch* instead of once per image. Arrays
stay aligned to image boundaries, so a batched pass executes exactly the
arrays the per-image loop would and reports identical per-image cycles
(the arrays are parallel hardware — batching changes wall-clock, not
modeled cycles). Passes are chunked at :data:`MAX_FLEET_ARRAYS` arrays.
A conv compute chunk is a sparsity skip domain; consecutive chunks whose
skip signatures agree run as one lockstep fleet of up to
:data:`FLEET_BYTE_BUDGET` packed bytes per wordline, as one broadcast
instruction steps every array (Sec. IV-F), so narrow arrays stack
several chunks into each host plane op with identical outputs and cycle
reports.

Layers whose padded channel count exceeds the array width span
``arrays_per_conv`` consecutive fleet members per output: each spanning
array reduces its own columns in-array, then
``FleetBitSerialUnit.reduce_across_arrays`` folds the per-array sums
over the mapper's :class:`~repro.core.mapping.ReductionPlan` (sense-amp
pair, quadrant bus, then ring hops) into the group's first array. Chunk
boundaries are reduction-group-aligned, so a lockstep chunk never
splits a spanning output.

Host transfers follow the live data, as only outputs move out of the
cache (Sec. IV-E). After the reductions only each group's head bitline
holds an output, so the compute stage reads back only the arrays that
hold a live group (on spanning layers each group's first array, one in
``arrays_per_conv``) through the array-selective
``FleetBitSerialUnit.read_values``. Conv operands enter as packed words
through ``FleetBitSerialUnit.write_words``, converted once and loaded
by index: filters stay resident as the layer's compiled table of
distinct per-array planes (:class:`ConvStaging`, weight-stationary,
Sec. IV-E), spanning layers convert each batch's windows to words once
(one cell per image, position and slot), and single-array layers
convert all of a window's taps at once. No per-array uint8 plane and
no int-to-word conversion is alive while a fleet runs, so stacking more
chunks per fleet grows little but the fleet.

Scale limits: the compute stage's input-sum must fit 16 bits for the
in-cache correction multiply, which bounds a layer's reduction size
(R.S.C) to 257 taps — enough for every verification-scale layer and for
real 1x1 Inception layers (packed channels); the analytic simulator has
no such bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.bits import (
    from_twos_complement,
    ints_to_packed_planes,
    packed_bytes,
    packed_words,
    to_twos_complement,
)
from repro.common.errors import SimulationError
from repro.config import NeuralCacheConfig
from repro.core.mapping import LayerMapping, map_conv, map_pool
from repro.engine.bitserial import FleetBitSerialUnit
from repro.engine.packed import make_fleet
from repro.nn.layers import (
    Add,
    AvgPool,
    BatchNorm,
    Concat,
    Conv2D,
    FullyConnected,
    MaxPool,
    QuantizedBatchNorm,
    same_padding_offsets,
)
from repro.nn.reference import ConvWeights
from repro.nn.tensor import QuantParams, QuantizedTensor, round_shift
from repro.sram.bitserial import Operand

#: Two's complement working width for corrections (covers 24-bit sums).
CORRECTION_BITS = 34
#: Maximum taps per output so the input-sum fits the 16-bit multiply.
MAX_FUNCTIONAL_TAPS = 257
#: Arrays per chunk of a vectorized stage (batched passes multiply the
#: array count by the batch size, so serving-scale batches chunk). A conv
#: compute chunk is the sparsity skip domain: its ``plane_any`` probes
#: decide skips for its arrays alone, so this value is part of the cycle
#: model. The conv compute stage bounds its host memory with
#: ``FLEET_BYTE_BUDGET`` and ``GATHER_BUDGET_ELEMENTS``, the other stages
#: with this cap; verification-scale layers still run in a single
#: all-arrays pass. Tests monkeypatch it to exercise ragged chunking.
MAX_FLEET_ARRAYS = 256
#: Elements per staged (array, lane, tap) plane in a conv window. It
#: also caps the chunk size, so it moves skip domains and is part of the
#: cycle model, not just a memory knob.
GATHER_BUDGET_ELEMENTS = 1 << 21
#: Packed bytes per wordline of one conv compute fleet: one
#: default-width chunk (``MAX_FLEET_ARRAYS`` arrays of 256 columns,
#: 8 KB). Consecutive chunks with equal skip signatures run as one
#: lockstep fleet within it, so narrow arrays stack several chunks into
#: each plane op (sixteen 256-array chunks of 16-column uint16 words,
#: 4,096 arrays), while a 256-column chunk runs alone. A stacked fleet's
#: host staging does not grow with its array count: filters load from
#: the layer's compiled word table and spanning inputs from the batch's
#: window words, by index. The same budget sets how many taps the MAC
#: kernel stacks per block, as many as ``taps * n_arrays *
#: packed_bytes(cols)`` allows: all of mlp's 16 taps on its one-array
#: fleets, 8 on resnet's 32-array projection, one tap (the per-tap loop)
#: at 8 KB planes. It counts one plane per tap, not the kernel's memory:
#: the products, their carries and the two sums' fold stack peak near
#: 165 planes per 8-bit tap into 24-bit sums (tracemalloc), about 1.3 MB
#: for the projection's 8-tap block.
FLEET_BYTE_BUDGET = MAX_FLEET_ARRAYS * packed_bytes(256)


@dataclass
class CycleReport:
    """Compute cycles the functional run spent, by phase.

    ``skipped`` counts the cycles the sparsity engine elided (all-zero
    operand bit planes skipped fleet-wide); with skipping enabled the
    phase counters hold the cycles that actually ran, so
    :attr:`dense_cycles` — the data-independent accounting the paper
    uses — is ``total + skipped``. Dense runs have ``skipped == 0`` and
    ``dense_cycles == total``.
    """

    mac: int = 0
    reduction: int = 0
    quantization: int = 0
    pooling: int = 0
    passes: int = 0
    skipped: int = 0

    @property
    def total(self) -> int:
        """All compute cycles across phases (excludes the pass count)."""
        return self.mac + self.reduction + self.quantization + self.pooling

    @property
    def dense_cycles(self) -> int:
        """Cycles a dense (no-skip) execution of the same run would take.

        This is the paper's data-independent accounting: cycle-identity
        gates pin ``dense_cycles``, which stays stable whatever the
        activation sparsity of the inputs.
        """
        return self.total + self.skipped

    def merged(self, other: "CycleReport") -> "CycleReport":
        return CycleReport(
            mac=self.mac + other.mac,
            reduction=self.reduction + other.reduction,
            quantization=self.quantization + other.quantization,
            pooling=self.pooling + other.pooling,
            passes=self.passes + other.passes,
            skipped=self.skipped + other.skipped)


@dataclass(frozen=True)
class _LanePlan:
    """Where each (lane, tap) of a conv group finds its filter byte and
    input coordinate: ``(lanes, taps)`` tables of the window offset
    ``(r, s)`` and channel ``c``. ``valid`` is False where the slot is
    unused (channel padding or a split tail) and stages zero; its
    ``r``/``s``/``c`` entries are 0."""

    taps: int                       # bytes per bitline (R'.S')
    lanes: int                      # channels_padded (C'')
    valid: np.ndarray
    r: np.ndarray
    s: np.ndarray
    c: np.ndarray


def _plan_lanes(mapping: LayerMapping, kernel: tuple[int, int],
                channels: int) -> _LanePlan:
    """Build the lane/tap layout from the mapping's packing/splitting."""
    r_k, s_k = kernel
    taps = mapping.filter_bytes_per_bitline
    lanes = mapping.channels_padded
    lane = np.arange(lanes)[:, None]
    tap = np.arange(taps)[None, :]
    if mapping.pack_factor > 1:
        # Packed 1x1: lane holds pack_factor consecutive channels.
        c = lane * mapping.pack_factor + tap
        valid = c < channels
        w_idx = np.zeros_like(c)
    else:
        # Split (or plain) filters: lane = (channel, split part), and
        # part ``p`` holds window positions [p * taps, (p + 1) * taps).
        c = np.broadcast_to(lane // mapping.split_factor, (lanes, taps))
        w_idx = (lane % mapping.split_factor) * taps + tap
        valid = (c < channels) & (w_idx < r_k * s_k)

    def table(values: np.ndarray) -> np.ndarray:
        out = np.where(valid, values, 0)
        out.flags.writeable = False
        return out

    valid.flags.writeable = False
    return _LanePlan(taps=taps, lanes=lanes, valid=valid,
                     r=table(w_idx // s_k), s=table(w_idx % s_k),
                     c=table(c))


def _conv_rows(mapping: LayerMapping, taps: int) -> tuple[Operand, ...]:
    """A conv fleet's row regions (Fig. 10a, with the input-sum for
    corrections): filters, inputs, multiply scratch, partial sums,
    reduction segment and input sums, top to bottom.

    Packed 1x1 filters have no input reuse and stream one input byte at
    a time into a single-byte region (Sec. IV-A). Spanning groups widen
    the accumulators by one row: the final cross-array add carries into
    bit 32 of the reduction width.
    """
    acc_rows = 33 if mapping.arrays_per_conv > 1 else 32
    filters = Operand(0, taps * 8)
    inputs = Operand(filters.end, 8 if mapping.pack_factor > 1 else taps * 8)
    scratch = Operand(inputs.end, 16)
    partial = Operand(scratch.end, acc_rows)  # 24 live + growth
    segment = Operand(partial.end, 32)
    xsum = Operand(segment.end, acc_rows)     # 24 live + growth
    return filters, inputs, scratch, partial, segment, xsum


def _quantize_rows(requant: bool) -> tuple[Operand, ...]:
    """The quantization stage's row regions: the correction layout
    (accumulator, input sum, zero-point scalar, product, constant,
    scratch), then, for layers that requantize in cache, the layout
    that reuses the dead rows above the accumulator (multiplier,
    48-bit product, rounding half, zero point, result, saturation)."""
    w = CORRECTION_BITS
    acc = Operand(0, w)
    xs16 = Operand(acc.end, 16)
    m16 = Operand(xs16.end, 16)
    prod = Operand(m16.end, w)       # 32-bit product + 2 zero rows
    kreg = Operand(prod.end, w)
    scr = Operand(kreg.end, w)
    rows = (acc, xs16, m16, prod, kreg, scr)
    if not requant:
        return rows
    m24 = Operand(acc.end, 24)       # xs16/m16 are dead now
    prod48 = Operand(m24.end, 48)    # prod/kreg head are dead
    half48 = Operand(prod48.end, 48)  # kreg tail/scr head are dead
    zp9 = Operand(half48.end, 9)
    out10 = Operand(zp9.end, 10)
    sat8 = Operand(out10.end, 8)
    return rows + (m24, prod48, half48, zp9, out10, sat8)


def _in_cache_requant(conv: Conv2D, weights: ConvWeights) -> bool:
    """ReLU layers requantize in cache; the rest (the final FC) on the
    host, as the paper ships final outputs to the CPU."""
    return conv.relu and weights.requant.shift <= 39


def _check_rows(name: str, what: str, regions: tuple[Operand, ...],
                config: NeuralCacheConfig) -> None:
    """Refuse a layout whose regions do not fit the geometry's arrays."""
    rows = max(region.end for region in regions)
    limit = config.geometry.array_rows
    if rows > limit:
        raise SimulationError(
            f"layer {name!r}: the {what} layout needs {rows} rows, but "
            f"an array has {limit}")


@dataclass(frozen=True)
class ConvStaging:
    """A conv layer's compiled host staging, built once and reused by
    every batch (weight-stationary, Sec. IV-E).

    Everything here depends only on the layer, its weights and the
    config, never on the inputs, so one staging serves any number of
    batches and of :class:`FunctionalConv` engines at once (its arrays
    are read-only):

    * ``windows`` — ``(E*F, lanes, taps)`` int32 index of every output
      position's input window into one image flattened from its padded
      ``(H_p, W_p, C)`` shape, with one zero byte appended; unused
      slots (``valid`` False in the lane plan) point at that zero
      sentinel. The
      window of output ``(i, j, m)`` does not depend on ``m``, so a
      batch gathers each window once.
    * ``filters`` — ``(M, lanes, taps)`` uint8 filter bytes per output
      channel, padding taps already zero.
    * ``filter_sums`` — ``(M,)`` per-filter byte sums for the
      quantization stage's zero-point constant.
    * ``groups`` and ``arrays_per_image`` — output groups per array and
      arrays per image: one group of ``lanes`` bitlines per output on
      single-array layers, ``arrays_per_conv`` arrays per output on
      spanning ones.
    * ``filter_words`` — ``(taps * 8, planes, n_words)`` packed words
      (:func:`_byte_words`) of the layer's *distinct* per-array filter
      planes, and ``filter_index`` — ``(arrays_per_image,)``, the plane
      each image-local array loads. A spanning array holds slot ``slot``
      of filter ``m``, one plane per ``(m, slot)``; a single-array
      layer's array holds ``groups`` consecutive filters from channel
      ``a * groups % M``, so it has at most ``M`` planes (one when the
      groups tile the channels), plus one for a last array with dead
      groups. Fleets load these words as they are, so no filter is
      converted after compile.

    :meth:`compile` validates the layer (element width, tap bound,
    spanning geometry, the compute and quantization row layouts against
    the geometry's ``array_rows``, narrowed filter range) so a staging
    is always runnable.
    """

    mapping: LayerMapping
    plan: _LanePlan
    #: Padded input image shape and the (top, left) offset of the data.
    padded_shape: tuple[int, int, int]
    pad_origin: tuple[int, int]
    windows: np.ndarray
    filters: np.ndarray
    filter_sums: np.ndarray
    groups: int
    arrays_per_image: int
    filter_words: np.ndarray
    filter_index: np.ndarray

    @classmethod
    def compile(cls, conv: Conv2D, input_shape: tuple[int, int, int],
                weights: ConvWeights, config: NeuralCacheConfig,
                name: str = "conv",
                element_bits: int | None = None) -> "ConvStaging":
        """Map and plan the layer and build its gather tables."""
        mapping = map_conv(config, name, conv, input_shape,
                           element_bits=element_bits)
        if mapping.element_bits > 8:
            raise SimulationError(
                f"layer {name!r}: the functional path stores byte-aligned "
                f"8-bit elements; {mapping.element_bits}-bit elements "
                f"are analytic-only")
        r, s, c, m = conv.filter_shape(input_shape)
        if r * s * c > MAX_FUNCTIONAL_TAPS:
            raise SimulationError(
                f"layer {name!r} reduces {r * s * c} taps per output; the "
                f"functional path supports at most {MAX_FUNCTIONAL_TAPS} so "
                f"the input-sum correction fits the 16-bit in-cache "
                f"multiply")
        if mapping.arrays_per_conv > 1:
            cols = config.geometry.array_cols
            if cols & (cols - 1):
                raise SimulationError(
                    f"layer {name!r} spans arrays, which reduces the full "
                    f"{cols}-column array width in-array first; that tree "
                    f"needs a power-of-two array_cols")
        plan = _plan_lanes(mapping, conv.kernel, c)
        _check_rows(name, "functional", _conv_rows(mapping, plan.taps),
                    config)
        _check_rows(name, "quantization",
                    _quantize_rows(_in_cache_requant(conv, weights)), config)

        h, w, _ = input_shape
        top = left = 0
        if conv.padding == "same":
            top, bottom = same_padding_offsets(h, conv.kernel[0],
                                               conv.stride)
            left, right = same_padding_offsets(w, conv.kernel[1],
                                               conv.stride)
            h, w = h + top + bottom, w + left + right
        e, f, _ = conv.output_shape(input_shape)
        stride = conv.stride
        corner = ((np.arange(e)[:, None] * stride * w
                   + np.arange(f)[None, :] * stride) * c).reshape(-1)
        offset = (plan.r * w + plan.s) * c + plan.c      # (lanes, taps)
        sentinel = h * w * c
        windows = np.where(plan.valid[None], corner[:, None, None] + offset,
                           sentinel).astype(np.int32)

        data = weights.filters.data                      # (R, S, C, M)
        filters = np.where(plan.valid[:, :, None],
                           data[plan.r, plan.s, plan.c], np.uint8(0))
        filters = np.ascontiguousarray(filters.transpose(2, 0, 1))
        _check_narrowed(name, mapping.element_bits, "filter", filters)
        filter_sums = data.astype(np.int64).sum(axis=(0, 1, 2))
        cols = config.geometry.array_cols
        span = mapping.arrays_per_conv
        groups = max(cols // plan.lanes, 1)
        n_out = e * f * m
        local = np.arange(-(-n_out // groups) if span == 1
                          else n_out * span)
        if span > 1:
            planes = filters.reshape(m * span, cols, plan.taps)
            filter_index = local % (m * span)
        else:
            # An array's plane is fixed by its first channel and its live
            # group count (dead groups stage zeros).
            first = local * groups % m
            live = np.minimum(n_out - local * groups, groups)
            keys, filter_index = np.unique(first * (groups + 1) + live,
                                           return_inverse=True)
            first, live = np.divmod(keys, groups + 1)
            group = np.arange(groups)
            vals = filters[(first[:, None] + group) % m]
            vals[group >= live[:, None]] = 0   # (planes, groups, lanes, taps)
            planes = np.zeros((len(keys), cols, plan.taps), dtype=np.uint8)
            planes[:, :groups * plan.lanes] = vals.reshape(len(keys), -1,
                                                           plan.taps)
        filter_words = _byte_words(planes.transpose(2, 0, 1))
        filter_index = filter_index.astype(np.intp).reshape(-1)
        for table in (windows, filters, filter_sums, filter_words,
                      filter_index):
            table.flags.writeable = False
        return cls(mapping=mapping, plan=plan, padded_shape=(h, w, c),
                   pad_origin=(top, left), windows=windows,
                   filters=filters, filter_sums=filter_sums,
                   groups=groups, arrays_per_image=len(local),
                   filter_words=filter_words, filter_index=filter_index)

    def gather_windows(self, data: np.ndarray,
                       zero_point: int) -> np.ndarray:
        """Every output position's input window for a ``(batch, H, W, C)``
        stack: pad with the input zero point into one flat row per image
        (plus the zero sentinel), then one ``take``. Returns
        ``(batch, E*F, lanes, taps)`` uint8."""
        batch, h, w, _ = data.shape
        hp, wp, c = self.padded_shape
        flat = np.empty((batch, hp * wp * c + 1), dtype=np.uint8)
        image = flat[:, :-1].reshape(batch, hp, wp, c)
        top, left = self.pad_origin
        if (hp, wp) != (h, w):
            image[...] = zero_point
        image[:, top:top + h, left:left + w] = data
        flat[:, -1] = 0
        return np.take(flat, self.windows, axis=1)

    def window_words(self, windows: np.ndarray) -> np.ndarray:
        """A spanning layer's gathered ``windows`` as packed words, once
        per batch: ``(taps * 8, cells, n_words)`` (:func:`_byte_words`),
        cell ``(image * E*F + position) * span + slot`` holding slot
        ``slot``'s columns of that window, the input plane of every
        array of that position and slot, whatever its channel."""
        lanes, taps = windows.shape[2:]
        cols = lanes // self.mapping.arrays_per_conv
        cells = windows.reshape(-1, cols, taps)
        return _byte_words(cells.transpose(2, 0, 1))


class _LayerEngine:
    """What every layer engine holds: config, name, plane store
    (``packed`` words or the unpacked reference), sparsity switch (skip
    all-zero bit planes; outputs stay bit-exact), cycle report, and the
    row ``layout`` of its fleets, refused if it outgrows the arrays."""

    def __init__(self, config: NeuralCacheConfig | None, name: str,
                 packed: bool, sparsity: bool,
                 layout: tuple[Operand, ...]):
        self.config = config if config is not None else NeuralCacheConfig()
        self.name = name
        self.packed = packed
        self.sparsity = sparsity
        self.report = CycleReport()
        _check_rows(name, "functional", layout, self.config)
        self.layout = layout

    def run(self, *xs: QuantizedTensor) -> QuantizedTensor:
        """Execute one image (one tensor per operand)."""
        return self.run_batch(*([x] for x in xs))[0]


class FunctionalConv(_LayerEngine):
    """Executes one quantized convolution on bit-serial arrays.

    ``staging`` is the layer's compiled :class:`ConvStaging`; engines of
    the same layer and weights may share one (the fleet backend keeps it
    across batches). Without one, the engine compiles its own.
    """

    def __init__(self, conv: Conv2D, input_shape: tuple[int, int, int],
                 weights: ConvWeights,
                 config: NeuralCacheConfig | None = None,
                 name: str = "conv",
                 output_params=None,
                 packed: bool = False,
                 sparsity: bool = False,
                 element_bits: int | None = None,
                 staging: ConvStaging | None = None):
        self.conv = conv
        self.input_shape = input_shape
        self.weights = weights
        self.output_params = output_params
        config = config if config is not None else NeuralCacheConfig()
        if staging is None:
            staging = ConvStaging.compile(conv, input_shape, weights, config,
                                          name, element_bits)
        self.staging = staging
        self.mapping = staging.mapping
        self.plan = staging.plan
        super().__init__(config, name, packed, sparsity,
                         _conv_rows(self.mapping, self.plan.taps))

    # ------------------------------------------------------------------
    def run_batch(self, xs: list[QuantizedTensor]) -> list[QuantizedTensor]:
        """Execute a whole batch as one fleet pass per stage.

        The batch folds into the fleet's array axis: image ``b``'s passes
        occupy arrays ``[b * arrays_per_image, (b + 1) * arrays_per_image)``
        — exactly the arrays the per-image loop would build — so outputs
        and per-image cycle accounting are identical to running ``run``
        once per image, while every bit-serial sequence executes once per
        *batch*.
        """
        # The input zero point broadcasts into padding and the quantize
        # constants, so the batch must share quantization parameters.
        _check_batch(xs, self.input_shape, shared_params=True)
        e, f, m = self.conv.output_shape(self.input_shape)
        windows = self.staging.gather_windows(
            np.stack([x.data for x in xs]), xs[0].params.zero_point)
        _check_narrowed(self.name, self.mapping.element_bits, "input",
                        windows)
        raw, xsum = self._compute_stage_fleet(windows)
        out = self._quantize_stage(raw, xsum, xs[0].params.zero_point)
        params = self.output_params
        if params is None:
            params = self._default_output_params()
        return [QuantizedTensor(o.reshape(e, f, m).astype(np.uint8), params)
                for o in out]

    def _default_output_params(self):
        # Standalone use: derive nominal parameters from the requant ratio.
        # When chaining layers, pass the real activation QuantParams in.
        requant = self.weights.requant
        acc_scale = requant.multiplier / (1 << requant.shift)
        return QuantParams(scale=max(acc_scale, 1e-12),
                           zero_point=requant.zero_point)

    # ------------------------------------------------------------------
    # Stage 1: MACs + reduction
    # ------------------------------------------------------------------
    def _compute_stage_fleet(self, windows: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray]:
        """All images' output batches at once: one fleet member per pass.

        ``windows`` is the batch's ``(batch, E*F, lanes, taps)`` input
        windows (:meth:`ConvStaging.gather_windows`). The
        ``batch * arrays_per_image`` arrays split into chunks of at most
        :data:`MAX_FLEET_ARRAYS`, aligned to reduction groups; each
        chunk is one sparsity skip domain. A window of consecutive
        chunks, within ``FLEET_BYTE_BUDGET`` packed bytes per wordline and
        ``GATHER_BUDGET_ELEMENTS`` staged elements, stages its input
        words at once (:meth:`_stage_chunk`). Each run of chunks with
        equal skip signatures (:func:`_skip_runs`) then executes as a
        *single* lockstep MAC/reduction program on one :func:`_run_fleet`
        fleet (:meth:`_compute_program`) — no Python loop over arrays or
        images. Equal signatures make every ``plane_any`` probe answer
        each chunk as it would alone, and arrays never straddle image
        boundaries, so cycle reports (``sequence_cycles * n_arrays`` per
        fleet) match the per-image loop exactly.
        """
        staging = self.staging
        n_images = windows.shape[0]
        cols = self.config.geometry.array_cols
        taps = self.plan.taps
        groups = staging.groups
        n_out = windows.shape[1] * staging.filters.shape[0]
        span = self.mapping.arrays_per_conv
        total_arrays = n_images * staging.arrays_per_image
        raw = np.zeros((n_images, n_out), dtype=np.int64)
        xsum = np.zeros((n_images, n_out), dtype=np.int64)
        # Chunks are whole arrays and respect both the array cap and the
        # staging budget.
        arrays_by_gather = max(
            GATHER_BUDGET_ELEMENTS // (groups * self.plan.lanes * taps), 1)
        per_chunk = min(MAX_FLEET_ARRAYS, arrays_by_gather)
        if span > 1:
            # Chunks must hold whole reduction groups: round the cap down
            # to a group multiple (never below one group). Groups start at
            # multiples of ``span`` on the global axis, so aligned chunk
            # boundaries can never split one.
            per_chunk = max(per_chunk // span * span, span)
            # Spanning inputs convert to words once per batch.
            windows = staging.window_words(windows)
        chunks = _array_chunks(total_arrays, per_chunk)
        per_window = max(min(
            FLEET_BYTE_BUDGET // (per_chunk * packed_bytes(cols)),
            GATHER_BUDGET_ELEMENTS // (per_chunk * taps * cols)), 1)
        for w in range(0, len(chunks), per_window):
            window = chunks[w:w + per_window]
            a0, a1 = window[0][0], window[-1][1]
            filter_index, inputs, input_index, img, ol, live = (
                self._stage_chunk(windows, a0, a1))
            runs = [(0, a1 - a0)]
            if self.sparsity:
                # The gathered words are freed before any fleet exists.
                runs = _skip_runs(
                    staging.filter_words[:, filter_index],
                    inputs[:, input_index],
                    np.array([c0 - a0 for c0, _ in window]))
            for r0, r1 in runs:
                _run_fleet(self, r1 - r0, self.layout, self._compute_program(
                    filter_index[r0:r1], inputs, input_index[r0:r1],
                    img[r0:r1], ol[r0:r1], live[r0:r1], raw, xsum))
        return raw, xsum

    def _stage_chunk(self, windows: np.ndarray, a0: int, a1: int
                     ) -> tuple[np.ndarray, ...]:
        """The host staging of arrays ``[a0, a1)``: each array's
        ``filter_index`` into ``staging.filter_words``, a table of input
        words ``(taps * 8, n, n_words)`` (:func:`_byte_words`) with each
        array's ``input_index`` into it, each array's image ``img``, and
        each (array, group)'s output ``ol`` and ``live`` flag.

        ``windows`` is :meth:`ConvStaging.window_words` on spanning
        layers: image-local array ``(p * M + m) * span + slot`` loads
        cell ``(image * E*F + p) * span + slot``, the same for every
        ``m``, so nothing is staged per array but the indices. Single
        array layers stage their groups' window bytes and convert all
        taps to words at once; the uint8 staging is freed before any
        fleet is built.
        """
        staging = self.staging
        m = staging.filters.shape[0]
        arrays_per_image = staging.arrays_per_image
        span = self.mapping.arrays_per_conv
        img, local = np.divmod(np.arange(a0, a1), arrays_per_image)
        filter_index = staging.filter_index[local]
        if span > 1:
            # Every array computes real data; only slot 0 emits a result.
            slot = local % span
            ol = (local // span)[:, None]     # (n_arrays, 1), groups == 1
            live = np.broadcast_to(slot[:, None] == 0, ol.shape)
            positions = arrays_per_image // (m * span)
            cell = (img * positions + local // (m * span)) * span + slot
            return filter_index, windows, cell, img, ol, live

        groups = staging.groups
        n_out = windows.shape[1] * m
        out_local = local[:, None] * groups + np.arange(groups)[None, :]
        live = out_local < n_out              # (n_arrays, groups)
        ol = np.minimum(out_local, n_out - 1)
        # Window bytes per (array, group, lane, tap); dead groups stage
        # zeros. Tap-major, as the words are laid out.
        ivals = windows[img[:, None], ol // m]
        ivals[~live] = 0
        n_arrays, taps = a1 - a0, self.plan.taps
        values = np.zeros((taps, n_arrays, self.config.geometry.array_cols),
                          dtype=np.uint8)
        values[:, :, :ivals.shape[1] * ivals.shape[2]] = ivals.transpose(
            3, 0, 1, 2).reshape(taps, n_arrays, -1)
        del ivals
        return (filter_index, _byte_words(values), np.arange(n_arrays),
                img, ol, live)

    def _compute_program(self, filter_index: np.ndarray, inputs: np.ndarray,
                         input_index: np.ndarray, img: np.ndarray,
                         ol: np.ndarray, live: np.ndarray, raw: np.ndarray,
                         xsum: np.ndarray) -> list:
        """One lockstep fleet's program over staged words
        (:meth:`_stage_chunk`), one array per pass, as :func:`_run_fleet`
        steps: the uncharged load, the MAC blocks, the reductions, and the
        read-back into the ``(batch, n_out)`` ``raw``/``xsum``
        accumulators."""
        mapping = self.mapping
        taps = self.plan.taps
        lanes = self.plan.lanes
        groups = self.staging.groups
        cols = self.config.geometry.array_cols
        packed = mapping.pack_factor > 1
        n_arrays = len(filter_index)
        span = mapping.arrays_per_conv
        nb = mapping.element_bits
        (filter_rows, input_rows, scratch, partial, segment,
         xsum_rows) = self.layout
        block = max(FLEET_BYTE_BUDGET // (n_arrays * packed_bytes(cols)), 1)

        def load(unit: FleetBitSerialUnit) -> None:
            # Weight-stationary filters: one host load of the compiled words.
            unit.write_words(filter_rows, self.staging.filter_words,
                             filter_index)
            if not packed:
                unit.write_words(input_rows, inputs, input_index)
            unit.zero(Operand(partial.row, 24))
            unit.zero(Operand(xsum_rows.row, 24))
            if span > 1:
                # The cross-array adds read the full 32-bit reduction
                # width; the in-array tree only writes growth bits up to
                # ``24 + log2(cols)``, so only the rows above need zeros
                # (zeroing lower growth bits would be dead writes).
                in_final = 24 + (cols.bit_length() - 1)
                if in_final < 32:
                    unit.zero(Operand(partial.row + in_final, 32 - in_final))
                    unit.zero(Operand(xsum_rows.row + in_final, 32 - in_final))

        def macs(unit: FleetBitSerialUnit) -> None:
            # One multiply-accumulate per tap, whole fleet, in blocks of
            # taps whose stacked planes fit FLEET_BYTE_BUDGET. Narrowed
            # layers (``element_bits < 8``) run the serial sequence over
            # the low ``nb`` planes only; storage stays byte-aligned.
            # Packed 1x1 layers stream each tap's byte into one region.
            for t0 in range(0, taps, block):
                t1 = min(t0 + block, taps)
                f_op = Operand(filter_rows.row + 8 * t0, nb)
                x_op = Operand(input_rows.row + (0 if packed else 8 * t0), nb)
                unit.mac_taps(f_op, x_op, t1 - t0, 8,
                              Operand(scratch.row, 2 * nb),
                              Operand(partial.row, 24),
                              Operand(xsum_rows.row, 24),
                              words=inputs[8 * t0:8 * t1] if packed else None,
                              index=input_index if packed else None)

        def reduce(unit: FleetBitSerialUnit) -> None:
            # Raw sums, then input sums (Fig. 5 / Fig. 10b).
            in_lanes = lanes if span == 1 else cols
            if in_lanes > 1:
                unit.reduce_tree(partial, segment, in_lanes, 24)
                unit.reduce_tree(xsum_rows, segment, in_lanes, 24)
            if span > 1:
                # Fold the spanning arrays' sums into each group's first
                # array over the mapper's hop schedule (sense-amp pair,
                # then bus/ring), at the full reduction width.
                width = self.config.reduction_bits
                unit.reduce_across_arrays(
                    partial, Operand(segment.row, width), span, width)
                unit.reduce_across_arrays(
                    xsum_rows, Operand(segment.row, width), span, width)

        def read_back(unit: FleetBitSerialUnit) -> None:
            # Each group's head column (output move path). Only the rows
            # the sequence wrote are read: 24 accumulator bits plus one
            # growth bit per reduction step (spanning groups: the full
            # widened accumulator). The rest of the 32-row regions hold
            # power-on zeros — reading them would work, but the dataflow
            # verifier rightly flags reads of never-written rows.
            if span == 1:
                live_bits = 24 + (lanes.bit_length() - 1 if lanes > 1 else 0)
            else:
                live_bits = partial.nbits
            # Only arrays holding a live group are read back: on spanning
            # layers each group's first array (one in ``span``);
            # elsewhere every array holds one, and the read needs no
            # selection.
            sel = np.flatnonzero(live.any(axis=1))
            arrays = None if len(sel) == n_arrays else sel
            raw_bits, sum_bits = (
                unit.read_values(Operand(op.row, live_bits), arrays)
                for op in (partial, xsum_rows))
            head = np.arange(groups) * (lanes if span == 1 else 0)
            hit = live[sel]
            out = (np.broadcast_to(img[sel, None], hit.shape)[hit],
                   ol[sel][hit])
            raw[out] = raw_bits[:, head][hit]
            xsum[out] = sum_bits[:, head][hit]

        return [(None, load), ("mac", macs), ("reduction", reduce),
                (None, read_back)]

    # ------------------------------------------------------------------
    # Stage 2: corrections + ReLU + requantization (Sec. IV-D)
    # ------------------------------------------------------------------
    def _quantize_stage(self, raw: np.ndarray, xsum: np.ndarray,
                        zpx: int) -> np.ndarray:
        """Apply zero-point corrections, ReLU and requantization in cache.

        ``raw``/``xsum`` are ``(batch, n_out)``, staged one output per
        bitline (:func:`_run_bitline_program`). The true accumulator is
        recovered from the unsigned in-cache sums:

            acc = raw - zpw * xsum + (N * zpx * zpw - zpx * sum_w[m])

        where ``raw = sum(x_q * w_q)``, ``xsum = sum(x_q)``, ``N = R.S.C``
        and ``sum_w[m]`` is filter ``m``'s byte sum — the per-filter
        constant is preloaded alongside the filters, ``zpw`` arrives as a
        broadcast scalar, and everything runs in 34-bit two's complement
        so ReLU's MSB mask works exactly as Sec. IV-D describes.
        """
        requant = self.weights.requant
        zpw = self.weights.zero_point
        r, s, c, _ = self.conv.filter_shape(self.input_shape)
        if np.any(xsum >= 1 << 16):
            raise SimulationError(
                "input sums exceed the 16-bit correction multiply")
        # Net constant per output: N*zpx*zpw - zpx*sum_w[m] (may be < 0),
        # tiled over the (i, j) positions as outputs are (i, j, m).
        e, f, _ = self.conv.output_shape(self.input_shape)
        const = to_twos_complement(
            np.tile(r * s * c * zpx * zpw - zpx * self.staging.filter_sums,
                    e * f), CORRECTION_BITS)
        in_cache_requant = _in_cache_requant(self.conv, self.weights)
        n_images, n_out = raw.shape
        cols = self.config.geometry.array_cols

        def stage_group(b0: int, b1: int) -> list[np.ndarray]:
            return [_stage_batch(raw[b0:b1], cols),
                    _stage_batch(xsum[b0:b1], cols),
                    _stage_batch(np.broadcast_to(const, (b1 - b0, n_out)),
                                 cols)]

        layout = _quantize_rows(in_cache_requant)

        def program(unit: FleetBitSerialUnit,
                    planes: list[np.ndarray]) -> Operand:
            # ``ConvStaging.compile`` checked that the layout fits the array.
            acc, xs16, m16, prod, kreg, scr, *requant_rows = layout
            # Host staging (the output-move path already paid for this data).
            unit.write_values(acc, planes[0])
            unit.write_values(xs16, planes[1])
            unit.write_values(kreg, planes[2])
            # acc += (N*zpx*zpw - zpx*sum_w[m]);  acc -= zpw * xsum
            unit.write_scalar(m16, zpw)
            unit.multiply(xs16, m16, Operand(prod.row, 32))
            unit.zero(Operand(prod.row + 32, 2))
            unit.add_into(kreg, acc)
            unit.sub_into(acc, prod, scr)
            if not in_cache_requant:
                return acc
            # ReLU: MSB-enabled zero write (Sec. IV-D).
            unit.relu(acc, sign_row=acc.bit(CORRECTION_BITS - 1))
            # Requantize: acc * M0 (24x24 multiply), then the epilogue.
            m24, prod48, half48, zp9, out10, sat8 = requant_rows
            unit.write_scalar(m24, requant.multiplier)
            unit.multiply(Operand(acc.row, 24), m24, prod48)
            return _requantize(unit, prod48, requant.shift,
                               requant.zero_point, half48, zp9, out10, sat8)

        out = _run_bitline_program(self, layout, n_images, n_out,
                                   stage_group, program, "quantization",
                                   passes=False)
        if in_cache_requant:
            return out
        # No-ReLU layers (the final FC) requantize on the host, as the
        # paper ships final outputs to the CPU anyway.
        signed = from_twos_complement(out, CORRECTION_BITS)
        if self.conv.relu:
            signed = np.maximum(signed, 0)
        return requant.apply(signed).astype(np.int64)


class FunctionalMaxPool(_LayerEngine):
    """Max pooling on bit-serial arrays (Sec. IV-D)."""

    def __init__(self, pool: MaxPool, input_shape: tuple[int, int, int],
                 config: NeuralCacheConfig | None = None,
                 name: str = "maxpool", packed: bool = False,
                 sparsity: bool = False):
        self.pool = pool
        self.input_shape = input_shape
        # The running maximum, a candidate tap and the fold's scratch.
        super().__init__(config, name, packed, sparsity, (
            Operand(0, 8), Operand(8, 8), Operand(16, 17)))
        self.mapping = map_pool(self.config, name, pool, input_shape)

    def run_batch(self, xs: list[QuantizedTensor]) -> list[QuantizedTensor]:
        """Max-pool a whole batch in one fleet pass per chunk: fold the
        window taps into a running maximum, one output per bitline."""
        _check_batch(xs, self.input_shape)
        e, f, c = self.pool.output_shape(self.input_shape)

        def program(unit: FleetBitSerialUnit,
                    taps: list[np.ndarray]) -> Operand:
            current, candidate, scratch = self.layout
            unit.write_values(current, taps[0])
            for tap in taps[1:]:
                unit.write_values(candidate, tap)
                unit.max_update(current, candidate, scratch)
            return current

        out = _run_bitline_program(
            self, self.layout, len(xs), e * f * c,
            _pool_window_stager(self.pool, np.stack([x.data for x in xs]),
                                self.config.geometry.array_cols),
            program, "pooling")
        return [QuantizedTensor(o.reshape(e, f, c).astype(np.uint8),
                                x.params)
                for o, x in zip(out, xs)]


class FunctionalAvgPool(_LayerEngine):
    """Average pooling: in-array window sum, then restoring division.

    The accumulator holds a full window of 255s: 16 bits up to 257 taps,
    wider beyond (a narrower one would wrap the sum).
    """

    def __init__(self, pool: AvgPool, input_shape: tuple[int, int, int],
                 config: NeuralCacheConfig | None = None,
                 name: str = "avgpool", packed: bool = False,
                 sparsity: bool = False):
        self.pool = pool
        self.input_shape = input_shape
        n = max(16, (255 * pool.kernel[0] * pool.kernel[1]).bit_length())
        # Element, accumulator, divisor, quotient, division scratch.
        super().__init__(config, name, packed, sparsity, (
            Operand(0, 8), Operand(8, n), Operand(8 + n, n),
            Operand(8 + 2 * n, n), Operand(8 + 3 * n, 3 * n + 4)))
        self.mapping = map_pool(self.config, name, pool, input_shape)

    def run_batch(self, xs: list[QuantizedTensor]) -> list[QuantizedTensor]:
        """Average-pool a whole batch in one fleet pass per chunk: sum the
        window taps, then divide by the in-bounds tap count, one output
        per bitline."""
        _check_batch(xs, self.input_shape)
        pool = self.pool
        e, f, c = pool.output_shape(self.input_shape)
        n_out = e * f * c
        cols = self.config.geometry.array_cols
        stage_taps = _pool_window_stager(
            pool, np.stack([x.data for x in xs]), cols)
        # In-bounds taps per output, layout-only and shared by all
        # images: the window sums of an all-ones image. Dead columns
        # divide by 1 so divide() never sees a zero divisor.
        ones = np.ones((1, *self.input_shape), dtype=np.uint8)
        taps = _pool_window_stager(pool, ones, cols)(0, 1)
        counts = np.maximum(np.sum(taps, axis=0), 1)

        def stage_group(b0: int, b1: int) -> list[np.ndarray]:
            return stage_taps(b0, b1) + [np.tile(counts, (b1 - b0, 1))]

        def program(unit: FleetBitSerialUnit,
                    planes: list[np.ndarray]) -> Operand:
            element, acc, divisor, quotient, work = self.layout
            unit.zero(acc)
            for tap in planes[:-1]:
                unit.write_values(element, tap)
                unit.add_into(element, acc)
            unit.write_values(divisor, planes[-1])
            unit.divide(acc, divisor, quotient, work)
            return quotient

        out = _run_bitline_program(self, self.layout, len(xs), n_out,
                                   stage_group, program, "pooling")
        return [QuantizedTensor(o.reshape(e, f, c).astype(np.uint8),
                                x.params)
                for o, x in zip(out, xs)]


class FunctionalAdd(_LayerEngine):
    """Element-wise quantized addition in cache (residual connections).

    One output per bitline: add the operands (Fig. 4), subtract the
    shared zero point, clamp below at zero (or at the zero point when a
    ReLU is fused) and saturate above at 255 — all with the tag-predicated
    writes of Sec. III.
    """

    def __init__(self, input_shape: tuple[int, int, int],
                 config: NeuralCacheConfig | None = None,
                 relu: bool = False, name: str = "add",
                 packed: bool = False, sparsity: bool = False):
        self.input_shape = input_shape
        self.relu = relu
        # a8, b8, total9, zp9, diff10 (9-bit difference + not-borrow),
        # scratch9, low9, sat8, then a fused ReLU's second compare.
        layout = (Operand(0, 8), Operand(8, 8), Operand(16, 9),
                  Operand(25, 9), Operand(34, 10), Operand(44, 9),
                  Operand(53, 9), Operand(62, 8), Operand(70, 10))
        super().__init__(config, name, packed, sparsity,
                         layout if relu else layout[:-1])

    def run_batch(self, a_list: list[QuantizedTensor],
                  b_list: list[QuantizedTensor]) -> list[QuantizedTensor]:
        """Add a whole batch of operand pairs in one fleet pass per chunk.

        The shared zero point broadcasts to the entire fleet, so every
        image of the batch must carry the same quantization parameters
        (they do, coming out of one network's branches).
        """
        if len(a_list) != len(b_list):
            raise SimulationError(
                f"operand batches must match: {len(a_list)} vs "
                f"{len(b_list)} images")
        _check_batch(a_list, self.input_shape, shared_params=True)
        _check_batch(b_list, self.input_shape, shared_params=True)
        if a_list[0].params != b_list[0].params:
            raise SimulationError(
                "elementwise add requires shared quantization parameters; "
                "requantize the branches first")
        zp = a_list[0].params.zero_point
        n_out = int(np.prod(self.input_shape))
        cols = self.config.geometry.array_cols

        def stage_group(b0: int, b1: int) -> list[np.ndarray]:
            return [_stage_batch(np.stack([t.data.reshape(-1)
                                           for t in ts[b0:b1]]), cols)
                    for ts in (a_list, b_list)]

        def program(unit: FleetBitSerialUnit,
                    planes: list[np.ndarray]) -> Operand:
            (a8, b8, total9, zp9, diff10, scratch9, low9, sat8,
             *relu_cmp) = self.layout
            unit.write_values(a8, planes[0])
            unit.write_values(b8, planes[1])
            unit.add(a8, b8, total9)
            unit.write_scalar(zp9, zp)
            unit.sub(total9, zp9, diff10, scratch9)
            # Underflow: total < zp  ->  result clamps to 0.
            unit.write_scalar(low9, 0)
            unit.selective_copy(low9, Operand(diff10.row, 9), diff10.bit(9),
                                invert=True)
            # Overflow: difference >= 256  ->  saturate to 255.
            unit.write_scalar(sat8, 255)
            unit.selective_copy(sat8, Operand(diff10.row, 8), diff10.bit(8))
            if self.relu:
                # Fused ReLU clamps below the zero point: out = max(out, zp).
                unit.sub(Operand(diff10.row, 9), zp9, relu_cmp[0], scratch9)
                unit.write_scalar(low9, zp)
                unit.selective_copy(low9, Operand(diff10.row, 9),
                                    relu_cmp[0].bit(9), invert=True)
            return Operand(diff10.row, 8)

        out = _run_bitline_program(self, self.layout, len(a_list), n_out,
                                   stage_group, program, "pooling")
        return [QuantizedTensor(
                    o.reshape(self.input_shape).astype(np.uint8), a.params)
                for o, a in zip(out, a_list)]


class FunctionalBatchNorm(_LayerEngine):
    """Explicit in-cache batch normalisation (Sec. IV-D).

    Per output: a 16-bit multiply by the channel's scalar, a two's
    complement add of the channel's bias integer, the MSB-masked ReLU,
    then the rounding shift / zero-point / saturation epilogue — the
    "multiplications, adds, and shifts to be performed on all the output
    elements" of the paper. Layers without ReLU read the signed
    accumulator back and finish on the host (as with the final FC).
    """

    def __init__(self, input_shape: tuple[int, int, int], bn_weights,
                 config: NeuralCacheConfig | None = None,
                 relu: bool = True, zp_out: int = 0, name: str = "bn",
                 packed: bool = False, sparsity: bool = False):
        self.input_shape = input_shape
        self.bn = bn_weights
        self.relu = relu
        self.zp_out = zp_out
        # q16, mult16, acc (32-bit product + 2 growth), bias34, then the
        # ReLU epilogue's half34 (rows 100-133 spare), zp9, out10, sat8.
        layout = (Operand(0, 16), Operand(16, 16),
                  Operand(32, CORRECTION_BITS), Operand(66, CORRECTION_BITS),
                  Operand(134, CORRECTION_BITS), Operand(168, 9),
                  Operand(177, 10), Operand(187, 8))
        super().__init__(config, name, packed, sparsity,
                         layout if relu else layout[:4])
        if input_shape[2] != bn_weights.channels:
            raise SimulationError(
                f"BN has {bn_weights.channels} channels, input has "
                f"{input_shape[2]}")
        if relu and bn_weights.shift + 9 > 34:
            raise SimulationError(
                f"BN shift {bn_weights.shift} too large for the in-cache "
                f"epilogue window")

    def run_batch(self, xs: list[QuantizedTensor]) -> list[QuantizedTensor]:
        """Batch-normalise a whole batch in one fleet pass per chunk, one
        output per bitline."""
        _check_batch(xs, self.input_shape)
        h, w, c = self.input_shape
        n_out = h * w * c
        # Channel index of each flattened output (C varies fastest); the
        # per-channel scalars/biases are layout-only, shared by all images.
        channel_of = np.tile(np.arange(c), h * w)
        cols = self.config.geometry.array_cols
        mult_col = self.bn.multiplier[channel_of]
        bias_col = to_twos_complement(self.bn.bias[channel_of],
                                      CORRECTION_BITS)

        def stage_group(b0: int, b1: int) -> list[np.ndarray]:
            group = b1 - b0
            return [
                _stage_batch(np.stack([x.data.reshape(-1)
                                       for x in xs[b0:b1]]), cols),
                _stage_batch(np.broadcast_to(mult_col, (group, n_out)),
                             cols),
                _stage_batch(np.broadcast_to(bias_col, (group, n_out)),
                             cols),
            ]

        def program(unit: FleetBitSerialUnit,
                    planes: list[np.ndarray]) -> Operand:
            q16, mult16, acc, bias34, *epilogue = self.layout
            unit.write_values(q16, planes[0])
            unit.write_values(mult16, planes[1])
            unit.write_values(bias34, planes[2])
            unit.multiply(q16, mult16, Operand(acc.row, 32))
            unit.zero(Operand(acc.row + 32, 2))
            unit.add_into(bias34, acc)
            if not self.relu:
                return acc
            unit.relu(acc, sign_row=acc.bit(CORRECTION_BITS - 1))
            return _requantize(unit, acc, self.bn.shift, self.zp_out,
                               *epilogue)

        out = _run_bitline_program(self, self.layout, len(xs), n_out,
                                   stage_group, program, "quantization")
        if not self.relu:
            # Host epilogue for no-ReLU layers (as with the final FC).
            signed = from_twos_complement(out, CORRECTION_BITS)
            out = np.clip(round_shift(signed, self.bn.shift) + self.zp_out,
                          0, 255)
        return [QuantizedTensor(
                    o.reshape(self.input_shape).astype(np.uint8),
                    QuantParams(scale=x.params.scale,
                                zero_point=self.zp_out))
                for o, x in zip(out, xs)]


class FunctionalExecutor:
    """Runs a whole quantized network on bit-serial arrays.

    Convolutions (including FC-as-conv) and pooling execute in-cache;
    concatenation is pure data movement (the outputs of branches land in
    adjacent regions of the reserved way) and happens on the host, exactly
    as the architecture leaves it to the output-management machinery.

    Layer engines are built on first use and reused across
    :meth:`run`/:meth:`run_batch` calls. Each conv compiles its
    :class:`ConvStaging` (mapping, lane plan, window and filter tables)
    once into ``stagings``, node name -> staging; pass the same dict to
    every executor of one network and weights and the filters stay
    resident across batches, exactly as the architecture amortises
    filter loading (Sec. IV-E). A batch then only pads its inputs and
    gathers their windows with one ``take`` per layer. Per-run state
    (the cycle reports) is reset at the start of each run, so
    ``reports``/:meth:`total_report` always describe the most recent
    run — one image for :meth:`run`, the whole batch for
    :meth:`run_batch`.
    """

    def __init__(self, network, weights,
                 config: NeuralCacheConfig | None = None,
                 packed: bool = False,
                 sparsity: bool = False,
                 precision=None,
                 stagings: dict | None = None):
        self.network = network
        self.weights = weights
        self.config = config if config is not None else NeuralCacheConfig()
        #: Plane store for every layer's fleet (packed words vs reference).
        self.packed = packed
        #: Skip all-zero operand bit planes (data-dependent cycles;
        #: outputs bit-exact vs dense, ``dense_cycles`` stays stable).
        self.sparsity = sparsity
        #: Per-layer element precision (:class:`~repro.core.precision
        #: .LayerPrecision`); falls back to the network's attached table.
        if precision is None:
            precision = getattr(network, "precision", None)
        if precision is not None:
            precision.validate(network)
        self.precision = precision
        self.reports: dict[str, CycleReport] = {}
        #: Node name -> layer engine, planned once and reused per image.
        self._engines: dict[str, object] = {}
        #: Node name -> compiled conv staging. Only ever added to, and its
        #: values are immutable, so executors may share it.
        self.stagings = stagings if stagings is not None else {}

    def run(self, image: QuantizedTensor) -> dict[str, QuantizedTensor]:
        """Execute every layer; returns all node outputs by name."""
        batch = self.run_batch([image])
        return {name: tensors[0] for name, tensors in batch.items()}

    def run_batch(self, images: list[QuantizedTensor]
                  ) -> dict[str, list[QuantizedTensor]]:
        """Execute every layer once for a whole batch of images.

        The batch folds into each layer's fleet dimension
        (``batch * arrays_per_image`` arrays), so every bit-serial
        sequence of the network runs once per *batch* instead of once per
        image, with outputs and aggregate cycle reports identical to
        looping :meth:`run` (``reports`` holds each layer's whole-batch
        cycles — the per-image loop total, since batching changes
        wall-clock, not modeled cycles). Returns node name -> one output
        tensor per image.
        """
        if not images:
            raise SimulationError("run_batch needs at least one image")
        for image in images:
            if image.shape != self.network.input_shape:
                raise SimulationError(
                    f"input shape {image.shape} does not match network "
                    f"{self.network.input_shape}")
        self.reports = {}
        results = {self.network.input_name: list(images)}
        for node in self.network.layer_nodes():
            inputs = [results[name] for name in node.inputs]
            results[node.name] = self._run_node(node, inputs)
        return results

    def run_output(self, image: QuantizedTensor) -> QuantizedTensor:
        return self.run(image)[self.network.output_name]

    def _engine_for(self, node, inputs):
        """The node's layer engine, built (planned) once per executor."""
        engine = self._engines.get(node.name)
        if engine is None:
            engine = self._build_engine(node, inputs)
            self._engines[node.name] = engine
        # Per-run state: each run/batch reports its own cycles.
        engine.report = CycleReport()
        return engine

    def _build_engine(self, node, inputs):
        layer = node.layer
        activation = self.weights.activation_params
        if isinstance(layer, Add):
            return FunctionalAdd(inputs[0].shape, self.config,
                                 relu=layer.relu, name=node.name,
                                 packed=self.packed, sparsity=self.sparsity)
        if isinstance(layer, QuantizedBatchNorm):
            return FunctionalBatchNorm(
                inputs[0].shape, self.weights.bn_for_node(node.name),
                self.config, relu=layer.relu,
                zp_out=activation.zero_point, name=node.name,
                packed=self.packed, sparsity=self.sparsity)
        if isinstance(layer, MaxPool):
            return FunctionalMaxPool(layer, inputs[0].shape, self.config,
                                     name=node.name, packed=self.packed,
                                     sparsity=self.sparsity)
        if isinstance(layer, AvgPool):
            return FunctionalAvgPool(layer, inputs[0].shape, self.config,
                                     name=node.name, packed=self.packed,
                                     sparsity=self.sparsity)
        conv = self.network.conv_of(node)
        shape = inputs[0].shape
        if isinstance(layer, FullyConnected):
            shape = (1, 1, int(np.prod(shape)))
        element_bits = (self.precision.bits_for(node.name)
                        if self.precision is not None else None)
        engine = FunctionalConv(conv, shape,
                                self.weights.for_node(node.name),
                                self.config, name=node.name,
                                output_params=activation,
                                packed=self.packed, sparsity=self.sparsity,
                                element_bits=element_bits,
                                staging=self.stagings.get(node.name))
        self.stagings.setdefault(node.name, engine.staging)
        return engine

    def _run_node(self, node, inputs):
        """Run one node for the whole batch; ``inputs`` are per-branch
        lists of per-image tensors."""
        layer = node.layer
        if isinstance(layer, Concat):
            # Pure data movement, on the host (Sec. IV-E).
            return [QuantizedTensor(
                        np.concatenate([branch[i].data for branch in inputs],
                                       axis=2),
                        inputs[0][i].params)
                    for i in range(len(inputs[0]))]
        if isinstance(layer, BatchNorm):
            return inputs[0]
        engine = self._engine_for(node, [branch[0] for branch in inputs])
        if isinstance(layer, Add):
            out = engine.run_batch(inputs[0], inputs[1])
        elif isinstance(layer, FullyConnected):
            out = engine.run_batch(
                [QuantizedTensor(x.data.reshape(1, 1, -1), x.params)
                 for x in inputs[0]])
        else:
            out = engine.run_batch(inputs[0])
        self.reports[node.name] = engine.report
        return out

    def total_report(self) -> CycleReport:
        """Cycle totals across all executed layers."""
        total = CycleReport()
        for report in self.reports.values():
            total = total.merged(report)
        return total


def _check_narrowed(name: str, nb: int, what: str,
                    values: np.ndarray) -> None:
    """Narrowed layers must actually fit their elements in ``nb`` bits.

    Precision narrowing only drops the serial passes over the high
    planes; it is exact *only* when those planes are zero for every
    staged value, so an operand outside ``[0, 2**nb)`` is a hard error,
    not silent truncation. Filters are checked once, when the layer's
    staging compiles; inputs on every batch.
    """
    if nb >= 8:
        return
    limit = 1 << nb
    peak = int(values.max(initial=0))
    if peak >= limit:
        raise SimulationError(
            f"layer {name!r} narrows elements to {nb} bits but its staged "
            f"{what} operands reach {peak} (>= {limit}); narrowed "
            f"execution would truncate them")


def _array_chunks(total_arrays: int, max_arrays: int
                  ) -> list[tuple[int, int]]:
    """Slices of the global batch-by-arrays axis, at most ``max_arrays``
    each, bounding fleet memory on activation-heavy layers and batches."""
    return [(a0, min(a0 + max_arrays, total_arrays))
            for a0 in range(0, total_arrays, max_arrays)]


def _byte_words(values: np.ndarray) -> np.ndarray:
    """Byte fields ``(fields, n, cols)`` as the packed words of a block of
    8-bit fields, ``(fields * 8, n, n_words)``: bit ``b`` of field ``t``
    at row ``8 * t + b``, the layout ``write_words`` loads into an
    operand (:meth:`~repro.engine.fleet.PlaneStore.load_words`)."""
    fields, n, cols = values.shape
    words = ints_to_packed_planes(values, 8, packed_words(cols))
    return np.ascontiguousarray(words.transpose(1, 0, 2, 3)).reshape(
        fields * 8, n, -1)


def _skip_runs(filter_words: np.ndarray, input_words: np.ndarray,
               starts: np.ndarray) -> list[tuple[int, int]]:
    """Split a staged conv window into maximal runs of chunks with equal
    skip signatures, as ``[r0, r1)`` array offsets into the window.

    ``filter_words``/``input_words`` are the window's ``(taps * 8,
    arrays, n_words)`` packed filter and input words (:func:`_byte_words`)
    and ``starts`` each chunk's first array. A chunk's signature decides
    every sparsity probe of its MAC sequence: per tap, which bit planes
    of its input bytes are anywhere nonzero (each ``multiply`` plane
    probe and the input-sum ``add_into`` skip) and whether any lane's
    product is nonzero (the product ``add_into`` skip). No other step of
    the sequence probes, so chunks with equal signatures skip exactly
    the same steps whether they run alone or stacked in one fleet.
    """
    rows, n_arrays, n_words = input_words.shape
    taps = rows // 8
    # Fold the arrays of each chunk first, so the words are reduced only
    # once per chunk.
    ors = np.bitwise_or.reduceat(input_words, starts, axis=1).any(axis=2)

    def nonzero(words: np.ndarray) -> np.ndarray:
        """Per tap, the columns whose byte is nonzero."""
        return np.bitwise_or.reduce(
            words.reshape(taps, 8, n_arrays, n_words), axis=1)

    products = np.bitwise_or.reduceat(
        nonzero(filter_words) & nonzero(input_words), starts,
        axis=1).any(axis=2)
    signature = np.concatenate([ors, products]).T
    change = np.flatnonzero((signature[1:] != signature[:-1]).any(axis=1))
    bounds = [0, *starts[change + 1].tolist(), n_arrays]
    return list(zip(bounds[:-1], bounds[1:]))


def _run_fleet(engine, n_arrays: int, layout: tuple[Operand, ...], steps,
               passes: bool = True):
    """Build one lockstep fleet of ``n_arrays`` arrays on ``engine``'s
    store, only as tall as ``layout``, and run one stage program on it.

    ``steps`` are the program's ordered ``(phase, step)`` pairs: each
    ``step(unit)`` runs on the fleet, and the cycles it spends, times
    ``n_arrays``, go to the ``phase`` field of ``engine.report`` (a
    ``None`` phase charges nothing). The fleet's skipped cycles then go
    to ``skipped`` and, with ``passes``, its arrays to ``passes``.
    Returns the last step's result.
    """
    unit = FleetBitSerialUnit(
        make_fleet(n_arrays, rows=max(region.end for region in layout),
                   cols=engine.config.geometry.array_cols,
                   packed=engine.packed),
        sparsity=engine.sparsity)
    report = engine.report
    for phase, step in steps:
        before = unit.cycles
        result = step(unit)
        if phase is not None:
            setattr(report, phase, getattr(report, phase)
                    + (unit.cycles - before) * n_arrays)
    report.skipped += unit.skipped_cycles * n_arrays
    if passes:
        report.passes += n_arrays
    return result


def _run_bitline_program(engine, layout: tuple[Operand, ...], n_images: int,
                         n_out: int, stage_group, program, phase: str,
                         passes: bool = True) -> np.ndarray:
    """Run a one-output-per-bitline layer program over a whole batch.

    ``stage_group(b0, b1)`` stages images ``[b0, b1)`` as
    ``(arrays, cols)`` value planes (:func:`_stage_batch`). Images run in
    image-aligned groups sized so one group's planes respect
    :data:`MAX_FLEET_ARRAYS` (an image whose own fleet exceeds the cap
    still forms a group), each group in chunks of at most that many
    arrays: staging the whole batch up front would let peak host memory
    grow with the batch regardless of the cap. Each chunk is one
    :func:`_run_fleet` fleet, ``layout`` tall, whose one step, charged
    to ``phase``, runs ``program(unit, planes)`` (write the planes, run
    the layer's sequence, return the operand to read back) and reads
    that operand back. Outputs never depend on chunk and group
    boundaries, nor do dense cycle reports: the sequences are
    data-independent and cycles are charged per array (property-tested
    with ``MAX_FLEET_ARRAYS`` at 2). Under sparsity each chunk decides
    its own skips. Returns the ``(n_images, n_out)`` read-back values.
    """
    cols = engine.config.geometry.array_cols
    per_group = max(MAX_FLEET_ARRAYS // -(-n_out // cols), 1)
    out = np.zeros((n_images, n_out), dtype=np.int64)
    for b0 in range(0, n_images, per_group):
        b1 = min(b0 + per_group, n_images)
        planes = stage_group(b0, b1)
        out_planes = np.zeros_like(planes[0])
        for a0, a1 in _array_chunks(planes[0].shape[0], MAX_FLEET_ARRAYS):
            chunk = [p[a0:a1] for p in planes]
            steps = [(phase, lambda unit, chunk=chunk:
                      unit.read_values(program(unit, chunk)))]
            out_planes[a0:a1] = _run_fleet(engine, a1 - a0, layout, steps,
                                           passes)
        # Drop each image's dead tail columns (:func:`_stage_batch`).
        out[b0:b1] = out_planes.reshape(b1 - b0, -1)[:, :n_out]
    return out


def _requantize(unit: FleetBitSerialUnit, value: Operand, shift: int,
                zero_point: int, half: Operand, zp9: Operand,
                out10: Operand, sat8: Operand) -> Operand:
    """The in-cache requantization epilogue (Sec. IV-D): add the rounding
    half, shift right by ``shift`` (a row offset), add the 9-bit zero
    point and saturate to 255 when any bit above the result window is
    set. ``half`` is scratch as wide as ``value``; returns the 8-bit
    result."""
    if shift > 0:
        unit.write_scalar(half, 1 << (shift - 1))
        unit.add_into(half, value)
    unit.write_scalar(zp9, zero_point)
    unit.add(Operand(value.row + shift, 9), zp9, out10)
    result = Operand(out10.row, 8)
    unit.write_scalar(sat8, 255)
    for high in range(shift + 9, value.nbits):
        unit.selective_copy(sat8, result, value.row + high)
    for high in (8, 9):
        unit.selective_copy(sat8, result, out10.bit(high))
    return result


def _check_batch(xs, input_shape, shared_params: bool = False) -> None:
    """Validate a ``run_batch`` image list: non-empty, every image the
    layer's shape, and (when the sequence broadcasts a scalar derived
    from them) shared quantization parameters."""
    if not xs:
        raise SimulationError("run_batch needs at least one image")
    for x in xs:
        if x.shape != input_shape:
            raise SimulationError(
                f"input shape {x.shape} does not match layer "
                f"{input_shape}")
        if shared_params and x.params != xs[0].params:
            raise SimulationError(
                "batched execution requires every image of the batch to "
                "share quantization parameters")


def _stage_batch(values: np.ndarray, cols: int, fill: int = 0) -> np.ndarray:
    """Stage ``(batch, n_out)`` values as ``(batch * arrays, cols)`` fleet
    planes, arrays aligned to image boundaries.

    Image ``b`` occupies arrays ``[b * arrays, (b + 1) * arrays)`` with
    ``arrays = ceil(n_out / cols)``; array ``p`` of an image receives its
    elements ``[p * cols, (p + 1) * cols)``, and the tail columns of each
    image's last array are padded with ``fill`` (dead lanes) — exactly the
    arrays a per-image loop would stage, so batched cycle accounting
    (cycles x arrays) matches the loop.
    """
    values = np.asarray(values, dtype=np.int64)
    batch, n_out = values.shape
    arrays_per_image = -(-n_out // cols)
    staged = np.full((batch, arrays_per_image * cols), fill, dtype=np.int64)
    staged[:, :n_out] = values
    return staged.reshape(batch * arrays_per_image, cols)


def _pool_window_stager(pool, data: np.ndarray, cols: int):
    """A pool's ``stage_group`` over a ``(batch, H, W, C)`` stack: images
    ``[b0, b1)``, zero padded for 'same' pools, as one ``(arrays, cols)``
    plane per window tap, in row-major window order. Outputs are
    flattened ``(i, j, channel)``, the channel fastest."""
    _, h, w, c = data.shape
    e, f, _ = pool.output_shape((h, w, c))
    if pool.padding != "valid":
        top, bottom = same_padding_offsets(h, pool.kernel[0], pool.stride)
        left, right = same_padding_offsets(w, pool.kernel[1], pool.stride)
        data = np.pad(data, ((0, 0), (top, bottom), (left, right), (0, 0)))
    out = np.arange(e * f * c)
    # Each output's window corner and channel.
    i = out // (f * c) * pool.stride
    j = out // c % f * pool.stride
    channel = out % c

    def stage_group(b0: int, b1: int) -> list[np.ndarray]:
        return [_stage_batch(data[b0:b1, i + r, j + s, channel], cols)
                for r in range(pool.kernel[0])
                for s in range(pool.kernel[1])]

    return stage_group
