"""The Neural Cache data-layout engine (Sec. IV-A / IV-B, Figs. 9-11).

Maps one DNN layer onto the cache's compute arrays:

* **Filter splitting** — filters taller than 9 bytes per bitline (e.g. the
  5x5s in Mixed_5b) split across several bitlines, multiplying the
  effective channel count;
* **Filter packing** — 1x1 filters pack up to 16 channels into one bitline,
  dividing the effective channel count (fewer reduction steps, and all
  channels of even the 2048-wide layers fit near one array);
* **Channel rounding** — the effective channel count rounds up to a power
  of two (zero padding) so the reduction tree stays regular;
* **Parallelisation** — each group of ``channels_padded`` bitlines computes
  one convolution (one output element); arrays hold several groups;
  different filter batches (M) share arrays (Fig. 9), and output pixels
  partition across slices (Fig. 11). Whatever exceeds the cache's parallel
  capacity runs as serial passes.

Pooling layers map with the same machinery: the window plays the filter's
role, there is no cross-channel reduction, and windows larger than the
word-line budget split across bitlines like filters do.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bits import ceil_div, next_power_of_two
from repro.common.errors import MappingError
from repro.config import NeuralCacheConfig
from repro.nn.graph import Network, Node
from repro.nn.layers import (
    Add,
    AvgPool,
    Conv2D,
    FullyConnected,
    MaxPool,
    QuantizedBatchNorm,
)
from repro.sram.cost import CycleCosts
from repro.sram.layout import (
    OUTPUT_BITS,
    PARTIAL_SUM_BITS,
    SCRATCHPAD_BITS,
    max_conv_filter_bytes,
)


@dataclass(frozen=True)
class ReductionHop:
    """One cross-array tree level and the interconnect link it rides.

    ``kind`` names the physical hop by its reach (Sec. IV-C): arrays of a
    sub-array exchange through the shared sense amps (``"pair"``), arrays
    within a slice over a 64-bit quadrant bus (``"bus"``), and anything
    wider over the inter-slice ring (``"ring"``). ``bits_per_cycle`` is
    that link's width from :class:`~repro.cache.interconnect
    .InterconnectModel` — provenance for the hop, not a separate cycle
    charge: in compute mode every level moves one wordline per cycle
    through the TMU gateway, so the level costs ``move(width) +
    add(width)`` regardless of link width.
    """

    level: int
    kind: str                      # "pair" | "bus" | "ring"
    span: int                      # arrays the hop reaches across
    bits_per_cycle: int            # link width (InterconnectModel)


@dataclass(frozen=True)
class ReductionPlan:
    """The cross-array half of a layer's reduction schedule.

    ``group_size`` arrays hold one output's partial sums; ``hops`` lists
    the ``log2(group_size)`` tree levels in execution order. The plan is
    built once by the mapper and consumed by both the analytic schedule
    (:func:`repro.core.schedule.reduction_cycles_per_pass`) and the
    functional executor's ``reduce_across_arrays``, so the two cannot
    drift apart.
    """

    group_size: int
    hops: tuple[ReductionHop, ...]

    def __post_init__(self) -> None:
        if self.group_size < 1 or self.group_size & (self.group_size - 1):
            raise MappingError(
                f"reduction group size must be a power of two, got "
                f"{self.group_size}")
        if len(self.hops) != self.group_size.bit_length() - 1:
            raise MappingError(
                f"a group of {self.group_size} arrays needs "
                f"{self.group_size.bit_length() - 1} hops, got "
                f"{len(self.hops)}")

    @property
    def levels(self) -> int:
        """Tree levels crossing array boundaries (= ``len(hops)``)."""
        return len(self.hops)

    def cross_array_cycles(self, costs: CycleCosts, width: int) -> int:
        """Compute cycles of the cross-array tree at ``width`` bits.

        Every level is one full-width inter-array move plus one add, the
        exact accounting ``core/schedule.py`` used before plans existed —
        and the exact cycles ``FleetBitSerialUnit.reduce_across_arrays``
        executes under the derived cost preset.
        """
        return sum(costs.move(width) + costs.add(width) for _ in self.hops)


def _reduction_plan(config: NeuralCacheConfig, name: str,
                    arrays_per_conv: int) -> ReductionPlan:
    """Classify each cross-array tree level by the link it must cross."""
    if arrays_per_conv < 1:
        raise MappingError(
            f"layer {name!r}: arrays per output must be >= 1, got "
            f"{arrays_per_conv}")
    if arrays_per_conv & (arrays_per_conv - 1):
        raise MappingError(
            f"layer {name!r} spans {arrays_per_conv} arrays per output; "
            f"cross-array reduction needs a power-of-two span (pad the "
            f"channel count or change the geometry's array_cols)")
    geometry = config.geometry
    interconnect = config.interconnect
    hops = []
    for level in range(arrays_per_conv.bit_length() - 1):
        reach = 2 << level
        if reach <= geometry.arrays_per_subarray:
            kind = "pair"
            bits = interconnect.bank_bits_per_cycle
        elif reach <= geometry.arrays_per_slice:
            kind = "bus"
            bits = interconnect.quadrant_bus_bytes_per_cycle * 8
        else:
            kind = "ring"
            bits = interconnect.ring_bytes_per_cycle * 8
        hops.append(ReductionHop(level=level, kind=kind, span=reach,
                                 bits_per_cycle=bits))
    return ReductionPlan(group_size=arrays_per_conv, hops=tuple(hops))


@dataclass(frozen=True)
class LayerMapping:
    """How one layer occupies the cache for one inference."""

    layer_name: str
    kind: str                      # "conv" | "maxpool" | "avgpool"
    # original dimensions
    window_bytes: int              # R*S (conv) or pooling window
    channels: int                  # C (conv reduction width; pools: 1)
    out_channels: int              # M (conv) or C (pools)
    total_outputs: int             # E*F*M outputs = single convolutions
    stride: int
    kernel: tuple[int, int]
    # mapping decisions
    split_factor: int              # filter splitting
    pack_factor: int               # filter packing (1x1 only)
    filter_bytes_per_bitline: int  # R'.S'
    effective_channels: int        # C' after packing/splitting
    channels_padded: int           # C'' = next power of two
    # derived occupancy
    arrays_per_conv: int           # arrays one output element spans (>= 1)
    convs_per_array: int           # output elements per array (0 if spanning)
    parallel_outputs: int          # outputs computed simultaneously
    serial_passes: int
    # movement footprints (bytes)
    filter_load_bytes: int         # unique weights fetched from DRAM
    input_bytes_per_output: int    # window footprint of one output
    output_bytes: int              # layer output volume
    # cross-array reduction schedule (single-array layers: empty plan)
    reduction_plan: ReductionPlan = ReductionPlan(1, ())
    #: Serial element width this layer computes at. Storage stays
    #: byte-aligned (Sec. III-A); narrowing only shortens the bit-serial
    #: sequences, which is what the schedule and the functional executor
    #: charge. Defaults to the config's global ``element_bits``.
    element_bits: int = 8

    @property
    def utilization(self) -> float:
        """Average fraction of issued conv slots doing useful work —
        the paper's 99.7% for Conv2d_2b (42.88 useful passes of 43)."""
        issued = self.parallel_outputs * self.serial_passes
        return self.total_outputs / issued if issued else 0.0

    @property
    def outputs_last_pass(self) -> int:
        """Outputs computed in the final (possibly partial) pass."""
        remainder = self.total_outputs % self.parallel_outputs
        return remainder if remainder else self.parallel_outputs

    @property
    def cross_array_steps(self) -> int:
        """Reduction steps that cross array boundaries (sense-amp pairs
        first, then bus/ring moves)."""
        return self.reduction_plan.levels


def _pack_budget(config: NeuralCacheConfig, rows: int) -> int:
    """Largest pack factor the word lines allow for 1x1 filters.

    Fig. 10(a) with a one-byte input region: the packed filter column plus
    one streamed input byte, the scratchpad (2B), partial sum (3B) and
    output (4B) must fit the 256 word lines — 22 bytes of filter at most.
    """
    fixed = SCRATCHPAD_BITS + PARTIAL_SUM_BITS + OUTPUT_BITS
    free_bits = rows - fixed - config.element_bits
    return max(1, free_bits // config.element_bits)


def _mapping_for_window(config: NeuralCacheConfig, *, name: str, kind: str,
                        window_bytes: int, channels: int, out_channels: int,
                        total_outputs: int, stride: int,
                        kernel: tuple[int, int], filter_load_bytes: int,
                        input_bytes_per_output: int,
                        output_bytes: int,
                        element_bits: int | None = None) -> LayerMapping:
    """Shared packing/splitting/rounding/partitioning logic."""
    if element_bits is None:
        element_bits = config.element_bits
    if window_bytes <= 0 or channels <= 0 or total_outputs <= 0:
        raise MappingError(
            f"layer {name!r} has empty work: window={window_bytes}, "
            f"channels={channels}, outputs={total_outputs}")
    geometry = config.geometry
    budget = max_conv_filter_bytes(geometry.array_rows)
    if budget < 1:
        raise MappingError(
            f"layer {name!r}: arrays of {geometry.array_rows} rows leave "
            f"no word lines for filter data (Fig. 10 needs {2 * 8} bytes "
            f"of fixed regions plus the filter/input columns)")
    threshold = min(config.split_threshold_bytes, budget)

    pack_factor = 1
    split_factor = 1
    if window_bytes == 1 and channels > 1:
        # Filter packing: several channels of a 1x1 filter per bitline.
        # Packed 1x1s have no input reuse and stream one input byte at a
        # time (Sec. IV-A), so only the filter column counts against the
        # word-line budget — 16 bytes fit comfortably.
        pack_budget = _pack_budget(config, geometry.array_rows)
        pack_factor = min(config.pack_limit, channels, pack_budget)
        per_bitline = pack_factor
        effective_channels = ceil_div(channels, pack_factor)
    elif window_bytes > threshold:
        # Filter splitting: tall filters across multiple bitlines.
        split_factor = ceil_div(window_bytes, threshold)
        per_bitline = ceil_div(window_bytes, split_factor)
        effective_channels = channels * split_factor
    else:
        per_bitline = window_bytes
        effective_channels = channels

    if pack_factor == 1 and per_bitline > budget:
        raise MappingError(
            f"layer {name!r}: {per_bitline} filter bytes per bitline exceed "
            f"the {budget}-byte word-line budget even after splitting")

    channels_padded = next_power_of_two(effective_channels)
    cols = geometry.array_cols
    if channels_padded <= cols:
        arrays_per_conv = 1
        convs_per_array = cols // channels_padded
        parallel_outputs = geometry.compute_arrays * convs_per_array
    else:
        arrays_per_conv = ceil_div(channels_padded, cols)
        convs_per_array = 0
        parallel_outputs = geometry.compute_arrays // arrays_per_conv
    if parallel_outputs <= 0:
        raise MappingError(
            f"layer {name!r} needs {arrays_per_conv} arrays per output but "
            f"only {geometry.compute_arrays} compute arrays exist")
    parallel_outputs = min(parallel_outputs, total_outputs)
    serial_passes = ceil_div(total_outputs, parallel_outputs)
    reduction_plan = _reduction_plan(config, name, arrays_per_conv)

    return LayerMapping(
        layer_name=name, kind=kind, window_bytes=window_bytes,
        channels=channels, out_channels=out_channels,
        total_outputs=total_outputs, stride=stride, kernel=kernel,
        split_factor=split_factor, pack_factor=pack_factor,
        filter_bytes_per_bitline=per_bitline,
        effective_channels=effective_channels,
        channels_padded=channels_padded,
        arrays_per_conv=arrays_per_conv, convs_per_array=convs_per_array,
        parallel_outputs=parallel_outputs, serial_passes=serial_passes,
        filter_load_bytes=filter_load_bytes,
        input_bytes_per_output=input_bytes_per_output,
        output_bytes=output_bytes,
        reduction_plan=reduction_plan,
        element_bits=element_bits)


def map_conv(config: NeuralCacheConfig, name: str, conv: Conv2D,
             input_shape: tuple[int, int, int],
             element_bits: int | None = None) -> LayerMapping:
    """Map a convolution (or FC-as-conv) layer.

    ``element_bits`` narrows this layer's serial element width (a
    :class:`~repro.core.precision.LayerPrecision` entry); ``None`` keeps
    the config's global width. Validated here — map time is where every
    consumer (schedule, functional executor) picks the width up.
    """
    if element_bits is None:
        element_bits = config.element_bits
    if not 1 <= element_bits <= 16:
        raise MappingError(
            f"layer {name!r}: element precision must be 1..16 bits, got "
            f"{element_bits}")
    r, s, c, m = conv.filter_shape(input_shape)
    e, f, _ = conv.output_shape(input_shape)
    return _mapping_for_window(
        config, name=name, kind="conv", window_bytes=r * s, channels=c,
        out_channels=m, total_outputs=e * f * m, stride=conv.stride,
        kernel=conv.kernel,
        filter_load_bytes=conv.weight_bytes(input_shape),
        input_bytes_per_output=r * s * c,
        output_bytes=e * f * m,
        element_bits=element_bits)


def map_pool(config: NeuralCacheConfig, name: str, pool: MaxPool | AvgPool,
             input_shape: tuple[int, int, int]) -> LayerMapping:
    """Map a pooling layer: per-channel windows, no channel reduction."""
    e, f, c = pool.output_shape(input_shape)
    kind = "avgpool" if isinstance(pool, AvgPool) else "maxpool"
    return _mapping_for_window(
        config, name=name, kind=kind, window_bytes=pool.window, channels=1,
        out_channels=c, total_outputs=e * f * c, stride=pool.stride,
        kernel=pool.kernel, filter_load_bytes=0,
        input_bytes_per_output=pool.window,
        output_bytes=e * f * c)


def map_add(config: NeuralCacheConfig, name: str,
            input_shape: tuple[int, int, int]) -> LayerMapping:
    """Map an element-wise addition: one output per bitline, two operand
    bytes streamed per output, no filters and no reduction."""
    h, w, c = input_shape
    total = h * w * c
    return _mapping_for_window(
        config, name=name, kind="add", window_bytes=1, channels=1,
        out_channels=c, total_outputs=total, stride=1, kernel=(1, 1),
        filter_load_bytes=0, input_bytes_per_output=2, output_bytes=total)


def map_batchnorm(config: NeuralCacheConfig, name: str,
                  input_shape: tuple[int, int, int]) -> LayerMapping:
    """Map an explicit batch-norm: one output per bitline; the per-channel
    multiplier (2B) and bias (4B) integers load once, like filters."""
    h, w, c = input_shape
    total = h * w * c
    return _mapping_for_window(
        config, name=name, kind="batchnorm", window_bytes=1, channels=1,
        out_channels=c, total_outputs=total, stride=1, kernel=(1, 1),
        filter_load_bytes=c * 6, input_bytes_per_output=1,
        output_bytes=total)


def map_node(config: NeuralCacheConfig, network: Network,
             node: Node, precision=None) -> LayerMapping | None:
    """Map any network node; concat and folded BN map to nothing (None).

    ``precision`` is a :class:`~repro.core.precision.LayerPrecision`
    table narrowing conv layers; ``None`` falls back to the network's
    attached table (``network.precision``) and then the config width.
    """
    if precision is None:
        precision = getattr(network, "precision", None)
        if precision is not None:
            # Resolved implicitly (per-node entry point, e.g. the
            # analytic simulator): validate here; explicit callers
            # (map_network) validate the table once up front.
            precision.validate(network)
    input_shape = network.input_shape_of(node.name)
    layer = node.layer
    if isinstance(layer, (MaxPool, AvgPool)):
        return map_pool(config, node.name, layer, input_shape)
    if isinstance(layer, (Conv2D, FullyConnected)):
        bits = precision.bits_for(node.name) if precision is not None \
            else None
        return map_conv(config, node.name, network.conv_of(node),
                        input_shape, element_bits=bits)
    if isinstance(layer, Add):
        return map_add(config, node.name, input_shape)
    if isinstance(layer, QuantizedBatchNorm):
        return map_batchnorm(config, node.name, input_shape)
    return None


def map_network(config: NeuralCacheConfig, network: Network,
                precision=None) -> list[LayerMapping]:
    """Mappings for every compute layer of the network, in order.

    The per-layer precision table (argument, else ``network.precision``)
    is validated here — map time — so stale layer names fail before any
    schedule or functional run consumes the mappings.
    """
    if precision is None:
        precision = getattr(network, "precision", None)
    if precision is not None:
        precision.validate(network)
    mappings = []
    for node in network.layer_nodes():
        mapping = map_node(config, network, node, precision=precision)
        if mapping is not None:
            mappings.append(mapping)
    return mappings
