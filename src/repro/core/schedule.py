"""Per-layer execution schedule: phase times and energies (Sec. IV-C/VI).

For every mapped layer the schedule produces the seven phases of the
paper's Figure 14 breakdown:

* ``filter_load``   — unique weights streamed from DRAM (broadcast
  replication over ring/bus is free, Sec. IV-C);
* ``input_stream``  — windows delivered from the reserved way over the
  intra-slice buses, with input reuse between serial passes and the
  bank-latch optimisation;
* ``mac``           — bit-serial multiply-accumulates, all parallel
  convolutions at once;
* ``reduction``     — in-array (and, when a convolution spans two arrays,
  cross-array) channel-reduction trees;
* ``quantization``  — layer-wide min/max plus applying the CPU's
  requantization scalars in cache;
* ``pooling``       — compare/selective-copy folds (max) or sum+divide
  (average);
* ``output_move``   — quantized outputs back to the reserved way, plus the
  neighbour halo exchange over the ring.

Energy follows the same phases: compute cycles are charged per active
array at 15.4 pJ, data movement at the interconnect/DRAM models' rates,
and array row writes at the 8.6 pJ access energy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bits import ceil_div
from repro.common.errors import SimulationError
from repro.config import NeuralCacheConfig
from repro.core.mapping import LayerMapping

#: Phase names in Figure 14 order.
PHASES = ("filter_load", "input_stream", "mac", "reduction",
          "quantization", "pooling", "output_move")


@dataclass(frozen=True)
class PhaseBreakdown:
    """Seconds (or joules) attributed to each execution phase."""

    filter_load: float = 0.0
    input_stream: float = 0.0
    mac: float = 0.0
    reduction: float = 0.0
    quantization: float = 0.0
    pooling: float = 0.0
    output_move: float = 0.0

    @property
    def total(self) -> float:
        return sum(getattr(self, name) for name in PHASES)

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in PHASES}

    def fractions(self) -> dict[str, float]:
        """Each phase's share of the total (Figure 14)."""
        total = self.total
        if total <= 0:
            return {name: 0.0 for name in PHASES}
        return {name: getattr(self, name) / total for name in PHASES}

    def __add__(self, other: "PhaseBreakdown") -> "PhaseBreakdown":
        return PhaseBreakdown(*[getattr(self, name) + getattr(other, name)
                                for name in PHASES])

    def scaled(self, factor: float) -> "PhaseBreakdown":
        """All phases multiplied by ``factor``."""
        return PhaseBreakdown(*[getattr(self, name) * factor
                                for name in PHASES])


@dataclass(frozen=True)
class LayerSchedule:
    """One layer's mapping plus its phase times and energies."""

    mapping: LayerMapping
    time: PhaseBreakdown      # seconds
    energy: PhaseBreakdown    # joules
    compute_cycles_per_pass: int

    @property
    def latency(self) -> float:
        return self.time.total

    @property
    def total_energy(self) -> float:
        return self.energy.total


# ---------------------------------------------------------------------------
# Cycle counts per pass
# ---------------------------------------------------------------------------
def mac_cycles_per_pass(config: NeuralCacheConfig,
                        mapping: LayerMapping) -> int:
    """Bit-serial arithmetic cycles for one serial pass.

    Convolutions run one fused MAC per filter tap; element-wise additions
    (residual connections) run a single add plus the zero-point and
    clamping epilogue.
    """
    costs = config.costs
    n = config.element_bits
    if mapping.kind == "add":
        return (costs.add(n) + costs.const_write(n + 1) + costs.sub(n + 1)
                + 2 * costs.selective_copy(n + 1) + costs.const_write(n))
    if mapping.kind == "batchnorm":
        w = 34
        return (costs.multiply(2 * n) + costs.add_into(w) + costs.relu(w)
                + costs.const_write(w) + costs.add(9)
                + 2 * costs.selective_copy(n))
    if mapping.kind != "conv":
        return 0
    # Conv MACs run at the mapping's (possibly narrowed) element width —
    # the dynamic-precision knob; storage and partial sums stay at the
    # config's byte-aligned widths.
    taps = mapping.filter_bytes_per_bitline
    return taps * costs.mac(mapping.element_bits, config.partial_sum_bits)


def reduction_cycles_per_pass(config: NeuralCacheConfig,
                              mapping: LayerMapping) -> int:
    """Channel-reduction cycles for one pass (Sec. III-D / IV-A)."""
    if mapping.kind != "conv":
        return 0
    costs = config.costs
    in_array = min(mapping.channels_padded, config.geometry.array_cols)
    if costs.full_array_reduction and in_array > 1:
        # The array-wide reduction instruction always runs the full tree;
        # the group size only selects which columns carry valid sums.
        in_array = config.geometry.array_cols
    cycles = 0
    if in_array > 1:
        cycles += costs.reduction(in_array, config.partial_sum_bits)
    # Cross-array levels ride the links the mapper's ReductionPlan names
    # (sense-amp pair, quadrant bus, ring); each costs one full-width
    # move plus an add, exactly what the fleet's reduce_across_arrays
    # executes.
    cycles += mapping.reduction_plan.cross_array_cycles(
        costs, config.reduction_bits)
    return cycles


def pooling_cycles_per_pass(config: NeuralCacheConfig,
                            mapping: LayerMapping) -> int:
    """Max/average folding cycles for one pooling pass (Sec. IV-D)."""
    costs = config.costs
    n = config.element_bits
    window = ceil_div(mapping.window_bytes, mapping.split_factor)
    if mapping.kind == "maxpool":
        # Seed the running maximum, then fold the remaining elements.
        cycles = costs.copy(n) + (window - 1) * costs.max_update(n)
    elif mapping.kind == "avgpool":
        acc_bits = 2 * n
        cycles = window * costs.add_into(acc_bits) + costs.divide(acc_bits)
    else:
        return 0
    if mapping.split_factor > 1:
        # Partial windows on separate bitlines reduce like channels.
        if mapping.kind == "maxpool":
            steps = mapping.channels_padded.bit_length() - 1
            cycles += steps * costs.max_update(n)
        else:
            cycles += costs.reduction(mapping.channels_padded, 2 * n)
    return cycles


def quantization_cycles(config: NeuralCacheConfig,
                        mapping: LayerMapping) -> int:
    """In-cache quantization compute for the whole layer (Sec. IV-D).

    Running min/max folds happen every serial pass as outputs are
    produced; the CPU's two integers are then applied — a 32-bit multiply,
    an add and a shift with ReLU's selective zero-write folded in — on the
    outputs staged in the reserved I/O way, one pass per I/O-way batch.
    """
    if mapping.kind != "conv":
        return 0
    costs = config.costs
    w = config.reduction_bits
    minmax = mapping.serial_passes * 2 * costs.max_update(w)
    apply_passes = ceil_div(mapping.total_outputs, config.io_way_slots)
    apply_cost = (costs.multiply(w) + costs.add_into(w + 8)
                  + costs.copy(config.element_bits)
                  + costs.relu(w))
    return minmax + apply_passes * apply_cost


# ---------------------------------------------------------------------------
# Phase times
# ---------------------------------------------------------------------------
def _fresh_input_fraction(config: NeuralCacheConfig,
                          mapping: LayerMapping) -> float:
    """Fraction of a window that is new data in steady state.

    Sliding a (R, S) window by stride U reuses (S - U) of S columns
    (Sec. IV-A: "in a 3x3 convolution with a stride of 1, 6 of the 9 bytes
    are reused"); the reuse only materialises when spare word lines buffer
    the neighbouring bytes, hence the configured floor. 1x1 windows have
    no reuse.
    """
    _, s = mapping.kernel
    return min(1.0, max(mapping.stride / s, config.input_reuse_floor))


def _pixels_per_pass(mapping: LayerMapping) -> int:
    """Distinct output pixels whose windows must be streamed in one pass.

    Different output channels (M) of the same pixel share input data,
    which broadcasts over the intra-slice bus (Sec. IV-C).
    """
    m_parallel = min(mapping.out_channels, mapping.parallel_outputs)
    return ceil_div(mapping.parallel_outputs, m_parallel)


def input_stream_time(config: NeuralCacheConfig,
                      mapping: LayerMapping) -> float:
    """Seconds streaming inputs for all serial passes of the layer.

    Unique bytes per pass are the distinct pixels' windows (channel
    broadcast and the bank latch are modelled by the interconnect); the
    I/O-way calibration factor absorbs the transposed-gather overhead of
    reading scattered windows out of way-19 (see NeuralCacheConfig).
    """
    interconnect = config.interconnect
    pixels = _pixels_per_pass(mapping)
    window_bytes = mapping.input_bytes_per_output
    per_slice_full = (pixels * window_bytes / config.geometry.slices
                      * config.input_gather_calibration)
    first = interconnect.intra_slice_time(per_slice_full,
                                          use_bank_latch=True)
    if mapping.serial_passes == 1:
        return first
    fresh = _fresh_input_fraction(config, mapping)
    steady = interconnect.intra_slice_time(per_slice_full * fresh,
                                           use_bank_latch=True)
    return first + (mapping.serial_passes - 1) * steady


def output_move_time(config: NeuralCacheConfig,
                     mapping: LayerMapping) -> float:
    """Quantized outputs to the reserved way + neighbour halo exchange."""
    interconnect = config.interconnect
    per_slice = (mapping.output_bytes / config.geometry.slices
                 * config.output_gather_calibration)
    move = interconnect.intra_slice_time(per_slice)
    # Contiguous pixels per slice keep the halo to at most R rows of
    # neighbour pixels (Sec. IV-C); charge one kernel-height row of the
    # per-slice output as ring traffic.
    rows = max(mapping.kernel)
    halo_bytes = min(per_slice, rows * mapping.out_channels)
    return move + interconnect.inter_slice_time(halo_bytes)


def minmax_bus_time(config: NeuralCacheConfig,
                    mapping: LayerMapping) -> float:
    """The once-per-layer series of bus transfers reducing per-array
    min/max values to one pair for the CPU (Sec. IV-D)."""
    if mapping.kind != "conv":
        return 0.0
    word = config.reduction_bits // 8
    per_slice = (config.geometry.compute_arrays_per_slice * 2 * word)
    intra = config.interconnect.intra_slice_time(per_slice)
    ring = config.interconnect.inter_slice_time(
        config.geometry.slices * 2 * word)
    return intra + ring


def schedule_layer(config: NeuralCacheConfig, mapping: LayerMapping,
                   input_from_dram: bool = False) -> LayerSchedule:
    """Build the full schedule for one mapped layer."""
    freq = config.frequency_hz
    passes = mapping.serial_passes

    mac_c = mac_cycles_per_pass(config, mapping)
    red_c = reduction_cycles_per_pass(config, mapping)
    pool_c = pooling_cycles_per_pass(config, mapping)
    quant_c = quantization_cycles(config, mapping)

    filter_time = config.dram.transfer_time(mapping.filter_load_bytes)
    input_time = input_stream_time(config, mapping)
    if input_from_dram:
        # The first layer's image comes from DRAM through the TMUs.
        total_input = (mapping.total_outputs // max(mapping.out_channels, 1)
                       * mapping.input_bytes_per_output
                       * _fresh_input_fraction(config, mapping))
        input_time = max(input_time, config.dram.transfer_time(total_input))

    time = PhaseBreakdown(
        filter_load=filter_time,
        input_stream=input_time,
        mac=passes * mac_c / freq,
        reduction=passes * red_c / freq,
        quantization=quant_c / freq + minmax_bus_time(config, mapping),
        pooling=passes * pool_c / freq,
        output_move=output_move_time(config, mapping),
    )
    energy = _energy_breakdown(config, mapping, time)
    compute_per_pass = mac_c + red_c + pool_c
    return LayerSchedule(mapping=mapping, time=time, energy=energy,
                         compute_cycles_per_pass=compute_per_pass)


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------
def _array_write_energy(config: NeuralCacheConfig, nbytes: float) -> float:
    """Energy of writing ``nbytes`` into arrays as 256-bit row updates."""
    rows = nbytes * 8 / config.geometry.array_cols
    return config.energy.access_energy(rows)


def _energy_breakdown(config: NeuralCacheConfig, mapping: LayerMapping,
                      time: PhaseBreakdown) -> PhaseBreakdown:
    if mapping.serial_passes <= 0:
        raise SimulationError("schedule requires at least one pass")
    interconnect = config.interconnect
    freq = config.frequency_hz
    active_arrays = config.geometry.compute_arrays * mapping.utilization

    def compute_energy(seconds: float) -> float:
        return config.energy.compute_energy(seconds * freq, active_arrays)

    filter_bytes = mapping.filter_load_bytes
    # Broadcast writes land in every active array's filter region.
    replicated = (active_arrays * mapping.filter_bytes_per_bitline
                  * config.geometry.array_cols)
    # Energy follows the physical (gather-inflated) traffic volumes.
    input_bytes = (_pixels_per_pass(mapping) * mapping.input_bytes_per_output
                   * mapping.serial_passes * config.input_gather_calibration)
    output_bytes = mapping.output_bytes * config.output_gather_calibration

    return PhaseBreakdown(
        filter_load=(config.dram.transfer_energy(filter_bytes)
                     + interconnect.ring_energy(filter_bytes)
                     + _array_write_energy(config, replicated)),
        input_stream=(interconnect.bus_energy(input_bytes)
                      + _array_write_energy(config, input_bytes)),
        mac=compute_energy(time.mac),
        reduction=compute_energy(time.reduction),
        quantization=compute_energy(time.quantization),
        pooling=compute_energy(time.pooling),
        output_move=(interconnect.bus_energy(output_bytes)
                     + _array_write_energy(config, output_bytes)),
    )
