"""Top-level configuration bundle for the Neural Cache simulator.

Collects every model the analytic executor needs: cache geometry, the
cycle-cost preset, interconnect/DRAM models, array energy, the compute
clock and system-level knobs (socket count for throughput, I/O-way budget
for batching spills). Defaults reproduce the paper's primary configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cache.dram import DramModel
from repro.cache.geometry import CacheGeometry, xeon_e5_2697_v3
from repro.cache.interconnect import InterconnectModel
from repro.common.errors import SimulationError
from repro.sram.cost import CycleCosts
from repro.sram.energy import COMPUTE_FREQUENCY_HZ, ArrayEnergyModel


@dataclass(frozen=True)
class NeuralCacheConfig:
    """Everything the analytic simulator needs, with paper defaults."""

    geometry: CacheGeometry = field(default_factory=xeon_e5_2697_v3)
    #: Cycle-cost preset; the paper's own deterministic model by default so
    #: reproduced figures line up with the published breakdown.
    costs: CycleCosts = field(default_factory=CycleCosts.paper)
    dram: DramModel = field(default_factory=DramModel)
    energy: ArrayEnergyModel = field(default_factory=ArrayEnergyModel)
    #: Compute-mode clock (2.5 GHz, conservative vs the 4 GHz access clock).
    frequency_hz: float = COMPUTE_FREQUENCY_HZ
    #: Sockets in the node; Neural Cache throughput scales linearly with
    #: host CPUs (Sec. VI-B), and the paper's Fig. 16 uses a dual socket.
    sockets: int = 2
    #: Fraction of the reserved I/O way usable for buffering outputs when
    #: batching (the rest buffers inputs).
    output_buffer_fraction: float = 0.5
    #: Filter-splitting threshold in bytes per bitline (Sec. IV-A).
    split_threshold_bytes: int = 9
    #: Channels a 1x1 filter packs per bitline (Sec. IV-A).
    pack_limit: int = 16
    #: Element precision in bits (the paper assumes 8-bit quantization).
    element_bits: int = 8
    #: Effective slowdown of reserved-way (way-19) transfers relative to
    #: raw bus bandwidth. Streaming windows into bit-serial arrays is a
    #: transposed gather: every input byte lands on 8 separate wordlines
    #: of its target column group, each pixel's R.S.C window is scattered
    #: across way-19's row layout, and the window must be re-delivered to
    #: each (way, bank) placement the broadcast cannot cover. The paper
    #: measured this path with a micro-benchmark rather than deriving it;
    #: these constants are calibrated so input streaming and output
    #: transfer match the published Fig. 14 shares (15% and 4% at batch
    #: 1). Outputs are cheaper: one dense byte per output, written
    #: sequentially.
    input_gather_calibration: float = 30.0
    output_gather_calibration: float = 15.0
    #: Floor on the fresh-input fraction between serial passes: window
    #: overlap is only exploitable when spare word lines buffer the
    #: neighbouring bytes (Sec. IV-A), which the common layouts only
    #: partially have.
    input_reuse_floor: float = 0.5
    #: Partial-sum width (3 bytes) and reduction width (4 bytes), Fig. 10.
    partial_sum_bits: int = 24
    reduction_bits: int = 32

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise SimulationError("frequency must be positive")
        if self.sockets <= 0:
            raise SimulationError("socket count must be positive")
        if not 0 < self.output_buffer_fraction <= 1:
            raise SimulationError(
                "output buffer fraction must be in (0, 1]")
        if self.split_threshold_bytes <= 0 or self.pack_limit <= 0:
            raise SimulationError("mapping thresholds must be positive")
        if self.element_bits <= 0:
            raise SimulationError("element bits must be positive")
        if self.input_gather_calibration < 1 or self.output_gather_calibration < 1:
            raise SimulationError(
                "I/O-way calibrations must be >= 1 (slowdown factors)")
        if not 0 < self.input_reuse_floor <= 1:
            raise SimulationError("input reuse floor must be in (0, 1]")

    @property
    def interconnect(self) -> InterconnectModel:
        """Interconnect model bound to this geometry and clock."""
        return InterconnectModel(geometry=self.geometry,
                                 frequency_hz=self.frequency_hz)

    def with_geometry(self, geometry: CacheGeometry) -> "NeuralCacheConfig":
        """The same configuration on a different cache (Table IV sweeps)."""
        return replace(self, geometry=geometry)

    @property
    def io_way_slots(self) -> int:
        """Bit-serial slots of the reserved I/O ways (quantization runs
        on outputs staged there, Sec. IV-D)."""
        geometry = self.geometry
        return (geometry.slices * geometry.reserved_io_ways
                * geometry.arrays_per_way * geometry.array_cols)

    @property
    def output_buffer_bytes(self) -> float:
        """Output-buffer capacity across the node's reserved ways."""
        return (self.geometry.slices * self.geometry.io_way_bytes_per_slice
                * self.output_buffer_fraction)

    def peak_ops_per_second(self, op_cycles: int | None = None) -> float:
        """Peak 8-bit op throughput of all ALU slots (the 28 TOP/s claim).

        One "op" is an 8-bit multiply; the paper's 28 TOP/s at 35 MB
        corresponds to every bitline retiring one multiply every
        ``multiply(8)`` cycles at 2.5 GHz.
        """
        if op_cycles is None:
            op_cycles = self.costs.multiply(self.element_bits)
        if op_cycles <= 0:
            raise SimulationError("op cycle count must be positive")
        return (self.geometry.alu_slots * self.frequency_hz) / op_cycles
