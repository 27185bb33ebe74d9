"""Neural Cache (ISCA 2018) reproduction.

A bit-serial in-cache DNN accelerator, reproduced end to end:

* :mod:`repro.sram` — compute-capable SRAM arrays, bit-serial arithmetic,
  transpose units, cycle/energy/area models;
* :mod:`repro.cache` — the Xeon-class LLC geometry, interconnect and DRAM;
* :mod:`repro.nn` — a quantized DNN substrate with a faithful Inception v3;
* :mod:`repro.core` — the Neural Cache mapping/scheduling/execution model,
  both analytic (paper-scale) and functional (bit-exact);
* :mod:`repro.engine` — the vectorized array-fleet engine (all SRAM arrays
  execute each bit-serial cycle at once) and the unified Backend API;
* :mod:`repro.baselines` — calibrated Xeon E5 / Titan Xp roofline models;
* :mod:`repro.analysis` — regenerates every table and figure of the paper.

Quickstart::

    from repro import NeuralCacheSimulator, build_inception_v3
    result = NeuralCacheSimulator(build_inception_v3()).run()
    print(result.total_time)          # ~4 ms, the paper's Fig. 15
    print(result.breakdown().fractions())   # Fig. 14
"""

from repro.baselines import CpuBaseline, GpuBaseline
from repro.cache import (
    CacheGeometry,
    DramModel,
    InterconnectModel,
    xeon_e5_2697_v3,
)
from repro.config import NeuralCacheConfig
from repro.core import (
    ControlFSM,
    FunctionalConv,
    FunctionalExecutor,
    Instruction,
    NeuralCacheSimulator,
    Opcode,
    map_network,
    simulate_inference,
)
from repro.engine import (
    ArrayFleet,
    FleetBitSerialUnit,
    PackedArrayFleet,
    make_fleet,
)
from repro.core.precision import LayerPrecision
from repro.engine.backend import (
    AnalyticBackend,
    Backend,
    BackendOptions,
    BackendResult,
    BatchOutcome,
    FleetExecutor,
    get_backend,
)
from repro.engine.sharding import ShardedBackend
from repro.faults import (
    FaultPlan,
    HardwareFaultModel,
    PoolFault,
    hardware_faults,
)
from repro.serving import Server, ServingReport
from repro.nn import (
    Conv2D,
    Network,
    QuantizedTensor,
    ReferenceExecutor,
    build_inception_v3,
    initialise_weights,
)
from repro.sram import BitSerialUnit, CycleCosts, Operand, SRAMArray

__version__ = "1.0.0"

__all__ = [
    "AnalyticBackend",
    "ArrayFleet",
    "Backend",
    "BackendOptions",
    "BackendResult",
    "BatchOutcome",
    "BitSerialUnit",
    "FleetBitSerialUnit",
    "FleetExecutor",
    "CacheGeometry",
    "ControlFSM",
    "Conv2D",
    "CpuBaseline",
    "CycleCosts",
    "DramModel",
    "FaultPlan",
    "FunctionalConv",
    "FunctionalExecutor",
    "GpuBaseline",
    "HardwareFaultModel",
    "Instruction",
    "LayerPrecision",
    "PoolFault",
    "hardware_faults",
    "PackedArrayFleet",
    "make_fleet",
    "InterconnectModel",
    "Network",
    "NeuralCacheConfig",
    "NeuralCacheSimulator",
    "Opcode",
    "Operand",
    "QuantizedTensor",
    "ReferenceExecutor",
    "Server",
    "ServingReport",
    "SRAMArray",
    "ShardedBackend",
    "build_inception_v3",
    "get_backend",
    "initialise_weights",
    "map_network",
    "simulate_inference",
    "xeon_e5_2697_v3",
]
