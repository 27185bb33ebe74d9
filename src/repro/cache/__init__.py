"""Cache substrate: geometry, interconnect and DRAM."""

from repro.cache.dram import DramModel
from repro.cache.geometry import (
    CacheGeometry,
    capacity_sweep,
    xeon_45mb,
    xeon_60mb,
    xeon_e5_2697_v3,
)
from repro.cache.interconnect import InterconnectModel

__all__ = [
    "CacheGeometry",
    "DramModel",
    "InterconnectModel",
    "capacity_sweep",
    "xeon_45mb",
    "xeon_60mb",
    "xeon_e5_2697_v3",
]
