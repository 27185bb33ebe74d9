"""Bit-line compute SRAM substrate: arrays, peripherals, bit-serial ops.

This package models the paper's Sec. II-B/III hardware: 8KB SRAM arrays
whose bitlines become bit-serial ALUs, the column peripherals that make
addition/multiplication/predication possible, the transpose memory unit,
the per-array data layout, and the cycle/energy/area cost models.
"""

from repro.sram.array import DEFAULT_COLS, DEFAULT_ROWS, SRAMArray
from repro.sram.bitserial import BitSerialUnit, Operand
from repro.sram.cost import CycleCosts
from repro.sram.energy import ArrayAreaModel, ArrayEnergyModel
from repro.sram.layout import max_conv_filter_bytes
from repro.sram.transpose import TransposeMemoryUnit

__all__ = [
    "ArrayAreaModel",
    "ArrayEnergyModel",
    "BitSerialUnit",
    "CycleCosts",
    "DEFAULT_COLS",
    "DEFAULT_ROWS",
    "Operand",
    "SRAMArray",
    "TransposeMemoryUnit",
    "max_conv_filter_bytes",
]
