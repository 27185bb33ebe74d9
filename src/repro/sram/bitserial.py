"""Bit-serial arithmetic on one compute SRAM array (Sec. III of the paper).

:class:`BitSerialUnit` is the ``n_arrays=1`` view of
:class:`repro.engine.bitserial.FleetBitSerialUnit`, built the way
:class:`~repro.sram.array.SRAMArray` is a view over its plane store: it
runs the fleet unit's sequences (copy, addition per Fig. 4, predicated
multiplication per Fig. 6, restoring division, subtraction/compare,
max/min folding, ReLU, selective copies and in-array tree reduction per
Fig. 5) on the single-array store behind ``array.fleet``. Host values
are one integer per bitline, ``(cols,)``.

Operands live in *transposed* layout: an :class:`Operand` names the
wordline of its least-significant bit and its width; element ``i`` of the
vector occupies bitline ``i``. Every operation processes **all bitlines of
the array simultaneously** — that is the source of the architecture's
parallelism — and advances ``self.cycles`` by exactly the amount
:class:`repro.sram.cost.CycleCosts.derived` predicts (tests enforce this).
"""

from __future__ import annotations

import numpy as np

from repro.engine.bitserial import FleetBitSerialUnit, Operand
from repro.sram.array import SRAMArray

__all__ = ["BitSerialUnit", "Operand"]


class BitSerialUnit(FleetBitSerialUnit):
    """Drives one SRAM array through bit-serial compute sequences."""

    def __init__(self, array: SRAMArray | None = None):
        self.array = array if array is not None else SRAMArray()
        super().__init__(self.array.fleet)

    def read_values(self, op: Operand) -> np.ndarray:
        """Read back one integer per bitline from ``op`` (host/TMU path)."""
        return super().read_values(op)[0]
