"""Word-line region allocation inside one compute array (Figure 10).

The mapper reserves vertical regions of an array for filters, inputs,
scratchpad, partial sums, outputs and the two 4-byte reduction segments.
The mapping engine reads the region heights below and
:func:`max_conv_filter_bytes` to decide whether a layer's regions fit;
the functional executor lays out its real rows itself
(``repro.core.functional._conv_rows``). :class:`ArrayLayout`,
:func:`conv_layout` and :func:`reduction_layout` are a bump allocator
that spells out Figure 10's two layouts; nothing in the engine calls them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import LayoutError
from repro.sram.bitserial import Operand

#: Bits per element everywhere in Neural Cache's data layout (Sec. IV):
#: "each data element is stored as a multiple of a byte".
BITS_PER_BYTE = 8

#: Fixed region heights from Figure 10 (in wordlines).
SCRATCHPAD_BITS = 2 * BITS_PER_BYTE     # 2x8: multiplication scratchpad
PARTIAL_SUM_BITS = 3 * BITS_PER_BYTE    # 3x8: MAC partial sums
OUTPUT_BITS = 4 * BITS_PER_BYTE         # 4x8: per-convolution output
REDUCTION_SEGMENT_BITS = 4 * BITS_PER_BYTE  # 4x8: each reduction operand


@dataclass
class ArrayLayout:
    """Named vertical regions over one array's wordlines."""

    rows: int = 256
    _next: int = 0
    _regions: dict[str, Operand] = field(default_factory=dict)

    def allocate(self, name: str, nbits: int) -> Operand:
        """Reserve ``nbits`` contiguous wordlines under ``name``."""
        if name in self._regions:
            raise LayoutError(f"region {name!r} already allocated")
        if nbits <= 0:
            raise LayoutError(f"region {name!r} must be positive, got {nbits}")
        if self._next + nbits > self.rows:
            raise LayoutError(
                f"region {name!r} ({nbits} rows) does not fit: "
                f"{self.rows - self._next} of {self.rows} rows remain")
        region = Operand(self._next, nbits)
        self._regions[name] = region
        self._next += nbits
        return region

    def region(self, name: str) -> Operand:
        """Look up a previously allocated region."""
        try:
            return self._regions[name]
        except KeyError:
            raise LayoutError(f"no region named {name!r}") from None

    @property
    def used_rows(self) -> int:
        """Wordlines consumed so far."""
        return self._next

    @property
    def free_rows(self) -> int:
        """Wordlines still available."""
        return self.rows - self._next

    def names(self) -> list[str]:
        """Allocated region names in allocation order."""
        return list(self._regions)


def conv_layout(filter_bytes: int, rows: int = 256,
                extra_input_bytes: int = 0,
                outputs: int = 1) -> ArrayLayout:
    """Build the convolution layout of Figure 10(a).

    Per bitline: ``filter_bytes`` (= R'.S' after packing/splitting) of
    filter weights, the same height of input elements, a 2-byte scratchpad,
    a 3-byte partial sum and 4-byte outputs. ``extra_input_bytes`` models
    the input-reuse buffering of Sec. IV-A; ``outputs`` reserves space for
    several serial convolutions' results.
    """
    if filter_bytes <= 0:
        raise LayoutError(f"filter height must be positive, got {filter_bytes}")
    layout = ArrayLayout(rows=rows)
    layout.allocate("filter", filter_bytes * BITS_PER_BYTE)
    layout.allocate("input",
                    (filter_bytes + extra_input_bytes) * BITS_PER_BYTE)
    layout.allocate("scratchpad", SCRATCHPAD_BITS)
    layout.allocate("partial_sum", PARTIAL_SUM_BITS)
    layout.allocate("output", OUTPUT_BITS * outputs)
    return layout


def reduction_layout(rows: int = 256, filter_bytes: int = 0) -> ArrayLayout:
    """Build the reduction layout of Figure 10(b).

    The scratchpad and partial sums are dead by reduction time and are
    overwritten by the two 4-byte reduction segments (the paper reuses that
    space: "the scratch pad and partial sum can be overwritten for
    reduction").
    """
    layout = ArrayLayout(rows=rows)
    if filter_bytes:
        layout.allocate("filter", filter_bytes * BITS_PER_BYTE)
        layout.allocate("input", filter_bytes * BITS_PER_BYTE)
    layout.allocate("reduce_a", REDUCTION_SEGMENT_BITS)
    layout.allocate("reduce_b", REDUCTION_SEGMENT_BITS)
    layout.allocate("output", OUTPUT_BITS)
    return layout


def max_conv_filter_bytes(rows: int = 256) -> int:
    """Largest R'.S' (bytes per bitline) that still fits Figure 10(a).

    With 256 rows this is 11; the paper splits filters above 9 bytes, which
    leaves two bytes of input-reuse headroom for the common 3x3 case.
    """
    fixed = SCRATCHPAD_BITS + PARTIAL_SUM_BITS + OUTPUT_BITS
    return (rows - fixed) // (2 * BITS_PER_BYTE)
