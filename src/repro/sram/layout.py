"""Word-line region heights inside one compute array (Figure 10).

The mapper reserves vertical regions of an array for filters, inputs,
scratchpad, partial sums, outputs and the two 4-byte reduction segments.
The mapping engine reads the region heights below and
:func:`max_conv_filter_bytes` to decide whether a layer's regions fit;
the functional executor lays out its real rows itself
(``repro.core.functional._conv_rows``) and checks them against the
geometry's ``array_rows``.
"""

from __future__ import annotations

#: Bits per element everywhere in Neural Cache's data layout (Sec. IV):
#: "each data element is stored as a multiple of a byte".
BITS_PER_BYTE = 8

#: Fixed region heights from Figure 10 (in wordlines).
SCRATCHPAD_BITS = 2 * BITS_PER_BYTE     # 2x8: multiplication scratchpad
PARTIAL_SUM_BITS = 3 * BITS_PER_BYTE    # 3x8: MAC partial sums
OUTPUT_BITS = 4 * BITS_PER_BYTE         # 4x8: per-convolution output
REDUCTION_SEGMENT_BITS = 4 * BITS_PER_BYTE  # 4x8: each reduction operand


def max_conv_filter_bytes(rows: int = 256) -> int:
    """Largest R'.S' (bytes per bitline) that still fits Figure 10(a).

    With 256 rows this is 11; the paper splits filters above 9 bytes, which
    leaves two bytes of input-reuse headroom for the common 3x3 case.
    """
    fixed = SCRATCHPAD_BITS + PARTIAL_SUM_BITS + OUTPUT_BITS
    return (rows - fixed) // (2 * BITS_PER_BYTE)
