"""Bit-level helpers shared by the SRAM functional model and tests.

The bit-serial arrays store integers *vertically*: bit ``b`` of element ``i``
lives at wordline ``base + b`` and bitline ``i``. These helpers convert
between NumPy integer vectors and LSB-first bit matrices (shape
``(nbits, nelems)``, dtype uint8, values 0/1).
"""

from __future__ import annotations

import numpy as np


def int_to_bits(values: np.ndarray, nbits: int) -> np.ndarray:
    """Convert a 1-D vector of non-negative ints to an LSB-first bit matrix.

    Returns an array of shape ``(nbits, len(values))`` where row ``b`` holds
    bit ``b`` (LSB = row 0) of every element. Values are masked to ``nbits``
    (the hardware simply ignores bits that do not fit in the allocated rows).
    """
    values = np.asarray(values, dtype=np.int64)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {values.shape}")
    if nbits <= 0:
        raise ValueError(f"nbits must be positive, got {nbits}")
    if np.any(values < 0):
        raise ValueError("int_to_bits only handles non-negative values; "
                         "encode signed data in two's complement first")
    shifts = np.arange(nbits, dtype=np.int64)[:, None]
    return ((values[None, :] >> shifts) & 1).astype(np.uint8)


def bits_to_int(bits: np.ndarray) -> np.ndarray:
    """Convert an LSB-first bit matrix back to a vector of ints (int64)."""
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError(f"expected a 2-D bit matrix, got shape {bits.shape}")
    nbits = bits.shape[0]
    weights = (np.int64(1) << np.arange(nbits, dtype=np.int64))[:, None]
    return (bits.astype(np.int64) * weights).sum(axis=0)


def int_to_bitplanes(values: np.ndarray, nbits: int) -> np.ndarray:
    """Convert an ``(n, cols)`` matrix of non-negative ints to bit planes.

    Returns ``(n, nbits, cols)`` uint8 where ``[:, b, :]`` holds bit ``b``
    (LSB = plane 0) of every element — the fleet-wide analogue of
    :func:`int_to_bits`. Values are masked to ``nbits``.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {values.shape}")
    if nbits <= 0:
        raise ValueError(f"nbits must be positive, got {nbits}")
    if values.dtype == np.uint8 and nbits <= 8:
        # Byte planes straight from uint8 tensors (the bulk-load hot
        # path): no int64 round-trip, no sign scan.
        shifts = np.arange(nbits, dtype=np.uint8)[None, :, None]
        return (values[:, None, :] >> shifts) & np.uint8(1)
    values = values.astype(np.int64, copy=False)
    if np.any(values < 0):
        raise ValueError("int_to_bitplanes only handles non-negative values; "
                         "encode signed data in two's complement first")
    if nbits <= 8:
        # Byte-wide fields (activation/filter planes, the bulk-load hot
        # path): extract bits in uint8 so the (n, nbits, cols)
        # intermediate is 8x smaller than the int64 general case.
        compact = (values & ((1 << nbits) - 1)).astype(np.uint8)
        shifts = np.arange(nbits, dtype=np.uint8)[None, :, None]
        return (compact[:, None, :] >> shifts) & np.uint8(1)
    # Wider fields: unpack the int64 little-endian byte view at C speed
    # instead of materialising an (n, nbits, cols) int64 shift product.
    as_bytes = np.ascontiguousarray(
        values.astype("<i8", copy=False)).view(np.uint8)
    bits = np.unpackbits(as_bytes.reshape(*values.shape, 8), axis=-1,
                         bitorder="little")[..., :nbits]
    return bits.transpose(0, 2, 1)


def bitplanes_to_int(bits: np.ndarray) -> np.ndarray:
    """Convert ``(n, nbits, cols)`` LSB-first bit planes back to ints.

    The bit planes are packed to byte planes at C speed and the (at most
    eight) byte planes combined in int64 — the host unpack boundary for
    fleet read-backs, so it must not materialise an ``(n, nbits, cols)``
    int64 intermediate as the naive weighted sum would.
    """
    bits = np.asarray(bits)
    if bits.ndim != 3:
        raise ValueError(f"expected a 3-D bit tensor, got shape {bits.shape}")
    n, nbits, cols = bits.shape
    if nbits > 64:
        raise ValueError(f"bit planes wider than 64 bits ({nbits}) do not "
                         f"fit the int64 host currency")
    packed = np.packbits(bits, axis=1, bitorder="little")
    out = np.zeros((n, cols), dtype=np.int64)
    for k in range(packed.shape[1]):
        out |= packed[:, k, :].astype(np.int64) << (8 * k)
    return out


#: Bits per machine word of the packed bit-plane store at its widest:
#: arrays wider than this hold several words per wordline.
WORD_BITS = 64


def word_bits(cols: int) -> int:
    """Bits per word of the packed store for ``cols``-column arrays.

    A word is the narrowest of 8/16/32/64 bits that holds ``cols``
    columns, and 64 bits beyond 64 columns (several words per wordline),
    so every word op carries only live bitlines plus at most a ragged
    tail.
    """
    if cols <= 0:
        raise ValueError(f"cols must be positive, got {cols}")
    return max(8, min(next_power_of_two(cols), WORD_BITS))


def word_dtype(cols: int) -> np.dtype:
    """The unsigned word dtype of :func:`word_bits` (uint8 ... uint64)."""
    return np.dtype(f"uint{word_bits(cols)}")


def packed_words(cols: int) -> int:
    """Words needed to hold ``cols`` bit-columns (one up to 64 columns,
    ``ceil(cols / 64)`` beyond)."""
    return ceil_div(cols, word_bits(cols))


def packed_bytes(cols: int) -> int:
    """Bytes one wordline of one ``cols``-column array occupies packed."""
    return packed_words(cols) * word_dtype(cols).itemsize


def _le(dtype: np.dtype) -> np.dtype:
    """``dtype`` with explicit little-endian byte order: byte 0 of a word
    is its least-significant byte on any host, so the LSB-first column
    order survives regardless of platform endianness."""
    return np.dtype(dtype).newbyteorder("<")


def _le_bytes(words: np.ndarray) -> np.ndarray:
    """Little-endian byte view of a word array (last axis grows by the
    word size)."""
    words = np.ascontiguousarray(words.astype(_le(words.dtype), copy=False))
    return words.view(np.uint8)


def _check_capacity(n_words: int, dtype: np.dtype, cols: int) -> None:
    if n_words * dtype.itemsize * 8 < cols:
        raise ValueError(
            f"{n_words} {dtype} words cannot hold {cols} bit columns")


def pack_bit_plane(bits: np.ndarray, n_words: int | None = None) -> np.ndarray:
    """Pack 0/1 bit columns into words along the last axis.

    ``bits`` is ``(..., cols)`` with values 0/1; the result is
    ``(..., n_words)`` of :func:`word_dtype` ``(cols)``, ``w`` bits per
    word, where column ``c`` lives at bit ``c % w`` (LSB-first) of word
    ``c // w``. Tail bits beyond ``cols`` are zero. This is the
    host<->packed-store boundary conversion; the packed store itself only
    ever operates on whole words.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    cols = bits.shape[-1]
    dtype = word_dtype(cols)
    if n_words is None:
        n_words = packed_words(cols)
    _check_capacity(n_words, dtype, cols)
    as_bytes = np.packbits(bits, axis=-1, bitorder="little")
    pad = n_words * dtype.itemsize - as_bytes.shape[-1]
    if pad:
        as_bytes = np.concatenate(
            [as_bytes, np.zeros((*as_bytes.shape[:-1], pad), dtype=np.uint8)],
            axis=-1)
    words = np.ascontiguousarray(as_bytes).view(_le(dtype))
    return words.astype(dtype, copy=False)


def unpack_bit_plane(words: np.ndarray, cols: int) -> np.ndarray:
    """Unpack words back into ``(..., cols)`` 0/1 uint8 columns.

    Inverse of :func:`pack_bit_plane` for the first ``cols`` bits; the
    word width is the array's own dtype.
    """
    if cols <= 0:
        raise ValueError(f"cols must be positive, got {cols}")
    words = np.asarray(words)
    _check_capacity(words.shape[-1], words.dtype, cols)
    bits = np.unpackbits(_le_bytes(words), axis=-1, bitorder="little")
    return bits[..., :cols]


#: Delta-swap masks of the 8x8 bit-matrix transpose, one per round.
_TRANSPOSE_ROUNDS = tuple(
    (np.uint64(shift), np.uint64(mask)) for shift, mask in (
        (7, 0x00AA00AA00AA00AA),
        (14, 0x0000CCCC0000CCCC),
        (28, 0x00000000F0F0F0F0),
    ))


def transpose8x8(words: np.ndarray) -> np.ndarray:
    """Transpose the 8x8 bit matrix held in every uint64 word.

    Bit ``c`` of byte ``r`` moves to bit ``r`` of byte ``c`` (three
    mask/shift delta-swap rounds). Read as eight one-byte lanes, the
    result's byte ``c`` holds bit ``c`` of all eight lanes — the bridge
    between per-lane integers and per-bit column words. The transpose is
    its own inverse.
    """
    return _transpose8x8_into(np.array(words, dtype=np.uint64))


def _transpose8x8_into(x: np.ndarray) -> np.ndarray:
    """:func:`transpose8x8` over a uint64 array the caller owns,
    overwriting it: the host converters transpose their private copies
    without a second one."""
    t = np.empty_like(x)
    for shift, mask in _TRANSPOSE_ROUNDS:
        # t = (x ^ (x >> shift)) & mask; x ^= t ^ (t << shift), in place:
        # the operands are whole host blocks, so temporaries would cost
        # more than the arithmetic.
        np.right_shift(x, shift, out=t)
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t
    return x


def ints_to_packed_planes(values: np.ndarray, nbits: int,
                          n_words: int) -> np.ndarray:
    """Non-negative ints ``(..., cols)`` -> packed bit planes.

    Returns ``(nbits, ..., n_words)`` words of :func:`word_dtype`
    ``(cols)``, ``w`` bits each, where plane ``b`` holds bit ``b`` of
    every element, column ``c`` at bit ``c % w`` of word ``c // w`` —
    :func:`pack_bit_plane` applied to :func:`int_to_bitplanes`, without
    the 0/1 byte-per-bit tensor in between: byte ``k`` of every lane goes
    through :func:`transpose8x8` eight lanes at a time, ``w / 8`` such
    groups per word. Values are masked to ``nbits``; columns past
    ``cols`` (the tail of the last word) are zero.
    """
    values = np.asarray(values)
    if nbits <= 0:
        raise ValueError(f"nbits must be positive, got {nbits}")
    *lead, cols = values.shape
    dtype = word_dtype(cols)
    _check_capacity(n_words, dtype, cols)
    groups = dtype.itemsize  # eight-lane groups per word
    n_bytes = ceil_div(nbits, 8)
    lanes = np.zeros((n_bytes, *lead, n_words * groups * 8), dtype=np.uint8)
    if values.dtype == np.uint8:
        lanes[0, ..., :cols] = values
    else:
        values = values.astype(np.int64, copy=False)
        if np.any(values < 0):
            raise ValueError("packed planes only hold non-negative values; "
                             "encode signed data in two's complement first")
        as_bytes = _le_bytes(values).reshape(*lead, cols, 8)
        # Planes past bit 63 stay zero: the values are int64.
        lanes[:8, ..., :cols] = np.moveaxis(as_bytes[..., :n_bytes], -1, 0)
    # Eight lanes per group, transposed: byte i of group g = bit i of the
    # group's lanes, i.e. byte g % groups of word g // groups of plane i.
    flipped = _transpose8x8_into(lanes.view("<u8"))
    flipped = _le_bytes(flipped).reshape(n_bytes, *lead, n_words, groups, 8)
    # (n_bytes, 8, *lead, n_words, groups)
    planes = np.moveaxis(flipped, -1, 1)
    planes = np.ascontiguousarray(planes).view(_le(dtype))
    planes = planes.reshape(n_bytes * 8, *lead, n_words)[:nbits]
    return planes.astype(dtype, copy=False)


def packed_planes_to_ints(planes: np.ndarray, cols: int) -> np.ndarray:
    """Packed bit planes ``(nbits, ..., n_words)`` -> ints ``(..., cols)``.

    Inverse of :func:`ints_to_packed_planes` for the first ``cols``
    columns, at the planes' own word width: int64, at most 64 planes
    (the int64 host currency).
    """
    planes = np.asarray(planes)
    nbits, *lead, n_words = planes.shape
    if nbits > 64:
        raise ValueError(f"bit planes wider than 64 bits ({nbits}) do not "
                         f"fit the int64 host currency")
    _check_capacity(n_words, planes.dtype, cols)
    groups = planes.dtype.itemsize
    n_bytes = ceil_div(nbits, 8)
    if nbits % 8:
        pad = np.zeros((n_bytes * 8 - nbits, *lead, n_words),
                       dtype=planes.dtype)
        planes = np.concatenate([planes, pad])
    as_bytes = _le_bytes(planes).reshape(n_bytes, 8, *lead, n_words, groups)
    blocks = np.ascontiguousarray(np.moveaxis(as_bytes, 1, -1)).view("<u8")
    # Transpose the private copy in place, after dropping the padded
    # planes, so the conversion holds two word blocks at a time, not four.
    del planes, as_bytes
    lanes = _le_bytes(_transpose8x8_into(blocks[..., 0]))
    lanes = lanes.reshape(n_bytes, *lead, n_words * groups * 8)[..., :cols]
    out = np.zeros((*lead, cols, 8), dtype=np.uint8)
    out[..., :n_bytes] = np.moveaxis(lanes, 0, -1)
    return out.view("<i8")[..., 0].astype(np.int64, copy=False)


def to_twos_complement(values: np.ndarray, nbits: int) -> np.ndarray:
    """Encode (possibly negative) ints into ``nbits``-wide two's complement."""
    values = np.asarray(values, dtype=np.int64)
    mask = (np.int64(1) << nbits) - 1
    return values & mask


def from_twos_complement(values: np.ndarray, nbits: int) -> np.ndarray:
    """Decode ``nbits``-wide two's complement back into signed ints."""
    values = np.asarray(values, dtype=np.int64)
    sign_bit = np.int64(1) << (nbits - 1)
    mask = (np.int64(1) << nbits) - 1
    values = values & mask
    return np.where(values & sign_bit, values - (np.int64(1) << nbits), values)


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= ``n`` (``n`` must be positive)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return 1 << (n - 1).bit_length()


def is_power_of_two(n: int) -> bool:
    """True when ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    return -(-a // b)
