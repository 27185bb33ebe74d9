"""Quantized tensors (Sec. IV: 8-bit precision, quantized inputs/filters).

The scheme is the asymmetric uint8 quantization used by TensorFlow/gemmlowp
(and adopted by the TPU, which the paper cites): a real value ``r`` is
represented by an unsigned byte ``q`` with

    r = scale * (q - zero_point)

Accumulation happens in 32-bit integers; results are *requantized* back to
uint8 with a fixed-point multiplier (see :class:`RequantParams`), mirroring
the paper's flow where the CPU computes two integers from the layer's
min/max and the cache applies multiply/add/shift in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import QuantizationError

UINT8_LEVELS = 255


@dataclass(frozen=True)
class QuantParams:
    """Affine quantization parameters for one tensor."""

    scale: float
    zero_point: int

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise QuantizationError(f"scale must be positive, got {self.scale}")
        if not 0 <= self.zero_point <= UINT8_LEVELS:
            raise QuantizationError(
                f"zero point must be a uint8 value, got {self.zero_point}")

    @classmethod
    def from_range(cls, min_value: float, max_value: float) -> "QuantParams":
        """TF-style parameters covering ``[min_value, max_value]``.

        The range is widened to include zero (so that zero is exactly
        representable, which padding and ReLU require).
        """
        if not np.isfinite(min_value) or not np.isfinite(max_value):
            raise QuantizationError("range must be finite")
        if min_value > max_value:
            raise QuantizationError(
                f"empty range: [{min_value}, {max_value}]")
        min_value = min(min_value, 0.0)
        max_value = max(max_value, 0.0)
        if min_value == max_value:
            # Degenerate all-zero tensor; any positive scale works.
            return cls(scale=1.0, zero_point=0)
        # A range under 255 subnormal steps wide would underflow the
        # scale to zero; the smallest positive float still covers it.
        scale = max((max_value - min_value) / UINT8_LEVELS,
                    float(np.finfo(np.float64).smallest_subnormal))
        zero_point = int(round(-min_value / scale))
        zero_point = max(0, min(UINT8_LEVELS, zero_point))
        return cls(scale=scale, zero_point=zero_point)

    def quantize(self, real: np.ndarray) -> np.ndarray:
        """Real values -> uint8 codes (round-to-nearest, saturating)."""
        q = np.round(np.asarray(real, dtype=np.float64) / self.scale
                     + self.zero_point)
        return np.clip(q, 0, UINT8_LEVELS).astype(np.uint8)

    def dequantize(self, q: np.ndarray) -> np.ndarray:
        """uint8 codes -> real values."""
        return (np.asarray(q, dtype=np.float64) - self.zero_point) * self.scale


@dataclass(frozen=True)
class QuantizedTensor:
    """A uint8 tensor with its quantization parameters."""

    data: np.ndarray
    params: QuantParams

    def __post_init__(self) -> None:
        if self.data.dtype != np.uint8:
            raise QuantizationError(
                f"quantized data must be uint8, got {self.data.dtype}")

    @classmethod
    def from_real(cls, real: np.ndarray,
                  params: QuantParams | None = None) -> "QuantizedTensor":
        """Quantize a real tensor (range taken from the data by default)."""
        real = np.asarray(real, dtype=np.float64)
        if params is None:
            params = QuantParams.from_range(float(real.min()),
                                            float(real.max()))
        return cls(data=params.quantize(real), params=params)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def nbytes(self) -> int:
        """Storage footprint: one byte per element."""
        return self.data.size

    def dequantize(self) -> np.ndarray:
        """Back to real values."""
        return self.params.dequantize(self.data)


def round_shift(value: np.ndarray, shift: int) -> np.ndarray:
    """Round-half-up right shift, the fixed-point rounding both execution
    paths share: ``(value + 2**(shift-1)) >> shift``."""
    if shift < 0:
        raise QuantizationError(f"shift must be non-negative, got {shift}")
    value = np.asarray(value, dtype=np.int64)
    if shift == 0:
        return value
    return (value + (np.int64(1) << (shift - 1))) >> shift


@dataclass(frozen=True)
class RequantParams:
    """Fixed-point requantization: acc32 -> uint8.

    ``q = clamp(zero_point + round_shift(acc * multiplier, shift))``

    The real-valued ratio ``scale_acc / scale_out`` is represented as
    ``multiplier / 2**shift`` with a 16-bit multiplier — the "two unsigned
    integers sent back by the CPU" of Sec. IV-D.
    """

    multiplier: int
    shift: int
    zero_point: int
    #: Bits available for the multiplier (16 keeps in-cache multiplies cheap).
    multiplier_bits: int = 16

    def __post_init__(self) -> None:
        if not 0 < self.multiplier < (1 << self.multiplier_bits):
            raise QuantizationError(
                f"multiplier must fit in {self.multiplier_bits} bits and be "
                f"positive, got {self.multiplier}")
        if self.shift < 0:
            raise QuantizationError(f"shift must be >= 0, got {self.shift}")
        if not 0 <= self.zero_point <= UINT8_LEVELS:
            raise QuantizationError(
                f"zero point must be a uint8 value, got {self.zero_point}")

    @classmethod
    def from_scales(cls, acc_scale: float, out: QuantParams,
                    multiplier_bits: int = 16) -> "RequantParams":
        """Fixed-point encoding of ``acc_scale / out.scale``.

        ``acc_scale`` is the accumulator's real value per unit (for a conv,
        ``input_scale * weight_scale``). The ratio is < 1 in practice; the
        shift is chosen so the multiplier uses its full precision.
        """
        if acc_scale <= 0:
            raise QuantizationError("accumulator scale must be positive")
        ratio = acc_scale / out.scale
        if ratio <= 0:
            raise QuantizationError("requantization ratio must be positive")
        shift = 0
        while ratio * (1 << (shift + 1)) < (1 << multiplier_bits) and shift < 62:
            shift += 1
        multiplier = int(round(ratio * (1 << shift)))
        multiplier = max(1, min((1 << multiplier_bits) - 1, multiplier))
        return cls(multiplier=multiplier, shift=shift, zero_point=out.zero_point,
                   multiplier_bits=multiplier_bits)

    def apply(self, acc: np.ndarray) -> np.ndarray:
        """Requantize int accumulators to uint8 (both paths share this)."""
        acc = np.asarray(acc, dtype=np.int64)
        scaled = round_shift(acc * np.int64(self.multiplier), self.shift)
        return np.clip(scaled + self.zero_point, 0, UINT8_LEVELS).astype(np.uint8)
