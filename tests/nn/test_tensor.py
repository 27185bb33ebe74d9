"""Tests for quantization parameters, tensors and requantization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import QuantizationError
from repro.nn import QuantParams, QuantizedTensor, RequantParams, round_shift


class TestQuantParams:
    def test_from_range_includes_zero(self):
        params = QuantParams.from_range(1.0, 5.0)
        # Range widened to [0, 5] so zero is representable.
        assert params.zero_point == 0
        assert params.scale == pytest.approx(5.0 / 255)

    def test_subnormal_range_keeps_a_positive_scale(self):
        # (5e-324 - 0) / 255 underflows to zero; the scale must not.
        params = QuantParams.from_range(0.0, 5e-324)
        assert params.scale > 0
        assert params.zero_point == 0
        assert params.quantize(np.array([5e-324]))[0] == 1

    def test_symmetric_range(self):
        params = QuantParams.from_range(-1.0, 1.0)
        assert 126 <= params.zero_point <= 129

    def test_degenerate_range(self):
        params = QuantParams.from_range(0.0, 0.0)
        assert params.scale == 1.0
        assert params.zero_point == 0

    def test_zero_quantizes_to_zero_point(self):
        params = QuantParams.from_range(-3.0, 3.0)
        assert params.quantize(np.array([0.0]))[0] == params.zero_point

    def test_quantize_saturates(self):
        params = QuantParams.from_range(0.0, 1.0)
        q = params.quantize(np.array([-10.0, 10.0]))
        assert list(q) == [0, 255]

    def test_round_trip_error_bounded_by_scale(self):
        params = QuantParams.from_range(-2.0, 2.0)
        real = np.linspace(-2, 2, 101)
        err = np.abs(params.dequantize(params.quantize(real)) - real)
        assert err.max() <= params.scale / 2 + 1e-12

    def test_validation(self):
        with pytest.raises(QuantizationError):
            QuantParams(scale=0.0, zero_point=0)
        with pytest.raises(QuantizationError):
            QuantParams(scale=1.0, zero_point=256)
        with pytest.raises(QuantizationError):
            QuantParams.from_range(2.0, 1.0)
        with pytest.raises(QuantizationError):
            QuantParams.from_range(float("nan"), 1.0)


class TestQuantizedTensor:
    def test_from_real_auto_range(self):
        real = np.array([[0.0, 1.0], [2.0, 4.0]])
        tensor = QuantizedTensor.from_real(real)
        assert tensor.shape == (2, 2)
        assert tensor.data.dtype == np.uint8
        assert np.allclose(tensor.dequantize(), real, atol=tensor.params.scale)

    def test_nbytes_one_per_element(self):
        tensor = QuantizedTensor.from_real(np.zeros((3, 4, 5)))
        assert tensor.nbytes == 60

    def test_dtype_enforced(self):
        with pytest.raises(QuantizationError):
            QuantizedTensor(np.zeros((2, 2), dtype=np.int32),
                            QuantParams(1.0, 0))


class TestRoundShift:
    def test_basic(self):
        assert round_shift(np.array([10]), 2)[0] == 3   # 10/4 = 2.5 -> 3
        assert round_shift(np.array([9]), 2)[0] == 2    # 9/4 = 2.25 -> 2

    def test_zero_shift_identity(self):
        assert round_shift(np.array([7]), 0)[0] == 7

    def test_negative_shift_rejected(self):
        with pytest.raises(QuantizationError):
            round_shift(np.array([1]), -1)


class TestRequantParams:
    def test_from_scales_accuracy(self):
        out = QuantParams(scale=0.05, zero_point=10)
        requant = RequantParams.from_scales(acc_scale=0.001, out=out)
        ratio = requant.multiplier / (1 << requant.shift)
        assert ratio == pytest.approx(0.001 / 0.05, rel=1e-4)
        assert requant.zero_point == 10

    def test_multiplier_uses_full_precision(self):
        out = QuantParams(scale=1.0, zero_point=0)
        requant = RequantParams.from_scales(acc_scale=0.5, out=out)
        assert requant.multiplier >= 1 << 14  # close to the 16-bit ceiling

    def test_apply_matches_float_scaling(self):
        out = QuantParams(scale=0.1, zero_point=5)
        requant = RequantParams.from_scales(acc_scale=0.01, out=out)
        acc = np.arange(0, 1000, 37, dtype=np.int64)
        got = requant.apply(acc)
        expected = np.clip(np.round(acc * 0.1) + 5, 0, 255)
        assert np.abs(got.astype(int) - expected).max() <= 1

    def test_apply_clamps(self):
        requant = RequantParams(multiplier=1 << 10, shift=10, zero_point=250)
        assert requant.apply(np.array([1_000_000]))[0] == 255
        assert requant.apply(np.array([-1_000_000]))[0] == 0

    def test_validation(self):
        with pytest.raises(QuantizationError):
            RequantParams(multiplier=0, shift=0, zero_point=0)
        with pytest.raises(QuantizationError):
            RequantParams(multiplier=1 << 16, shift=0, zero_point=0)
        with pytest.raises(QuantizationError):
            RequantParams(multiplier=1, shift=-1, zero_point=0)
        with pytest.raises(QuantizationError):
            RequantParams.from_scales(acc_scale=0.0,
                                      out=QuantParams(1.0, 0))


@given(st.floats(min_value=1e-4, max_value=1e2),
       st.floats(min_value=1e-3, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_requant_ratio_property(acc_scale, out_scale):
    out = QuantParams(scale=out_scale, zero_point=0)
    requant = RequantParams.from_scales(acc_scale=acc_scale, out=out)
    ratio = requant.multiplier / (1 << requant.shift)
    true_ratio = acc_scale / out_scale
    # 16-bit fixed point keeps relative error tiny unless the ratio itself
    # saturates the encoding.
    if 2**-40 < true_ratio < 2**15:
        assert ratio == pytest.approx(true_ratio, rel=2e-4)


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1,
                max_size=50))
@example([5e-324])
@example([-5e-324])
@settings(max_examples=60, deadline=None)
def test_quantize_round_trip_property(values):
    real = np.array(values)
    params = QuantParams.from_range(float(real.min()), float(real.max()))
    err = np.abs(params.dequantize(params.quantize(real)) - real)
    assert err.max() <= params.scale / 2 + 1e-9
