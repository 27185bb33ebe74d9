"""Tests for the Compute Cache heritage operations (Sec. II-B).

Neural Cache builds on Compute Cache's bit-parallel logicals, equality
comparison and search; these run directly off the sensed AND/NOR rails
with no bit-line interaction.

Every test runs on a one-array store built by ``make_fleet`` and viewed
through ``SRAMArray(fleet=...)``. Each test class runs on the unpacked
reference; its ``Packed`` and ``PackedRagged`` subclasses repeat the same
assertions on the packed store at one whole word and at a ragged 100
columns (tail word partly populated). ``NEURALCACHE_SANITIZE=1`` wraps
every store in the shadow sanitizer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ArrayStateError
from repro.engine import make_fleet
from repro.sram import BitSerialUnit, CycleCosts, Operand, SRAMArray

COSTS = CycleCosts.derived()
RNG = np.random.default_rng(55)


#: ``(packed, cols)`` of each store under test.
UNPACKED = (False, 64)
PACKED = (True, 64)
PACKED_RAGGED = (True, 100)


def fresh_unit(store):
    packed, cols = store
    fleet = make_fleet(1, rows=64, cols=cols, packed=packed)
    return BitSerialUnit(SRAMArray(fleet=fleet))


def loaded(store, n=8):
    unit = fresh_unit(store)
    a, b = Operand(0, n), Operand(n, n)
    av = RNG.integers(0, 1 << n, unit.cols, dtype=np.int64)
    bv = RNG.integers(0, 1 << n, unit.cols, dtype=np.int64)
    unit.write_values(a, av)
    unit.write_values(b, bv)
    return unit, a, b, av, bv


class TestLogicals:
    store = UNPACKED

    def test_and(self):
        unit, a, b, av, bv = loaded(self.store)
        dst = Operand(16, 8)
        unit.logical_and(a, b, dst)
        assert np.array_equal(unit.read_values(dst), av & bv)
        assert unit.cycles == COSTS.logical(8)

    def test_nor(self):
        unit, a, b, av, bv = loaded(self.store)
        dst = Operand(16, 8)
        unit.logical_nor(a, b, dst)
        assert np.array_equal(unit.read_values(dst), ~(av | bv) & 0xFF)
        assert unit.cycles == COSTS.logical(8)

    def test_or(self):
        unit, a, b, av, bv = loaded(self.store)
        dst = Operand(16, 8)
        unit.logical_or(a, b, dst)
        assert np.array_equal(unit.read_values(dst), av | bv)
        assert unit.cycles == COSTS.logical_or(8)

    def test_xor(self):
        unit, a, b, av, bv = loaded(self.store)
        dst = Operand(16, 8)
        unit.logical_xor(a, b, dst)
        assert np.array_equal(unit.read_values(dst), av ^ bv)
        assert unit.cycles == COSTS.logical(8)

    def test_width_mismatch_rejected(self):
        unit = fresh_unit(self.store)
        with pytest.raises(Exception):
            unit.logical_and(Operand(0, 8), Operand(8, 4), Operand(16, 8))

    def test_in_place_xor_is_safe(self):
        # dst may alias a: each bit is written after it is sensed.
        unit, a, b, av, bv = loaded(self.store)
        unit.logical_xor(a, b, a)
        assert np.array_equal(unit.read_values(a), av ^ bv)


class TestLogicalsPacked(TestLogicals):
    store = PACKED


class TestLogicalsPackedRagged(TestLogicals):
    store = PACKED_RAGGED


class TestEqualityCompare:
    store = UNPACKED

    def test_flags_equal_columns(self):
        unit = fresh_unit(self.store)
        a, b = Operand(0, 8), Operand(8, 8)
        av = RNG.integers(0, 256, unit.cols, dtype=np.int64)
        bv = av.copy()
        differ = RNG.choice(unit.cols, size=unit.cols // 2, replace=False)
        bv[differ] = (bv[differ] + 1) % 256
        unit.write_values(a, av)
        unit.write_values(b, bv)
        unit.equality_compare(a, b, dst_row=20)
        flags = unit.array.read_row(20)
        assert np.array_equal(flags.astype(np.int64),
                              (av == bv).astype(np.int64))
        assert unit.cycles == COSTS.equality_compare(8)

    def test_all_equal(self):
        unit = fresh_unit(self.store)
        a, b = Operand(0, 4), Operand(4, 4)
        unit.write_values(a, 9)
        unit.write_values(b, 9)
        unit.equality_compare(a, b, dst_row=10)
        assert np.all(unit.array.read_row(10) == 1)


class TestEqualityComparePacked(TestEqualityCompare):
    store = PACKED


class TestEqualityComparePackedRagged(TestEqualityCompare):
    store = PACKED_RAGGED


class TestSearch:
    store = UNPACKED

    def test_finds_matching_columns(self):
        unit = fresh_unit(self.store)
        hay = Operand(0, 8)
        values = RNG.integers(0, 16, unit.cols, dtype=np.int64)
        unit.write_values(hay, values)
        unit.search(hay, key=7, dst_row=20)
        flags = unit.array.read_row(20)
        assert np.array_equal(flags.astype(np.int64),
                              (values == 7).astype(np.int64))
        assert unit.cycles == COSTS.search(8)

    def test_no_match(self):
        unit = fresh_unit(self.store)
        hay = Operand(0, 4)
        unit.write_values(hay, 3)
        unit.search(hay, key=5, dst_row=10)
        assert np.all(unit.array.read_row(10) == 0)

    def test_key_must_fit(self):
        unit = fresh_unit(self.store)
        with pytest.raises(ArrayStateError):
            unit.search(Operand(0, 4), key=16, dst_row=10)
        with pytest.raises(ArrayStateError):
            unit.search(Operand(0, 4), key=-1, dst_row=10)

    def test_search_then_selective_copy(self):
        """The Compute Cache pattern: search, then act on the matches."""
        unit = fresh_unit(self.store)
        hay = Operand(0, 8)
        repl = Operand(8, 8)
        values = RNG.integers(0, 4, unit.cols, dtype=np.int64)
        unit.write_values(hay, values)
        unit.write_values(repl, 99)
        unit.search(hay, key=2, dst_row=20)
        unit.selective_copy(repl, hay, tag_row=20)
        expected = np.where(values == 2, 99, values)
        assert np.array_equal(unit.read_values(hay), expected)


class TestSearchPacked(TestSearch):
    store = PACKED


class TestSearchPackedRagged(TestSearch):
    store = PACKED_RAGGED


def check_logicals(store, nbits, data):
    hi = (1 << nbits) - 1
    unit = fresh_unit(store)
    cols = unit.cols
    av = np.array(data.draw(st.lists(st.integers(0, hi), min_size=cols,
                                     max_size=cols)), dtype=np.int64)
    bv = np.array(data.draw(st.lists(st.integers(0, hi), min_size=cols,
                                     max_size=cols)), dtype=np.int64)
    a, b = Operand(0, nbits), Operand(nbits, nbits)
    dst = Operand(2 * nbits, nbits)
    unit.write_values(a, av)
    unit.write_values(b, bv)
    unit.logical_xor(a, b, dst)
    assert np.array_equal(unit.read_values(dst), av ^ bv)
    unit.logical_and(a, b, dst)
    assert np.array_equal(unit.read_values(dst), av & bv)
    unit.logical_or(a, b, dst)
    assert np.array_equal(unit.read_values(dst), av | bv)


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=40, deadline=None)
def test_logicals_property(nbits, data):
    check_logicals((False, 32), nbits, data)


@pytest.mark.parametrize("store", [
    pytest.param(PACKED, id="packed"),
    pytest.param(PACKED_RAGGED, id="packed-ragged"),
])
@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=40, deadline=None)
def test_logicals_property_packed(store, nbits, data):
    check_logicals(store, nbits, data)
