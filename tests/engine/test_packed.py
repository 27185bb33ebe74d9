"""The packed plane store is bit-exact and cycle-exact vs the reference.

The acceptance contract of the packed-store change: for any geometry —
at every word width (uint8, uint16 and uint32 words for arrays of up to
8, 16 and 32 columns, uint64 beyond) and including ragged fleets, where
the tail word is only partially populated — every
:class:`FleetBitSerialUnit` sequence must leave a
:class:`PackedArrayFleet` holding exactly the bits an
:class:`ArrayFleet` holds, with exactly the same lockstep cycle counters,
and every plane it computes keeps the store's word dtype.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bits import (
    int_to_bitplanes,
    ints_to_packed_planes,
    pack_bit_plane,
    packed_planes_to_ints,
    packed_words,
    transpose8x8,
    unpack_bit_plane,
    word_dtype,
)
from repro.common.errors import ArrayStateError, VerifyError
from repro.engine import (
    ArrayFleet,
    FleetBitSerialUnit,
    Operand,
    PackedArrayFleet,
    make_fleet,
)
from repro.faults import HardwareFaultModel
from repro.verify import record_programs

RNG = np.random.default_rng(23)

#: Geometries exercising every word width, whole-word, multi-word and
#: ragged tail cases.
GEOMETRIES = [
    pytest.param(3, 8, id="uint8"),
    pytest.param(2, 16, id="uint16"),
    pytest.param(2, 13, id="ragged-13"),
    pytest.param(2, 32, id="uint32"),
    pytest.param(2, 64, id="one-word"),
    pytest.param(3, 256, id="four-words"),
    pytest.param(2, 100, id="ragged-100"),
    pytest.param(1, 37, id="ragged-37"),
]


#: The same geometries as hypothesis draws.
GEOMETRY_VALUES = [param.values for param in GEOMETRIES]


def make_pair(n_arrays, cols, rows=256, sparsity=False):
    return (FleetBitSerialUnit(ArrayFleet(n_arrays, rows, cols), sparsity),
            FleetBitSerialUnit(PackedArrayFleet(n_arrays, rows, cols),
                               sparsity))


def assert_stores_agree(ref, packed):
    """Full-state, counter and periphery-latch equality."""
    rows = ref.fleet.rows
    assert np.array_equal(ref.fleet.dump_bits(0, rows),
                          packed.fleet.dump_bits(0, rows))
    assert ref.cycles == packed.cycles
    assert ref.skipped_cycles == packed.skipped_cycles
    assert ref.fleet.compute_cycles == packed.fleet.compute_cycles
    assert ref.fleet.access_cycles == packed.fleet.access_cycles
    cols = ref.fleet.cols
    assert np.array_equal(ref.periphery.tag,
                          unpack_bit_plane(packed.periphery.tag, cols))
    assert np.array_equal(ref.periphery.carry,
                          unpack_bit_plane(packed.periphery.carry, cols))


#: The packed word per array width: the narrowest unsigned word holding
#: every column, uint64 words (several) beyond 64 columns.
WORD_DTYPES = {1: np.uint8, 8: np.uint8, 9: np.uint16, 13: np.uint16,
               16: np.uint16, 17: np.uint32, 32: np.uint32, 33: np.uint64,
               63: np.uint64, 64: np.uint64, 65: np.uint64, 100: np.uint64,
               256: np.uint64}


class TestPackHelpers:
    @pytest.mark.parametrize("cols", sorted(WORD_DTYPES))
    def test_roundtrip(self, cols):
        bits = RNG.integers(0, 2, (3, 5, cols)).astype(np.uint8)
        words = pack_bit_plane(bits)
        assert words.shape == (3, 5, packed_words(cols))
        assert words.dtype == WORD_DTYPES[cols] == word_dtype(cols)
        assert np.array_equal(unpack_bit_plane(words, cols), bits)

    def test_lsb_first_within_word(self):
        bits = np.zeros(64, dtype=np.uint8)
        bits[0] = bits[5] = 1
        assert pack_bit_plane(bits)[0] == (1 << 0) | (1 << 5)

    def test_ragged_tail_is_zero(self):
        bits = np.ones((1, 70), dtype=np.uint8)
        words = pack_bit_plane(bits)
        assert words.shape == (1, 2)
        assert words[0, 1] == np.uint64((1 << 6) - 1)
        narrow = pack_bit_plane(np.ones((1, 13), dtype=np.uint8))
        assert narrow.dtype == np.uint16
        assert narrow[0, 0] == (1 << 13) - 1

    def test_word_count_validated(self):
        with pytest.raises(ValueError):
            pack_bit_plane(np.ones(129, dtype=np.uint8), n_words=2)
        with pytest.raises(ValueError):
            unpack_bit_plane(np.zeros(1, dtype=np.uint64), cols=65)
        with pytest.raises(ValueError):
            unpack_bit_plane(np.zeros(1, dtype=np.uint16), cols=17)
        with pytest.raises(ValueError):
            packed_words(0)


class TestPackedFleetPrimitives:
    @pytest.mark.parametrize("n_arrays,cols", GEOMETRIES)
    def test_sense_rails_match_reference(self, n_arrays, cols):
        # The AND (BL) and NOR (BLB) rails, written back by the heritage
        # logicals: the NOR complement must keep the tail word clear.
        ref, packed = make_pair(n_arrays, cols, rows=8)
        a = RNG.integers(0, 2, (n_arrays, 1, cols)).astype(np.uint8)
        b = RNG.integers(0, 2, (n_arrays, 1, cols)).astype(np.uint8)
        for unit in (ref, packed):
            unit.fleet.load_bits(0, a)
            unit.fleet.load_bits(1, b)
            unit.logical_and(Operand(0, 1), Operand(1, 1), Operand(2, 1))
            unit.logical_nor(Operand(0, 1), Operand(1, 1), Operand(3, 1))
        assert np.array_equal(ref.fleet.dump_bits(2, 2),
                              packed.fleet.dump_bits(2, 2))
        assert np.array_equal(ref.fleet.dump_bits(2, 1)[:, 0], (a & b)[:, 0])
        assert packed.fleet.compute_cycles == ref.fleet.compute_cycles == 2
        assert not np.any(packed.fleet.row_plane(3)
                          & ~packed.fleet.const_plane(1))

    def test_write_row_mask_and_read_row_speak_host_bits(self):
        packed = PackedArrayFleet(2, rows=4, cols=100)
        bits = RNG.integers(0, 2, (2, 100)).astype(np.uint8)
        mask = RNG.integers(0, 2, (2, 100)).astype(np.uint8)
        packed.write_row(1, bits)
        packed.write_row(1, 1 - bits, mask=mask)
        assert packed.access_cycles == 2
        assert np.array_equal(packed.read_row(1),
                              np.where(mask, 1 - bits, bits))
        assert packed.access_cycles == 3  # the read counts too

    def test_load_dump_sub_word_column_ranges(self):
        # Column ranges that straddle a word boundary exercise the
        # read-modify-write path of the packed store.
        packed = PackedArrayFleet(1, rows=4, cols=130)
        ref = ArrayFleet(1, rows=4, cols=130)
        patch = RNG.integers(0, 2, (1, 2, 9)).astype(np.uint8)
        for fleet in (ref, packed):
            fleet.load_bits(1, patch, col_offset=60)
        assert np.array_equal(packed.dump_bits(0, 4), ref.dump_bits(0, 4))
        assert np.array_equal(packed.dump_bits(1, 2, col_offset=60, n_cols=9),
                              patch)

    def test_host_path_validation_shared_with_reference(self):
        # The boundary bugfix sweep applies to both stores: the checks
        # live once in the PlaneStore base.
        packed = PackedArrayFleet(1, rows=4, cols=100)
        with pytest.raises(ArrayStateError, match="columns"):
            packed.dump_bits(0, 1, col_offset=-2, n_cols=2)
        with pytest.raises(ArrayStateError, match="columns"):
            packed.dump_bits(0, 1, col_offset=99, n_cols=2)
        with pytest.raises(ArrayStateError, match="0 or 1"):
            packed.load_bits(0, np.full((1, 1, 100), 2, dtype=np.uint8))

    def test_resident_memory_is_8x_smaller_on_word_multiples(self):
        ref = ArrayFleet(16, 256, 256)
        packed = PackedArrayFleet(16, 256, 256)
        assert packed.nbytes * 8 == ref.nbytes

    def test_make_fleet_selects_store(self, monkeypatch):
        # Pin the sanitizer env gate off: under NEURALCACHE_SANITIZE=1
        # the store arrives wrapped, which TestOptIn covers elsewhere.
        monkeypatch.delenv("NEURALCACHE_SANITIZE", raising=False)
        assert isinstance(make_fleet(2, 8, 64), ArrayFleet)
        assert isinstance(make_fleet(2, 8, 64, packed=True), PackedArrayFleet)

    @pytest.mark.parametrize("packed", ["mmap", "shared"])
    def test_make_fleet_rejects_unknown_store_string(self, packed):
        # Plane stores are private to their process: make_fleet knows no
        # shared or file-backed store.
        with pytest.raises(ArrayStateError, match="unknown plane store"):
            make_fleet(1, packed=packed)


class TestSequenceEquivalence:
    """Every FleetBitSerialUnit sequence, packed vs unpacked."""

    @pytest.mark.parametrize("n_arrays,cols", GEOMETRIES)
    def test_arithmetic_sequences(self, n_arrays, cols):
        ref, packed = make_pair(n_arrays, cols)
        av = RNG.integers(0, 256, (n_arrays, cols)).astype(np.int64)
        bv = RNG.integers(1, 256, (n_arrays, cols)).astype(np.int64)
        a, b = Operand(0, 8), Operand(8, 8)
        for unit in (ref, packed):
            unit.write_values(a, av)
            unit.write_values(b, bv)
            unit.add(a, b, Operand(16, 9))
            unit.sub(a, b, Operand(25, 9), Operand(34, 8))
            unit.multiply(a, b, Operand(42, 16))
            unit.mac(a, b, Operand(58, 16), Operand(74, 20))
            unit.divide(a, b, Operand(94, 8), Operand(102, 28))
        assert np.array_equal(packed.read_values(Operand(16, 9)), av + bv)
        assert np.array_equal(packed.read_values(Operand(42, 16)), av * bv)
        assert np.array_equal(packed.read_values(Operand(94, 8)), av // bv)
        assert_stores_agree(ref, packed)

    @pytest.mark.parametrize("n_arrays,cols", GEOMETRIES)
    def test_compare_minmax_relu_sequences(self, n_arrays, cols):
        ref, packed = make_pair(n_arrays, cols)
        av = RNG.integers(0, 64, (n_arrays, cols)).astype(np.int64)
        bv = RNG.integers(0, 64, (n_arrays, cols)).astype(np.int64)
        a, b = Operand(0, 6), Operand(6, 6)
        for unit in (ref, packed):
            unit.write_values(a, av)
            unit.write_values(b, bv)
            unit.compare_ge(a, b, Operand(12, 1), Operand(13, 13))
            unit.max_update(a, b, Operand(26, 13))
            unit.min_update(Operand(6, 6), Operand(0, 6), Operand(39, 13))
            unit.relu(a, sign_row=a.bit(5))
            unit.equality_compare(a, b, 52)
            unit.search(b, int(bv[0, 0]), 53)
        assert np.array_equal(packed.read_values(Operand(12, 1)),
                              (av >= bv).astype(int))
        assert_stores_agree(ref, packed)

    @pytest.mark.parametrize("n_arrays,cols", GEOMETRIES)
    def test_copy_logical_and_reduce_sequences(self, n_arrays, cols):
        ref, packed = make_pair(n_arrays, cols)
        av = RNG.integers(0, 256, (n_arrays, cols)).astype(np.int64)
        bv = RNG.integers(0, 256, (n_arrays, cols)).astype(np.int64)
        a, b = Operand(0, 8), Operand(8, 8)
        shift = min(3, cols - 1)
        for unit in (ref, packed):
            unit.write_values(a, av)
            unit.write_values(b, bv)
            unit.copy(a, Operand(16, 8))
            unit.complement_copy(a, Operand(24, 8))
            unit.shift_copy(a, Operand(32, 8), shift)
            unit.selective_copy(a, Operand(40, 8), tag_row=b.bit(0))
            unit.logical_and(a, b, Operand(48, 8))
            unit.logical_or(a, b, Operand(56, 8))
            unit.logical_nor(a, b, Operand(64, 8))
            unit.logical_xor(a, b, Operand(72, 8))
            unit.write_scalar(Operand(80, 8), 77)
            unit.zero(Operand(88, 8))
            unit.reduce_tree(Operand(100, 12), Operand(116, 12),
                             elements=4, width=8)
        assert np.array_equal(packed.read_values(Operand(48, 8)), av & bv)
        assert np.array_equal(packed.read_values(Operand(72, 8)), av ^ bv)
        expected_shift = np.zeros_like(av)
        expected_shift[:, :-shift] = av[:, shift:]
        assert np.array_equal(packed.read_values(Operand(32, 8)),
                              expected_shift)
        assert_stores_agree(ref, packed)

    def test_multi_word_column_shift(self):
        # Shifts larger than one 64-bit word cross word boundaries in the
        # packed store's funnel shifter.
        ref, packed = make_pair(1, 256)
        av = RNG.integers(0, 256, (1, 256)).astype(np.int64)
        for shift in (1, 63, 64, 65, 130, 255):
            for unit in (ref, packed):
                unit.write_values(Operand(0, 8), av)
                unit.shift_copy(Operand(0, 8), Operand(8, 8), shift)
            assert_stores_agree(ref, packed)

    @pytest.mark.parametrize("n_arrays,cols", GEOMETRIES)
    def test_column_shift_at_and_past_the_word_width(self, n_arrays, cols):
        # Shifts of a whole word or more move whole words (or clear a
        # one-word wordline); the funnel shifter's word width is the
        # store's, not 64.
        ref, packed = make_pair(n_arrays, cols, rows=16)
        w = packed.fleet.word_bits
        av = RNG.integers(0, 256, (n_arrays, cols)).astype(np.int64)
        for unit in (ref, packed):
            unit.write_values(Operand(0, 8), av)
        for shift in sorted({1, w - 1, w, w + 1, 2 * w, cols - 1, cols,
                             cols + 1} - {0}):
            for unit in (ref, packed):
                unit.zero(Operand(8, 8))
                unit.shift_copy(Operand(0, 8), Operand(8, 8), shift)
            expected = np.zeros_like(av)
            if shift < cols:
                expected[:, :-shift] = av[:, shift:]
            assert np.array_equal(packed.read_values(Operand(8, 8)),
                                  expected)
            assert_stores_agree(ref, packed)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_random_add_multiply(self, data):
        n_arrays, cols = 2, data.draw(
            st.sampled_from([64, 100, 37, 8, 13, 16, 32]), label="cols")
        nbits = data.draw(st.integers(min_value=1, max_value=8))
        hi = (1 << nbits) - 1
        draw_vals = st.lists(st.integers(0, hi),
                             min_size=n_arrays * cols,
                             max_size=n_arrays * cols)
        av = np.array(data.draw(draw_vals)).reshape(n_arrays, cols)
        bv = np.array(data.draw(draw_vals)).reshape(n_arrays, cols)
        ref, packed = make_pair(n_arrays, cols)
        a, b = Operand(0, nbits), Operand(nbits, nbits)
        for unit in (ref, packed):
            unit.write_values(a, av)
            unit.write_values(b, bv)
            unit.add(a, b, Operand(2 * nbits, nbits + 1))
            unit.multiply(a, b, Operand(4 * nbits, 2 * nbits))
        assert np.array_equal(
            packed.read_values(Operand(4 * nbits, 2 * nbits)), av * bv)
        assert_stores_agree(ref, packed)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_random_masked_write_back_sequences(self, data):
        """Random tag-gated compute writes (``store_plane``) leave both
        stores identical — the tail-word masking of the packed store
        under arbitrary masks at ragged widths."""
        cols = data.draw(st.sampled_from([64, 100, 37, 130, 8, 13, 16, 32]),
                         label="cols")
        n_arrays, rows = 2, 8
        ref = ArrayFleet(n_arrays, rows, cols)
        packed = PackedArrayFleet(n_arrays, rows, cols)
        n_ops = data.draw(st.integers(1, 6), label="n_ops")
        plane = st.lists(st.integers(0, 1), min_size=n_arrays * cols,
                         max_size=n_arrays * cols)
        for _ in range(n_ops):
            row = data.draw(st.integers(0, rows - 1))
            bits = np.array(data.draw(plane),
                            dtype=np.uint8).reshape(n_arrays, cols)
            masked = data.draw(st.booleans())
            mask = (np.array(data.draw(plane),
                             dtype=np.uint8).reshape(n_arrays, cols)
                    if masked else None)
            ref.store_plane(row, bits, mask=mask)
            packed.store_plane(
                row, pack_bit_plane(bits, packed.n_words),
                mask=None if mask is None
                else pack_bit_plane(mask, packed.n_words))
        assert np.array_equal(ref.dump_bits(0, rows),
                              packed.dump_bits(0, rows))
        assert ref.compute_cycles == packed.compute_cycles == 0


def lockstep(ref, packed, step):
    """Run one step on the reference and the packed unit; they must
    still agree afterwards."""
    step(ref)
    step(packed)
    assert_stores_agree(ref, packed)


def draw_rng(data):
    return np.random.default_rng(
        data.draw(st.integers(0, 2**32 - 1), label="seed"))


def sparse_values(data, rng, shape, nbits):
    """``nbits``-wide ints whose bit planes are each random or all-zero:
    the mixed multiplier planes the sparsity engine probes."""
    live = data.draw(st.lists(st.booleans(), min_size=nbits,
                              max_size=nbits), label="live planes")
    keep = sum(1 << j for j, on in enumerate(live) if on)
    return rng.integers(0, 1 << nbits, shape) & keep


class TestFusedKernels:
    """The packed stores run the hot composites as fused word-level
    kernels. Each must leave exactly the per-primitive reference state:
    every plane, ``cycles``, ``skipped_cycles``, both fleet counters,
    both periphery latches and the recorded ``skip_step`` stream."""

    def test_store_type_decides_the_path(self):
        assert FleetBitSerialUnit(PackedArrayFleet(1, 8, 64))._fused
        assert not FleetBitSerialUnit(ArrayFleet(1, 8, 64))._fused

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_property_fused_composites(self, data):
        n_arrays, cols = data.draw(st.sampled_from(GEOMETRY_VALUES),
                                   label="geometry")
        sparsity = data.draw(st.booleans(), label="sparsity")
        n = data.draw(st.integers(1, 8), label="nbits")
        rng = draw_rng(data)
        shape = (n_arrays, cols)
        av = sparse_values(data, rng, shape, n)
        bv = sparse_values(data, rng, shape, n)
        accv = rng.integers(0, 1 << (2 * n + 4), shape)
        smallv = rng.integers(0, 1 << n, shape)
        scalar = data.draw(st.integers(0, (1 << n) - 1), label="scalar")
        shift = data.draw(st.integers(1, cols), label="shift")
        elements = data.draw(st.sampled_from([1, 2, 4, 8, 16]),
                             label="elements")
        a, b, zeros = Operand(0, n), Operand(8, n), Operand(16, n)
        prod, acc = Operand(24, 2 * n), Operand(40, 2 * n + 4)
        diff, scratch = Operand(60, n + 1), Operand(70, n)
        small, dst = Operand(78, n), Operand(86, n)
        base, segment = Operand(96, n + 8), Operand(112, n + 8)
        steps = [
            lambda u: u.write_values(a, av),
            lambda u: u.write_values(b, bv),
            lambda u: u.write_values(acc, accv),
            lambda u: u.write_values(small, smallv),
            lambda u: u.zero(zeros),
            lambda u: u.multiply(a, b, prod),
            lambda u: u.mac(a, b, prod, acc),
            lambda u: u.add_into(zeros, acc),
            lambda u: u.add_into(a, acc),
            lambda u: u.add(a, b, diff),
            lambda u: u.sub(a, b, diff, scratch),
            lambda u: u.sub_into(small, b, scratch),
            lambda u: u.write_scalar(Operand(128, n), scalar),
            lambda u: u.copy(a, dst),
            lambda u: u.complement_copy(b, dst),
            lambda u: u.shift_copy(a, dst, shift),
            lambda u: u.selective_copy(small, dst, tag_row=b.bit(0)),
            lambda u: u.relu(acc, sign_row=acc.bit(acc.nbits - 1)),
            lambda u: u.write_values(Operand(base.row, n), av),
            lambda u: u.zero(Operand(base.row + n, 8)),
            lambda u: u.reduce_tree(base, segment, elements, n),
        ]
        ref, packed = make_pair(n_arrays, cols, rows=136, sparsity=sparsity)
        assert packed._fused and not ref._fused
        with record_programs() as recorder:
            for step in steps:
                lockstep(ref, packed, step)
        ref_calls, packed_calls = (t.calls
                                   for t in recorder.traces.values())
        assert ([c.method for c in ref_calls]
                == [c.method for c in packed_calls])

        def skips(calls):
            return [c.args for c in calls if c.method == "skip_step"]

        assert skips(ref_calls) == skips(packed_calls)
        if sparsity:  # the all-zero add_into source always skips
            assert ("add-into", zeros, acc, acc.nbits) in skips(ref_calls)
        assert np.array_equal(packed.read_values(Operand(base.row, n)),
                              ref.read_values(Operand(base.row, n)))

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_wide_multiply(self, data):
        """The quantize stage's wide composites: 9- to 24-bit multiplies
        (its 16-bit correction and 24x24 requantization products), a
        ``mac`` into a wider accumulator and the 34/48-bit-class adds
        and subtractions around them, each against the reference."""
        n_arrays, cols = data.draw(st.sampled_from(GEOMETRY_VALUES),
                                   label="geometry")
        sparsity = data.draw(st.booleans(), label="sparsity")
        n = data.draw(st.integers(9, 24), label="nbits")
        rng = draw_rng(data)
        shape = (n_arrays, cols)
        w = 2 * n + 2
        av = sparse_values(data, rng, shape, n)
        bv = sparse_values(data, rng, shape, n)
        # Near the top of the range too, so the wide adds carry out.
        accv = rng.integers(0, 1 << w, shape) | (
            data.draw(st.booleans(), label="high acc") << (w - 1))
        subv = rng.integers(0, 1 << w, shape)
        a, b, prod = Operand(0, n), Operand(n, n), Operand(2 * n, 2 * n)
        acc, sub = Operand(4 * n, w), Operand(4 * n + w, w)
        scratch = Operand(sub.end, w)
        steps = [
            lambda u: u.write_values(a, av),
            lambda u: u.write_values(b, bv),
            lambda u: u.write_values(acc, accv),
            lambda u: u.write_values(sub, subv),
            lambda u: u.multiply(a, b, prod),
            lambda u: u.add_into(prod, acc),
            lambda u: u.mac(b, a, prod, acc),
            lambda u: u.sub_into(acc, sub, scratch),
            lambda u: u.add(prod, Operand(sub.row, 2 * n),
                            Operand(scratch.row, 2 * n + 1)),
            lambda u: u.multiply(Operand(acc.row, n), b, prod),
        ]
        ref, packed = make_pair(n_arrays, cols, rows=256, sparsity=sparsity)
        with record_programs() as recorder:
            for step in steps:
                lockstep(ref, packed, step)
        ref_calls, packed_calls = (t.calls
                                   for t in recorder.traces.values())
        assert ([(c.method, c.args) for c in ref_calls]
                == [(c.method, c.args) for c in packed_calls])
        assert np.array_equal(packed.read_values(prod),
                              (ref.read_values(Operand(acc.row, n))
                               * bv))

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_property_cross_array_composites(self, data):
        n_arrays, cols = data.draw(st.sampled_from(GEOMETRY_VALUES),
                                   label="geometry")
        group = data.draw(st.sampled_from([2, 4]), label="group")
        width = data.draw(st.integers(1, 8), label="width")
        stride = data.draw(st.integers(1, group - 1), label="stride")
        rng = draw_rng(data)
        # Every level adds at the fixed width: keep group sums in range.
        vals = rng.integers(0, max((1 << width) // group, 1),
                            (n_arrays * group, cols))
        ref, packed = make_pair(n_arrays * group, cols, rows=40)
        for step in (
                lambda u: u.write_values(Operand(0, width), vals),
                lambda u: u.zero(Operand(width, 1)),
                lambda u: u.move_across(Operand(0, width),
                                        Operand(24, width), stride, group),
                lambda u: u.reduce_across_arrays(
                    Operand(0, width + 1), Operand(12, width), group,
                    width)):
            lockstep(ref, packed, step)
        heads = packed.read_values(Operand(0, width + 1))[::group]
        expected = vals.reshape(n_arrays, group, cols).sum(axis=1)
        assert np.array_equal(heads, expected)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_overlapping_operands(self, data):
        """Destinations overlapping sources: the fused kernels run when
        the sequence senses every source row before overwriting it and
        defer to the per-primitive path otherwise — either way the
        result is the reference's."""
        n_arrays, cols = data.draw(st.sampled_from(GEOMETRY_VALUES),
                                   label="geometry")
        rows = 24
        ref, packed = make_pair(4 * n_arrays, cols, rows=rows)
        bits = draw_rng(data).integers(0, 2, (4 * n_arrays, rows, cols),
                                       dtype=np.uint8)
        lockstep(ref, packed, lambda u: u.fleet.load_bits(0, bits))
        n = data.draw(st.integers(1, 6), label="nbits")

        def at(width):
            return Operand(data.draw(st.integers(0, rows - width)), width)

        kind = data.draw(st.sampled_from([
            "copy", "complement_copy", "shift_copy", "move_across", "add",
            "sub", "add_into", "sub_into"]), label="kind")
        if kind in ("copy", "complement_copy"):
            src, dst = at(n), at(n)
            args = (src, dst)
        elif kind == "shift_copy":
            src, dst = at(n), at(n)
            args = (src, dst, data.draw(st.integers(1, cols)))
        elif kind == "move_across":
            src, dst = at(n), at(n)
            group = data.draw(st.sampled_from([2, 4]), label="group")
            args = (src, dst, data.draw(st.integers(1, group - 1)), group)
        elif kind == "add":
            args = (at(n), at(n), at(n + 1))
        elif kind == "sub":
            args = (at(n), at(n), at(n + 1), at(n))
        elif kind == "add_into":
            args = (at(n), at(n + data.draw(st.integers(0, 4))))
        else:
            args = (at(n), at(n), at(n))
        lockstep(ref, packed, lambda u: getattr(u, kind)(*args))


class TestWordDtype:
    """Every plane the packed store computes keeps the store's word
    dtype. Assignment into the store casts silently, so a stray
    ``np.uint64`` operand — which NumPy's promotion rules combine with a
    uint16 plane into a uint64 one — would not show in the stored bits,
    only in the width of every temporary; this pins the temporaries."""

    @pytest.mark.parametrize("n_arrays,cols", GEOMETRIES)
    def test_composites_and_plane_ops_keep_the_word_dtype(
            self, n_arrays, cols, monkeypatch):
        from repro.engine import bitserial

        dtype = word_dtype(cols)
        computed = []

        def spy(name):
            original = getattr(bitserial, name)

            def record(*args):
                result = original(*args)
                computed.append((name, result.dtype))
                return result

            monkeypatch.setattr(bitserial, name, record)

        spy("_ripple_add")
        spy("mux")
        unit = FleetBitSerialUnit(PackedArrayFleet(2 * n_arrays, 96, cols),
                                  sparsity=True)
        fleet = unit.fleet
        assert unit._fused and fleet.dtype == dtype
        shape = (2 * n_arrays, cols)
        av = RNG.integers(0, 1 << 6, shape)
        bv = RNG.integers(0, 1 << 6, shape)
        a, b, prod = Operand(0, 6), Operand(6, 6), Operand(12, 12)
        acc, diff, dst = Operand(24, 16), Operand(40, 7), Operand(47, 6)
        base, segment = Operand(54, 12), Operand(66, 12)
        steps = [
            lambda: unit.write_values(a, av),
            lambda: unit.write_values(b, bv),
            lambda: unit.zero(acc),
            lambda: unit.multiply(a, b, prod),
            lambda: unit.mac(a, b, prod, acc),
            lambda: unit.add_into(a, acc),
            lambda: unit.add(a, b, diff),
            lambda: unit.sub(a, b, diff, dst),
            lambda: unit.sub_into(a, b, dst),
            lambda: unit.write_scalar(dst, 45),
            lambda: unit.copy(a, dst),
            lambda: unit.complement_copy(b, dst),
            lambda: unit.shift_copy(a, dst, 1),
            lambda: unit.shift_copy(a, dst, fleet.word_bits),
            lambda: unit.selective_copy(b, dst, tag_row=a.bit(0)),
            lambda: unit.relu(acc, sign_row=acc.bit(acc.nbits - 1)),
            lambda: unit.zero(acc, predicated=True),
            lambda: unit.write_values(Operand(base.row, 6), av),
            lambda: unit.zero(Operand(base.row + 6, 6)),
            lambda: unit.reduce_tree(base, segment, min(4, cols), 6),
            lambda: unit.move_across(a, dst, 1, 2),
            lambda: unit.reduce_across_arrays(Operand(0, 7), Operand(78, 6),
                                              2, 6),
            lambda: unit.logical_nor(a, b, dst),
            lambda: unit.equality_compare(a, b, 90),
            lambda: unit.search(b, int(bv[0, 0]), 91),
        ]
        for step in steps:
            step()
            assert fleet._words.dtype == dtype
            assert unit.periphery.carry.dtype == dtype
            assert unit.periphery.tag.dtype == dtype
        assert {name for name, _ in computed} == {"_ripple_add", "mux"}
        assert {d for _, d in computed} == {dtype}

        bits = RNG.integers(0, 2, shape, dtype=np.uint8)
        for row in range(fleet.rows):
            plane = fleet.read_plane(row)
            results = [plane, fleet.plane_not(plane),
                       plane ^ fleet.const_plane(0),
                       plane & fleet.const_plane(1),
                       fleet.pack_plane(bits)]
            results += [fleet.shift_plane(plane, shift) for shift in
                        (1, fleet.word_bits - 1, fleet.word_bits,
                         fleet.word_bits + 1, cols)]
            assert all(r.dtype == dtype for r in results)


class TestHostValues:
    """The packed store's host boundary: ints to words and back through
    byte views and the 8x8 bit-matrix transpose, no 0/1 bit tensor."""

    def test_transpose8x8_is_the_bit_matrix_transpose(self):
        words = RNG.integers(0, 2**63, 50, dtype=np.uint64)

        def matrix(x):
            return np.unpackbits(x.astype("<u8").view(np.uint8),
                                 bitorder="little").reshape(-1, 8, 8)

        flipped = transpose8x8(words)
        assert np.array_equal(matrix(flipped),
                              matrix(words).transpose(0, 2, 1))
        assert np.array_equal(transpose8x8(flipped), words)

    @pytest.mark.parametrize("cols", [1, 8, 13, 16, 32, 37, 63, 64, 65, 100,
                                      256])
    @pytest.mark.parametrize("nbits", [1, 3, 8, 9, 24, 33, 63])
    def test_int_word_conversion_matches_bit_planes(self, cols, nbits):
        # Values up to two bits wider than the field: the excess is
        # masked, as on the bit-plane path.
        values = RNG.integers(0, 1 << min(nbits + 2, 62), (3, 2, cols))
        words = ints_to_packed_planes(values, nbits, packed_words(cols))
        bits = int_to_bitplanes(values.reshape(-1, cols), nbits)
        expected = pack_bit_plane(bits.reshape(3, 2, nbits, cols))
        assert np.array_equal(words, np.moveaxis(expected, 2, 0))
        assert np.array_equal(packed_planes_to_ints(words, cols),
                              values & ((1 << nbits) - 1))

    def test_uint8_values_take_the_byte_path(self):
        values = RNG.integers(0, 256, (2, 3, 100)).astype(np.uint8)
        words = ints_to_packed_planes(values, 8, 2)
        assert np.array_equal(packed_planes_to_ints(words, 100), values)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ints_to_packed_planes(np.array([[1, -1]]), 4, 1)

    @pytest.mark.parametrize("n_arrays,cols", GEOMETRIES)
    def test_unit_host_path_matches_reference(self, n_arrays, cols):
        ref, packed = make_pair(n_arrays, cols, rows=64)
        wide = RNG.integers(0, 1 << 40, (n_arrays, cols))
        block = RNG.integers(0, 256, (n_arrays, 3, cols)).astype(np.uint8)
        for step in (
                lambda u: u.write_values(Operand(0, 12), wide),
                lambda u: u.write_values(Operand(12, 5), 29),
                lambda u: u.write_values(Operand(17, 9), wide[0]),
                lambda u: u.write_value_block(Operand(26, 24), block, 8),
                lambda u: u.write_value_block(Operand(50, 12),
                                              block.astype(np.int64), 4)):
            lockstep(ref, packed, step)
        for op in (Operand(0, 12), Operand(12, 5), Operand(17, 9),
                   Operand(26, 24), Operand(50, 12), Operand(0, 62)):
            assert np.array_equal(packed.read_values(op),
                                  ref.read_values(op))
        # Bits past the last column stay zero in every loaded word.
        tail = packed.fleet.word_block(0, 64)[..., -1]
        assert not np.any(tail & ~packed.fleet.const_plane(1)[-1])

    @pytest.mark.parametrize("packed", [False, True],
                             ids=["unpacked", "packed"])
    @pytest.mark.parametrize("nbits", [3, 8, 12, 20])
    @pytest.mark.parametrize("cols", [8, 13, 16, 37, 256])
    def test_uint8_write_values_store_the_int64_words(self, cols, nbits,
                                                      packed):
        # Streamed input bytes stay uint8 (the one-byte conversion); the
        # stored bits must equal the int64 path's, below, at and above
        # one byte of field width (the planes past bit 7 are zeros).
        values = RNG.integers(0, 256, (3, cols)).astype(np.uint8)
        wide_values = values.astype(np.int64)
        stores = []
        for host in (values, wide_values):
            unit = FleetBitSerialUnit(make_fleet(3, 24, cols, packed=packed,
                                                 sanitize=False))
            unit.write_values(Operand(2, nbits), host)
            stores.append(unit.fleet)
        narrow, wide = stores
        if packed:
            assert narrow.word_block(0, 24).dtype == word_dtype(cols)
            assert np.array_equal(narrow.word_block(0, 24),
                                  wide.word_block(0, 24))
        assert np.array_equal(narrow.dump_bits(0, 24), wide.dump_bits(0, 24))
        assert np.array_equal(narrow.dump_values(2, nbits),
                              wide_values & ((1 << nbits) - 1))


#: Array selections of a five-array fleet: one, unordered, a strided
#: subset, every array, none.
SELECTIONS = [[0], [4, 1], [0, 2, 4], [0, 1, 2, 3, 4], []]


class TestSelectiveRead:
    """``read_values(op, arrays)`` converts only the listed arrays; it
    must equal the full read indexed by the same arrays on every store,
    at every word width, and still sense every row the full read does."""

    @staticmethod
    def loaded_unit(cols, packed, sanitize=False, faults=None):
        unit = FleetBitSerialUnit(make_fleet(5, 58, cols, packed=packed,
                                             sanitize=sanitize,
                                             faults=faults))
        unit.write_values(Operand(0, 33), RNG.integers(0, 1 << 33, (5, cols)))
        unit.write_values(Operand(33, 8), RNG.integers(0, 256, (5, cols)))
        unit.add(Operand(33, 8), Operand(0, 8), Operand(41, 9))
        return unit  # rows 50 and up stay unwritten

    @pytest.mark.parametrize("cols", [8, 13, 16, 32, 37, 64, 100, 256])
    @pytest.mark.parametrize("store", ["unpacked", "packed", "sanitized",
                                       "faulty", "sanitized-faulty"])
    def test_matches_the_indexed_full_read(self, store, cols):
        faults = None
        if "faulty" in store:
            faults = HardwareFaultModel(seed=3, stuck_rate=0.05,
                                        dead_wordlines=((2, 35),))
        unit = self.loaded_unit(cols, packed=store != "unpacked",
                                sanitize="sanitized" in store, faults=faults)
        for op in (Operand(0, 33), Operand(33, 8), Operand(41, 9),
                   Operand(5, 24)):
            full = unit.read_values(op)
            assert full.shape == (5, cols)
            for selection in SELECTIONS:
                arrays = np.array(selection, dtype=np.intp)
                got = unit.read_values(op, arrays)
                assert got.dtype == np.int64
                assert np.array_equal(got, full[arrays]), (op, selection)

    @pytest.mark.parametrize("packed", [False, True],
                             ids=["unpacked", "packed"])
    def test_sanitizer_checks_every_row_of_a_selective_read(self, packed):
        unit = self.loaded_unit(16, packed=packed, sanitize=True)
        with pytest.raises(VerifyError) as excinfo:
            unit.read_values(Operand(46, 8), np.array([0]))
        assert excinfo.value.check == "uninit-read"
        assert excinfo.value.row == 50

    def test_selective_read_keeps_the_row_bounds(self):
        unit = self.loaded_unit(16, packed=True)
        with pytest.raises(ArrayStateError):
            unit.read_values(Operand(52, 7), np.array([1]))


class TestFunctionalPacked:
    """The quantized layer sequences (conv incl. quantize stage, pools)
    on the packed store match the unpacked store bit for bit."""

    def _conv_case(self):
        from repro.nn import (
            Conv2D,
            Network,
            QuantizedTensor,
            initialise_weights,
        )
        conv = Conv2D(8, (3, 3), padding="same")
        shape = (6, 6, 8)
        net = Network(name="packed-check")
        x = net.add_input("in", shape)
        net.add("c", conv, x)
        weights = initialise_weights(net, seed=9)
        image = QuantizedTensor.from_real(RNG.uniform(0, 6, shape),
                                          weights.input_params)
        return conv, shape, weights, image

    def test_conv_and_quantize_stage_match(self):
        from repro.core.functional import FunctionalConv

        conv, shape, weights, image = self._conv_case()

        def run(packed):
            engine = FunctionalConv(conv, shape, weights.for_node("c"),
                                    output_params=weights.activation_params,
                                    packed=packed)
            return engine.run(image), engine.report

        out_u, report_u = run(False)
        out_p, report_p = run(True)
        assert np.array_equal(out_u.data, out_p.data)
        assert report_u == report_p


class TestPackedSRAMArrayView:
    def test_single_array_view_over_packed_store(self):
        from repro.sram import BitSerialUnit, SRAMArray

        array = SRAMArray(fleet=PackedArrayFleet(1, 64, 100))
        unit = BitSerialUnit(array)
        ref = BitSerialUnit(SRAMArray(rows=64, cols=100))
        values = RNG.integers(0, 16, 100).astype(np.int64)
        a, b = Operand(0, 4), Operand(4, 4)
        for u in (unit, ref):
            u.write_values(a, values)
            u.write_values(b, 3)
            u.multiply(a, b, Operand(8, 8))
            u.load_tag(a.bit(0))
        assert np.array_equal(unit.read_values(Operand(8, 8)), values * 3)
        assert unit.cycles == ref.cycles
        assert array.compute_cycles == ref.array.compute_cycles
        # The packed-backed view runs the fused word-level kernels, the
        # unpacked one the per-primitive reference; their latches agree.
        assert unit._fused and not ref._fused
        for latch in ("carry", "tag"):
            assert np.array_equal(
                unit.fleet.unpack_plane(getattr(unit.periphery, latch)),
                getattr(ref.periphery, latch))
        assert np.array_equal(ref.periphery.tag[0], values & 1)

    def test_packed_view_has_no_byte_per_bit_tensor(self):
        from repro.sram import SRAMArray

        array = SRAMArray(fleet=PackedArrayFleet(1, 8, 64))
        with pytest.raises(ArrayStateError, match="byte-per-bit"):
            array._bits
