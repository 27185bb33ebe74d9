"""Lockstep fleet ops agree with isolated one-array units and with integers.

:class:`BitSerialUnit` is the ``n_arrays=1`` view of
:class:`FleetBitSerialUnit`, so the "singles" here are one-array fleets
on their own stores. For random operands, every operation run on a
lockstep fleet must leave in each member array the bits that member
gets when it runs alone, those bits must equal the integer result of
the operation, and the cycle count must match both the isolated runs
and the closed forms of :class:`CycleCosts` in its ``derived`` preset.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ArrayFleet, FleetBitSerialUnit
from repro.sram import BitSerialUnit, CycleCosts, Operand, SRAMArray

COSTS = CycleCosts.derived()
N_ARRAYS = 3
COLS = 16


def make_pair():
    fleet = FleetBitSerialUnit(ArrayFleet(N_ARRAYS, rows=256, cols=COLS))
    singles = [BitSerialUnit(SRAMArray(rows=256, cols=COLS))
               for _ in range(N_ARRAYS)]
    return fleet, singles


def write_both(fleet, singles, op, values):
    fleet.write_values(op, values)
    for k, single in enumerate(singles):
        single.write_values(op, values[k])


def assert_agree(fleet, singles, op):
    got = fleet.read_values(op)
    for k, single in enumerate(singles):
        assert np.array_equal(got[k], single.read_values(op)), (
            f"array {k} diverged")


def assert_cycles(fleet, singles, expected=None):
    for single in singles:
        assert fleet.cycles == single.cycles
    if expected is not None:
        assert fleet.cycles == expected


@st.composite
def operand_matrices(draw, max_bits=10, count=2, min_value=0):
    nbits = draw(st.integers(min_value=1, max_value=max_bits))
    hi = (1 << nbits) - 1
    mats = []
    for _ in range(count):
        flat = draw(st.lists(st.integers(min_value=min_value, max_value=hi),
                             min_size=N_ARRAYS * COLS,
                             max_size=N_ARRAYS * COLS))
        mats.append(np.array(flat, dtype=np.int64).reshape(N_ARRAYS, COLS))
    return nbits, mats


@given(operand_matrices())
@settings(max_examples=40, deadline=None)
def test_add_matches_single_arrays(case):
    nbits, (av, bv) = case
    fleet, singles = make_pair()
    a, b = Operand(0, nbits), Operand(nbits, nbits)
    dst = Operand(2 * nbits, nbits + 1)
    write_both(fleet, singles, a, av)
    write_both(fleet, singles, b, bv)
    fleet.add(a, b, dst)
    for single in singles:
        single.add(a, b, dst)
    assert np.array_equal(fleet.read_values(dst), av + bv)
    assert_agree(fleet, singles, dst)
    assert_cycles(fleet, singles, COSTS.add(nbits))


@given(operand_matrices(max_bits=8))
@settings(max_examples=40, deadline=None)
def test_sub_matches_single_arrays(case):
    nbits, (av, bv) = case
    fleet, singles = make_pair()
    a, b = Operand(0, nbits), Operand(nbits, nbits)
    dst = Operand(2 * nbits, nbits + 1)
    scratch = Operand(4 * nbits, nbits)
    write_both(fleet, singles, a, av)
    write_both(fleet, singles, b, bv)
    fleet.sub(a, b, dst, scratch)
    for single in singles:
        single.sub(a, b, dst, scratch)
    got = fleet.read_values(dst)
    assert np.array_equal(got & ((1 << nbits) - 1), (av - bv) % (1 << nbits))
    assert np.array_equal(got >> nbits, (av >= bv).astype(np.int64))
    assert_agree(fleet, singles, dst)
    assert_cycles(fleet, singles, COSTS.sub(nbits))


@given(operand_matrices(max_bits=8))
@settings(max_examples=30, deadline=None)
def test_multiply_matches_single_arrays(case):
    nbits, (av, bv) = case
    fleet, singles = make_pair()
    a, b = Operand(0, nbits), Operand(nbits, nbits)
    product = Operand(2 * nbits, 2 * nbits)
    write_both(fleet, singles, a, av)
    write_both(fleet, singles, b, bv)
    fleet.multiply(a, b, product)
    for single in singles:
        single.multiply(a, b, product)
    assert np.array_equal(fleet.read_values(product), av * bv)
    assert_agree(fleet, singles, product)
    assert_cycles(fleet, singles, COSTS.multiply(nbits))


@given(operand_matrices(max_bits=6, min_value=0))
@settings(max_examples=20, deadline=None)
def test_divide_matches_single_arrays(case):
    nbits, (av, bv) = case
    bv = np.maximum(bv, 1)  # the mapper never divides by zero
    fleet, singles = make_pair()
    a, b = Operand(0, nbits), Operand(nbits, nbits)
    quotient = Operand(2 * nbits, nbits)
    work = Operand(3 * nbits, 3 * nbits + 4)
    write_both(fleet, singles, a, av)
    write_both(fleet, singles, b, bv)
    fleet.divide(a, b, quotient, work)
    for single in singles:
        single.divide(a, b, quotient, work)
    assert np.array_equal(fleet.read_values(quotient), av // bv)
    assert_agree(fleet, singles, quotient)
    assert_cycles(fleet, singles, COSTS.divide(nbits))


@given(operand_matrices(max_bits=8))
@settings(max_examples=30, deadline=None)
def test_max_update_matches_single_arrays(case):
    nbits, (av, bv) = case
    fleet, singles = make_pair()
    current, cand = Operand(0, nbits), Operand(nbits, nbits)
    scratch = Operand(2 * nbits, 2 * nbits + 1)
    write_both(fleet, singles, current, av)
    write_both(fleet, singles, cand, bv)
    fleet.max_update(current, cand, scratch)
    for single in singles:
        single.max_update(current, cand, scratch)
    assert np.array_equal(fleet.read_values(current), np.maximum(av, bv))
    assert_agree(fleet, singles, current)
    assert_cycles(fleet, singles, COSTS.max_update(nbits))


@given(operand_matrices(max_bits=8))
@settings(max_examples=30, deadline=None)
def test_mac_matches_single_arrays(case):
    nbits, (av, bv) = case
    acc_bits = 2 * nbits + 4
    fleet, singles = make_pair()
    a, b = Operand(0, nbits), Operand(nbits, nbits)
    scratch = Operand(2 * nbits, 2 * nbits)
    acc = Operand(4 * nbits, acc_bits)
    write_both(fleet, singles, a, av)
    write_both(fleet, singles, b, bv)
    fleet.zero(acc)
    for single in singles:
        single.zero(acc)
    fleet.mac(a, b, scratch, acc)
    for single in singles:
        single.mac(a, b, scratch, acc)
    assert np.array_equal(fleet.read_values(acc), av * bv)
    assert_agree(fleet, singles, acc)
    assert_cycles(fleet, singles,
                  COSTS.const_write(acc_bits) + COSTS.mac(nbits, acc_bits))


@given(operand_matrices(max_bits=8, count=1))
@settings(max_examples=30, deadline=None)
def test_relu_matches_single_arrays(case):
    nbits, (av,) = case
    fleet, singles = make_pair()
    op = Operand(0, nbits)
    write_both(fleet, singles, op, av)
    fleet.relu(op, sign_row=op.bit(nbits - 1))
    for single in singles:
        single.relu(op, sign_row=op.bit(nbits - 1))
    sign = (av >> (nbits - 1)) & 1
    assert np.array_equal(fleet.read_values(op), np.where(sign, 0, av))
    assert_agree(fleet, singles, op)
    assert_cycles(fleet, singles, COSTS.relu(nbits))


@given(operand_matrices(max_bits=8))
@settings(max_examples=30, deadline=None)
def test_logicals_match_single_arrays(case):
    nbits, (av, bv) = case
    fleet, singles = make_pair()
    a, b = Operand(0, nbits), Operand(nbits, nbits)
    dst = Operand(2 * nbits, nbits)
    write_both(fleet, singles, a, av)
    write_both(fleet, singles, b, bv)
    fleet.logical_xor(a, b, dst)
    for single in singles:
        single.logical_xor(a, b, dst)
    assert np.array_equal(fleet.read_values(dst), av ^ bv)
    assert_agree(fleet, singles, dst)
    assert_cycles(fleet, singles, COSTS.logical(nbits))


def test_reduce_tree_matches_single_arrays():
    rng = np.random.default_rng(11)
    width, elements = 6, 4
    av = rng.integers(0, 1 << width, (N_ARRAYS, COLS)).astype(np.int64)
    fleet, singles = make_pair()
    base = Operand(0, width + 2)
    segment = Operand(16, width + 2)
    write_both(fleet, singles, Operand(0, width), av)
    fleet.reduce_tree(base, segment, elements, width)
    for single in singles:
        single.reduce_tree(base, segment, elements, width)
    got = fleet.read_values(base)
    heads = np.arange(0, COLS, elements)
    expected = av.reshape(N_ARRAYS, -1, elements).sum(axis=2)
    assert np.array_equal(got[:, heads], expected)
    assert_agree(fleet, singles, base)
    assert_cycles(fleet, singles, COSTS.reduction(elements, width))


def test_equality_and_search_match_single_arrays():
    rng = np.random.default_rng(13)
    nbits = 5
    av = rng.integers(0, 1 << nbits, (N_ARRAYS, COLS)).astype(np.int64)
    bv = av.copy()
    flip = rng.integers(0, 2, (N_ARRAYS, COLS)).astype(bool)
    bv[flip] = (bv[flip] + 1) % (1 << nbits)
    fleet, singles = make_pair()
    a, b = Operand(0, nbits), Operand(nbits, nbits)
    write_both(fleet, singles, a, av)
    write_both(fleet, singles, b, bv)
    fleet.equality_compare(a, b, 3 * nbits)
    for single in singles:
        single.equality_compare(a, b, 3 * nbits)
    flags = Operand(3 * nbits, 1)
    assert np.array_equal(fleet.read_values(flags), (av == bv).astype(int))
    assert_agree(fleet, singles, flags)
    assert_cycles(fleet, singles, COSTS.equality_compare(nbits))

    fleet2, singles2 = make_pair()
    write_both(fleet2, singles2, a, av)
    key = int(av[0, 0])
    fleet2.search(a, key, 3 * nbits)
    for single in singles2:
        single.search(a, key, 3 * nbits)
    assert np.array_equal(fleet2.read_values(flags), (av == key).astype(int))
    assert_agree(fleet2, singles2, flags)
    assert_cycles(fleet2, singles2, COSTS.search(nbits))


def test_shift_copy_matches_single_arrays():
    rng = np.random.default_rng(17)
    nbits, shift = 6, 3
    av = rng.integers(0, 1 << nbits, (N_ARRAYS, COLS)).astype(np.int64)
    fleet, singles = make_pair()
    src, dst = Operand(0, nbits), Operand(nbits, nbits)
    write_both(fleet, singles, src, av)
    fleet.shift_copy(src, dst, shift)
    for single in singles:
        single.shift_copy(src, dst, shift)
    expected = np.zeros_like(av)
    expected[:, :-shift] = av[:, shift:]
    assert np.array_equal(fleet.read_values(dst), expected)
    assert_agree(fleet, singles, dst)
    assert_cycles(fleet, singles, COSTS.move(nbits))


def test_write_values_broadcasts_scalars_and_vectors():
    fleet, _ = make_pair()
    op = Operand(0, 8)
    fleet.write_values(op, 42)
    assert np.all(fleet.read_values(op) == 42)
    vec = np.arange(COLS, dtype=np.int64)
    fleet.write_values(op, vec)
    for k in range(N_ARRAYS):
        assert np.array_equal(fleet.read_values(op)[k], vec)


def test_lockstep_compute_cycles_equal_single_array_cycles():
    """A fleet executes any sequence in the cycles of ONE array."""
    fleet, singles = make_pair()
    a, b = Operand(0, 8), Operand(8, 8)
    product = Operand(16, 16)
    fleet.write_values(a, 7)
    fleet.write_values(b, 9)
    singles[0].write_values(a, np.full(COLS, 7, dtype=np.int64))
    singles[0].write_values(b, np.full(COLS, 9, dtype=np.int64))
    fleet.multiply(a, b, product)
    singles[0].multiply(a, b, product)
    assert fleet.fleet.compute_cycles == singles[0].array.compute_cycles
