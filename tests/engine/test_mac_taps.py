"""``mac_taps`` — a conv's tap-batched MAC — equals its per-tap loop.

``FleetBitSerialUnit.mac_taps`` stands for the loop a conv compute fleet
runs over its filter taps: per tap, a streamed input's ``write_words``,
then ``mac`` and the input-sum ``add_into``. Packed stores run a block
of two taps or more as one kernel (every product at once, then both
sums as one carry-save sum over the tap axis); everything else runs the
loop. The kernel must leave exactly what the loop leaves: every row,
``cycles``, ``skipped_cycles``, both fleet counters, both periphery
latches and the ``skip_step`` stream in per-tap order. The streams are
recorded with ``record_programs``: a recorded block runs the same code as
an unrecorded one and records as one ``mac_taps`` call plus its skips.
The stores here come from ``make_fleet``, so under
``NEURALCACHE_SANITIZE=1`` both sides run the sanitized per-tap loop and
must still agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bits import (
    ints_to_packed_planes,
    packed_words,
    unpack_bit_plane,
    word_dtype,
)
from repro.common.errors import LayoutError
from repro.core.functional import FunctionalExecutor
from repro.engine import FleetBitSerialUnit, Operand, make_fleet
from repro.engine.backend import FleetExecutor, deterministic_images
from repro.engine.packed import PackedFleetPeriphery
from repro.nn.models import model_zoo, model_zoo_configs
from repro.verify import record_programs
from repro.verify.passes import check_skips, verify_program

ROWS = 256


def unit_on(n_arrays, cols, packed, sparsity, sanitize=None):
    """A unit whose rows all start written (zero), so whole-store dumps
    pass the sanitizer."""
    fleet = make_fleet(n_arrays, ROWS, cols, packed=packed,
                       sanitize=sanitize)
    fleet.load_bits(0, np.zeros((n_arrays, ROWS, cols), dtype=np.uint8))
    return FleetBitSerialUnit(fleet, sparsity)


def skips_of(recorder):
    """The ``skip_step`` stream of a recording."""
    return [call.args for trace in recorder.traces.values()
            for call in trace.calls if call.method == "skip_step"]


def latch_bits(unit, plane):
    if isinstance(unit.periphery, PackedFleetPeriphery):
        return unpack_bit_plane(plane, unit.fleet.cols)
    return plane


def assert_same_state(ref, unit):
    rows = ref.fleet.rows
    assert np.array_equal(ref.fleet.dump_bits(0, rows),
                          unit.fleet.dump_bits(0, rows))
    assert ref.cycles == unit.cycles
    assert ref.skipped_cycles == unit.skipped_cycles
    assert ref.fleet.compute_cycles == unit.fleet.compute_cycles
    assert ref.fleet.access_cycles == unit.fleet.access_cycles
    for latch in ("tag", "carry"):
        assert np.array_equal(
            latch_bits(ref, getattr(ref.periphery, latch)),
            latch_bits(unit, getattr(unit.periphery, latch)))


def per_tap_loop(unit, a, b, taps, stride, product, acc, b_acc,
                 words=None, index=None):
    """The loop ``mac_taps`` stands for, written out."""
    for t in range(taps):
        a_t = Operand(a.row + t * stride, a.nbits)
        if words is None:
            b_t = Operand(b.row + t * stride, b.nbits)
        else:
            b_t = b
            unit.write_words(b, words[t * stride:t * stride + b.nbits],
                             index)
        unit.mac(a_t, b_t, product, acc)
        unit.add_into(b_t, b_acc)


def tap_values(data, rng, shape, nbits, label):
    """Per-tap ``nbits`` ints where whole taps, and single bit planes
    across every tap, may be all-zero: the probes the skips depend on."""
    n_taps = shape[1]
    dead = data.draw(st.lists(st.booleans(), min_size=n_taps,
                              max_size=n_taps), label=f"{label} zero taps")
    planes = data.draw(st.lists(st.booleans(), min_size=nbits,
                                max_size=nbits), label=f"{label} planes")
    keep = sum(1 << j for j, on in enumerate(planes) if on)
    values = rng.integers(0, 1 << nbits, shape) & keep
    values[:, dead] = 0
    return values


def word_table(values, nbits, stride, cols):
    """``(taps * stride, n, n_words)`` words of ``values`` ``(n, taps,
    cols)``: tap ``t``'s planes at rows ``t * stride`` onward."""
    n, taps, _ = values.shape
    words = np.zeros((taps * stride, n, packed_words(cols)),
                     dtype=word_dtype(cols))
    planes = ints_to_packed_planes(values, nbits, packed_words(cols))
    for t in range(taps):
        words[t * stride:t * stride + nbits] = planes[:, :, t]
    return words


@st.composite
def mac_problems(draw):
    """A random ``mac_taps`` call, its operands' values and the block
    size the taps split into."""
    cols = draw(st.sampled_from([8, 13, 16, 37, 256]), label="cols")
    n_arrays = draw(st.integers(1, 3), label="n_arrays")
    nbits = draw(st.integers(1, 8), label="nbits")
    taps = draw(st.integers(1, 9), label="taps")
    block = draw(st.integers(1, taps), label="taps per block")
    streamed = draw(st.booleans(), label="streamed")
    sparsity = draw(st.booleans(), label="sparsity")
    stride = draw(st.sampled_from(sorted({nbits, 8})), label="stride")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1),
                                     label="seed"))
    shape = (n_arrays, taps, cols)
    return dict(
        cols=cols, n_arrays=n_arrays, nbits=nbits, taps=taps, block=block,
        streamed=streamed, sparsity=sparsity, stride=stride, rng=rng,
        a=rng.integers(0, 1 << nbits, shape) * (rng.random(taps) < 0.8)[
            None, :, None],
        acc_bits=draw(st.integers(2 * nbits, 2 * nbits + 8),
                      label="acc bits"),
        b_acc_bits=draw(st.integers(nbits, nbits + 10), label="b_acc bits"),
        full=draw(st.booleans(), label="accumulators near overflow"))


def run_problem(data, problem):
    """Three units — unpacked loop, packed loop, packed ``mac_taps`` in
    blocks — on the same problem; returns them and their skip streams."""
    p = problem
    n, taps, stride, cols = p["nbits"], p["taps"], p["stride"], p["cols"]
    rng = p["rng"]
    b_values = tap_values(data, rng, (p["n_arrays"], taps, cols), n, "b")
    a = Operand(0, n)
    span = taps * stride
    b = Operand(span, n)
    if p["streamed"]:
        table = tap_values(data, rng, (3, taps, cols), n, "table")
        words = word_table(table, n, stride, cols)
        index = rng.integers(0, 3, p["n_arrays"])
        top = span + n
    else:
        words = index = None
        top = 2 * span
    product = Operand(top, 2 * n)
    acc = Operand(product.end, p["acc_bits"])
    b_acc = Operand(acc.end, p["b_acc_bits"])
    assert b_acc.end <= ROWS - 3          # below the carry seed's rows

    def initial(bits):
        # Near-full accumulators make the sums wrap, so the final carry
        # latch is a real carry-out.
        shape = (p["n_arrays"], cols)
        if p["full"]:
            return (1 << bits) - 1 - rng.integers(0, min(4, 1 << bits),
                                                  shape)
        return rng.integers(0, 1 << bits, shape)

    acc_values, b_acc_values = initial(acc.nbits), initial(b_acc.nbits)
    scratch_values = rng.integers(0, 1 << (2 * n), (p["n_arrays"], cols))
    carry_seed = rng.integers(0, 2, (p["n_arrays"], cols))
    units = [unit_on(p["n_arrays"], cols, False, p["sparsity"]),
             unit_on(p["n_arrays"], cols, True, p["sparsity"]),
             unit_on(p["n_arrays"], cols, True, p["sparsity"])]
    for unit in units:
        for t in range(taps):
            unit.write_values(Operand(t * stride, n), p["a"][:, t])
            if not p["streamed"]:
                unit.write_values(Operand(span + t * stride, n),
                                  b_values[:, t])
        if p["streamed"]:
            unit.write_values(b, b_values[:, 0])
        unit.write_values(product, scratch_values)
        unit.write_values(acc, acc_values)
        unit.write_values(b_acc, b_acc_values)
        # A random carry latch, so an untouched latch shows.
        seed = Operand(ROWS - 3, 1)
        unit.write_values(seed, carry_seed)
        unit.add(seed, seed, Operand(ROWS - 2, 2))
    kernel = units[2]._fused_mac_taps
    kernels = []
    units[2]._fused_mac_taps = lambda *args: (kernels.append(args),
                                              kernel(*args))
    args = (product, acc, b_acc)
    skips = []
    for unit in units[:2]:
        with record_programs() as recorder:
            per_tap_loop(unit, a, b, taps, stride, *args, words, index)
        skips.append(skips_of(recorder))
    with record_programs() as recorder:
        for t0 in range(0, taps, p["block"]):
            t1 = min(t0 + p["block"], taps)
            units[2].mac_taps(
                Operand(a.row + t0 * stride, n),
                b if p["streamed"] else Operand(b.row + t0 * stride, n),
                t1 - t0, stride, *args,
                words=(None if words is None
                       else words[t0 * stride:t1 * stride]),
                index=index)
    skips.append(skips_of(recorder))
    # Packed stores ran every block of two taps or more as the kernel;
    # a one-tap block runs the loop.
    stacked = sum(min(p["block"], taps - t0) > 1
                  for t0 in range(0, taps, p["block"]))
    assert len(kernels) == (stacked if units[2]._fused else 0)
    return units, skips


class TestTapBatchedMac:
    @given(st.data(), mac_problems())
    @settings(max_examples=60, deadline=None)
    def test_property_equals_the_per_tap_loop(self, data, problem):
        units, skips = run_problem(data, problem)
        ref, packed_loop, batched = units
        assert_same_state(ref, batched)
        assert_same_state(packed_loop, batched)
        assert skips[0] == skips[1] == skips[2]

    @pytest.mark.parametrize("streamed", [False, True])
    @pytest.mark.parametrize("sparsity", [False, True])
    def test_all_zero_inputs(self, streamed, sparsity):
        """Every input zero: with sparsity the loop skips each tap's
        multiply planes and both adds, so the carry latch keeps what the
        last op before the block left; dense, every step runs."""
        n, taps, cols = 8, 4, 16
        units = [unit_on(2, cols, False, sparsity),
                 unit_on(2, cols, True, sparsity)]
        a, b = Operand(0, n), Operand(32, n)
        words = np.zeros((taps * 8, 1, 1), dtype=np.uint16)
        index = np.zeros(2, dtype=np.intp)
        product, acc, b_acc = Operand(64, 16), Operand(80, 24), \
            Operand(104, 24)
        skips = []
        for unit in units:
            unit.write_values(Operand(0, 32), 0xABCDEF01)
            unit.write_values(Operand(32, 32), 0)
            unit.write_values(product, 3)
            unit.write_values(acc, (1 << 24) - 1)
            unit.write_values(b_acc, 5)
            unit.write_values(Operand(150, 1), 1)
            unit.add(Operand(150, 1), Operand(150, 1), Operand(151, 2))
        with record_programs() as recorder:
            per_tap_loop(units[0], a, b, taps, 8, product, acc, b_acc,
                         *((words, index) if streamed else ()))
        skips.append(skips_of(recorder))
        with record_programs() as recorder:
            units[1].mac_taps(a, b, taps, 8, product, acc, b_acc,
                              **(dict(words=words, index=index) if streamed
                                 else {}))
        skips.append(skips_of(recorder))
        assert_same_state(*units)
        assert skips[0] == skips[1]
        assert len(skips[1]) == (taps * (n + 2) if sparsity else 0)
        assert np.all(units[1].read_values(product) == 0)

    def test_records_one_call_and_its_skips(self):
        """Under a trace hook the block still runs the kernel on a packed
        store, and records as one ``mac_taps`` call followed by the
        block's skips in per-tap order; they lift clean."""
        n, taps, cols = 8, 3, 16
        rng = np.random.default_rng(5)
        table = rng.integers(0, 256, (1, taps, cols))
        table[:, :, 0] = 255                 # every plane live ...
        table[:, 1] = 0                      # ... but tap 1's: all zeros
        words = word_table(table, n, 8, cols)
        index = np.zeros(2, dtype=np.intp)
        unit = unit_on(2, cols, True, True)
        a, b = Operand(0, n), Operand(24, n)
        product, acc, b_acc = Operand(32, 16), Operand(48, 24), \
            Operand(72, 24)
        kernel = unit._fused_mac_taps
        kernels = []
        unit._fused_mac_taps = lambda *args: (kernels.append(args),
                                              kernel(*args))
        with record_programs() as recorder:
            unit.write_values(Operand(0, 24), 0x010101)  # nonzero filters
            unit.zero(acc)
            unit.zero(b_acc)
            unit.mac_taps(a, b, taps, 8, product, acc, b_acc, words=words,
                          index=index)
        assert len(kernels) == (1 if unit._fused else 0)
        (trace,) = recorder.traces.values()
        methods = [call.method for call in trace.calls]
        # Tap 1's multiplier planes are all zero, so its n multiply
        # planes, its product sum and its input sum are skipped.
        assert methods == (["write_values", "zero", "zero", "mac_taps"]
                           + ["skip_step"] * (n + 2))
        kinds = [call.args[0] for call in trace.calls[4:]]
        assert kinds == ["multiply-plane"] * n + ["add-into"] * 2
        (program,) = recorder.programs()
        assert len(program) == len(methods)
        assert check_skips(program) == []
        assert verify_program(program) == []

    def test_wrapped_stores_run_the_loop(self):
        """The sanitizer declares ``fused = False``: ``mac_taps`` runs the
        checked per-tap loop and lands where the packed kernel does."""
        n, taps, cols = 8, 5, 37
        rng = np.random.default_rng(9)
        values = rng.integers(0, 256, (2, 2 * taps, cols))
        units = [unit_on(2, cols, True, True, sanitize=True),
                 unit_on(2, cols, True, True, sanitize=False)]
        product, acc, b_acc = Operand(80, 16), Operand(96, 24), \
            Operand(120, 24)
        for unit in units:
            for t in range(2 * taps):
                unit.write_values(Operand(8 * t, n), values[:, t])
            unit.write_values(product, 0)
            unit.zero(acc)
            unit.zero(b_acc)
            unit.mac_taps(Operand(0, n), Operand(8 * taps, n), taps, 8,
                          product, acc, b_acc)
        assert not units[0]._fused and units[1]._fused
        assert_same_state(*units)
        want = (values[:, :taps] * values[:, taps:]).sum(axis=1)
        assert np.array_equal(units[1].read_values(acc), want)

    def test_overlapping_regions_run_the_loop(self):
        """A written region overlapping another sends the block down the
        loop, which raises what the loop's ops raise."""
        unit = unit_on(1, 16, True, False)
        unit.write_values(Operand(0, 64), 1)
        with pytest.raises(LayoutError, match="overlaps"):
            unit.mac_taps(Operand(0, 8), Operand(8, 8), 2, 8,
                          Operand(16, 16), Operand(40, 24),
                          Operand(64, 24))
        calls = []
        loop = unit.mac
        unit.mac = lambda *args: (calls.append(args), loop(*args))
        # ``b_acc`` overlapping ``acc``: legal for the loop, not fused.
        unit.mac_taps(Operand(0, 8), Operand(16, 8), 2, 8,
                      Operand(32, 16), Operand(48, 24), Operand(60, 12))
        assert len(calls) == 2


class TestRecordedInference:
    """A recorded sparse inference runs the same tap-block kernel as an
    unrecorded one, so the kernel's own skip stream reaches the
    verifier."""

    @pytest.mark.parametrize("name", ["mlp", "resnet-tiny"])
    def test_kernel_runs_and_lifts_clean(self, name, monkeypatch):
        network = model_zoo()[name]
        config = model_zoo_configs().get(name)
        backend = FleetExecutor(config=config, verify=False)
        weights = backend.weights_for(network)
        image = deterministic_images(network, weights, backend.seed, 1)[0]
        kernels = []
        kernel = FleetBitSerialUnit._fused_mac_taps

        def spy(unit, *args):
            kernels.append(args)
            return kernel(unit, *args)

        monkeypatch.setattr(FleetBitSerialUnit, "_fused_mac_taps", spy)
        executor = FunctionalExecutor(network, weights, config=config,
                                      packed=True, sparsity=True)
        with record_programs() as recorder:
            executor.run(image)
        # Sanitized stores run the per-tap loop, recorded or not.
        fused = make_fleet(1, 8, 8, packed=True).fused
        assert (len(kernels) > 0) == fused
        streams = [[call.method for call in trace.calls]
                   for trace in recorder.traces.values()]
        assert any(methods[i:i + 2] == ["mac_taps", "skip_step"]
                   for methods in streams for i in range(len(methods)))
        programs = recorder.programs()
        for program in programs:
            assert verify_program(program) == [], program.label
