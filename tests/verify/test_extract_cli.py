"""Recorder granularity, model program extraction, and the verify CLI."""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.common.errors import VerifyError
from repro.core import functional
from repro.engine.bitserial import FleetBitSerialUnit, Operand
from repro.engine.packed import make_fleet
from repro.verify import (
    Region,
    extract_model_programs,
    lift_calls,
    record_programs,
    registered_models,
    verify_program,
)
from repro.verify import extract
from repro.verify.cli import main as verify_main

ROWS, COLS = 64, 16


class TestRecorder:
    def test_top_level_calls_only(self):
        # mac runs multiply + add_into + dozens of cycle primitives
        # internally; the recording must show exactly the calls the
        # engine made, at the granularity the lifter models.
        unit = FleetBitSerialUnit(make_fleet(1, ROWS, COLS))
        with record_programs() as recorder:
            unit.write_values(Operand(0, 4), 5)
            unit.write_values(Operand(4, 4), 9)
            unit.write_values(Operand(16, 9), 0)
            unit.mac(Operand(0, 4), Operand(4, 4), Operand(8, 8),
                     Operand(16, 9))
        (trace,) = recorder.traces.values()
        assert [call.method for call in trace.calls] == \
            ["write_values", "write_values", "write_values", "mac"]

    def test_calls_group_per_unit_with_labels(self):
        store = make_fleet(1, ROWS, COLS)
        unit_a, unit_b = FleetBitSerialUnit(store), FleetBitSerialUnit(store)
        with record_programs() as recorder:
            recorder.annotate("layer-a")
            unit_a.write_values(Operand(0, 4), 1)
            recorder.annotate("layer-b")
            unit_b.write_values(Operand(0, 4), 2)
            unit_a.zero(Operand(8, 4))  # back on the first unit
        programs = recorder.programs()
        assert [p.label for p in programs] == ["layer-a", "layer-b"]
        assert len(programs[0]) == 2
        assert len(programs[1]) == 1

    def test_recording_lifts_and_verifies_clean(self):
        unit = FleetBitSerialUnit(make_fleet(1, ROWS, COLS))
        with record_programs() as recorder:
            unit.write_values(Operand(0, 4), 5)
            unit.write_values(Operand(4, 4), 9)
            unit.add(Operand(0, 4), Operand(4, 4), Operand(8, 5))
            unit.read_values(Operand(8, 5))
        (program,) = recorder.programs()
        assert program.rows == ROWS and program.cols == COLS
        assert verify_program(program) == []

    def test_array_selective_read_lifts_as_the_full_read(self):
        # Reading back only some arrays senses the same rows, so it must
        # lift to the same region read: def-before-use still sees it.
        # (Unsanitized: the last read is a deliberate uninit read.)
        unit = FleetBitSerialUnit(make_fleet(4, ROWS, COLS, sanitize=False))
        with record_programs() as recorder:
            unit.write_values(Operand(0, 4), 5)
            unit.write_values(Operand(4, 4), 9)
            unit.add(Operand(0, 4), Operand(4, 4), Operand(8, 5))
            full = unit.read_values(Operand(8, 5))
            picked = unit.read_values(Operand(8, 5), np.array([3, 1]))
            named = unit.read_values(Operand(8, 5), arrays=np.array([2]))
            unit.read_values(Operand(16, 4), np.array([0]))  # never written
        assert np.array_equal(picked, full[[3, 1]])
        assert np.array_equal(named, full[[2]])
        (program,) = recorder.programs()
        reads = [op.reads for op in program.ops[3:]]
        assert reads[0] == reads[1] == reads[2]
        findings = verify_program(program)
        assert [(f.check, f.index) for f in findings] == \
            [("uninit-read", 6)]

    def test_word_load_lifts_as_a_write_of_the_same_rows(self):
        # A host load of packed words from a table by index defines
        # exactly the rows the int write does.
        # (Unsanitized: the last read is a deliberate uninit read.)
        unit = FleetBitSerialUnit(make_fleet(4, ROWS, COLS, sanitize=False))
        table = np.zeros((4, 3, 1), dtype=np.uint16)
        with record_programs() as recorder:
            unit.write_values(Operand(0, 4), 5)
            unit.write_words(Operand(4, 4), table, np.zeros(4, np.intp))
            unit.write_words(Operand(8, 4), table, np.array([2, 0, 1, 2]))
            unit.add(Operand(0, 4), Operand(4, 4), Operand(12, 5))
            unit.add(Operand(8, 4), Operand(12, 4), Operand(17, 5))
            unit.read_values(Operand(17, 5))
            unit.read_values(Operand(22, 4))               # never written
        (program,) = recorder.programs()
        assert [op.inits for op in program.ops[:3]] == [
            (Region(0, 4),), (Region(4, 4),), (Region(8, 4),)]
        findings = verify_program(program)
        assert [(f.check, f.index) for f in findings] == \
            [("uninit-read", 6)]

    def test_hook_restored_on_exit(self):
        unit = FleetBitSerialUnit(make_fleet(1, ROWS, COLS))
        with record_programs() as recorder:
            unit.write_values(Operand(0, 4), 5)
        unit.write_values(Operand(4, 4), 9)  # after the block: not recorded
        (trace,) = recorder.traces.values()
        assert len(trace.calls) == 1

    def test_nested_recordings(self):
        unit = FleetBitSerialUnit(make_fleet(1, ROWS, COLS))
        with record_programs() as outer:
            unit.write_values(Operand(0, 4), 1)
            with record_programs() as inner:
                unit.write_values(Operand(4, 4), 2)
            unit.write_values(Operand(8, 4), 3)
        (outer_trace,) = outer.traces.values()
        (inner_trace,) = inner.traces.values()
        assert len(outer_trace.calls) == 2  # inner call went to `inner`
        assert len(inner_trace.calls) == 1


    def test_units_are_never_merged(self):
        # Each unit dies before the next is built, so addresses get
        # reused; every unit must still record its own program.
        with record_programs() as recorder:
            for value in range(40):
                unit = FleetBitSerialUnit(make_fleet(1, ROWS, COLS))
                unit.write_values(Operand(0, 4), value % 16)
                del unit
        assert len(recorder.traces) == 40
        assert all(len(t.calls) == 1 for t in recorder.traces.values())


class TestLiftErrors:
    def test_unknown_method_is_a_lift_error(self):
        with pytest.raises(VerifyError) as excinfo:
            lift_calls([("frobnicate", (), {})], ROWS, COLS)
        assert excinfo.value.check == "lift"

    def test_too_many_positionals_is_a_lift_error(self):
        with pytest.raises(VerifyError, match="positional"):
            lift_calls([("set_tag_all", (1, 2, 3), {})], ROWS, COLS)


class TestExtraction:
    def test_tiny_verification_model_extracts_clean(self):
        extracted = extract_model_programs("tiny-verification")
        assert extracted.skipped is None
        assert extracted.programs, "no programs recorded"
        labels = {p.label for p in extracted.programs}
        assert any("pool" in label or "conv" in label for label in labels)
        for program in extracted.programs:
            assert verify_program(program) == [], program.label

    def test_registered_models_cover_the_zoo(self):
        models = registered_models()
        assert "tiny-verification" in models
        assert "mlp" in models
        assert "lenet5" in models

    def test_out_of_scope_model_reports_skip_reason(self):
        extracted = extract_model_programs("inception-v3")
        assert extracted.skipped is not None
        assert extracted.programs == ()


#: (programs, ops) per functionally extractable model: one program per
#: (layer, fleet). ``repro verify`` reports their sums, 41 / 768. A conv
#: tap block records as one ``mac_taps`` op plus its skips.
#: inception-span's conv stacks sixteen 256-array chunks of 16-column
#: arrays (uint16 words, 8 KB per wordline) into each fleet.
PINNED_COUNTS = {
    "resnet-tiny": (27, 516),
    "mlp": (6, 99),
    "inception-span": (5, 102),
    "tiny-verification": (3, 51),
}


class TestPinnedCounts:
    @pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
    def test_program_and_op_counts(self, name):
        extracted = extract_model_programs(name)
        counts = (len(extracted.programs),
                  sum(len(program) for program in extracted.programs))
        assert counts == PINNED_COUNTS[name]

    def test_cli_totals(self, capsys):
        argv = [arg for name in PINNED_COUNTS for arg in ("--model", name)]
        assert verify_main(argv) == 0
        out = capsys.readouterr().out
        assert "verified 41 programs / 768 ops: 0 finding(s)" in out


def _call_stream(program_calls):
    """A recorded call stream, keyword arguments after the positional
    ones, with each host array reduced to its shape past the fleet axis,
    which is all that a stacked fleet changes."""
    return [(call.method,
             tuple(arg.shape[1:] if isinstance(arg, np.ndarray) else arg
                   for arg in (*call.args, *call.kwargs.values())))
            for call in program_calls]


def _one_tap_blocks(stream):
    """``stream`` with each ``mac_taps`` block split into the one-tap
    blocks it stands for (the block size follows ``FLEET_BYTE_BUDGET``).
    A streamed block (``words`` passed) loads every tap into ``b``."""
    split = []
    for method, args in stream:
        if method != "mac_taps":
            split.append((method, args))
            continue
        a, b, taps, stride, *rest = args
        streamed = len(rest) > 3 and rest[3] is not None
        for t in range(taps):
            b_t = b if streamed else Operand(b.row + t * stride, b.nbits)
            split.append((method, (Operand(a.row + t * stride, a.nbits),
                                   b_t, 1, stride, *rest)))
    return split


def _recorded_streams(name, monkeypatch):
    """Label -> call streams of the inference ``extract_model_programs``
    records for ``name``, plus the lifted (programs, ops) counts."""
    recorders = []

    @contextmanager
    def keep():
        with record_programs() as recorder:
            recorders.append(recorder)
            yield recorder

    monkeypatch.setattr(extract, "record_programs", keep)
    extracted = extract_model_programs(name)
    streams = {}
    for trace in recorders[-1].traces.values():
        streams.setdefault(trace.label, []).append(
            _call_stream(trace.calls))
    counts = (len(extracted.programs),
              sum(len(program) for program in extracted.programs))
    return streams, counts


class TestStackedConvPrograms:
    def test_one_chunk_fleets_restore_the_per_chunk_pins(self,
                                                         monkeypatch):
        stacked, stacked_counts = _recorded_streams("inception-span",
                                                    monkeypatch)
        assert stacked_counts == PINNED_COUNTS["inception-span"]
        monkeypatch.setattr(functional, "FLEET_BYTE_BUDGET", 0)
        per_chunk, counts = _recorded_streams("inception-span",
                                              monkeypatch)
        assert counts == (20, 330)
        conv = "Mixed_5c/Branch_0/Conv2d_0a_1x1"

        def split(streams):
            """The conv's compute programs, and every other program with
            its tap blocks split into single taps (at a zero budget every
            block is one tap)."""
            compute = [s for s in streams[conv]
                       if any(method == "mac_taps" for method, _ in s)]
            rest = {label: [_one_tap_blocks(s) for s in programs
                            if s not in compute]
                    for label, programs in streams.items()}
            return compute, rest

        stacked_compute, stacked_rest = split(stacked)
        chunk_compute, chunk_rest = split(per_chunk)
        assert len(stacked_compute) == 1 and len(chunk_compute) == 16
        # Every stacked compute program is the per-chunk program, call
        # for call; the quantization fleet and the other layers are
        # untouched.
        for program in stacked_compute + chunk_compute:
            assert program == chunk_compute[0]
        assert stacked_rest == chunk_rest


class TestCli:
    def test_clean_model_exits_zero(self, capsys):
        assert verify_main(["--model", "tiny-verification"]) == 0
        out = capsys.readouterr().out
        assert "tiny-verification: ok" in out
        assert ": 0 finding(s)" in out

    def test_verbose_lists_programs(self, capsys):
        assert verify_main(["--model", "tiny-verification", "-v"]) == 0
        out = capsys.readouterr().out
        assert "tiny-verification/" in out

    def test_unknown_model_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            verify_main(["--model", "no-such-model"])
        assert excinfo.value.code == 2
        assert "unknown model" in capsys.readouterr().err

    def test_skipped_model_reports_and_exits_zero(self, capsys):
        assert verify_main(["--model", "inception-v3"]) == 0
        assert "SKIP" in capsys.readouterr().out
