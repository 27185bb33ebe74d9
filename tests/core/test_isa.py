"""Tests for the in-cache ISA and bank control FSM (Sec. IV-F)."""

import re

import numpy as np
import pytest

from repro.common.errors import IsaError
from repro.core.isa import (
    FSM_AREA_UM2,
    ControlFSM,
    Instruction,
    Opcode,
    fsm_total_area_mm2,
    parse_program,
)
from repro.sram import BitSerialUnit, Operand, SRAMArray


def unit(cols=32):
    return BitSerialUnit(SRAMArray(rows=128, cols=cols))


class TestInstructionValidation:
    def test_operand_count_enforced(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.CADD, (Operand(0, 8),))
        with pytest.raises(IsaError):
            Instruction(Opcode.CZERO, (Operand(0, 8), Operand(8, 8)))

    def test_immediate_required(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.CIMM, (Operand(0, 8),))

    def test_immediate_forbidden(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.CADD,
                        (Operand(0, 8), Operand(8, 8), Operand(16, 9)),
                        immediate=3)

    def test_str_rendering(self):
        instr = Instruction(Opcode.CIMM, (Operand(4, 8),), immediate=42)
        assert str(instr) == "cimm r4:8, #42"


class TestProgramValidation:
    """Out-of-range operands are rejected at validate time, before the
    first cycle touches any array (regression: they used to surface as
    an ArrayStateError halfway through execution, with state mutated)."""

    def test_out_of_range_row_operand_rejected(self):
        fsm = ControlFSM([unit()])  # 128 rows
        program = [Instruction(Opcode.CZERO, (Operand(124, 8),))]
        with pytest.raises(IsaError, match="beyond the array's 128 rows"):
            fsm.execute(program)
        assert fsm.instructions_executed == 0
        assert fsm.cycles == 0

    def test_rejected_before_any_state_moves(self):
        # The bad operand is in the *last* instruction: with execute-time
        # checking the first two would already have run.
        fsm = ControlFSM([unit()])
        program = [
            Instruction(Opcode.CIMM, (Operand(0, 8),), immediate=7),
            Instruction(Opcode.CIMM, (Operand(8, 8),), immediate=3),
            Instruction(Opcode.CCOPY, (Operand(0, 8), Operand(126, 8))),
        ]
        with pytest.raises(IsaError, match="instruction 2"):
            fsm.execute(program)
        assert fsm.instructions_executed == 0
        assert fsm.cycles == 0

    def test_smallest_attached_geometry_governs(self):
        mixed = ControlFSM([BitSerialUnit(SRAMArray(rows=128, cols=32)),
                            BitSerialUnit(SRAMArray(rows=64, cols=32))])
        program = [Instruction(Opcode.CZERO, (Operand(60, 8),))]
        with pytest.raises(IsaError, match="64 rows"):
            mixed.execute(program)

    def test_row_immediates_validated(self):
        fsm = ControlFSM([unit()])
        with pytest.raises(IsaError, match="sign row"):
            fsm.execute([Instruction(Opcode.CRELU, (Operand(0, 8),),
                                     immediate=128)])
        with pytest.raises(IsaError, match="tag row"):
            fsm.execute([Instruction(
                Opcode.CSELCOPY, (Operand(0, 8), Operand(8, 8)),
                immediate=-1)])

    def test_column_shift_validated(self):
        fsm = ControlFSM([unit(cols=32)])
        with pytest.raises(IsaError, match="column shift"):
            fsm.execute([Instruction(
                Opcode.CMOVE, (Operand(0, 8), Operand(8, 8)),
                immediate=32)])

    @pytest.mark.parametrize("reduce, cols, reason", [
        ("creduce r0:8, r8:8, #3", 32, "element count 3 is not a power"),
        ("creduce r0:8, r8:8, #0", 32, "element count 0 is not a power"),
        ("creduce r0:8, r8:8, #-4", 32, "element count -4 is not a power"),
        ("creduce r0:8, r8:8, #64", 16, "within the array's 16 bitlines"),
        ("creduce r0:4, r8:4, #16", 32, "a 4-row base leaves no input"),
        ("creduce r0:8, r8:4, #4", 32, "segment of 4 rows narrower"),
    ])
    def test_bad_reductions_rejected_before_any_state_moves(
            self, reduce, cols, reason):
        """Each of these would otherwise fail inside ``reduce_tree`` (or
        run off the columns) after the ``cimm`` spent its cycles."""
        fsm = ControlFSM([unit(cols=cols)])
        program = parse_program(f"cimm r0:8, #5\n{reduce}")
        with pytest.raises(IsaError, match=re.escape(
                f"instruction 1 `{reduce}`: ") + ".*" + re.escape(reason)):
            fsm.execute(program)
        assert fsm.instructions_executed == 0
        assert fsm.cycles == 0

    @pytest.mark.parametrize("elements", [1, 2, 16, 32])
    def test_reductions_up_to_the_columns_pass(self, elements):
        fsm = ControlFSM([unit(cols=32)])
        fsm.execute(parse_program(f"creduce r0:8, r8:8, #{elements}"))
        assert fsm.instructions_executed == 1

    def test_in_bounds_program_passes(self):
        fsm = ControlFSM([unit()])
        fsm.validate([Instruction(Opcode.CZERO, (Operand(120, 8),)),
                      Instruction(Opcode.CRELU, (Operand(0, 8),),
                                  immediate=127)])


class TestExecution:
    def test_program_matches_direct_calls(self):
        a, b, dst = Operand(0, 8), Operand(8, 8), Operand(16, 9)
        vals_a = np.arange(32, dtype=np.int64)
        vals_b = np.arange(32, dtype=np.int64)[::-1].copy()

        direct = unit()
        direct.write_values(a, vals_a)
        direct.write_values(b, vals_b)
        direct.add(a, b, dst)

        fsm = ControlFSM(units=[unit()])
        fsm.units[0].write_values(a, vals_a)
        fsm.units[0].write_values(b, vals_b)
        cycles = fsm.execute([Instruction(Opcode.CADD, (a, b, dst))])
        assert cycles == direct.cycles
        assert np.array_equal(fsm.units[0].read_values(dst),
                              direct.read_values(dst))

    def test_simd_broadcast_across_arrays(self):
        """One instruction stream drives many arrays in lockstep —
        the paper's execution model."""
        a, b, dst = Operand(0, 8), Operand(8, 8), Operand(16, 9)
        arrays = [unit(), unit(), unit()]
        for i, u in enumerate(arrays):
            u.write_values(a, np.full(32, i + 1, dtype=np.int64))
            u.write_values(b, np.full(32, 10, dtype=np.int64))
        fsm = ControlFSM(units=arrays)
        fsm.execute([Instruction(Opcode.CADD, (a, b, dst))])
        for i, u in enumerate(arrays):
            assert np.all(u.read_values(dst) == i + 11)

    def test_multi_instruction_program(self):
        """A MAC program composed from ISA instructions."""
        a, b = Operand(0, 8), Operand(8, 8)
        scratch, acc = Operand(16, 16), Operand(32, 24)
        fsm = ControlFSM(units=[unit()])
        fsm.units[0].write_values(a, np.full(32, 7, dtype=np.int64))
        fsm.units[0].write_values(b, np.full(32, 6, dtype=np.int64))
        program = [
            Instruction(Opcode.CZERO, (acc,)),
            Instruction(Opcode.CMAC, (a, b, scratch, acc)),
            Instruction(Opcode.CMAC, (a, b, scratch, acc)),
        ]
        fsm.execute(program)
        assert np.all(fsm.units[0].read_values(acc) == 84)
        assert fsm.instructions_executed == 3

    def test_immediate_instructions(self):
        dst = Operand(0, 16)
        fsm = ControlFSM(units=[unit()])
        fsm.execute([Instruction(Opcode.CIMM, (dst,), immediate=1234)])
        assert np.all(fsm.units[0].read_values(dst) == 1234)

    def test_reduce_instruction(self):
        base, seg = Operand(0, 32), Operand(32, 32)
        fsm = ControlFSM(units=[unit()])
        vals = np.arange(32, dtype=np.int64)
        fsm.units[0].write_values(Operand(0, 29), vals)
        fsm.execute([Instruction(Opcode.CREDUCE, (base, seg), immediate=8)])
        got = fsm.units[0].read_values(base)
        assert got[0] == vals[:8].sum()

    def test_relu_and_selective_copy(self):
        op = Operand(0, 8)
        flag = Operand(8, 1)
        src = Operand(16, 8)
        fsm = ControlFSM(units=[unit()])
        u = fsm.units[0]
        vals = np.concatenate([np.full(16, 200), np.full(16, 5)])
        u.write_values(op, vals)
        fsm.execute([Instruction(Opcode.CRELU, (op,), immediate=7)])
        assert np.all(u.read_values(op) == np.where(vals >= 128, 0, vals))
        u.write_values(src, np.full(32, 9, dtype=np.int64))
        u.write_values(flag, np.ones(32, dtype=np.int64))
        fsm.execute([Instruction(Opcode.CSELCOPY, (src, op), immediate=8)])
        assert np.all(u.read_values(op) == 9)

    def test_default_fsm_gets_one_unit(self):
        fsm = ControlFSM()
        assert len(fsm.units) == 1


class TestArea:
    def test_per_fsm_area(self):
        assert FSM_AREA_UM2 == 204.0

    def test_total_area_matches_paper(self):
        # Sec. IV-F: "across 14 slices which sums to 0.23 mm^2".
        banks = 14 * 80
        assert fsm_total_area_mm2(banks) == pytest.approx(0.23, abs=0.002)

    def test_negative_banks_rejected(self):
        with pytest.raises(IsaError):
            fsm_total_area_mm2(-1)
