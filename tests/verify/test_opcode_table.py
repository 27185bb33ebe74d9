"""The ISA's opcode table is the one binding from instruction to composite.

``repro.core.isa.OPCODES`` maps every opcode to a
``FleetBitSerialUnit`` method, the parameters its operands bind to and
the parameter its immediate binds to. ``ControlFSM`` dispatches through
it and ``lift_isa_program`` lifts through it, so for every opcode the
call a run records and the call the verifier lifts must be one and the
same.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from repro.core.isa import OPCODES, ControlFSM, Opcode, parse_instruction
from repro.engine.bitserial import FleetBitSerialUnit
from repro.engine.packed import make_fleet
from repro.sram import BitSerialUnit, Operand, SRAMArray
from repro.verify import lift_calls, lift_isa_program, record_programs

ROWS, COLS = 64, 8

#: One valid instruction per opcode.
EXAMPLES = {
    Opcode.CZERO: "czero r0:8",
    Opcode.CIMM: "cimm r0:8, #42",
    Opcode.CCOPY: "ccopy r0:8, r8:8",
    Opcode.CMOVE: "cmove r0:8, r8:8, #1",
    Opcode.CADD: "cadd r0:8, r8:8, r16:9",
    Opcode.CSUB: "csub r0:8, r8:8, r16:9, r32:8",
    Opcode.CMULT: "cmult r0:8, r8:8, r16:16",
    Opcode.CDIV: "cdiv r0:4, r8:4, r16:4, r24:16",
    Opcode.CMAC: "cmac r0:8, r8:8, r16:16, r32:24",
    Opcode.CREDUCE: "creduce r0:12, r16:12, #4",
    Opcode.CMAX: "cmax r0:8, r8:8, r16:17",
    Opcode.CMIN: "cmin r0:8, r8:8, r16:17",
    Opcode.CRELU: "crelu r0:8, #7",
    Opcode.CSELCOPY: "cselcopy r0:8, r8:8, #16",
}


def test_every_opcode_has_an_entry_and_an_example():
    assert set(OPCODES) == set(Opcode) == set(EXAMPLES)


@pytest.mark.parametrize("opcode", list(Opcode), ids=lambda op: op.value)
class TestOpcodeTable:
    def test_entry_binds_against_the_composite(self, opcode):
        binding = OPCODES[opcode]
        signature = inspect.signature(
            getattr(FleetBitSerialUnit, binding.method))
        named = set(binding.operands) | ({binding.immediate} - {None})
        assert named <= set(signature.parameters)
        instr = parse_instruction(EXAMPLES[opcode])
        assert instr.opcode is opcode
        method, params = instr.call()
        assert method == binding.method
        signature.bind(None, **params)   # raises if a name is wrong

    def test_recorded_call_is_the_lifted_call(self, opcode):
        instr = parse_instruction(EXAMPLES[opcode])
        unit = BitSerialUnit(SRAMArray(fleet=make_fleet(1, ROWS, COLS)))
        rng = np.random.default_rng(3)
        for row in range(0, ROWS, 8):
            unit.write_values(Operand(row, 8), rng.integers(0, 256, COLS))
        fsm = ControlFSM([unit])
        with record_programs() as recorder:
            fsm.execute([instr])
        (trace,) = recorder.traces.values()
        method, params = instr.call()
        assert [(call.method, call.args, call.kwargs)
                for call in trace.calls] == [(method, (), params)]
        recorded = lift_calls(trace.calls, ROWS, COLS)
        lifted = lift_isa_program([instr], ROWS, COLS)
        assert ([dataclasses.replace(op, name="") for op in recorded.ops]
                == [dataclasses.replace(op, name="") for op in lifted.ops])
