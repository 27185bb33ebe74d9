"""Neural Cache ISA and bank control FSM (Sec. IV-F).

The paper adds a handful of instructions — in-cache addition,
multiplication, reduction and moves — that the host broadcasts over the
intra-slice address bus. Every bank has a small control FSM (~204 um^2;
0.23 mm^2 across 14 slices) that sequences the word-line/sense-amp signals
for each instruction. Because one layer executes at a time, *all* compute
arrays run the same instruction in lockstep: the cache behaves as a very
wide SIMD machine.

:class:`ControlFSM` models exactly that: it validates a program once and
applies every instruction to all attached arrays, mirroring the broadcast
execution model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, NamedTuple

from repro.common.errors import IsaError
from repro.sram.bitserial import BitSerialUnit, Operand

#: Area of one bank control FSM (Sec. IV-F).
FSM_AREA_UM2 = 204.0


class Opcode(Enum):
    """The in-cache compute and move instructions."""

    CZERO = "czero"          # zero a region
    CIMM = "cimm"            # broadcast an immediate
    CCOPY = "ccopy"          # region copy
    CMOVE = "cmove"          # copy with a cross-bitline shift
    CADD = "cadd"            # vector addition
    CSUB = "csub"            # vector subtraction (difference + not-borrow)
    CMULT = "cmult"          # vector multiplication
    CDIV = "cdiv"            # vector division
    CMAC = "cmac"            # fused multiply-accumulate
    CREDUCE = "creduce"      # intra-array tree reduction
    CMAX = "cmax"            # running-max fold
    CMIN = "cmin"            # running-min fold
    CRELU = "crelu"          # MSB-masked zero write
    CSELCOPY = "cselcopy"    # tag-predicated copy


class Binding(NamedTuple):
    """The composite call an opcode stands for."""

    #: :class:`~repro.engine.bitserial.FleetBitSerialUnit` method name.
    method: str
    #: The method parameters the instruction's operands bind to, in order.
    operands: tuple[str, ...]
    #: The method parameter the immediate binds to (``None``: no immediate).
    immediate: str | None = None


#: The one binding from instruction to composite: :class:`Instruction`
#: validates its operand count and immediate against it,
#: :class:`ControlFSM` dispatches through it, and
#: :func:`repro.verify.lift_isa_program` lifts through it.
OPCODES: dict[Opcode, Binding] = {
    Opcode.CZERO: Binding("zero", ("op",)),
    Opcode.CIMM: Binding("write_scalar", ("op",), "value"),
    Opcode.CCOPY: Binding("copy", ("src", "dst")),
    Opcode.CMOVE: Binding("shift_copy", ("src", "dst"), "column_shift"),
    Opcode.CADD: Binding("add", ("a", "b", "dst")),
    Opcode.CSUB: Binding("sub", ("a", "b", "dst", "scratch")),
    Opcode.CMULT: Binding("multiply", ("a", "b", "product")),
    Opcode.CDIV: Binding("divide", ("a", "b", "quotient", "work")),
    Opcode.CMAC: Binding("mac", ("a", "b", "product_scratch", "acc")),
    Opcode.CREDUCE: Binding("reduce_tree", ("base", "segment"), "elements"),
    Opcode.CMAX: Binding("max_update", ("current", "candidate", "scratch")),
    Opcode.CMIN: Binding("min_update", ("current", "candidate", "scratch")),
    Opcode.CRELU: Binding("relu", ("op",), "sign_row"),
    Opcode.CSELCOPY: Binding("selective_copy", ("src", "dst"), "tag_row"),
}


@dataclass(frozen=True)
class Instruction:
    """One broadcast in-cache instruction."""

    opcode: Opcode
    operands: tuple[Operand, ...]
    immediate: int | None = None

    def __post_init__(self) -> None:
        try:
            binding = OPCODES[self.opcode]
        except KeyError:
            raise IsaError(f"unknown opcode {self.opcode!r}") from None
        if len(self.operands) != len(binding.operands):
            raise IsaError(
                f"{self.opcode.value} takes {len(binding.operands)} "
                f"operands, got {len(self.operands)}")
        takes_imm = binding.immediate is not None
        if takes_imm and self.immediate is None:
            raise IsaError(f"{self.opcode.value} requires an immediate")
        if not takes_imm and self.immediate is not None:
            raise IsaError(f"{self.opcode.value} takes no immediate")

    def call(self) -> tuple[str, dict[str, Any]]:
        """The composite call this instruction stands for: the method
        name and its keyword arguments, bound through :data:`OPCODES`.

        CREDUCE also passes the reduction's input ``width``, derived from
        the base: its rows minus the ``log2(elements)`` growth bits.
        """
        binding = OPCODES[self.opcode]
        params: dict[str, Any] = dict(zip(binding.operands, self.operands))
        if binding.immediate is not None:
            params[binding.immediate] = self.immediate
        if self.opcode is Opcode.CREDUCE:
            assert self.immediate is not None  # __post_init__ guarantees it
            params["width"] = (self.operands[0].nbits
                               - (self.immediate.bit_length() - 1))
        return binding.method, params

    def __str__(self) -> str:
        ops = ", ".join(f"r{op.row}:{op.nbits}" for op in self.operands)
        imm = f", #{self.immediate}" if self.immediate is not None else ""
        return f"{self.opcode.value} {ops}{imm}"


@dataclass
class ControlFSM:
    """Broadcasts instruction streams to a set of compute arrays.

    All arrays execute each instruction simultaneously (the paper's SIMD
    execution model); the FSM tracks instruction count and the per-array
    cycle cost of the program (identical across arrays by construction).
    """

    units: list[BitSerialUnit] = field(default_factory=list)
    instructions_executed: int = 0

    def __post_init__(self) -> None:
        if not self.units:
            self.units = [BitSerialUnit()]

    @property
    def cycles(self) -> int:
        """Per-array cycle count (all arrays run in lockstep)."""
        return self.units[0].cycles

    def validate(self, program: list[Instruction]) -> None:
        """Reject programs that do not fit the attached arrays.

        The paper's contract is *validate once, broadcast everywhere*: a
        bounds violation must be caught here, before the first cycle, not
        as an :class:`~repro.common.errors.ArrayStateError` halfway
        through execution with every array's state already mutated.
        Checks every operand region and every row-valued immediate (the
        CRELU sign row, the CSELCOPY tag row) against the smallest
        attached geometry, cross-bitline shifts against the columns, and
        a CREDUCE's element count (a power of two, at most the columns),
        derived input width (at least one bit) and segment (as wide as
        the base).
        """
        rows = min(unit.rows for unit in self.units)
        cols = min(unit.cols for unit in self.units)
        for index, instr in enumerate(program):
            for operand in instr.operands:
                if operand.end > rows:
                    raise IsaError(
                        f"instruction {index} `{instr}`: operand "
                        f"r{operand.row}:{operand.nbits} ends at wordline "
                        f"{operand.end}, beyond the array's {rows} rows")
            imm = instr.immediate
            if instr.opcode in (Opcode.CRELU, Opcode.CSELCOPY):
                assert imm is not None  # __post_init__ guarantees it
                if not 0 <= imm < rows:
                    role = ("sign row" if instr.opcode is Opcode.CRELU
                            else "tag row")
                    raise IsaError(
                        f"instruction {index} `{instr}`: {role} {imm} "
                        f"outside the array's {rows} rows")
            elif instr.opcode is Opcode.CMOVE:
                assert imm is not None
                if not 0 < imm < cols:
                    raise IsaError(
                        f"instruction {index} `{instr}`: column shift "
                        f"{imm} outside the array's {cols} bitlines")
            elif instr.opcode is Opcode.CREDUCE:
                assert imm is not None
                base, segment = instr.operands
                if not 0 < imm <= cols or imm & (imm - 1):
                    raise IsaError(
                        f"instruction {index} `{instr}`: element count "
                        f"{imm} is not a power of two within the array's "
                        f"{cols} bitlines")
                if instr.call()[1]["width"] < 1:
                    raise IsaError(
                        f"instruction {index} `{instr}`: a {base.nbits}-row "
                        f"base leaves no input bits below the growth of a "
                        f"{imm}-element sum")
                if segment.nbits < base.nbits:
                    raise IsaError(
                        f"instruction {index} `{instr}`: segment of "
                        f"{segment.nbits} rows narrower than the "
                        f"{base.nbits}-row base")

    def execute(self, program: list[Instruction]) -> int:
        """Run a validated program on every array; returns cycles consumed."""
        self.validate(program)
        start = self.cycles
        for instruction in program:
            method, params = instruction.call()
            for unit in self.units:
                getattr(unit, method)(**params)
            self.instructions_executed += 1
        cycles = self.cycles - start
        self._check_lockstep()
        return cycles

    def _check_lockstep(self) -> None:
        cycles = {unit.cycles for unit in self.units}
        if len(cycles) != 1:
            raise IsaError(
                f"arrays fell out of lockstep: cycle counts {sorted(cycles)}")


def parse_instruction(text: str) -> Instruction:
    """Parse the textual form produced by ``str(Instruction)``.

    Grammar: ``opcode rROW:BITS[, rROW:BITS ...][, #IMM]`` — e.g.
    ``cmult r0:8, r8:8, r16:16`` or ``cimm r4:8, #42``.
    """
    text = text.strip()
    if not text:
        raise IsaError("empty instruction")
    head, _, rest = text.partition(" ")
    try:
        opcode = Opcode(head.lower())
    except ValueError:
        raise IsaError(f"unknown opcode {head!r}") from None
    operands: list[Operand] = []
    immediate: int | None = None
    for token in filter(None, (t.strip() for t in rest.split(","))):
        if token.startswith("#"):
            if immediate is not None:
                raise IsaError(f"duplicate immediate in {text!r}")
            try:
                immediate = int(token[1:], 0)
            except ValueError:
                raise IsaError(f"bad immediate {token!r}") from None
        elif token.startswith("r") and ":" in token:
            row_text, _, bits_text = token[1:].partition(":")
            try:
                operands.append(Operand(int(row_text), int(bits_text)))
            except ValueError:
                raise IsaError(f"bad operand {token!r}") from None
        else:
            raise IsaError(f"unrecognised token {token!r} in {text!r}")
    return Instruction(opcode=opcode, operands=tuple(operands),
                       immediate=immediate)


def parse_program(text: str) -> list[Instruction]:
    """Parse a newline-separated program; '#'-prefixed lines and blank
    lines are comments (but '#' inside a line is an immediate)."""
    program = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        program.append(parse_instruction(stripped))
    return program


def fsm_total_area_mm2(banks: int) -> float:
    """Total FSM area for ``banks`` bank controllers (0.23 mm^2 for the
    14-slice Xeon: 14 x 80 banks x 204 um^2)."""
    if banks < 0:
        raise IsaError(f"bank count must be non-negative, got {banks}")
    return banks * FSM_AREA_UM2 * 1e-6
