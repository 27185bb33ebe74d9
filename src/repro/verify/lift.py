"""Lifters: ISA programs and recorded call sequences -> ProgramFacts.

All per-operation dataflow knowledge lives here, in :func:`op_facts` —
one entry per :class:`~repro.engine.bitserial.FleetBitSerialUnit`
composite (the ``_TRACED_METHODS`` registry). Both program sources route
through it: :func:`lift_isa_program` maps each opcode to the composite
call :class:`~repro.core.isa.ControlFSM` would dispatch (mirroring
``ControlFSM._dispatch`` exactly), and :func:`lift_calls` binds recorded
call arguments to parameter names. Keeping one table means a ``cadd``
instruction and a recorded ``add`` call can never disagree about what
addition reads and writes.

The facts encode what the *implementations* in ``engine/bitserial.py``
do, not what an idealised op would: e.g. ``sub`` writes its scratch
region (the complemented subtrahend lands there), ``multiply`` requires
the product disjoint from both inputs (predicated shift-adds read the
inputs throughout), and ``add`` tolerates a destination aligned with
either input (LSB-first in-place accumulation, Fig. 6 of the paper).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.common.errors import VerifyError
from repro.core.isa import Instruction, Opcode
from repro.engine.bitserial import Operand
from repro.verify.facts import (
    ALIGNED_OR_DISJOINT,
    CARRY_CYCLE,
    CARRY_INIT,
    CARRY_STORE,
    DISJOINT,
    SKIPPED,
    Constraint,
    OpFacts,
    ProgramFacts,
    Region,
    TAG_CLEAR,
    TAG_REQUIRE,
    TAG_SELF,
    TAG_SET,
)

#: Skip kinds the sparsity engine is allowed to report. Each names the
#: elided sub-sequence: a per-plane shift-add block of ``multiply`` (the
#: tag plane was all zero, so every predicated write was a no-op), or a
#: whole ``add_into`` (every source plane was zero; adding zero to the
#: accumulator after a carry clear changes nothing).
SKIP_KINDS = ("multiply-plane", "add-into")

__all__ = ["SKIP_KINDS", "lift_calls", "lift_isa_program", "op_facts"]


def _region(op: Operand) -> Region:
    return Region(op.row, op.nbits)


def _ripple() -> tuple[str, ...]:
    """The complete carry protocol of one rippled add/sub sequence."""
    return (CARRY_INIT, CARRY_CYCLE, CARRY_STORE)


def op_facts(method: str, index: int, name: str,
             params: dict[str, Any]) -> OpFacts:
    """Dataflow facts for one composite call.

    ``params`` maps the composite's parameter names to values (Operands
    and ints), as bound by the lifters. Raises
    :class:`~repro.common.errors.VerifyError` for methods the IR does not
    model (nothing in the traced registry should hit that).
    """
    p = params
    if method in ("zero", "write_scalar"):
        dst = _region(p["op"])
        if p.get("predicated"):
            return OpFacts(name, index, pred_writes=(dst,), tag=TAG_REQUIRE)
        return OpFacts(name, index, writes=(dst,))

    if method in ("copy", "complement_copy"):
        src, dst = _region(p["src"]), _region(p["dst"])
        cons = (Constraint(src, dst, ALIGNED_OR_DISJOINT,
                           f"{method} advances LSB-first; an unaligned "
                           f"overlap clobbers unread source rows"),)
        if p.get("predicated"):
            return OpFacts(name, index, reads=(src,), pred_writes=(dst,),
                           tag=TAG_REQUIRE, constraints=cons)
        return OpFacts(name, index, reads=(src,), writes=(dst,),
                       constraints=cons)

    if method == "shift_copy":
        src, dst = _region(p["src"]), _region(p["dst"])
        return OpFacts(
            name, index, reads=(src,), writes=(dst,),
            col_shift=int(p["column_shift"]),
            constraints=(Constraint(src, dst, ALIGNED_OR_DISJOINT,
                                    "shift_copy advances LSB-first"),))

    if method == "add":
        a, b, dst = _region(p["a"]), _region(p["b"]), _region(p["dst"])
        cons = tuple(
            Constraint(src, dst, ALIGNED_OR_DISJOINT,
                       "add writes dst bit k in the cycle that reads "
                       "operand bit k; only aligned (in-place, Fig. 6) "
                       "or disjoint destinations are legal")
            for src in (a, b))
        kw: dict[str, Any] = {}
        if p.get("predicated"):
            kw = {"pred_writes": (dst,), "tag": TAG_REQUIRE}
        else:
            kw = {"writes": (dst,)}
        return OpFacts(name, index, reads=(a, b), carry=_ripple(),
                       constraints=cons, **kw)

    if method == "add_into":
        src, acc = _region(p["src"]), _region(p["acc"])
        cons = (Constraint(src, acc, ALIGNED_OR_DISJOINT,
                           "add_into accumulates in place LSB-first"),)
        kw = ({"pred_writes": (acc,), "tag": TAG_REQUIRE}
              if p.get("predicated") else {"writes": (acc,)})
        return OpFacts(name, index, reads=(src, acc),
                       carry=(CARRY_INIT, CARRY_CYCLE),
                       constraints=cons, **kw)

    if method in ("sub", "sub_into"):
        scratch = _region(p["scratch"])
        written = Region(scratch.row, min(scratch.nbits, p["b"].nbits))
        if method == "sub":
            a, b, dst = _region(p["a"]), _region(p["b"]), _region(p["dst"])
            reads, writes = (a, b), (dst,)
            carry = _ripple()
            others = {"a": a, "b": b, "dst": dst}
        else:
            acc, b = _region(p["acc"]), _region(p["b"])
            reads, writes = (acc, b), (acc,)
            carry = (CARRY_INIT, CARRY_CYCLE)
            others = {"acc": acc, "b": b}
        cons = tuple(
            Constraint(scratch, reg, DISJOINT,
                       f"{method} stores the complemented subtrahend in "
                       f"scratch before the ripple; scratch overlapping "
                       f"{role} clobbers live data")
            for role, reg in others.items())
        if method == "sub":
            cons += (Constraint(others["a"], others["dst"],
                                ALIGNED_OR_DISJOINT,
                                "sub writes dst bit k in the cycle that "
                                "reads minuend bit k"),)
        return OpFacts(name, index, reads=reads, writes=writes,
                       scratch_writes=(written,), carry=carry,
                       constraints=cons)

    if method == "multiply":
        a, b, prod = _region(p["a"]), _region(p["b"]), _region(p["product"])
        cons = tuple(
            Constraint(prod, reg, DISJOINT,
                       "multiply reads both inputs across all predicated "
                       "shift-add passes; the product must not alias them")
            for reg in (a, b))
        return OpFacts(name, index, reads=(a, b), writes=(prod,),
                       tag=TAG_SELF, carry=_ripple(), constraints=cons)

    if method == "mac":
        a, b = _region(p["a"]), _region(p["b"])
        prod, acc = _region(p["product_scratch"]), _region(p["acc"])
        cons = tuple(
            Constraint(prod, reg, DISJOINT,
                       "mac's product scratch must not alias an input")
            for reg in (a, b))
        cons += (Constraint(prod, acc, ALIGNED_OR_DISJOINT,
                            "mac accumulates the product in place"),)
        return OpFacts(name, index, reads=(a, b, acc),
                       writes=(acc,), scratch_writes=(prod,), tag=TAG_SELF,
                       carry=_ripple() + (CARRY_INIT, CARRY_CYCLE),
                       constraints=cons)

    if method == "divide":
        a, b = _region(p["a"]), _region(p["b"])
        quot, work = _region(p["quotient"]), _region(p["work"])
        n = p["a"].nbits
        used = Region(work.row, min(work.nbits, 3 * n + 3))
        cons = tuple(
            Constraint(work, reg, DISJOINT,
                       "divide's working set (remainder/diff/complement) "
                       "must not alias other operands")
            for reg in (a, b, quot))
        cons += (Constraint(quot, a, ALIGNED_OR_DISJOINT,
                            "divide writes quotient bit i after reading "
                            "dividend bit i"),)
        return OpFacts(name, index, reads=(a, b), writes=(quot,),
                       scratch_writes=(used,), tag=TAG_SELF,
                       carry=_ripple(), constraints=cons)

    if method == "compare_ge":
        a, b = _region(p["a"]), _region(p["b"])
        dst, scratch = _region(p["dst"]), _region(p["scratch"])
        flag = Region(dst.row, 1)
        cons = tuple(
            Constraint(scratch, reg, DISJOINT,
                       "compare_ge's difference scratch must not alias "
                       "other operands")
            for reg in (a, b, flag))
        n = p["a"].nbits
        used = Region(scratch.row, min(scratch.nbits, 2 * n + 1))
        return OpFacts(name, index, reads=(a, b), writes=(flag,),
                       scratch_writes=(used,), carry=_ripple(),
                       constraints=cons)

    if method in ("max_update", "min_update"):
        cur, cand = _region(p["current"]), _region(p["candidate"])
        n = p["current"].nbits
        scratch = Region(p["scratch"].row, min(p["scratch"].nbits, 2 * n + 1))
        cons = tuple(
            Constraint(scratch, reg, DISJOINT,
                       f"{method}'s comparison scratch must not alias the "
                       f"values being compared")
            for reg in (cur, cand))
        cons += (Constraint(cand, cur, ALIGNED_OR_DISJOINT,
                            f"{method}'s predicated copy advances "
                            f"LSB-first"),)
        return OpFacts(name, index, reads=(cur, cand),
                       scratch_writes=(scratch,), pred_writes=(cur,),
                       tag=TAG_SELF, carry=_ripple(), constraints=cons)

    if method == "relu":
        dst = _region(p["op"])
        return OpFacts(name, index, pred_writes=(dst,), tag=TAG_SELF,
                       tag_source=(Region(int(p["sign_row"]), 1),))

    if method == "selective_copy":
        src, dst = _region(p["src"]), _region(p["dst"])
        return OpFacts(
            name, index, reads=(src,), pred_writes=(dst,), tag=TAG_SELF,
            tag_source=(Region(int(p["tag_row"]), 1),),
            constraints=(Constraint(src, dst, ALIGNED_OR_DISJOINT,
                                    "selective_copy advances LSB-first"),))

    if method in ("logical_and", "logical_nor", "logical_or",
                  "logical_xor"):
        a, b, dst = _region(p["a"]), _region(p["b"]), _region(p["dst"])
        cons = tuple(
            Constraint(src, dst, ALIGNED_OR_DISJOINT,
                       f"{method} writes dst bit k in the cycle that "
                       f"senses the operands' bit k")
            for src in (a, b))
        return OpFacts(name, index, reads=(a, b), writes=(dst,),
                       constraints=cons)

    if method == "equality_compare":
        a, b = _region(p["a"]), _region(p["b"])
        return OpFacts(name, index, reads=(a, b),
                       writes=(Region(int(p["dst_row"]), 1),),
                       tag=TAG_SET)

    if method == "search":
        hay = _region(p["haystack"])
        return OpFacts(name, index, reads=(hay,),
                       writes=(Region(int(p["dst_row"]), 1),),
                       tag=TAG_SET)

    if method == "reduce_tree":
        elements = int(p["elements"])
        width = int(p["width"])
        steps = max(elements.bit_length() - 1, 0)
        final = width + steps
        base = Region(p["base"].row, final)
        seg = Region(p["segment"].row, max(final - 1, 1))
        return OpFacts(
            name, index, reads=(Region(base.row, width),),
            writes=(base,), scratch_writes=(seg,),
            carry=_ripple() if steps else (),
            col_shift=elements // 2 if steps else None,
            constraints=(Constraint(base, seg, DISJOINT,
                                    "reduce_tree ping-pongs between base "
                                    "and segment; they must not alias"),))

    if method == "move_across":
        src = _region(p["src"])
        dst = _region(p["dst"])
        return OpFacts(
            name, index, reads=(src,), writes=(dst,),
            array_shift=int(p["stride"]),
            constraints=(Constraint(src, dst, ALIGNED_OR_DISJOINT,
                                    "a cross-array move copies wordline by "
                                    "wordline; an unaligned overlap would "
                                    "mix hopped and local planes"),))

    if method == "reduce_across_arrays":
        group = int(p["group"])
        width = int(p["width"])
        steps = max(group.bit_length() - 1, 0)
        base = Region(p["base"].row, width + 1)
        seg = Region(p["segment"].row, width)
        return OpFacts(
            name, index, reads=(Region(base.row, width),),
            writes=(base,), scratch_writes=(seg,),
            carry=_ripple() if steps else (),
            array_shift=group // 2 if steps else None,
            constraints=(Constraint(base, seg, DISJOINT,
                                    "cross-array reduction ping-pongs "
                                    "between base and segment; they must "
                                    "not alias"),))

    if method == "load_tag":
        return OpFacts(name, index, tag=TAG_SET,
                       tag_source=(Region(int(p["row"]), 1),))

    if method == "set_tag_all":
        return OpFacts(name, index, tag=TAG_CLEAR)

    if method in ("write_values", "write_value_block", "write_words"):
        # A host load defines its rows, whether it arrives as ints or as
        # packed words (``write_words`` rows may come from a table).
        dst = _region(p["base"] if method == "write_value_block"
                      else p["op"])
        return OpFacts(name, index, inits=(dst,))

    if method == "skip_step":
        kind = p["kind"]
        if kind not in SKIP_KINDS:
            raise VerifyError(
                f"unknown sparsity skip kind {kind!r} (expected one of "
                f"{', '.join(SKIP_KINDS)})", check="lift", op=name)
        # A skip probes the operand plane(s) (a read: the zero check
        # senses real state) and elides the sub-sequence that would have
        # written ``dest``. It writes nothing — check_skips verifies the
        # destination is zero-preserving under the enclosing op.
        return OpFacts(name, index, reads=(_region(p["source"]),),
                       disposition=SKIPPED, skip_dest=_region(p["dest"]))

    if method == "read_values":
        # An array-selective read (``arrays``) senses the same rows; it
        # only converts fewer arrays' values on the host.
        return OpFacts(name, index, reads=(_region(p["op"]),))

    raise VerifyError(f"no dataflow facts for operation {method!r}",
                      check="lift", op=name)


# ----------------------------------------------------------------------
# Recorded call sequences
# ----------------------------------------------------------------------

#: Positional parameter names per traced composite (host values the IR
#: does not inspect — numpy arrays — are bound but unused).
_PARAMS: dict[str, tuple[str, ...]] = {
    "write_values": ("op", "values"),
    "write_value_block": ("base", "values", "nbits"),
    "write_words": ("op", "words", "index"),
    "read_values": ("op", "arrays"),
    "load_tag": ("row", "invert"),
    "set_tag_all": (),
    "zero": ("op", "predicated"),
    "write_scalar": ("op", "value"),
    "copy": ("src", "dst", "predicated"),
    "complement_copy": ("src", "dst", "predicated"),
    "shift_copy": ("src", "dst", "column_shift"),
    "add": ("a", "b", "dst", "predicated"),
    "add_into": ("src", "acc", "predicated"),
    "sub": ("a", "b", "dst", "scratch"),
    "sub_into": ("acc", "b", "scratch"),
    "multiply": ("a", "b", "product"),
    "mac": ("a", "b", "product_scratch", "acc"),
    "divide": ("a", "b", "quotient", "work"),
    "compare_ge": ("a", "b", "dst", "scratch"),
    "max_update": ("current", "candidate", "scratch"),
    "min_update": ("current", "candidate", "scratch"),
    "relu": ("op", "sign_row"),
    "selective_copy": ("src", "dst", "tag_row", "invert"),
    "logical_and": ("a", "b", "dst"),
    "logical_nor": ("a", "b", "dst"),
    "logical_or": ("a", "b", "dst"),
    "logical_xor": ("a", "b", "dst"),
    "equality_compare": ("a", "b", "dst_row"),
    "search": ("haystack", "key", "dst_row"),
    "reduce_tree": ("base", "segment", "elements", "width"),
    "move_across": ("src", "dst", "stride", "group"),
    "reduce_across_arrays": ("base", "segment", "group", "width"),
    "skip_step": ("kind", "source", "dest", "cycles"),
}


def _call_name(method: str, params: dict[str, Any]) -> str:
    shown = []
    for key, value in params.items():
        if isinstance(value, Operand):
            shown.append(f"{key}=r{value.row}:{value.nbits}")
        elif isinstance(value, (int, bool, str)):
            shown.append(f"{key}={value}")
    return f"{method}({', '.join(shown)})"


def lift_calls(calls: Iterable[tuple[str, tuple[Any, ...], dict[str, Any]]],
               rows: int, cols: int, label: str = "recorded",
               preloaded: Sequence[Region] = ()) -> ProgramFacts:
    """Lift a recorded ``(method, args, kwargs)`` sequence.

    Accepts the triples gathered by
    :class:`repro.verify.recorder.ProgramRecorder` (whose
    ``RecordedCall`` items unpack to exactly this shape).
    """
    ops = []
    for index, (method, args, kwargs) in enumerate(calls):
        names = _PARAMS.get(method)
        if names is None:
            raise VerifyError(f"recorded unknown operation {method!r}",
                              check="lift", op=method)
        if len(args) > len(names):
            raise VerifyError(
                f"recorded call {method!r} has {len(args)} positional "
                f"arguments, expected at most {len(names)}",
                check="lift", op=method)
        params: dict[str, Any] = dict(zip(names, args))
        params.update(kwargs)
        ops.append(op_facts(method, index, _call_name(method, params),
                            params))
    return ProgramFacts(label=label, rows=rows, cols=cols, ops=tuple(ops),
                        preloaded=tuple(preloaded))


# ----------------------------------------------------------------------
# ISA programs
# ----------------------------------------------------------------------

def _isa_call(instr: Instruction) -> tuple[str, dict[str, Any]]:
    """The composite call ``ControlFSM._dispatch`` makes for ``instr``."""
    op = instr.opcode
    a = instr.operands
    imm = instr.immediate
    if op is Opcode.CZERO:
        return "zero", {"op": a[0]}
    if op is Opcode.CIMM:
        return "write_scalar", {"op": a[0], "value": imm}
    if op is Opcode.CCOPY:
        return "copy", {"src": a[0], "dst": a[1]}
    if op is Opcode.CMOVE:
        return "shift_copy", {"src": a[0], "dst": a[1], "column_shift": imm}
    if op is Opcode.CADD:
        return "add", {"a": a[0], "b": a[1], "dst": a[2]}
    if op is Opcode.CSUB:
        return "sub", {"a": a[0], "b": a[1], "dst": a[2], "scratch": a[3]}
    if op is Opcode.CMULT:
        return "multiply", {"a": a[0], "b": a[1], "product": a[2]}
    if op is Opcode.CDIV:
        return "divide", {"a": a[0], "b": a[1], "quotient": a[2],
                          "work": a[3]}
    if op is Opcode.CMAC:
        return "mac", {"a": a[0], "b": a[1], "product_scratch": a[2],
                       "acc": a[3]}
    if op is Opcode.CREDUCE:
        assert imm is not None
        width = a[0].nbits - (imm.bit_length() - 1)
        return "reduce_tree", {"base": a[0], "segment": a[1],
                               "elements": imm, "width": width}
    if op is Opcode.CMAX:
        return "max_update", {"current": a[0], "candidate": a[1],
                              "scratch": a[2]}
    if op is Opcode.CMIN:
        return "min_update", {"current": a[0], "candidate": a[1],
                              "scratch": a[2]}
    if op is Opcode.CRELU:
        return "relu", {"op": a[0], "sign_row": imm}
    if op is Opcode.CSELCOPY:
        return "selective_copy", {"src": a[0], "dst": a[1], "tag_row": imm}
    raise VerifyError(f"no dataflow facts for opcode {op!r}",
                      check="lift", op=str(instr))


def lift_isa_program(program: Sequence[Instruction], rows: int, cols: int,
                     label: str = "isa",
                     preloaded: Sequence[Region] = ()) -> ProgramFacts:
    """Lift a validated :class:`~repro.core.isa.Instruction` list.

    ``preloaded`` declares the input regions the host stages before
    broadcasting the program (an ISA program has no in-band loads).
    """
    ops = []
    for index, instr in enumerate(program):
        method, params = _isa_call(instr)
        ops.append(op_facts(method, index, str(instr), params))
    return ProgramFacts(label=label, rows=rows, cols=cols, ops=tuple(ops),
                        preloaded=tuple(preloaded))
