"""Lifters: ISA programs and recorded call sequences -> ProgramFacts.

All per-operation dataflow knowledge lives here, in :func:`op_facts` —
one entry per :class:`~repro.engine.bitserial.FleetBitSerialUnit`
composite (the ``_TRACED_METHODS`` registry). Both program sources route
through it: :func:`lift_isa_program` binds each instruction through the
ISA's opcode table (:data:`repro.core.isa.OPCODES`, the table
:class:`~repro.core.isa.ControlFSM` dispatches through), and
:func:`lift_calls` binds recorded call arguments against the composite's
own signature. Keeping one table means a ``cadd`` instruction and a
recorded ``add`` call can never disagree about what addition reads and
writes.

The facts encode what the *implementations* in ``engine/bitserial.py``
do, not what an idealised op would: e.g. ``sub`` writes its scratch
region (the complemented subtrahend lands there), ``multiply`` requires
the product disjoint from both inputs (predicated shift-adds read the
inputs throughout), and ``add`` tolerates a destination aligned with
either input (LSB-first in-place accumulation, Fig. 6 of the paper).
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Iterable, Sequence

from repro.common.errors import VerifyError
from repro.core.isa import Instruction
from repro.engine.bitserial import (
    _TRACED_METHODS,
    FleetBitSerialUnit,
    Operand,
)
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

    if method == "mac_taps":
        # The whole tap block as one op, as ``mac`` is one: every tap's
        # product passes through ``product``, then lands in ``acc`` while
        # each tap's input lands in ``b_acc``. Streamed inputs arrive tap
        # by tap in ``b``'s rows (scratch, as ``product`` is); resident
        # inputs are read from a span as tall as the filters'. Not a
        # per-tap expansion: streamed taps report their skips on the same
        # ``b`` rows, so a skip does not say which tap it belongs to.
        span = (int(p["taps"]) - 1) * int(p["stride"]) + p["a"].nbits
        a = Region(p["a"].row, span)
        prod, acc = _region(p["product"]), _region(p["acc"])
        b_acc = _region(p["b_acc"])
        if p.get("words") is None:
            b = Region(p["b"].row, span)
            reads, scratch = (a, b, acc, b_acc), (prod,)
        else:
            b = _region(p["b"])
            reads, scratch = (a, acc, b_acc), (prod, b)
        cons = tuple(
            Constraint(prod, reg, DISJOINT,
                       "mac_taps' product scratch must not alias an input")
            for reg in (a, b))
        cons += (Constraint(prod, acc, ALIGNED_OR_DISJOINT,
                            "mac_taps accumulates each product in place"),
                 Constraint(b, b_acc, ALIGNED_OR_DISJOINT,
                            "mac_taps accumulates each input in place"))
        return OpFacts(name, index, reads=reads, writes=(acc, b_acc),
                       scratch_writes=scratch, tag=TAG_SELF,
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

@functools.cache
def _signature(method: str) -> inspect.Signature:
    """The signature a recorded ``method`` call binds against: the
    composite's own, or ``_report_skip``'s for the ``skip_step``
    pseudo-op."""
    if method == "skip_step":
        return inspect.signature(FleetBitSerialUnit._report_skip)
    if method not in _TRACED_METHODS:
        raise VerifyError(f"recorded unknown operation {method!r}",
                          check="lift", op=method)
    return inspect.signature(getattr(FleetBitSerialUnit, method))


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
        try:
            bound = _signature(method).bind(None, *args, **kwargs)
        except TypeError as exc:
            raise VerifyError(f"recorded call {method!r} does not bind: "
                              f"{exc}", check="lift", op=method) from None
        params = dict(bound.arguments)
        del params["self"]
        ops.append(op_facts(method, index, _call_name(method, params),
                            params))
    return ProgramFacts(label=label, rows=rows, cols=cols, ops=tuple(ops),
                        preloaded=tuple(preloaded))


# ----------------------------------------------------------------------
# ISA programs
# ----------------------------------------------------------------------

def lift_isa_program(program: Sequence[Instruction], rows: int, cols: int,
                     label: str = "isa",
                     preloaded: Sequence[Region] = ()) -> ProgramFacts:
    """Lift a validated :class:`~repro.core.isa.Instruction` list.

    ``preloaded`` declares the input regions the host stages before
    broadcasting the program (an ISA program has no in-band loads).
    """
    ops = []
    for index, instr in enumerate(program):
        method, params = instr.call()
        ops.append(op_facts(method, index, str(instr), params))
    return ProgramFacts(label=label, rows=rows, cols=cols, ops=tuple(ops),
                        preloaded=tuple(preloaded))
