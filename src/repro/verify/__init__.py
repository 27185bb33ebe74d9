"""Static dataflow verification and runtime sanitizing for Neural Cache
programs.

Design note — the ProgramFacts IR
=================================

The paper's execution model is "validate a program once, broadcast it to
thousands of arrays in lockstep" (Sec. IV-F). This package is the
*validate once* half, built around one IR with two frontends and two
consumers:

::

    ControlFSM ISA program ──lift_isa_program──┐
                                               ├─> ProgramFacts ─> passes
    recorded FleetBitSerialUnit calls ──lift_calls──┘      │
                                                           v
    any PlaneStore ── ShadowPlaneStore ──(dynamic oracle)── agreement

:class:`~repro.verify.facts.ProgramFacts` is a *linear* dataflow IR: one
record per program step declaring the wordline regions it reads, writes,
predicated-writes (read-modify-write through the tag-gated drivers),
scratches (write-then-consume), its tag/carry latch effects, and the
aliasing constraints its implementation imposes. Linearity is not a
simplification — broadcast programs genuinely have no branches (control
flow lives on the host), which is why straight-line passes are *complete*
for this machine: def-before-use, operand-overlap legality, geometry
bounds, tag/carry discipline and dead-write detection each need one walk.

All per-op semantics live in the lifters (:mod:`repro.verify.lift`); the
passes (:mod:`repro.verify.passes`) are generic interpreters over the
records. An instruction lifts as the composite call the ISA's opcode
table binds it to (:data:`repro.core.isa.OPCODES`, the table
``ControlFSM`` dispatches through), and a recorded call binds against
the composite's own signature, so the two frontends cannot drift apart. A future transformation — e.g. BitWave-style zero-plane skipping
or the ROADMAP's cross-array reduction — hangs its legality analysis
here: transform the op list, re-run the passes, and diff the facts
against the original program's to prove dataflow equivalence.

The second half is the shadow-state sanitizer
(:class:`~repro.verify.sanitizer.ShadowPlaneStore`, enabled by
``make_fleet(..., sanitize=True)`` or ``NEURALCACHE_SANITIZE=1``): a
per-row init tracker on the store seam that raises structured
:class:`~repro.common.errors.VerifyError` at the exact offending
primitive. It is the ground truth the static ``uninit-read`` pass is
property-tested against — static-clean programs must execute without a
raise; seeded violations must trip both.

``python -m repro verify`` checks every registered model's recorded layer
programs (see :mod:`repro.verify.cli`); CI runs it as the ``verify`` job.
"""

from repro.common.errors import VerifyError
from repro.verify.extract import (
    ModelPrograms,
    extract_model_programs,
    registered_models,
)
from repro.verify.facts import (
    EXECUTED,
    SKIPPED,
    Constraint,
    OpFacts,
    ProgramFacts,
    Region,
)
from repro.verify.lift import lift_calls, lift_isa_program, op_facts
from repro.verify.passes import (
    Finding,
    assert_clean,
    check_bounds,
    check_dead_writes,
    check_def_before_use,
    check_overlap,
    check_skips,
    check_tag_carry,
    verify_program,
)
from repro.verify.recorder import (
    ProgramRecorder,
    RecordedCall,
    record_programs,
)
from repro.verify.sanitizer import ShadowPlaneStore

__all__ = [
    "EXECUTED",
    "SKIPPED",
    "Constraint",
    "Finding",
    "ModelPrograms",
    "OpFacts",
    "ProgramFacts",
    "ProgramRecorder",
    "RecordedCall",
    "Region",
    "ShadowPlaneStore",
    "VerifyError",
    "assert_clean",
    "check_bounds",
    "check_dead_writes",
    "check_def_before_use",
    "check_overlap",
    "check_skips",
    "check_tag_carry",
    "extract_model_programs",
    "lift_calls",
    "lift_isa_program",
    "op_facts",
    "record_programs",
    "registered_models",
    "verify_program",
]
