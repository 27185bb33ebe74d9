"""Recorder: capture FleetBitSerialUnit call sequences for lifting.

``engine/bitserial.py`` exposes a module-wide trace hook that reports
every *top-level* composite call (nested internals — ``mac``'s inner
``multiply``, ``multiply``'s inner ``load_tag`` — are suppressed, so a
recording is the program the *engine* wrote, at the granularity the
lifter models). :func:`record_programs` installs a
:class:`ProgramRecorder` for the duration of a ``with`` block; engines
need no changes — run them under the context manager and read the
recording afterwards.

Calls are grouped per unit (each layer engine drives its own
:class:`~repro.engine.bitserial.FleetBitSerialUnit`), and the caller can
:meth:`~ProgramRecorder.annotate` the stream with labels (e.g. the
executing layer's name) so a recording of a whole network run splits into
per-layer programs.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, NamedTuple

from repro.engine import bitserial
from repro.verify.facts import ProgramFacts
from repro.verify.lift import lift_calls

__all__ = ["ProgramRecorder", "RecordedCall", "record_programs"]


class RecordedCall(NamedTuple):
    """One top-level composite call, as the trace hook saw it."""

    method: str
    args: tuple[Any, ...]
    kwargs: dict[str, Any]


@dataclass
class _UnitTrace:
    """The call stream of one unit, with its geometry."""

    label: str
    rows: int
    cols: int
    calls: list[RecordedCall] = field(default_factory=list)


@dataclass
class ProgramRecorder:
    """Collects per-unit call streams; installable as the trace hook."""

    #: Sequence number -> trace, numbered in first-seen order. Units are
    #: told apart by identity, never by ``id()``: a collected unit's
    #: address may be reused by the next one, which would merge two
    #: programs into one.
    traces: dict[int, _UnitTrace] = field(default_factory=dict)
    _label: str = ""
    #: Live unit -> its sequence number (weak: recording keeps no fleet
    #: alive).
    _seq: weakref.WeakKeyDictionary[Any, int] = field(
        default_factory=weakref.WeakKeyDictionary)

    def annotate(self, label: str) -> None:
        """Label subsequently-seen *new* units (e.g. the current layer)."""
        self._label = label

    def __call__(self, unit: Any, method: str, args: tuple[Any, ...],
                 kwargs: dict[str, Any]) -> None:
        seq = self._seq.get(unit)
        if seq is None:
            seq = self._seq[unit] = len(self.traces)
            self.traces[seq] = _UnitTrace(self._label, unit.rows, unit.cols)
        trace = self.traces[seq]
        trace.calls.append(RecordedCall(method, args, dict(kwargs)))

    def programs(self) -> list[ProgramFacts]:
        """Lift every recorded unit's stream into the dataflow IR."""
        lifted = []
        for n, trace in enumerate(self.traces.values()):
            label = trace.label or f"unit-{n}"
            lifted.append(lift_calls(trace.calls, trace.rows, trace.cols,
                                     label=label))
        return lifted


@contextmanager
def record_programs() -> Iterator[ProgramRecorder]:
    """Record all composite calls made inside the block.

    Nesting restores the previous hook on exit, so recordings can wrap
    other recordings (the inner one wins while active).
    """
    recorder = ProgramRecorder()
    previous = bitserial.set_trace_hook(recorder)
    try:
        yield recorder
    finally:
        bitserial.set_trace_hook(previous)
