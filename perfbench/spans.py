"""In-memory span recorder and the wrappers the traced run installs.

A span has a name, a start, an end, a parent span and a tag (the batch,
sweep or request it belongs to). Spans nest per thread: a wrapper opens a
span as a child of whatever span is open on the calling thread. Counts are
taken at the same wrappers. Nothing here touches the program until
:func:`install` is called, and :func:`install` returns an undo function
that puts every patched attribute back.

Self time of a span is its duration minus the durations of its direct
children; the reductions in :mod:`workloads` sum self time per name.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import Counter

#: Composites whose time is cross-array data movement and reduction.
#: Every composite is taken from the engine's own registry of program
#: steps (``bitserial._TRACED_METHODS``), so one it adds is wrapped too.
CROSS_ARRAY = ("move_across", "reduce_across_arrays")
#: PlaneStore primitives counted as ``engine.plane_ops``.
PLANE_PRIMITIVES = (
    "read_plane", "store_plane", "const_plane", "plane_not",
    "shift_plane", "plane_any", "move_plane", "load_bits", "dump_bits",
)
#: Periphery primitives counted as ``engine.plane_ops``.
PERIPHERY_PRIMITIVES = ("add_step",)


class Span:
    """One timed interval; ``parent`` is the enclosing span's index."""

    __slots__ = ("index", "name", "start", "end", "parent", "tid", "tag")

    def __init__(self, index, name, start, parent, tid, tag):
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tid = tid
        self.tag = tag

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans and counts, kept in memory until :meth:`write_chrome`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, tag=None) -> Span:
        """Open a span on this thread, nested under its open span."""
        stack = self._stack()
        parent = stack[-1].index if stack else None
        if tag is None and stack:
            tag = stack[-1].tag
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter(), parent,
                        threading.get_ident(), tag)
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def add(self, name: str, start: float, end: float, tag=None,
            parent: Span | None = None) -> Span:
        """Record a finished span with explicit times (not on a stack)."""
        with self._lock:
            span = Span(len(self.spans), name, start,
                        None if parent is None else parent.index,
                        threading.get_ident(), tag)
            self.spans.append(span)
        span.end = end
        return span

    def self_times(self) -> dict[int, float]:
        """Span index -> duration minus its direct children's durations."""
        own = {span.index: span.duration for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def write_chrome(self, path: str) -> None:
        """Write every span as Chrome trace-event JSON (Perfetto opens it)."""
        if not self.spans:
            return
        origin = min(span.start for span in self.spans)
        pid = os.getpid()
        events = [{"name": span.name, "ph": "X", "pid": pid,
                   "tid": span.tid,
                   "ts": round((span.start - origin) * 1e6, 3),
                   "dur": round(span.duration * 1e6, 3),
                   "args": {"tag": str(span.tag), "parent": span.parent}}
                  for span in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)


def _span_wrapper(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(span)
    return wrapper


def _composite_wrapper(recorder: Recorder, depth: threading.local, name: str,
                       fn):
    """Span and count a composite only when no composite encloses it."""
    counts = recorder.counts

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if getattr(depth, "value", 0):
            depth.value += 1
            try:
                return fn(self, *args, **kwargs)
            finally:
                depth.value -= 1
        counts["engine.bitserial_calls"] += 1
        depth.value = 1
        span = recorder.begin(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            recorder.end(span)
            depth.value = 0
    return wrapper


def _counting_wrapper(counts: Counter, key: str, fn, also: str | None = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        if also is not None:
            counts[also] += 1
        return fn(*args, **kwargs)
    return wrapper


class _Patcher:
    """Replace attributes and remember the originals."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__.get(attr)
        if original is None:
            return
        self.saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def _subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def install(recorder: Recorder):
    """Wrap the public calls of every layer; returns the undo function.

    Spans: ``engine.bitserial`` / ``engine.reduce_across`` (top-level
    ``FleetBitSerialUnit`` composites), ``engine.shard``
    (``ShardedBackend.run_requests``), ``engine.pool_stage`` /
    ``engine.pool_dispatch`` (``ShardWorkerPool``), ``core.plan`` (layer
    engine constructors), ``core.conv`` / ``core.pool`` / ``core.add``
    (layer engine ``run_batch``), ``core.map`` / ``core.schedule``
    (``NeuralCacheSimulator`` construction / ``run`` and ``throughput``)
    and ``nn.golden`` (``ReferenceExecutor.run_output``).

    Counts: ``engine.bitserial_calls``, ``engine.plane_ops`` (PlaneStore
    and periphery primitives plus ``mux``) and ``engine.plane_any_calls``.
    """
    from repro.core import functional
    from repro.core.executor import NeuralCacheSimulator
    from repro.engine import bitserial, fleet, pool, sharding
    from repro.nn.reference import ReferenceExecutor

    patcher = _Patcher()
    counts = recorder.counts

    # One depth counter per thread for all composites: mac -> multiply
    # -> load_tag is one top-level call.
    depth = threading.local()
    for method in getattr(bitserial, "_TRACED_METHODS", ()):
        name = ("engine.reduce_across" if method in CROSS_ARRAY
                else "engine.bitserial")
        patcher.patch(bitserial.FleetBitSerialUnit, method,
                      lambda fn, name=name: _composite_wrapper(
                          recorder, depth, name, fn))

    for cls in _subclasses(fleet.PlaneStore):
        for method in PLANE_PRIMITIVES:
            also = "engine.plane_any_calls" if method == "plane_any" else None
            patcher.patch(cls, method,
                          lambda fn, also=also: _counting_wrapper(
                              counts, "engine.plane_ops", fn, also))
    for cls in _subclasses(fleet.FleetPeriphery):
        for method in PERIPHERY_PRIMITIVES:
            patcher.patch(cls, method,
                          lambda fn: _counting_wrapper(
                              counts, "engine.plane_ops", fn))
    patcher.patch(fleet, "mux",
                  lambda fn: _counting_wrapper(counts, "engine.plane_ops", fn))

    timed = [
        (sharding.ShardedBackend, "run_requests", "engine.shard"),
        (pool.ShardWorkerPool, "stage", "engine.pool_stage"),
        (pool.ShardWorkerPool, "dispatch", "engine.pool_dispatch"),
        (functional.FunctionalConv, "__init__", "core.plan"),
        (functional.FunctionalMaxPool, "__init__", "core.plan"),
        (functional.FunctionalAvgPool, "__init__", "core.plan"),
        (functional.FunctionalAdd, "__init__", "core.plan"),
        (functional.FunctionalConv, "run_batch", "core.conv"),
        (functional.FunctionalMaxPool, "run_batch", "core.pool"),
        (functional.FunctionalAvgPool, "run_batch", "core.pool"),
        (functional.FunctionalAdd, "run_batch", "core.add"),
        (NeuralCacheSimulator, "__init__", "core.map"),
        (NeuralCacheSimulator, "run", "core.schedule"),
        (NeuralCacheSimulator, "throughput", "core.schedule"),
        (ReferenceExecutor, "run_output", "nn.golden"),
    ]
    for owner, method, name in timed:
        patcher.patch(owner, method,
                      lambda fn, name=name: _span_wrapper(recorder, name, fn))
    return patcher.undo
