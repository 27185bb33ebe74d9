"""Persistent shard workers: warm executors fed over their pipes.

:class:`ShardWorkerPool` is the ``pool`` shard driver, the parallel
counterpart of the in-process ``serial`` reference. A naive process
driver would pay two costs per batch that have nothing to do with
computing: re-forking its workers, and pickling the full weight set
(the very bytes the fleets are about to compute on). Both would sit on
the serving path, recurring per coalesced batch.

The pool removes both. Workers are forked **once per
backend lifetime** and each holds warm program state — the network, the
resolved weights, the golden executor when verification is on, and a
:class:`~repro.engine.backend.FleetExecutor` on the same private packed
plane store as the serial driver — each socket's cache computes on its
own arrays, and only a batch's inputs and outputs cross between
processes (Sec. VI-B): one message each way per shard. Per batch, the
parent sends each worker a :class:`PoolShardWork` carrying the worker's
round-robin lane — image ``i`` of the batch goes to shard
``i % shards``, the assignment the serial driver uses — as one stacked
``uint8`` array plus per-image ``scale``/``zero_point`` arrays, and the
worker's ``done`` reply carries the lane's responses in the same form,
with the per-shard cycle report and (for the one shard that owns the
globally-last image) the small per-node outputs dict. Three arrays
pickle about 3x faster than a list of
:class:`~repro.nn.tensor.QuantizedTensor` objects. The same lanes and
the same shard-order merge are what keep the pool bit-exact and
shard-report-identical to the serial reference.

Supervision: every reply wait is bounded by ``reply_timeout_s`` — there
is no unbounded blocking ``recv`` anywhere — and every send
health-checks its worker first. A worker that dies or hangs mid-batch
is reaped (terminated, its pipe closed) and **respawned**; the works
its death orphaned are re-dispatched, under ``max_retries`` bounded
rounds with exponential backoff. If a respawn fails, the pool
**degrades**: the dead slot's lanes route to the surviving workers (a
lane carries its own images, so any warm worker can run any lane)
until no live worker remains. Losing every worker, or exhausting the
retry budget, tears the pool down loudly: a
:class:`~repro.common.errors.SimulationError` names the last failed
worker, its PID and whether it ``died`` or ``hung``. ``max_retries=0``
is fail-fast: the first dead or hung worker ends the pool. Recovery is
observable: :meth:`pop_recovery_events` returns the
:class:`RecoveryEvent` log, which the sharded backend republishes on
its ``ShardReport``. Re-execution of an orphaned lane is safe by
construction: the re-sent work is the parent's own copy of the lane's
images, and every driver is bit-exact, so a re-run returns identical
bytes.

A worker-*reported* error is gentler: the replies of every other
shard in the round are drained first (keeping the pipes level), the
error raises, and the pool keeps serving.

Sanitizer: every fleet a worker builds follows ``NEURALCACHE_SANITIZE``
(:func:`~repro.engine.packed.make_fleet`). Workers inherit the
environment when forked, and a respawn forks again, so the switch must
be set for the whole process, not around one call.

Chaos hooks: a seeded :class:`~repro.faults.plan.FaultPlan` makes the
workers inject the faults supervision exists to survive — ``kill``
(``os._exit`` mid-batch), ``delay`` (late reply) and ``drop`` (finish
the lane, never reply — indistinguishable from a hang upstream) — on a
deterministic schedule driven by the parent's per-slot send counters.

Lifecycle is explicit and owned by the pool: its only OS resources are
the worker processes and their pipes. ``close()`` drains (or, on the
crash path, terminates) the workers and closes the pipes; it is
idempotent.

Platform: workers are forked (they inherit the parent's modules, its
environment and the fault plan by address), so the pool driver needs
the ``fork`` start method — POSIX only, and unsafe to construct after
the owner process has started threads. Construction raises on
platforms without fork (pointing at ``driver='serial'``, which runs
everywhere) and warns if extra threads are already running.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from repro.common.errors import SimulationError
from repro.config import NeuralCacheConfig
from repro.engine.backend import BatchOutcome, FleetExecutor
from repro.faults.plan import FaultPlan
from repro.nn.graph import Network
from repro.nn.tensor import QuantParams, QuantizedTensor

__all__ = ["PoolShardWork", "RecoveryEvent", "ShardWorkerPool"]

#: Sleep before the first re-dispatch round, doubled on each further one.
_RETRY_BACKOFF_S = 0.05


def _stack(tensors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Same-shape tensors as one stacked ``uint8`` array plus per-tensor
    ``scale`` and ``zero_point`` arrays — the form payloads cross the
    pipes in."""
    return (np.stack([tensor.data for tensor in tensors]),
            np.array([tensor.params.scale for tensor in tensors],
                     dtype=np.float64),
            np.array([tensor.params.zero_point for tensor in tensors],
                     dtype=np.int64))


def _unstack(data: np.ndarray, scales: np.ndarray,
             zero_points: np.ndarray) -> tuple[QuantizedTensor, ...]:
    """The tensors of a :func:`_stack` triple."""
    return tuple(
        QuantizedTensor(data=image, params=QuantParams(
            scale=float(scale), zero_point=int(zero)))
        for image, scale, zero in zip(data, scales, zero_points))


@dataclass(frozen=True, eq=False)
class PoolShardWork:
    """One shard's lane of a batch, carrying the lane's images.

    The lane is round-robin — ``range(shard, batch, stride)`` of the
    batch's image indices — and its images travel stacked: ``images``
    is ``(count, *input_shape)`` ``uint8`` with one ``scales`` and one
    ``zero_points`` entry per image. Only the lane's own images are
    carried, never the batch's.
    """

    #: Shard index, which is also the lane's first image index.
    shard: int
    #: Total images in the staged batch.
    batch: int
    #: Index stride of the lane (= the pool's shard count).
    stride: int
    #: The lane's images, stacked, and their quantization parameters.
    images: np.ndarray
    scales: np.ndarray
    zero_points: np.ndarray
    #: Whether this shard must ship the per-node outputs dict back over
    #: the pipe (true only for the shard owning the globally-last image).
    want_outputs: bool

    @property
    def count(self) -> int:
        """Images on this shard's lane."""
        return len(range(self.shard, self.batch, self.stride))


@dataclass(frozen=True)
class RecoveryEvent:
    """One self-healing action the supervised pool took."""

    #: Worker slot the event concerns.
    shard: int
    #: ``respawned``, ``redispatched`` or ``degraded``.
    kind: str
    #: Human-readable account (old/new PIDs, images re-dispatched, ...).
    detail: str

    def __str__(self) -> str:
        return f"worker {self.shard} {self.kind}: {self.detail}"


class _WorkerFailure(Exception):
    """Internal: a worker slot died or hung; carries who and how."""

    def __init__(self, slot: int, kind: str, pid: int | None):
        super().__init__(f"worker {slot} (pid {pid}) {kind}")
        self.slot = slot
        #: ``died`` (process gone / pipe broken) or ``hung`` (alive but
        #: silent past the reply timeout).
        self.kind = kind
        self.pid = pid


class _WorkerState:
    """Everything a pool worker keeps warm between batches."""

    def __init__(self):
        self.network = None
        self.weights = None
        self.executor = None
        self.golden = None

    def load_program(self, network, weights, config, verify, seed,
                     sparsity=False, precision=None) -> None:
        """(Re)build the warm executor for a broadcast program."""
        self.network = network
        self.weights = weights
        self.executor = FleetExecutor(
            config, weights=weights, seed=seed, verify=verify,
            sparsity=sparsity, precision=precision)
        self.golden = self.executor.golden_for(network, weights)

    def run(self, work: PoolShardWork) -> tuple:
        """Execute one lane; the ``done`` reply's fields after its tag."""
        if self.executor is None:
            raise SimulationError("pool worker has no program loaded")
        images = _unstack(work.images, work.scales, work.zero_points)
        outcome = self.executor.run_requests(self.network, images,
                                             self.weights, self.golden)
        outputs = outcome.outputs if work.want_outputs else None
        return (outcome.report, outcome.verified, outputs,
                *_stack(outcome.responses))


def _worker_main(conn, shard: int = 0,
                 fault_plan: FaultPlan | None = None) -> None:
    """A pool worker's whole life: serve messages, then clean up.

    ``fault_plan`` arms the chaos hooks: the plan's hardware model is
    installed process-globally (every fleet this worker builds runs on
    faulty arrays), and each ``run`` message's sequence number is
    checked against the plan's software faults — ``kill`` exits
    mid-batch, ``delay`` answers late, ``drop`` finishes the lane but
    never answers (upstream can only see that as a hang).
    """
    if fault_plan is not None and fault_plan.hardware is not None:
        from repro.faults.context import set_hardware_faults
        set_hardware_faults(fault_plan.hardware)
    state = _WorkerState()
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:  # pragma: no cover - parent vanished
                break
            kind = message[0]
            if kind == "close":
                break
            try:
                if kind == "program":
                    state.load_program(*message[1:])
                    conn.send(("ok",))
                elif kind == "run":
                    work, seq = message[1], message[2]
                    action = (fault_plan.pool_action(shard, seq)
                              if fault_plan is not None else None)
                    if action is not None and action.kind == "kill":
                        os._exit(17)
                    result = state.run(work)
                    if action is not None and action.kind == "drop":
                        continue
                    if action is not None and action.kind == "delay":
                        time.sleep(action.delay_s)
                    conn.send(("done", *result))
                else:
                    conn.send(("error", f"unknown message {kind!r}"))
            except Exception as exc:
                # Report-and-continue: a failed batch must not take the
                # warm worker down with it.
                try:
                    conn.send(("error", f"{type(exc).__name__}: {exc}"))
                except Exception:  # pragma: no cover - pipe gone too
                    break
    finally:
        conn.close()


class ShardWorkerPool:
    """A long-lived, self-healing pool of warm shard workers.

    Spawned eagerly at construction (one fork per shard, before any
    caller can have started threads), reused across every
    ``run``/``run_requests`` batch of its owning backend, and shut down
    exactly once — by :meth:`close`, which the backend's own ``close``
    (and the serving layer's ``Server.close(close_backends=True)``)
    calls.

    See the module docstring for the supervision contract (timeouts,
    health checks, respawn with re-dispatch, graceful degradation, and
    fail-fast at ``max_retries=0``).
    """

    def __init__(self, shards: int, config: NeuralCacheConfig,
                 verify: bool = True, seed: int = 0,
                 reply_timeout_s: float = 60.0,
                 max_retries: int = 2,
                 fault_plan: FaultPlan | None = None,
                 sparsity: bool = False, precision=None):
        if shards <= 0:
            raise SimulationError(
                f"shard count must be positive, got {shards}")
        if reply_timeout_s <= 0:
            raise SimulationError(
                f"reply timeout must be positive, got {reply_timeout_s}")
        if max_retries < 0:
            raise SimulationError(
                f"retry budget must be non-negative, got {max_retries}")
        if fault_plan is not None and not isinstance(fault_plan, FaultPlan):
            raise SimulationError(
                f"fault_plan must be a FaultPlan, got "
                f"{type(fault_plan).__name__}")
        self.shards = shards
        self.config = config
        self.verify = verify
        self.seed = seed
        self.reply_timeout_s = reply_timeout_s
        self.max_retries = max_retries
        self.fault_plan = fault_plan
        #: Executor knobs broadcast to every worker with the program:
        #: bit-plane sparsity skipping and the per-layer precision table
        #: (both scalar/small, O(1) pickle).
        self.sparsity = sparsity
        self.precision = precision
        self._program: tuple | None = None
        self._closed = False
        # Fork eagerly: workers must exist before the owner's process
        # ever starts threads (the serving executor does), and eager
        # spawn is what "no re-fork per batch" means. Fork is required
        # — workers inherit the parent's modules, environment and fault
        # plan — so the pool driver is POSIX-only (Linux/macOS).
        try:
            self._context = get_context("fork")
        except ValueError:
            raise SimulationError(
                "the pool shard driver needs the fork start method, "
                "which this platform does not support; use "
                "driver='serial' instead") from None
        if threading.active_count() > 1:
            warnings.warn(
                "ShardWorkerPool forks while this process already runs "
                f"{threading.active_count() - 1} extra thread(s); "
                "construct pool-driver backends before starting any "
                "threads (forking a multithreaded process is unsafe)",
                RuntimeWarning, stacklevel=3)
        self._conns: list = [None] * shards
        self._workers: list = [None] * shards
        #: Run messages sent per slot, ever — the fault plans' clock.
        self._sent = [0] * shards
        self._events: list[RecoveryEvent] = []
        for slot in range(shards):
            self._spawn(slot)

    # -- worker lifecycle --------------------------------------------------
    def _spawn(self, slot: int) -> None:
        """Fork one worker incarnation into ``slot``."""
        parent_conn, child_conn = self._context.Pipe()
        worker = self._context.Process(
            target=_worker_main,
            args=(child_conn, slot, self.fault_plan),
            name=f"repro-shard-worker-{slot}", daemon=True)
        worker.start()
        child_conn.close()
        self._conns[slot] = parent_conn
        self._workers[slot] = worker

    def _reap(self, slot: int) -> None:
        """Retire ``slot``'s incarnation: close its pipe, end it."""
        worker = self._workers[slot]
        conn = self._conns[slot]
        self._workers[slot] = None
        self._conns[slot] = None
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if worker is not None:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=5)
                if worker.is_alive():  # pragma: no cover - ignores TERM
                    worker.kill()
                    worker.join(timeout=5)
            else:
                worker.join(timeout=1)

    def _respawn(self, slot: int) -> bool:
        """Replace ``slot``'s incarnation; re-ship the current program.

        Returns ``False`` (slot left empty = degraded) if the fork or
        the program hand-off fails.
        """
        self._reap(slot)
        try:
            self._spawn(slot)
        except Exception:  # pragma: no cover - fork exhaustion
            self._workers[slot] = None
            self._conns[slot] = None
            return False
        if self._program is not None:
            _, network, weights = self._program
            try:
                self._send_raw(slot, self._program_message(network, weights))
                reply = self._recv_raw(slot)
                if reply[0] != "ok":
                    raise _WorkerFailure(slot, "died",
                                         self._workers[slot].pid)
            except _WorkerFailure:
                self._reap(slot)
                return False
        return True

    def _repair(self, failure: _WorkerFailure) -> None:
        """Respawn-or-degrade one failed slot; log what happened."""
        slot = failure.slot
        if self._respawn(slot):
            self._events.append(RecoveryEvent(
                shard=slot, kind="respawned",
                detail=f"pid {failure.pid} {failure.kind}; replaced by "
                       f"pid {self._workers[slot].pid}"))
        else:
            self._events.append(RecoveryEvent(
                shard=slot, kind="degraded",
                detail=f"pid {failure.pid} {failure.kind}; respawn "
                       f"failed, {len(self.live_shards())} live "
                       f"worker(s) remain"))

    # -- plumbing ----------------------------------------------------------
    def _check_alive(self) -> None:
        if self._closed:
            raise SimulationError("shard worker pool is closed")

    def _send_raw(self, slot: int, message: tuple) -> None:
        """Send one message; health-check first, never write dead pipes."""
        conn = self._conns[slot]
        worker = self._workers[slot]
        if conn is None or worker is None:
            raise _WorkerFailure(slot, "died", None)
        if not worker.is_alive():
            raise _WorkerFailure(slot, "died", worker.pid)
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            raise _WorkerFailure(slot, "died", worker.pid) from None

    def _recv_raw(self, slot: int) -> tuple:
        """One reply from a slot, bounded by the reply timeout.

        Polls in short slices so a worker that dies without closing its
        pipe end is noticed well before the timeout; a worker that is
        alive but silent past ``reply_timeout_s`` is a ``hung``
        failure — the unbounded blocking ``recv`` this replaces could
        wait on it forever.
        """
        conn = self._conns[slot]
        worker = self._workers[slot]
        if conn is None or worker is None:
            raise _WorkerFailure(slot, "died", None)
        deadline = time.monotonic() + self.reply_timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _WorkerFailure(slot, "hung", worker.pid)
            try:
                if conn.poll(min(remaining, 0.2)):
                    return conn.recv()
            except (EOFError, OSError):
                raise _WorkerFailure(slot, "died", worker.pid) from None
            if not worker.is_alive():
                # One last look: the reply may have been written before
                # the worker exited.
                try:
                    if conn.poll(0):
                        return conn.recv()
                except (EOFError, OSError):  # pragma: no cover
                    pass
                raise _WorkerFailure(slot, "died", worker.pid) from None

    def _unrecoverable(self, why: str) -> None:
        """Supervision gave up: tear down and raise."""
        self.close(drain=False)
        raise SimulationError(f"pool {why}; pool shut down")

    def _program_message(self, network: Network, weights) -> tuple:
        """The ``program`` message, fields in the order
        :meth:`_WorkerState.load_program` takes them."""
        return ("program", network, weights, self.config, self.verify,
                self.seed, self.sparsity, self.precision)

    def _broadcast_program(self, network: Network, weights) -> None:
        """Ship the program once per (network, weights) identity.

        Strong references to the broadcast pair are kept, so the
        ``id()``-keyed cache can never alias a collected object (the
        same guard the analytic backend's simulator cache uses).
        Workers that fail mid-broadcast are repaired (a respawn re-ships
        the program itself); a worker-*reported* program error unsets
        the cache so the next stage() converges every worker again.
        """
        key = (id(network), id(weights))
        if self._program is not None and self._program[0] == key:
            return
        self._program = None
        message = self._program_message(network, weights)
        sent = []
        failures = []
        errors = []
        for slot in self.live_shards():
            try:
                self._send_raw(slot, message)
                sent.append(slot)
            except _WorkerFailure as failure:
                failures.append(failure)
        for slot in sent:
            try:
                reply = self._recv_raw(slot)
            except _WorkerFailure as failure:
                failures.append(failure)
                continue
            if reply[0] == "error":
                errors.append((slot, reply[1]))
        # Set before repairing: _respawn re-ships the cached program.
        self._program = (key, network, weights)
        for failure in failures:
            self._repair(failure)
        if not self.live_shards():
            self._unrecoverable("lost every shard worker")
        if errors:
            self._program = None
            raise SimulationError("pool " + "; ".join(
                f"shard {slot} failed: {msg}" for slot, msg in errors))

    # -- the batch surface -------------------------------------------------
    def stage(self, network: Network, images, weights) -> list[PoolShardWork]:
        """Check a batch and split it into per-shard lane works.

        Split from :meth:`dispatch` so tests can inspect exactly the
        works a dispatch would push through the pipes. Each work holds
        a strided view of one stacked copy of the batch; pickling it
        sends only the lane's images.
        """
        self._check_alive()
        self._broadcast_program(network, weights)
        images = list(images)
        if not images:
            raise SimulationError("pool stage needs at least one image")
        input_shape = tuple(network.input_shape)
        for index, image in enumerate(images):
            if tuple(image.data.shape) != input_shape:
                raise SimulationError(
                    f"image {index} has shape {image.data.shape}, "
                    f"expected the network input {input_shape}")
        data, scales, zero_points = _stack(images)
        batch = len(images)
        lanes = [slice(k, None, self.shards) for k in range(self.shards)]
        return [PoolShardWork(shard=k, batch=batch, stride=self.shards,
                              images=data[lane], scales=scales[lane],
                              zero_points=zero_points[lane],
                              want_outputs=k == (batch - 1) % self.shards)
                for k, lane in enumerate(lanes)]

    def _run_works(self, busy: list[PoolShardWork]) -> dict[int, tuple]:
        """Execute the busy lanes; one ``done`` reply per lane.

        Lanes route to live slots (a dead slot's lane goes to
        ``live[shard % len(live)]``), sends pair with FIFO receives per
        slot, and any slot that dies or hangs is repaired while its
        orphaned lanes re-dispatch on the next round — bounded by
        ``max_retries`` rounds with exponential backoff. A round that
        would exceed the budget tears the pool down instead, naming the
        last failed worker. Worker-*reported* errors never trigger
        recovery: the round is drained level, then the error raises with
        the pool still serviceable.
        """
        if not busy:
            return {}
        replies: dict[int, tuple] = {}
        pending = list(busy)
        attempt = 0
        while pending:
            live = self.live_shards()
            if not live:
                self._unrecoverable("lost every shard worker")
            live_set = set(live)
            routed: dict[int, list[PoolShardWork]] = {}
            for work in pending:
                target = (work.shard if work.shard in live_set
                          else live[work.shard % len(live)])
                routed.setdefault(target, []).append(work)
            failed: dict[int, _WorkerFailure] = {}
            for target, queue in routed.items():
                for work in queue:
                    self._sent[target] += 1
                    try:
                        self._send_raw(target,
                                       ("run", work, self._sent[target]))
                    except _WorkerFailure as failure:
                        failed[target] = failure
                        break
            errors = []
            answered: set[int] = set()
            for target, queue in routed.items():
                if target in failed:
                    continue
                for work in queue:
                    try:
                        reply = self._recv_raw(target)
                    except _WorkerFailure as failure:
                        failed[target] = failure
                        break
                    answered.add(id(work))
                    if reply[0] == "error":
                        errors.append((work.shard, reply[1]))
                    else:
                        replies[work.shard] = reply
            pending = []
            if failed:
                lost = [work
                        for target in failed
                        for work in routed[target]
                        if id(work) not in answered]
                retry = bool(lost) and not errors
                if retry and attempt >= self.max_retries:
                    # Name the worker: at max_retries=0 this is the
                    # fail-fast diagnosis of the first death or hang.
                    last = list(failed.values())[-1]
                    self._unrecoverable(
                        f"worker recovery exhausted after "
                        f"{self.max_retries} re-dispatch round(s); last "
                        f"failure: {last}")
                for target, failure in failed.items():
                    orphaned = sum(work.count for work in routed[target]
                                   if id(work) not in answered)
                    self._events.append(RecoveryEvent(
                        shard=target, kind="redispatched",
                        detail=f"{orphaned} image(s) re-dispatched "
                               f"after worker {target} (pid "
                               f"{failure.pid}) {failure.kind}"))
                    self._repair(failure)
                if retry:
                    attempt += 1
                    time.sleep(_RETRY_BACKOFF_S * 2 ** (attempt - 1))
                    pending = lost
            if errors:
                # Pipes are level (every sent message was answered or
                # its slot reaped), so the pool survives this raise.
                raise SimulationError("pool " + "; ".join(
                    f"shard {shard} failed: {msg}"
                    for shard, msg in errors))
        return replies

    def dispatch(self, works: list[PoolShardWork]) -> list:
        """Run staged works on the warm workers; outcomes in shard order.

        Empty lanes (``shards > batch``) are never sent — their idle
        outcomes are synthesized here, so idle workers cost nothing.
        """
        from repro.core.functional import CycleReport
        from repro.engine.sharding import ShardOutcome

        self._check_alive()
        replies = self._run_works([work for work in works if work.count])
        outcomes = []
        for work in works:
            if not work.count:
                outcomes.append(ShardOutcome(
                    shard=work.shard, images=0,
                    outcome=BatchOutcome(report=CycleReport(),
                                         responses=(), outputs=None,
                                         verified=0)))
                continue
            _, report, verified, outputs, *stacked = replies[work.shard]
            responses = _unstack(*stacked)
            outcomes.append(ShardOutcome(
                shard=work.shard, images=len(responses),
                outcome=BatchOutcome(report=report, responses=responses,
                                     outputs=outputs, verified=verified)))
        return outcomes

    def run(self, network: Network, images, weights) -> list:
        """Stage + dispatch one batch."""
        return self.dispatch(self.stage(network, images, weights))

    # -- observability -----------------------------------------------------
    def live_shards(self) -> tuple[int, ...]:
        """Slots currently holding a live worker."""
        return tuple(slot for slot in range(self.shards)
                     if self._conns[slot] is not None
                     and self._workers[slot] is not None)

    def worker_pids(self) -> tuple[int, ...]:
        """The live workers' PIDs — how tests pin "no re-fork" (and,
        under chaos, observe a respawn's fresh incarnation)."""
        self._check_alive()
        return tuple(self._workers[slot].pid
                     for slot in self.live_shards())

    def pop_recovery_events(self) -> tuple[RecoveryEvent, ...]:
        """Drain the recovery log (respawns, re-dispatches, degrades)."""
        events = tuple(self._events)
        self._events.clear()
        return events

    # -- lifecycle ---------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Shut the pool down; idempotent.

        ``drain`` asks workers to exit cleanly; the crash path passes
        ``False`` and terminates them. Either way every worker is joined
        and every pipe closed, so no process the pool started outlives
        it.
        """
        if self._closed:
            return
        self._closed = True
        for conn, worker in zip(self._conns, self._workers):
            if conn is None or worker is None:
                continue
            if drain:
                try:
                    conn.send(("close",))
                except (BrokenPipeError, OSError):
                    pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            worker.join(timeout=5 if drain else 0.5)
            if worker.is_alive():  # pragma: no cover - stuck worker
                worker.terminate()
                worker.join(timeout=5)

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
