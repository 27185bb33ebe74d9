"""Asyncio request queue: coalesce arrivals into batched fleet passes.

The paper's data-center claim (Sec. VI-B, Fig. 16) is about a *request
stream*, not one-off batch runs: a node keeps its sockets busy by
batching whatever is already waiting, spreading filter loading over
those images, while its headline latency is one image's (Sec. VI).
:class:`Server` is that frontend:

* :meth:`Server.submit` enqueues one image and returns an awaitable
  response — the request's network output tensor, bit-exact with the
  direct ``run_requests`` path;
* a batcher task is work-conserving: as soon as a backend is idle it
  takes the oldest queued requests, up to ``max_batch``, and never
  holds a request back to wait for company. Batches form only while
  every backend is busy and arrivals queue behind them, so under load
  the fleet passes fill up and at low load a request runs alone at
  once;
* each batch is dispatched to an idle backend from a **pool** (any
  objects with ``run_requests(network, images)``, e.g. one
  :class:`~repro.engine.sharding.ShardedBackend` per node) on a worker
  thread, so the event loop keeps accepting arrivals while fleets
  compute and up to ``len(backends)`` batches execute concurrently;
* per-request latency (submit -> response) and per-batch sizes are
  recorded, and :meth:`Server.report` reduces them to the serving
  numbers that matter: p50/p95/p99 tail latency and throughput.

Everything is deterministic given the arrival order: batches preserve
queue order, responses map back by position, and a response future is
resolved exactly once (double resolution would mean a duplicated
response — the counter is exposed so the smoke gate can fail on it).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.common.errors import SimulationError
from repro.engine.backend import BatchOutcome
from repro.nn.graph import Network


@runtime_checkable
class ServingBackend(Protocol):
    """Anything the server can drive: explicit images in, outcome out."""

    def run_requests(self, network: Network, images) -> BatchOutcome:
        """Execute ``images`` and return per-image responses in order."""
        ...  # pragma: no cover - protocol signature


@dataclass(frozen=True)
class ServingReport:
    """Tail latency and throughput of one serving run."""

    #: Requests submitted / responses delivered (equal unless lost).
    requests: int
    responded: int
    #: Responses whose future was already resolved (must stay 0).
    duplicates: int
    #: Batches dispatched and their mean size (the coalescing win).
    batches: int
    mean_batch: float
    #: Submit -> response latency percentiles, milliseconds.
    p50_ms: float
    p95_ms: float
    p99_ms: float
    #: Responses per second over the whole run (first submit -> last
    #: response).
    throughput_rps: float
    #: Wall-clock seconds from first submit to last response.
    wall_s: float
    #: Batch dispatches retried after a backend failure (appended with
    #: a default so pinned call sites predating the field keep working).
    retries: int = 0
    #: Requests that hit their per-request deadline before a response.
    expired: int = 0

    def summary(self) -> str:
        """A short human-readable account of the run."""
        text = (
            f"served {self.responded}/{self.requests} request(s) in "
            f"{self.batches} batch(es) (mean batch {self.mean_batch:.1f}) "
            f"-> {self.throughput_rps:.1f} req/s, latency p50 "
            f"{self.p50_ms:.1f} ms / p95 {self.p95_ms:.1f} ms / p99 "
            f"{self.p99_ms:.1f} ms"
        )
        if self.retries or self.expired:
            text += (
                f" [{self.retries} batch retry/ies, {self.expired} expired]"
            )
        return text


class _Request:
    """One queued image and the future its response resolves."""

    __slots__ = ("image", "future", "submitted_at")

    def __init__(self, image, future, submitted_at: float):
        self.image = image
        self.future = future
        self.submitted_at = submitted_at


class Server:
    """Batch-coalescing serving frontend over a pool of backends.

    Use as an async context manager::

        backends = [ShardedBackend(shards=2, driver="serial")]
        async with Server(backends, network, max_batch=8) as server:
            outputs = await asyncio.gather(
                *(server.submit(image) for image in images)
            )

    ``max_batch`` caps how many queued requests one fleet pass computes
    (the fold into the fleet's array axis). Dispatch is work-conserving:
    a backend that is idle takes whatever is queued at once, so requests
    coalesce only while every backend is busy. ``max_wait_ms`` is
    accepted and validated but delays nothing; it is kept only for
    callers that still pass it (the ``perfbench`` serving workload)
    and is due to be deleted once they stop.

    ``close_backends`` hands the pool's lifecycle to the server: after
    the drain, :meth:`close` also calls each backend's own ``close()``
    (backends without one are left alone). This is how a server over
    pool-driver :class:`~repro.engine.sharding.ShardedBackend` nodes —
    which hold one persistent worker pool across *all* ``submit``
    calls, instead of paying driver startup per coalesced batch —
    releases those workers and their pipes exactly once.

    Fault tolerance: ``max_retries`` re-dispatches a batch whose
    backend raised, after a short exponential backoff, on the next idle
    backend (the failed one goes to the back of the rotation) — with
    self-healing pool-driver backends underneath, a worker crash taken
    past the pool's own recovery budget still only costs a server-level
    retry, not the stream's responses. ``request_timeout_s`` is the
    per-request deadline: a ``submit`` whose response takes longer
    fails with a structured :class:`~repro.common.errors.SimulationError`
    (counted as ``expired``, never as a duplicate). A request that
    expires while still queued is dropped, never dispatched, so under
    overload it costs no fleet pass.
    """

    def __init__(
        self,
        backends: Sequence[ServingBackend],
        network: Network,
        max_batch: int = 8,
        max_wait_ms: float = 2.0,
        close_backends: bool = False,
        max_retries: int = 0,
        retry_backoff_s: float = 0.05,
        request_timeout_s: float | None = None,
    ):
        if not backends:
            raise SimulationError("serving needs at least one backend")
        for backend in backends:
            if not isinstance(backend, ServingBackend):
                raise SimulationError(
                    f"{type(backend).__name__} cannot serve: it has no "
                    f"run_requests(network, images) entry point"
                )
        if max_batch <= 0:
            raise SimulationError(
                f"max_batch must be positive, got {max_batch}"
            )
        if max_wait_ms < 0:
            raise SimulationError(
                f"max_wait_ms must be non-negative, got {max_wait_ms}"
            )
        if max_retries < 0:
            raise SimulationError(
                f"max_retries must be non-negative, got {max_retries}"
            )
        if retry_backoff_s < 0:
            raise SimulationError(
                f"retry_backoff_s must be non-negative, got {retry_backoff_s}"
            )
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise SimulationError(
                f"request_timeout_s must be positive, got {request_timeout_s}"
            )
        self.network = network
        self.max_batch = max_batch
        self.close_backends = close_backends
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.request_timeout_s = request_timeout_s
        self._backends = tuple(backends)
        # Lifecycle state (created by start(), torn down by close()).
        self._queue: deque[_Request] = deque()
        self._wake: asyncio.Event | None = None
        self._idle: asyncio.Queue | None = None
        self._batcher: asyncio.Task | None = None
        self._inflight: set[asyncio.Task] = set()
        self._closing = False
        self._started = False
        # Statistics.
        self._latencies: list[float] = []
        self._batch_sizes: list[int] = []
        self._requests = 0
        self._responded = 0
        self._duplicates = 0
        self._retries = 0
        self._expired = 0
        self._first_submit: float | None = None
        self._last_response: float | None = None

    # -- lifecycle --------------------------------------------------------
    async def start(self) -> "Server":
        """Start the batcher; requests can be submitted afterwards."""
        if self._started:
            raise SimulationError("server already started")
        self._started = True
        self._closing = False
        self._wake = asyncio.Event()
        self._idle = asyncio.Queue()
        for backend in self._backends:
            self._idle.put_nowait(backend)
        self._batcher = asyncio.create_task(self._run_batches())
        return self

    async def close(self) -> None:
        """Drain the queue, wait for in-flight batches, stop the batcher.

        Every request submitted before ``close`` still gets its
        response — draining flushes partial batches rather than
        dropping them. With ``close_backends`` the drained pool's
        backends are closed too (their own ``close`` is idempotent, so
        a caller that also closes them directly loses nothing).

        The shutdown sequence is exception-safe: even if the batcher
        task (or an in-flight batch await) raises, any request still
        queued is failed with a structured error instead of hanging its
        awaiter forever, and ``close_backends`` still releases the
        backends — a crashed batcher must not leak worker pools.
        """
        if not self._started:
            return
        self._closing = True
        self._wake.set()
        try:
            try:
                await self._batcher
            finally:
                if self._inflight:
                    await asyncio.gather(
                        *tuple(self._inflight), return_exceptions=True
                    )
                self._fail_pending()
        finally:
            self._started = False
            if self.close_backends:
                for backend in self._backends:
                    closer = getattr(backend, "close", None)
                    if closer is not None:
                        closer()

    def _fail_pending(self) -> None:
        """Fail every still-queued request with a structured error.

        On a clean close the batcher drains the queue first, so this is
        a no-op; it only bites when the batcher died early — the
        requests it stranded must reject loudly, not await forever.
        """
        while self._queue:
            request = self._queue.popleft()
            if not request.future.done():
                request.future.set_exception(
                    SimulationError(
                        "server closed before the request was dispatched"
                    )
                )

    async def __aenter__(self) -> "Server":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- the request surface ----------------------------------------------
    async def submit(self, image):
        """Enqueue one image; awaits and returns its network output.

        Submissions coalesce: whatever is queued when a backend becomes
        available executes as one fleet pass (up to ``max_batch``). With
        a backend idle, the request is dispatched at once, alone.

        With ``request_timeout_s`` set, a response that misses the
        deadline raises :class:`~repro.common.errors.SimulationError`
        naming the deadline; the request counts as ``expired`` and its
        (cancelled) future can never surface as a duplicate.
        """
        if not self._started or self._closing:
            raise SimulationError("server is not accepting requests")
        now = time.perf_counter()
        if self._first_submit is None:
            self._first_submit = now
        self._requests += 1
        future = asyncio.get_running_loop().create_future()
        self._queue.append(_Request(image, future, now))
        self._wake.set()
        if self.request_timeout_s is None:
            return await future
        try:
            return await asyncio.wait_for(future, self.request_timeout_s)
        except (TimeoutError, asyncio.TimeoutError):
            self._expired += 1
            raise SimulationError(
                f"request missed its {self.request_timeout_s:g}s deadline "
                f"(queued or executing too long)"
            ) from None

    # -- batching ---------------------------------------------------------
    async def _run_batches(self) -> None:
        while (work := await self._collect()) is not None:
            task = asyncio.create_task(self._execute(*work))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    async def _collect(self) -> tuple[ServingBackend, list[_Request]] | None:
        """Wait for a request, then for an idle backend; return that
        backend and the oldest live queued requests (up to
        ``max_batch``).

        Requests are awaited before a backend is taken: a batcher
        holding an idle backend over an empty queue would starve
        :meth:`_execute`'s retry, which waits on the same idle pool.
        Whatever queued while every backend was busy leaves together.
        A request whose deadline passed while it queued has a done
        (cancelled) future: it is dropped here, never computed, and a
        backend that finds only such requests goes back to the pool.

        Returns ``None`` when the server is closing and the queue is
        drained — the batcher's exit signal.
        """
        while True:
            while not self._queue:
                if self._closing:
                    return None
                self._wake.clear()
                await self._wake.wait()
            backend = await self._idle.get()
            # Only the batcher pops the queue, so it is still non-empty.
            batch = []
            while self._queue and len(batch) < self.max_batch:
                request = self._queue.popleft()
                if not request.future.done():
                    batch.append(request)
            if batch:
                return backend, batch
            self._idle.put_nowait(backend)

    async def _execute(self, backend: ServingBackend, batch) -> None:
        """Run one batch on a worker thread; resolve its futures.

        A backend exception is retried up to ``max_retries`` times with
        exponential backoff, each attempt on the next idle backend —
        the failed one returns to the back of the rotation first, so a
        multi-backend pool routes the retry around it. Re-running a
        batch is safe: every backend is bit-exact on the same images,
        and a request resolves its future exactly once.
        """
        images = [request.image for request in batch]
        loop = asyncio.get_running_loop()
        attempt = 0
        while True:
            try:
                outcome = await loop.run_in_executor(
                    None, backend.run_requests, self.network, images
                )
                break
            except Exception as exc:
                self._idle.put_nowait(backend)
                attempt += 1
                if attempt > self.max_retries:
                    for request in batch:
                        if not request.future.done():
                            request.future.set_exception(exc)
                    return
                self._retries += 1
                await asyncio.sleep(self.retry_backoff_s * 2 ** (attempt - 1))
                backend = await self._idle.get()
        self._idle.put_nowait(backend)
        now = time.perf_counter()
        self._batch_sizes.append(len(batch))
        self._last_response = now
        for request, response in zip(batch, outcome.responses):
            if request.future.cancelled():
                # The requester's deadline expired while we computed;
                # already counted there, and not a duplicate.
                continue
            if request.future.done():
                # A future resolved twice would be a duplicated
                # response; count it so the smoke gate can fail.
                self._duplicates += 1
                continue
            request.future.set_result(response)
            self._responded += 1
            self._latencies.append(now - request.submitted_at)

    # -- statistics -------------------------------------------------------
    def report(self) -> ServingReport:
        """Reduce the recorded run to tail latency and throughput."""
        latencies_ms = np.asarray(self._latencies) * 1e3
        if latencies_ms.size:
            p50, p95, p99 = np.percentile(latencies_ms, (50, 95, 99))
        else:
            p50 = p95 = p99 = 0.0
        wall = 0.0
        if self._first_submit is not None and self._last_response is not None:
            wall = self._last_response - self._first_submit
        return ServingReport(
            requests=self._requests,
            responded=self._responded,
            duplicates=self._duplicates,
            batches=len(self._batch_sizes),
            mean_batch=(
                float(np.mean(self._batch_sizes)) if self._batch_sizes else 0.0
            ),
            p50_ms=float(p50),
            p95_ms=float(p95),
            p99_ms=float(p99),
            throughput_rps=self._responded / wall if wall > 0 else 0.0,
            wall_s=wall,
            retries=self._retries,
            expired=self._expired,
        )
