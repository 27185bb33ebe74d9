"""Model-based test of the serving frontend over gated fake backends.

Hypothesis drives a :class:`Server` through random interleavings of
submitted bursts, batch completions, batch failures (with
``max_retries`` 0 and 1), deadline expiries, close (after which a fresh
server takes over the same fakes) and submits to closed servers. Every
fake backend call reports its entry to the event loop and then blocks
until the machine opens its gate, so the machine, not the scheduler,
decides when a batch finishes; deadlines pass only when the machine
winds the loop's clock. A reference model tracks each request and
checks:

* every response is its own request's (the fakes echo the request
  objects, so identity is checked, not equality);
* nothing resolves twice;
* everything submitted before close resolves, with its response or a
  structured error whose cause the model allows;
* a request whose deadline passed while it was still queued never
  enters a backend: at close, the dispatched requests and those expired
  before dispatch are everything submitted, and together they are
  always a prefix of the submissions;
* a submit after close is refused;
* every batch is FIFO and at most ``max_batch``; a batch re-enters a
  backend only as the retry of a failure;
* work conservation: once the loop has settled, no request waits while
  a backend is idle.

After every step the loop is settled: it runs until every fake is
either held at its gate (its entry seen) or back in the server's idle
pool, no retry is waiting while a fake is idle, and no request is queued
while a fake is idle. A state that never settles is reported as the
work-conservation failure it is.
"""

import asyncio
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.common.errors import SimulationError
from repro.core.functional import CycleReport
from repro.engine.backend import BatchOutcome, tiny_verification_network
from repro.serving import Server

NETWORK = tiny_verification_network()
#: Per-request deadline. It passes only when the expire rule winds the
#: loop's clock, never while a step runs.
TIMEOUT_S = 60.0
#: How long the loop may take to settle before the step fails.
SETTLE_S = 1.0
FAILURE = "gated backend failed the batch"


class WindableLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock the machine can wind forward, so a
    deadline passes exactly when a rule says so."""

    def __init__(self):
        super().__init__()
        self.wound = 0.0

    def time(self) -> float:
        return super().time() + self.wound


class Call:
    """One backend call, held at its gate until the machine opens it."""

    def __init__(self, images):
        self.images = images
        self.batch: tuple[int, ...] = ()
        self.fail = False
        self.gate = threading.Event()

    def open(self, fail: bool = False) -> None:
        self.fail = fail
        self.gate.set()


class GatedBackend:
    """Echo backend: each call reports its entry on the event loop, then
    blocks until the machine opens its gate (or releases the backend)."""

    def __init__(self, loop, entries: list):
        self._loop = loop
        self._entries = entries
        self._lock = threading.Lock()
        self._calls: list[Call] = []
        self._released = False

    def release(self) -> None:
        """Open every call, present and future, so no thread stays
        blocked once the machine is done."""
        with self._lock:
            self._released = True
            for call in self._calls:
                call.gate.set()

    def run_requests(self, network, images):
        call = Call(tuple(images))
        with self._lock:
            self._calls.append(call)
            if self._released:
                call.gate.set()
        self._loop.call_soon_threadsafe(self._entries.append, call)
        if not call.gate.wait(timeout=30):
            raise SimulationError("the machine never opened the gate")
        if call.fail:
            raise SimulationError(FAILURE)
        return BatchOutcome(
            report=CycleReport(), responses=call.images, outputs=None, verified=0
        )


class ServerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.loop = WindableLoop()
        #: Calls the fakes reported that the model has not yet seen.
        self.entries: list[Call] = []
        #: Calls entered and not yet opened, in entry order.
        self.held: list[Call] = []
        self.backends: list[GatedBackend] = []
        self.server = None
        #: Servers already closed, for the submit-after-close rule.
        self.closed: list[Server] = []

    def run(self, coro):
        return self.loop.run_until_complete(coro)

    @initialize(
        backends=st.integers(1, 3),
        max_batch=st.integers(1, 4),
        max_retries=st.sampled_from([0, 1]),
    )
    def start(self, backends, max_batch, max_retries):
        self.backends = [
            GatedBackend(self.loop, self.entries) for _ in range(backends)
        ]
        self.max_batch = max_batch
        self.max_retries = max_retries
        self.open_server()

    def open_server(self) -> None:
        """Start a fresh server over the same fakes, with a fresh model."""
        # A long max_wait_ms: a batcher that waits for company while a
        # backend is idle stalls the settle instead of passing late.
        self.server = Server(
            self.backends,
            NETWORK,
            max_batch=self.max_batch,
            max_wait_ms=60_000,
            max_retries=self.max_retries,
            retry_backoff_s=0.0,
            request_timeout_s=TIMEOUT_S,
        )
        self.run(self.server.start())
        self.images: list = []
        self.tasks: list[asyncio.Task] = []
        #: id(request object) -> submission index.
        self.index: dict[int, int] = {}
        #: Requests whose batch has entered a backend.
        self.dispatched: set[int] = set()
        #: Requests whose deadline passed while they were still queued.
        self.expired_queued: set[int] = set()
        #: Per batch (its submission indices): attempts and failures.
        self.attempts: dict[tuple, int] = {}
        self.failures: dict[tuple, int] = {}
        #: Requests whose batch completed / failed past its retries.
        self.served: set[int] = set()
        self.doomed: set[int] = set()

    # -- settling -------------------------------------------------------
    def observe(self) -> None:
        """Move the fakes' new entries into ``held``, checking each
        batch's order, size and (for a re-entry) its retry budget."""
        while self.entries:
            call = self.entries.pop(0)
            batch = tuple(self.index[id(image)] for image in call.images)
            assert 0 < len(batch) <= self.max_batch, batch
            assert batch == tuple(range(batch[0], batch[0] + len(batch))), (
                f"batch {batch} is not a run of consecutive requests"
            )
            if batch in self.attempts:
                assert self.failures[batch] == self.attempts[batch], (
                    f"batch {batch} re-entered without failing"
                )
                assert self.attempts[batch] <= self.max_retries
                self.attempts[batch] += 1
            else:
                assert not self.dispatched.intersection(batch), (
                    f"batch {batch} overlaps an earlier batch"
                )
                self.dispatched.update(batch)
                self.attempts[batch] = 1
                self.failures[batch] = 0
            call.batch = batch
            self.held.append(call)
        # Threads report entries in any order; rules draw from a
        # deterministic one.
        self.held.sort(key=lambda call: call.batch)

    def stuck(self) -> str | None:
        """Why the loop has not settled, or ``None`` once it has."""
        server = self.server
        idle = server._idle.qsize()
        if len(self.held) + idle != len(self.backends):
            return "a backend call is starting or finishing"
        if idle and server._queue:
            return (
                f"{len(server._queue)} request(s) wait while "
                f"{idle} backend(s) are idle"
            )
        if idle and len(server._inflight) > len(self.held):
            return f"a retry waits while {idle} backend(s) are idle"
        return None

    async def settle(self) -> None:
        """Run the loop until :meth:`stuck` has no reason left; no sleep
        is taken as proof that anything happened."""
        give_up = time.monotonic() + SETTLE_S
        while True:
            # Let every step already scheduled run before judging.
            await asyncio.sleep(0)
            self.observe()
            reason = self.stuck()
            if reason is None:
                return
            if time.monotonic() > give_up:
                raise AssertionError(f"loop did not settle in {SETTLE_S}s: {reason}")
            await asyncio.sleep(0.001)

    def open(self, call: Call, fail: bool) -> None:
        self.held.remove(call)
        if fail:
            self.failures[call.batch] += 1
            if self.failures[call.batch] > self.max_retries:
                self.doomed.update(call.batch)
        else:
            self.served.update(call.batch)
        call.open(fail)

    async def drain_and_close(self) -> None:
        """Close the server, completing every held call until the drain
        has dispatched everything that was queued."""
        closing = asyncio.ensure_future(self.server.close())
        while True:
            await self.settle()
            if not self.held:
                break
            for call in list(self.held):
                self.open(call, fail=False)
        await asyncio.wait_for(closing, SETTLE_S)

    # -- rules ----------------------------------------------------------
    @rule(count=st.integers(1, 4))
    def submit(self, count):
        """Submit a burst of ``count`` requests in one loop turn."""
        for _ in range(count):
            image = np.full((2, 2), len(self.images), dtype=np.int32)
            self.index[id(image)] = len(self.images)
            self.images.append(image)
            self.tasks.append(self.loop.create_task(self.server.submit(image)))
        self.run(self.settle())

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def complete_batch(self, data):
        self.open(data.draw(st.sampled_from(self.held)), fail=False)
        self.run(self.settle())

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def fail_batch(self, data):
        self.open(data.draw(st.sampled_from(self.held)), fail=True)
        self.run(self.settle())

    def unanswered(self) -> list[asyncio.Task]:
        return [
            task
            for i, task in enumerate(self.tasks)
            if not task.done() and i not in self.served
        ]

    @precondition(lambda self: self.unanswered())
    @rule()
    def expire(self):
        """Wind the clock past every deadline: each request still
        queued, held or retrying fails with the deadline error."""
        answered = [
            task
            for i, task in enumerate(self.tasks)
            if not task.done() and i in self.served
        ]
        if answered:
            # Their responses are set; let the awaiting tasks take them.
            self.run(asyncio.wait(answered))
        waiting = self.unanswered()
        # The loop is settled, so no backend is idle while these queue:
        # nothing dispatches before their deadlines pass.
        self.expired_queued.update(
            i
            for i, task in enumerate(self.tasks)
            if not task.done() and i not in self.dispatched
        )
        self.loop.wound += TIMEOUT_S
        self.run(asyncio.wait(waiting))
        for task in waiting:
            with pytest.raises(SimulationError, match="deadline"):
                task.result()
        self.run(self.settle())

    @rule()
    def close(self):
        """Close the server (draining it), check that everything
        submitted resolved, then carry on with a fresh server."""
        self.run(self.drain_and_close())
        assert all(task.done() for task in self.tasks)
        assert self.dispatched | self.expired_queued == set(range(len(self.images)))
        self.outcomes_match_the_model()
        self.closed.append(self.server)
        self.open_server()

    @precondition(lambda self: self.closed)
    @rule(data=st.data())
    def submit_after_close(self, data):
        server = data.draw(st.sampled_from(self.closed))
        before = server.report().requests
        with pytest.raises(SimulationError, match="not accepting"):
            self.run(server.submit(np.zeros((2, 2), dtype=np.int32)))
        assert server.report().requests == before

    # -- invariants -----------------------------------------------------
    @invariant()
    def outcomes_match_the_model(self):
        responses = expired = 0
        for i, task in enumerate(self.tasks):
            if not task.done():
                continue
            error = task.exception()
            if error is None:
                assert task.result() is self.images[i], (
                    f"request {i} got another request's response"
                )
                assert i in self.served
                responses += 1
                continue
            assert isinstance(error, SimulationError), repr(error)
            if "deadline" in str(error):
                expired += 1
            else:
                assert str(error) == FAILURE and i in self.doomed, (
                    f"request {i} failed unexpectedly: {error}"
                )
        report = self.server.report()
        assert report.requests == len(self.tasks)
        assert report.duplicates == 0
        assert report.expired == expired
        # A response is counted when its future is set, a step before
        # the awaiting task finishes.
        assert report.responded >= responses
        if all(task.done() for task in self.tasks):
            assert report.responded == responses

    @invariant()
    def batches_leave_in_submission_order(self):
        # Concurrent batches may enter their backends in any order, but
        # once settled, the dispatched requests and those that expired
        # while queued are the oldest ones.
        left = self.dispatched | self.expired_queued
        assert left == set(range(len(left))), (
            f"dispatched {sorted(self.dispatched)}, expired while queued "
            f"{sorted(self.expired_queued)}: a newer request left before "
            f"an older one"
        )

    @invariant()
    def expired_requests_never_enter_a_backend(self):
        computed = self.dispatched & self.expired_queued
        assert not computed, (
            f"requests {sorted(computed)} entered a backend after their "
            f"deadline passed in the queue"
        )

    @invariant()
    def no_request_waits_while_a_backend_is_idle(self):
        assert self.stuck() is None

    def teardown(self):
        for backend in self.backends:
            backend.release()
        try:
            if self.server is not None:
                self.run(asyncio.wait_for(self.server.close(), SETTLE_S))
                for task in self.tasks:
                    if task.done():
                        task.exception()  # a failing run reports once, not per task
        finally:
            self.run(self.loop.shutdown_default_executor())
            self.loop.close()


ServerMachine.TestCase.settings = settings(
    max_examples=150,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    # The explain phase replays failing examples under a line tracer,
    # each stuck settle costing SETTLE_S: minutes, for notes only.
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
TestServerMachine = ServerMachine.TestCase
