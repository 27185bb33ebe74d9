"""The serving frontend: coalescing, exactness, tails, lifecycle.

Tests run their own event loops (``asyncio.run``) so the suite needs no
async plugin. The core property mirrors the shard-driver tests: however
arrivals are coalesced into batches and whichever pool backend runs
them, response ``i`` is bit-exact the direct ``run_requests`` output
for image ``i`` — serving changes wall-clock, never results.
"""

import asyncio
import contextlib
import math
import threading

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.engine.backend import (
    FleetExecutor,
    deterministic_images,
    tiny_verification_network,
)
from repro.engine.sharding import ShardedBackend
from repro.serving import (
    Server,
    ServingBackend,
    ServingReport,
    run_load,
    run_serving_benchmark,
)


@pytest.fixture(scope="module")
def tiny_net():
    return tiny_verification_network()


@pytest.fixture(scope="module")
def stream(tiny_net):
    """Eight deterministic images and their expected responses."""
    executor = FleetExecutor(packed=True, verify=False)
    weights = executor.weights_for(tiny_net)
    images = deterministic_images(tiny_net, weights, 0, 8)
    expected = executor.run_requests(tiny_net, images, weights).responses
    return images, expected


def make_backend(**kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("verify", False)
    return ShardedBackend(**kwargs)


class TestServerResponses:
    def test_burst_is_bit_exact_and_complete(self, tiny_net, stream):
        images, expected = stream
        result = run_load([make_backend()], tiny_net, images,
                          expected=expected, max_batch=4)
        assert result.ok
        assert result.lost == 0
        assert result.duplicates == 0
        assert result.matched == len(images)
        assert result.report.responded == len(images)

    def test_each_response_matches_its_own_request(self, tiny_net,
                                                   stream):
        """Responses must map back by request, not merely as a set."""
        images, expected = stream

        async def scenario():
            async with Server([make_backend()], tiny_net,
                              max_batch=3) as server:
                return await asyncio.gather(
                    *(server.submit(image) for image in images))

        responses = asyncio.run(scenario())
        for got, want in zip(responses, expected):
            assert np.array_equal(got.data, want.data)

    def test_pool_of_two_backends_still_exact(self, tiny_net, stream):
        images, expected = stream
        result = run_load([make_backend(), make_backend()], tiny_net,
                          images, expected=expected, max_batch=2)
        assert result.ok
        # max_batch 2 over 8 requests needs >= 4 dispatches; how arrivals
        # landed in batches is timing-dependent, correctness is not.
        assert result.report.batches >= 4

    @pytest.mark.parametrize("driver", ["serial", "pool"])
    def test_shard_drivers_under_serving(self, tiny_net, stream, driver):
        images, expected = stream
        with make_backend(driver=driver) as backend:
            result = run_load([backend], tiny_net, images,
                              expected=expected, max_batch=4)
        assert result.ok

    def test_spaced_arrivals_still_exact(self, tiny_net, stream):
        images, expected = stream
        result = run_load([make_backend()], tiny_net, images,
                          expected=expected, max_batch=4,
                          arrival_gap_ms=2.0)
        assert result.ok


class GatedBackend:
    """Runs ``inner`` only once ``gate`` is set, so the test decides how
    long the backend stays busy; ``entered`` is set when a call arrives
    and ``batches`` records each call's images in arrival order."""

    def __init__(self, inner):
        self.inner = inner
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.batches = []

    def run_requests(self, network, images):
        self.batches.append(list(images))
        self.entered.set()
        if not self.gate.wait(timeout=30):
            raise SimulationError("the test never opened the gate")
        return self.inner.run_requests(network, images)


@contextlib.asynccontextmanager
async def occupied(server, backend, image):
    """Hold ``backend`` busy on ``image``'s request (the yielded task)
    for the block; its gate opens when the block exits, however."""
    head = asyncio.ensure_future(server.submit(image))
    try:
        assert await asyncio.to_thread(backend.entered.wait, 2.0)
        yield head
    finally:
        backend.gate.set()


def assert_bit_exact(responses, expected):
    assert len(responses) == len(expected)
    for got, want in zip(responses, expected):
        assert np.array_equal(got.data, want.data)


class TestCoalescing:
    def test_burst_coalesces_to_max_batch(self, tiny_net, stream):
        """A burst queued behind a busy backend leaves, once it frees,
        as ceil(N / max_batch) FIFO batches of at most max_batch."""
        images, expected = stream
        backend = GatedBackend(make_backend())
        max_batch = 3
        burst = images[1:]

        async def scenario():
            async with Server([backend], tiny_net, max_batch=max_batch) as server:
                async with occupied(server, backend, images[0]) as head:
                    tasks = [
                        asyncio.ensure_future(server.submit(image)) for image in burst
                    ]
                    await asyncio.sleep(0)
                    assert len(backend.batches) == 1
                responses = await asyncio.gather(head, *tasks)
            return responses, server.report()

        responses, report = asyncio.run(scenario())
        assert_bit_exact(responses, expected)
        queued = backend.batches[1:]
        assert len(queued) == math.ceil(len(burst) / max_batch)
        assert all(len(batch) <= max_batch for batch in queued)
        flat = [image for batch in queued for image in batch]
        assert len(flat) == len(burst)
        assert all(got is want for got, want in zip(flat, burst))
        assert report.batches == 1 + len(queued)

    def test_single_request_dispatches_alone(self, tiny_net, stream):
        images, expected = stream
        result = run_load([make_backend()], tiny_net, images[:1],
                          expected=expected[:1], max_batch=8)
        assert result.ok
        assert result.report.batches == 1
        assert result.report.mean_batch == 1.0

    def test_close_flushes_partial_batch(self, tiny_net, stream):
        """Requests still queued behind a busy backend when close()
        begins are drained, not dropped: once the backend frees they
        leave in batches and every one gets its bit-exact response."""
        images, expected = stream
        backend = GatedBackend(make_backend())

        async def scenario():
            server = Server([backend], tiny_net, max_batch=2)
            await server.start()
            async with occupied(server, backend, images[0]) as head:
                # Three queue behind the busy backend, more than one
                # batch: the batcher must come back for the last one
                # after close began.
                tasks = [
                    asyncio.ensure_future(server.submit(image))
                    for image in images[1:4]
                ]
                await asyncio.sleep(0)
                closing = asyncio.ensure_future(server.close())
                await asyncio.sleep(0)
                assert not closing.done()
                assert not any(task.done() for task in tasks)
            await asyncio.wait_for(closing, 10.0)
            return await asyncio.gather(head, *tasks)

        responses = asyncio.run(scenario())
        assert_bit_exact(responses, expected[:4])
        assert [len(batch) for batch in backend.batches] == [1, 2, 1]


class TestWorkConservation:
    """An idle backend takes a queued request at once: max_wait_ms no
    longer holds a request back to wait for company."""

    def test_lone_request_on_an_idle_backend_runs_at_once(self, tiny_net, stream):
        images, expected = stream
        backend = make_backend()
        backend.run_requests(tiny_net, images[:1])  # warm the stagings

        async def scenario():
            async with Server(
                [backend], tiny_net, max_batch=8, max_wait_ms=5_000
            ) as server:
                return await asyncio.wait_for(server.submit(images[0]), 0.5)

        assert_bit_exact([asyncio.run(scenario())], expected[:1])

    def test_idle_backend_runs_a_request_while_another_is_busy(self, tiny_net, stream):
        images, expected = stream
        busy = GatedBackend(make_backend())
        idle = make_backend()
        idle.run_requests(tiny_net, images[:1])  # warm the stagings

        async def scenario():
            async with Server(
                [busy, idle], tiny_net, max_batch=8, max_wait_ms=5_000
            ) as server:
                async with occupied(server, busy, images[0]) as head:
                    second = await asyncio.wait_for(server.submit(images[1]), 0.5)
                return [await head, second]

        assert_bit_exact(asyncio.run(scenario()), expected[:2])
        assert len(busy.batches) == 1


class TestDeadlines:
    def test_request_expired_in_the_queue_is_never_computed(self, tiny_net, stream):
        """Requests whose deadline passes while they queue behind a busy
        backend are dropped, not handed to it once it frees; the next
        live request still runs."""
        images, expected = stream
        backend = GatedBackend(make_backend())
        backend.inner.run_requests(tiny_net, images[:1])  # warm the stagings

        async def scenario():
            async with Server(
                [backend], tiny_net, max_batch=4, request_timeout_s=0.25
            ) as server:
                async with occupied(server, backend, images[0]) as head:
                    queued = [
                        asyncio.ensure_future(server.submit(image))
                        for image in images[1:3]
                    ]
                    expired = await asyncio.gather(
                        head, *queued, return_exceptions=True
                    )
                live = await server.submit(images[3])
            return expired, live, server.report()

        expired, live, report = asyncio.run(scenario())
        for error in expired:
            assert isinstance(error, SimulationError)
            assert "deadline" in str(error)
        assert_bit_exact([live], expected[3:4])
        assert [len(batch) for batch in backend.batches] == [1, 1]
        assert backend.batches[0][0] is images[0]
        assert backend.batches[1][0] is images[3]
        assert report.expired == 3
        assert report.batches == 2


class TestReport:
    def test_report_counts_and_tails(self, tiny_net, stream):
        images, expected = stream
        result = run_load([make_backend()], tiny_net, images,
                          expected=expected, max_batch=4)
        report = result.report
        assert isinstance(report, ServingReport)
        assert report.requests == len(images)
        assert report.responded == len(images)
        assert report.batches >= 2
        assert 0 < report.p50_ms <= report.p95_ms <= report.p99_ms
        assert report.throughput_rps > 0
        assert report.wall_s > 0

    def test_summary_renders_the_serving_numbers(self, tiny_net, stream):
        images, expected = stream
        result = run_load([make_backend()], tiny_net, images,
                          expected=expected, max_batch=4)
        text = result.report.summary()
        assert "p50" in text and "p95" in text and "p99" in text
        assert "req/s" in text

    def test_empty_report_is_all_zero(self, tiny_net):
        server = Server([make_backend()], tiny_net)
        report = server.report()
        assert report.requests == 0
        assert report.p99_ms == 0.0
        assert report.throughput_rps == 0.0


class TestLifecycleAndValidation:
    def test_submit_before_start_rejected(self, tiny_net, stream):
        images, _ = stream
        server = Server([make_backend()], tiny_net)
        with pytest.raises(SimulationError, match="not accepting"):
            asyncio.run(server.submit(images[0]))

    def test_empty_pool_rejected(self, tiny_net):
        with pytest.raises(SimulationError, match="at least one backend"):
            Server([], tiny_net)

    def test_non_serving_backend_rejected(self, tiny_net):
        class NoRequests:
            pass

        with pytest.raises(SimulationError, match="cannot serve"):
            Server([NoRequests()], tiny_net)

    def test_bad_knobs_rejected(self, tiny_net):
        with pytest.raises(SimulationError, match="max_batch"):
            Server([make_backend()], tiny_net, max_batch=0)
        with pytest.raises(SimulationError, match="max_wait_ms"):
            Server([make_backend()], tiny_net, max_wait_ms=-1.0)

    def test_backend_failure_propagates_to_requests(self, tiny_net,
                                                    stream):
        images, _ = stream

        class Exploding:
            def run_requests(self, network, imgs):
                raise SimulationError("fleet diverged")

        async def scenario():
            async with Server([Exploding()], tiny_net,
                              max_batch=4) as server:
                return await asyncio.gather(
                    *(server.submit(image) for image in images[:2]),
                    return_exceptions=True)

        responses = asyncio.run(scenario())
        assert len(responses) == 2
        for response in responses:
            assert isinstance(response, SimulationError)

    def test_serving_backend_protocol(self):
        assert isinstance(make_backend(), ServingBackend)
        assert isinstance(FleetExecutor(), ServingBackend)


class TestServingBenchmark:
    def test_smoke_stats_are_gate_ready(self):
        stats = run_serving_benchmark(n_requests=8, sockets=2,
                                      pool_size=2, max_batch=4,
                                      driver="serial")
        assert stats["ok"]
        assert stats["responded"] == 8
        assert stats["lost"] == 0
        assert stats["duplicates"] == 0
        assert stats["bit_exact"]
        assert stats["throughput_rps"] > 0

    def test_experiment_reports_two_socket_counts(self):
        from repro.analysis import serving

        result = serving(n_requests=8)
        assert result.data["ok"]
        assert set(result.data["serving"]) == {1, 2}
        for stats in result.data["serving"].values():
            assert stats["ok"]
            assert stats["p99_ms"] >= stats["p50_ms"]
        # Analytic Fig. 16 curve: linear in sockets.
        t = result.data["analytic_throughput"]
        assert t[2] == pytest.approx(2 * t[1], rel=1e-9)

    def test_cli_serve_bench_quick(self, capsys):
        from repro.__main__ import main

        assert main(["serve-bench", "--quick", "--requests", "8",
                     "--pool", "1"]) == 0
        out = capsys.readouterr().out
        assert "Serving benchmark" in out
        assert "bit-exact=True" in out

    def test_cli_serve_bench_rejects_bad_sizes(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["serve-bench", "--requests", "0"])
        assert "--requests must be positive" in capsys.readouterr().err
