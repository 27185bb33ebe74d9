"""Chaos under load: the serving gates hold while workers are killed.

The tentpole acceptance test lives here: a seeded fault plan kills pool
workers mid-stream while loadgen drives the server, and the run must
still come back no-lost / no-duplicate / bit-exact, with the recovery
visible in the backend's event log. The rest of the file covers the
server-level fault machinery in isolation (per-request deadlines, batch
retries, close hardening) with cheap fake backends.
"""

import asyncio

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.engine.backend import (
    BatchOutcome,
    FleetExecutor,
    deterministic_images,
    tiny_verification_network,
)
from repro.engine.sharding import ShardedBackend
from repro.faults import FaultPlan, PoolFault
from repro.serving import Server, run_load, run_serving_benchmark


@pytest.fixture(scope="module")
def tiny_net():
    return tiny_verification_network()


@pytest.fixture(scope="module")
def stream(tiny_net):
    executor = FleetExecutor(packed=True, verify=False)
    weights = executor.weights_for(tiny_net)
    images = deterministic_images(tiny_net, weights, 0, 12)
    expected = executor.run_requests(tiny_net, images, weights).responses
    return images, expected


class FakeBackend:
    """Echoes images back; optionally fails its first ``failures`` calls."""

    def __init__(self, failures: int = 0, delay_s: float = 0.0):
        self.failures = failures
        self.delay_s = delay_s
        self.calls = 0
        self.closed = False

    def run_requests(self, network, images):
        self.calls += 1
        if self.calls <= self.failures:
            raise SimulationError("backend blew up")
        if self.delay_s:
            import time
            time.sleep(self.delay_s)
        from repro.core.functional import CycleReport
        return BatchOutcome(report=CycleReport(),
                            responses=tuple(images), outputs=None,
                            verified=0)

    def close(self):
        self.closed = True


class TestChaosUnderLoad:
    def test_stream_survives_worker_kills_bit_exact(self, tiny_net,
                                                    stream):
        """The acceptance run: kills mid-stream, gates still hold."""
        images, expected = stream
        plan = FaultPlan(
            seed=7, pool=(PoolFault(kind="kill", shard=0, every=3),))
        backend = ShardedBackend(shards=2, verify=False, driver="pool",
                                 fault_plan=plan, reply_timeout_s=30.0)
        try:
            result = run_load([backend], tiny_net, images,
                              expected=expected, max_batch=4,
                              max_retries=1)
            assert result.ok
            assert result.lost == 0 and result.duplicates == 0
            assert result.matched == len(images)
            events = backend.recovery_events()
            assert any(event.kind == "respawned" for event in events)
        finally:
            backend.close()

    def test_benchmark_entry_point_reports_the_recoveries(self):
        plan = FaultPlan(
            seed=3, pool=(PoolFault(kind="kill", shard=0, every=2),))
        stats = run_serving_benchmark(
            n_requests=8, sockets=2, pool_size=1, max_batch=4,
            driver="pool", fault_plan=plan, reply_timeout_s=30.0,
            max_retries=1)
        assert stats["ok"]
        assert stats["recoveries"] > 0

    def test_fault_plan_rejected_off_the_pool_driver(self):
        plan = FaultPlan(pool=(PoolFault(kind="kill", every=2),))
        with pytest.raises(SimulationError, match="pool driver"):
            run_serving_benchmark(n_requests=4, driver="serial",
                                  fault_plan=plan)


class TestServerRetries:
    def test_failed_batch_retries_on_the_next_idle_backend(self, tiny_net):
        flaky, healthy = FakeBackend(failures=1), FakeBackend()
        images = [np.zeros((2, 2), dtype=np.uint8) for _ in range(4)]

        async def scenario():
            async with Server([flaky, healthy], tiny_net, max_batch=4,
                              max_retries=2) as server:
                return await asyncio.gather(
                    *(server.submit(image) for image in images)), server

        responses, server = asyncio.run(scenario())
        assert len(responses) == len(images)
        report = server.report()
        assert report.retries >= 1
        assert report.responded == len(images)
        assert report.duplicates == 0
        assert "retry" in report.summary()

    def test_retry_budget_exhaustion_fails_the_requests(self, tiny_net):
        flaky = FakeBackend(failures=10)

        async def scenario():
            async with Server([flaky], tiny_net, max_retries=1,
                              retry_backoff_s=0.0) as server:
                with pytest.raises(SimulationError, match="blew up"):
                    await server.submit(np.zeros((2, 2), dtype=np.uint8))

        asyncio.run(scenario())
        assert flaky.calls == 2     # the attempt plus one retry


class TestRequestDeadlines:
    def test_slow_response_expires_with_a_structured_error(self, tiny_net):
        slow = FakeBackend(delay_s=0.5)

        async def scenario():
            async with Server([slow], tiny_net, request_timeout_s=0.05) as server:
                with pytest.raises(SimulationError, match="deadline"):
                    await server.submit(np.zeros((2, 2), dtype=np.uint8))
                return server

        server = asyncio.run(scenario())
        report = server.report()
        assert report.expired == 1
        # The late result hit a cancelled future: never a duplicate.
        assert report.duplicates == 0
        assert "expired" in report.summary()

    def test_fast_responses_never_expire(self, tiny_net):
        backend = FakeBackend()

        async def scenario():
            async with Server([backend], tiny_net,
                              request_timeout_s=5.0) as server:
                await server.submit(np.zeros((2, 2), dtype=np.uint8))
                return server

        assert asyncio.run(scenario()).report().expired == 0


class TestCloseHardening:
    def test_batcher_crash_fails_pending_and_closes_backends(self,
                                                             tiny_net):
        backend = FakeBackend()

        async def scenario():
            server = Server([backend], tiny_net, close_backends=True)

            async def broken_collect():
                raise RuntimeError("batcher blew up")

            server._collect = broken_collect
            await server.start()
            pending = asyncio.ensure_future(
                server.submit(np.zeros((2, 2), dtype=np.uint8)))
            await asyncio.sleep(0.01)
            with pytest.raises(RuntimeError, match="batcher blew up"):
                await server.close()
            with pytest.raises(SimulationError,
                               match="closed before the request"):
                await pending

        asyncio.run(scenario())
        # The crash path still released the pool.
        assert backend.closed

    def test_clean_close_still_closes_backends_once(self, tiny_net):
        backend = FakeBackend()

        async def scenario():
            async with Server([backend], tiny_net,
                              close_backends=True) as server:
                await server.submit(np.zeros((2, 2), dtype=np.uint8))

        asyncio.run(scenario())
        assert backend.closed
