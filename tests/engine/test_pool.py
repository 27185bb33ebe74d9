"""The persistent pool driver: lane payloads, owned lifecycles.

Three contracts beyond the driver-equivalence suite (which the pool
driver passes against the serial driver in ``test_shard_driver.py``):

* **lane payloads** — a staged :class:`PoolShardWork` carries exactly
  its round-robin lane's images as one stacked ``uint8`` array, so a
  work's pickle holds that lane's bytes and none of the other lanes';
* **persistence** — worker PIDs are stable across consecutive
  ``run_requests`` batches (the pool never re-forks), and resolved
  weights keep a stable identity so the program broadcast happens once;
* **lifecycle** — the pool's only OS resources are its workers and
  their pipes: after normal close, ``Server.close`` with
  ``close_backends``, a worker crash, or a double close, no worker
  process remains, and the pool runs, heals and closes with shared
  memory unavailable;
* **ambient sanitizer** — workers inherit ``NEURALCACHE_SANITIZE`` when
  forked, so every fleet they build follows the parent's switch.
"""

import asyncio
import multiprocessing
import os
import pickle
import signal

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.config import NeuralCacheConfig
from repro.engine.backend import (
    deterministic_images,
    tiny_verification_network,
)
from repro.engine.pool import PoolShardWork
from repro.engine.sharding import ShardedBackend


@pytest.fixture(scope="module")
def tiny_net():
    return tiny_verification_network()


def assert_no_live_workers():
    """No pool worker process of this test process is still running."""
    assert [child for child in multiprocessing.active_children()
            if child.name.startswith("repro-shard-worker")] == []


def staged_works(backend, network, batch: int) -> list[PoolShardWork]:
    weights = backend._weights_for(network)
    images = deterministic_images(network, weights, 0, batch)
    return backend._pool.stage(network, images, weights)


def mismatched_work(tiny_net, shard: int = 0) -> PoolShardWork:
    """A hand-built lane whose images do not have the network's input
    shape — the mismatch ``stage()`` refuses, so only a work built
    past it reaches (and fails in) a worker."""
    other = tiny_verification_network(size=16)
    images = deterministic_images(
        other, ShardedBackend(shards=2)._weights_for(other), 0, 1)
    assert images[0].data.shape != tuple(tiny_net.input_shape)
    return PoolShardWork(
        shard=shard, batch=1, stride=2,
        images=np.stack([image.data for image in images]),
        scales=np.array([image.params.scale for image in images]),
        zero_points=np.array([image.params.zero_point
                              for image in images]),
        want_outputs=False)


class TestLanePayloads:
    def test_work_carries_only_its_lanes_images(self, tiny_net):
        with ShardedBackend(shards=2, driver="pool") as backend:
            weights = backend._weights_for(tiny_net)
            images = deterministic_images(tiny_net, weights, 0, 8)
            works = backend._pool.stage(tiny_net, images, weights)
        image_bytes = images[0].data.nbytes
        for work in works:
            lane = images[work.shard::2]
            assert work.count == len(lane) == 4
            assert work.images.dtype == np.uint8
            assert work.images.shape == (4, *tiny_net.input_shape)
            for stacked, image in zip(work.images, lane):
                assert np.array_equal(stacked, image.data)
            assert list(work.scales) == [im.params.scale for im in lane]
            assert list(work.zero_points) == [im.params.zero_point
                                              for im in lane]
            # The pickle holds this lane's 4 images, not the batch's 8.
            size = len(pickle.dumps(work))
            assert 4 * image_bytes < size < 8 * image_bytes

    def test_only_the_last_images_shard_wants_outputs(self, tiny_net):
        with ShardedBackend(shards=3, driver="pool") as backend:
            for batch in (1, 3, 4, 8):
                works = staged_works(backend, tiny_net, batch)
                assert [work.want_outputs for work in works] == [
                    k == (batch - 1) % 3 for k in range(3)]
                assert sum(work.count for work in works) == batch

    def test_stage_rejects_an_empty_batch(self, tiny_net):
        with ShardedBackend(shards=2, driver="pool") as backend:
            weights = backend._weights_for(tiny_net)
            with pytest.raises(SimulationError, match="at least one"):
                backend._pool.stage(tiny_net, [], weights)

    def test_work_lane_arithmetic(self):
        work = PoolShardWork(shard=1, batch=5, stride=3,
                             images=np.zeros((2, 2), np.uint8),
                             scales=np.ones(2),
                             zero_points=np.zeros(2, np.int64),
                             want_outputs=False)
        assert work.count == 2      # images 1 and 4 of 0..4


class TestPersistence:
    def test_pool_survives_batches_without_reforking(self, tiny_net):
        with ShardedBackend(shards=2, driver="pool") as backend:
            pids = backend.worker_pids()
            assert len(pids) == 2
            weights = backend._weights_for(tiny_net)
            images = deterministic_images(tiny_net, weights, 0, 5)
            for _ in range(3):
                outcome = backend.run_requests(tiny_net, images)
                assert len(outcome.responses) == 5
                assert backend.worker_pids() == pids

    def test_weights_identity_is_stable_across_batches(self, tiny_net):
        backend = ShardedBackend(shards=2)
        first = backend._weights_for(tiny_net)
        assert backend._weights_for(tiny_net) is first

    def test_shards_decoupled_from_config_sockets(self, tiny_net):
        config = NeuralCacheConfig()
        assert config.sockets == 2
        with ShardedBackend(config, shards=4, driver="pool") as backend:
            assert backend.shards == 4
            assert len(backend.worker_pids()) == 4
            result = backend.run(tiny_net, batch_size=5)
        reference = ShardedBackend(config, shards=4,
                                   driver="serial").run(tiny_net,
                                                        batch_size=5)
        assert result.report == reference.report
        assert result.shard_reports == reference.shard_reports

    def test_non_pool_drivers_expose_empty_lifecycle(self):
        backend = ShardedBackend(shards=2, driver="serial")
        assert backend.worker_pids() == ()
        backend.close()     # no-op, must not raise


class TestEmptyShardSkip:
    def test_pool_driver_idle_shards_match_serial(self, tiny_net):
        with ShardedBackend(shards=3, driver="pool") as backend:
            result = backend.run(tiny_net, batch_size=1)
        reference = ShardedBackend(shards=3, driver="serial").run(
            tiny_net, batch_size=1)
        assert result.report == reference.report
        assert result.shard_reports == reference.shard_reports
        assert [s.images for s in result.shard_reports] == [1, 0, 0]


class TestSanitizer:
    @pytest.mark.parametrize("switch", ["1", "0"])
    def test_environment_switch_reaches_workers(self, tiny_net,
                                                monkeypatch, switch):
        """A pool engine that reads a never-written operand trips the
        sanitizer in the workers exactly when the parent's environment
        arms it; both the patch and the switch cross the fork."""
        from repro.core.functional import FunctionalMaxPool
        from repro.engine.bitserial import FleetBitSerialUnit, Operand
        from repro.engine.packed import make_fleet

        original = FunctionalMaxPool.run_batch

        def reads_unwritten(self, xs):
            probe = FleetBitSerialUnit(
                make_fleet(1, rows=8, cols=self.config.geometry.array_cols))
            probe.read_values(Operand(0, 8))
            return original(self, xs)

        monkeypatch.setattr(FunctionalMaxPool, "run_batch", reads_unwritten)
        monkeypatch.setenv("NEURALCACHE_SANITIZE", switch)
        with ShardedBackend(shards=2, driver="pool") as backend:
            if switch == "1":
                with pytest.raises(SimulationError, match="VerifyError"):
                    backend.run(tiny_net, batch_size=4)
            else:
                assert backend.run(tiny_net,
                                   batch_size=4).verified_images == 4
        assert_no_live_workers()


class TestLifecycle:
    def test_normal_close_ends_every_worker(self, tiny_net):
        """The pool's only OS resources are its workers and pipes: a
        normal close ends every worker and closes every pipe."""
        backend = ShardedBackend(shards=2, driver="pool")
        backend.run(tiny_net, batch_size=4)
        pool = backend._pool
        workers = list(pool._workers)
        conns = list(pool._conns)
        backend.close()
        assert all(not worker.is_alive() for worker in workers)
        assert all(conn.closed for conn in conns)
        assert_no_live_workers()

    def test_no_shared_memory_needed(self, tiny_net, monkeypatch):
        """Payloads cross the pipes: with shared memory unavailable in
        the parent and (through the fork) in every worker, the pool
        runs batches, respawns a killed worker, re-dispatches its lane
        and closes — bit-exact with the serial driver throughout — and
        leaves ``/dev/shm`` as it found it."""
        from multiprocessing import shared_memory

        def no_shared_memory(*args, **kwargs):
            raise AssertionError("the pool must not use shared memory")

        monkeypatch.setattr(shared_memory, "SharedMemory",
                            no_shared_memory)
        shm = "/dev/shm"
        before = set(os.listdir(shm)) if os.path.isdir(shm) else set()
        reference = ShardedBackend(shards=2, driver="serial").run(
            tiny_net, batch_size=4)
        with ShardedBackend(shards=2, driver="pool") as backend:
            for _ in range(2):
                result = backend.run(tiny_net, batch_size=4)
                assert result.report == reference.report
                assert result.shard_reports == reference.shard_reports
            victim = backend.worker_pids()[1]
            os.kill(victim, signal.SIGKILL)
            result = backend.run(tiny_net, batch_size=4)
            assert result.report == reference.report
            assert result.verified_images == 4
            kinds = {event.kind for event in backend.recovery_events()}
            assert {"respawned", "redispatched"} <= kinds
            assert victim not in backend.worker_pids()
        assert_no_live_workers()
        after = set(os.listdir(shm)) if os.path.isdir(shm) else set()
        assert after <= before

    def test_double_close_and_closed_use(self, tiny_net):
        backend = ShardedBackend(shards=2, driver="pool")
        backend.close()
        backend.close()
        assert_no_live_workers()
        with pytest.raises(SimulationError, match="closed"):
            backend.run(tiny_net, batch_size=2)
        with pytest.raises(SimulationError, match="closed"):
            backend.worker_pids()

    def test_worker_crash_fails_loudly_and_sweeps(self, tiny_net):
        # max_retries=0 is fail-fast; the default budget recovers
        # instead (test_pool_supervision.py).
        backend = ShardedBackend(shards=2, driver="pool", max_retries=0)
        backend.run(tiny_net, batch_size=4)     # warm
        victim = backend.worker_pids()[1]
        os.kill(victim, signal.SIGKILL)
        with pytest.raises(SimulationError,
                           match=rf"worker 1 \(pid {victim}\) died"):
            backend.run(tiny_net, batch_size=4)
        # The crash teardown already ended the surviving worker.
        assert_no_live_workers()
        backend.close()     # idempotent after the crash teardown

    def test_stage_rejects_mismatched_images(self, tiny_net):
        with ShardedBackend(shards=2, driver="pool") as backend:
            weights = backend._weights_for(tiny_net)
            other = tiny_verification_network(size=16)
            wrong = deterministic_images(
                other, ShardedBackend(shards=2)._weights_for(other), 0, 2)
            with pytest.raises(SimulationError, match="expected the "
                                                      "network input"):
                backend._pool.stage(tiny_net, wrong, weights)
            # The rejection happened before any dispatch: still serving.
            assert backend.run(tiny_net, batch_size=4).verified_images == 4

    def test_worker_error_reports_without_killing_the_pool(self, tiny_net):
        with ShardedBackend(shards=2, driver="pool") as backend:
            backend.run(tiny_net, batch_size=4)
            pids = backend.worker_pids()
            with pytest.raises(SimulationError, match="failed"):
                backend._pool.dispatch([mismatched_work(tiny_net)])
            # The worker reported and kept serving: same PIDs, good runs.
            assert backend.worker_pids() == pids
            result = backend.run(tiny_net, batch_size=4)
            assert result.verified_images == 4

    def test_worker_error_drains_the_other_shards_replies(self, tiny_net):
        """One shard errors mid-dispatch while the others succeed.

        The successful shards' "done" replies are already in their
        pipes when the error raises; if they were not drained, the next
        dispatch would pair its fresh works with this batch's stale
        replies — silently wrong results for every later batch. The post-error
        batches here *vary in size*, so a stale reply (whose per-shard
        image count belongs to the poisoned batch) cannot masquerade as
        the fresh one.
        """
        reference = {n: ShardedBackend(shards=2, driver="serial").run(
                         tiny_net, batch_size=n) for n in (4, 6)}
        with ShardedBackend(shards=2, driver="pool") as backend:
            backend.run(tiny_net, batch_size=4)
            pids = backend.worker_pids()
            weights = backend._weights_for(tiny_net)
            images = deterministic_images(tiny_net, weights, 0, 4)
            works = backend._pool.stage(tiny_net, images, weights)
            with pytest.raises(SimulationError,
                               match="shard 0 failed"):
                backend._pool.dispatch([mismatched_work(tiny_net),
                                        works[1]])
            # Shard 1 ran its lane and replied; that reply must be gone
            # from the pipe, and the pool must still be bit-exact.
            assert backend.worker_pids() == pids
            for batch in (6, 4, 6):
                result = backend.run(tiny_net, batch_size=batch)
                assert result.report == reference[batch].report
                assert (result.shard_reports
                        == reference[batch].shard_reports)
                assert result.verified_images == batch

    def test_pool_warns_when_forking_with_threads(self, tiny_net):
        import threading

        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            with pytest.warns(RuntimeWarning, match="thread"):
                backend = ShardedBackend(shards=1, driver="pool")
            backend.close()
        finally:
            release.set()
            thread.join()

    def test_no_fork_platform_points_at_serial(self, monkeypatch):
        """Without the fork start method the pool fails loudly and names
        the driver that runs everywhere."""
        from repro.engine import pool as pool_module

        def no_fork(method):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(pool_module, "get_context", no_fork)
        with pytest.raises(SimulationError, match="driver='serial'"):
            ShardedBackend(shards=2, driver="pool")

    def test_server_close_backends_releases_the_pool(self, tiny_net):
        from repro.serving.server import Server

        backend = ShardedBackend(shards=2, verify=False, driver="pool")
        weights = backend._weights_for(tiny_net)
        images = deterministic_images(tiny_net, weights, 0, 6)
        expected = ShardedBackend(shards=2, verify=False).run_requests(
            tiny_net, images).responses

        async def drive():
            server = Server([backend], tiny_net, max_batch=4,
                            close_backends=True)
            async with server:
                responses = await asyncio.gather(
                    *(server.submit(image) for image in images))
            return responses

        responses = asyncio.run(drive())
        for got, want in zip(responses, expected):
            assert np.array_equal(got.data, want.data)
        assert backend._pool._closed
        assert_no_live_workers()

    def test_server_leaves_backends_open_by_default(self, tiny_net):
        from repro.serving.server import Server

        backend = ShardedBackend(shards=2, verify=False, driver="pool")
        weights = backend._weights_for(tiny_net)
        images = deterministic_images(tiny_net, weights, 0, 2)

        async def drive():
            async with Server([backend], tiny_net) as server:
                await asyncio.gather(
                    *(server.submit(image) for image in images))

        asyncio.run(drive())
        assert not backend._pool._closed
        backend.close()
