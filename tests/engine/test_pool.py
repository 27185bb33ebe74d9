"""The persistent pool driver: zero-copy payloads, owned lifecycles.

Three contracts beyond the driver-equivalence suite (which the pool
driver passes against the serial driver in ``test_shard_driver.py``):

* **O(1) work units** — a staged :class:`PoolShardWork` pickles to a
  size independent of batch size and image resolution, because image
  payloads travel through the shared arenas, never through the pipes;
* **persistence** — worker PIDs are stable across consecutive
  ``run_requests`` batches (the pool never re-forks), and resolved
  weights keep a stable identity so the program broadcast happens once;
* **lifecycle** — after normal close, ``Server.close`` with
  ``close_backends``, a worker crash, or a double close, nothing the
  pool ever created remains in ``/dev/shm`` (asserted by scope scan and
  by segment re-attach failure);
* **ambient sanitizer** — workers inherit ``NEURALCACHE_SANITIZE`` when
  forked, so every fleet they build follows the parent's switch.
"""

import asyncio
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
from repro.engine.shared import SHM_DIR, SharedSegment, shared_segment_stats
from repro.engine.sharding import ShardedBackend


@pytest.fixture(scope="module")
def tiny_net():
    return tiny_verification_network()


def scope_segments(scope: str) -> list[str]:
    """Segments under a pool's scope still linked in /dev/shm."""
    return [entry for entry in os.listdir(SHM_DIR)
            if entry.startswith(scope)]


def assert_no_segment_leaks():
    """Every close path must leave the global segment ledger clean: no
    open mappings and no orphaned files under this process's token in
    /dev/shm."""
    assert shared_segment_stats().check() == []


def staged_works(backend, network, batch: int) -> list[PoolShardWork]:
    weights = backend._weights_for(network)
    images = deterministic_images(network, weights, 0, batch)
    return backend._pool.stage(network, images, weights)


class TestZeroCopyPayloads:
    def test_pickle_size_independent_of_batch(self, tiny_net):
        with ShardedBackend(shards=2, driver="pool") as backend:
            sizes = {batch: max(len(pickle.dumps(work))
                                for work in
                                staged_works(backend, tiny_net, batch))
                     for batch in (2, 8, 32)}
        assert max(sizes.values()) < 2048
        assert max(sizes.values()) - min(sizes.values()) <= 16

    def test_pickle_size_independent_of_resolution(self):
        small = tiny_verification_network(size=8)
        large = tiny_verification_network(size=16)
        with ShardedBackend(shards=2, driver="pool") as backend:
            small_size = max(len(pickle.dumps(work)) for work in
                             staged_works(backend, small, 4))
            large_size = max(len(pickle.dumps(work)) for work in
                             staged_works(backend, large, 4))
        # A 4x larger image payload must not show up in the work unit.
        assert abs(large_size - small_size) <= 16

    def test_work_lane_arithmetic(self):
        work = PoolShardWork(shard=1, batch=5, stride=3,
                             input_segment="a", output_segment="b",
                             input_shape=(2,), output_shape=(2,),
                             want_outputs=False)
        assert work.count == 2      # slots 1 and 4 of 0..4


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

        original = FunctionalMaxPool._run_fleet

        def reads_unwritten(self, taps, cols):
            probe = FleetBitSerialUnit(make_fleet(1, rows=8, cols=cols))
            probe.read_values(Operand(0, 8))
            return original(self, taps, cols)

        monkeypatch.setattr(FunctionalMaxPool, "_run_fleet", reads_unwritten)
        monkeypatch.setenv("NEURALCACHE_SANITIZE", switch)
        with ShardedBackend(shards=2, driver="pool") as backend:
            if switch == "1":
                with pytest.raises(SimulationError, match="VerifyError"):
                    backend.run(tiny_net, batch_size=4)
            else:
                assert backend.run(tiny_net,
                                   batch_size=4).verified_images == 4
        assert_no_segment_leaks()


class TestLifecycle:
    def test_normal_close_sweeps_every_segment(self, tiny_net):
        backend = ShardedBackend(shards=2, driver="pool")
        backend.run(tiny_net, batch_size=4)
        scope = backend._pool.scope
        arena = backend._pool._input.name
        assert scope_segments(scope)        # arenas exist while open
        backend.close()
        assert scope_segments(scope) == []
        assert_no_segment_leaks()
        with pytest.raises(Exception, match="does not exist"):
            SharedSegment.attach(arena)

    def test_double_close_and_closed_use(self, tiny_net):
        backend = ShardedBackend(shards=2, driver="pool")
        scope = backend._pool.scope
        backend.close()
        backend.close()
        assert scope_segments(scope) == []
        assert_no_segment_leaks()
        with pytest.raises(SimulationError, match="closed"):
            backend.run(tiny_net, batch_size=2)
        with pytest.raises(SimulationError, match="closed"):
            backend.worker_pids()

    def test_worker_crash_fails_loudly_and_sweeps(self, tiny_net):
        # max_retries=0 is fail-fast; the default budget recovers
        # instead (test_pool_supervision.py).
        backend = ShardedBackend(shards=2, driver="pool", max_retries=0)
        backend.run(tiny_net, batch_size=4)     # warm, arenas staged
        scope = backend._pool.scope
        victim = backend.worker_pids()[1]
        os.kill(victim, signal.SIGKILL)
        with pytest.raises(SimulationError,
                           match=rf"worker 1 \(pid {victim}\) died"):
            backend.run(tiny_net, batch_size=4)
        assert scope_segments(scope) == []
        backend.close()     # idempotent after the crash teardown
        assert_no_segment_leaks()

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
            bogus = PoolShardWork(
                shard=0, batch=2, stride=2,
                input_segment="repro-no-such-segment",
                output_segment="repro-no-such-segment",
                input_shape=(8, 8, 8), output_shape=(4, 4, 8),
                want_outputs=False)
            with pytest.raises(SimulationError, match="failed"):
                backend._pool.dispatch([bogus])
            # The worker reported and kept serving: same PIDs, good runs.
            assert backend.worker_pids() == pids
            result = backend.run(tiny_net, batch_size=4)
            assert result.verified_images == 4

    def test_worker_error_drains_the_other_shards_replies(self, tiny_net):
        """One shard errors mid-dispatch while the others succeed.

        The successful shards' "done" replies are already in their
        pipes when the error raises; if they were not drained, the next
        dispatch would pair its fresh works with this batch's stale
        replies and read arena slots while workers are still writing —
        silently wrong results for every later batch. The post-error
        batches here *vary in size*, so a stale reply (whose per-shard
        image count belongs to the poisoned batch) cannot masquerade as
        the fresh one.
        """
        from dataclasses import replace

        reference = {n: ShardedBackend(shards=2, driver="serial").run(
                         tiny_net, batch_size=n) for n in (4, 6)}
        with ShardedBackend(shards=2, driver="pool") as backend:
            backend.run(tiny_net, batch_size=4)
            pids = backend.worker_pids()
            weights = backend._weights_for(tiny_net)
            images = deterministic_images(tiny_net, weights, 0, 4)
            works = backend._pool.stage(tiny_net, images, weights)
            broken = replace(works[0],
                             input_segment="repro-no-such-segment")
            with pytest.raises(SimulationError,
                               match="shard 0 failed"):
                backend._pool.dispatch([broken, works[1]])
            # Shard 1 ran its lane and replied; that reply must be gone
            # from the pipe, and the pool must still be bit-exact.
            assert backend.worker_pids() == pids
            for batch in (6, 4, 6):
                result = backend.run(tiny_net, batch_size=batch)
                assert result.report == reference[batch].report
                assert (result.shard_reports
                        == reference[batch].shard_reports)
                assert result.verified_images == batch

    def test_open_pool_links_only_its_arenas(self, tiny_net):
        """Workers compute on private plane stores: while a pool is open
        after a batch, the only segments under its scope are the parent's
        input and output arenas."""
        with ShardedBackend(shards=2, driver="pool") as backend:
            backend.run(tiny_net, batch_size=4)
            pool = backend._pool
            assert sorted(scope_segments(pool.scope)) == sorted(
                [pool._input.name, pool._output.name])
        assert_no_segment_leaks()

    def test_workers_do_not_unlink_parent_segments(self, tiny_net):
        """Fork hands every worker the parent's owner handles; a worker
        starting, serving and exiting must leave the parent's segments
        linked."""
        segment = SharedSegment.create(64)
        try:
            with ShardedBackend(shards=2, driver="pool") as backend:
                backend.run(tiny_net, batch_size=2)
            # The workers exited; the parent's segment survives.
            SharedSegment.attach(segment.name).close()
        finally:
            segment.close()
        assert_no_segment_leaks()

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
        scope = backend._pool.scope
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
        assert scope_segments(scope) == []
        assert_no_segment_leaks()

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
