"""The self-healing pool: supervision, chaos plans, and fail-fast.

The supervised :class:`~repro.engine.pool.ShardWorkerPool` must survive
workers that die or go silent mid-batch — respawn them, re-dispatch the
orphaned lanes, and keep the batch bit-exact with the serial reference —
while ``max_retries=0`` is fail-fast (tear down loudly, end every
worker, name the worker, its PID and whether it died or hung).
"""

import multiprocessing
import os
import signal

import pytest

from repro.common.errors import SimulationError
from repro.engine.backend import tiny_verification_network
from repro.engine.pool import ShardWorkerPool
from repro.engine.sharding import ShardedBackend
from repro.faults import FaultPlan, PoolFault


@pytest.fixture(scope="module")
def tiny_net():
    return tiny_verification_network()


def assert_no_live_workers():
    """No pool worker process of this test process is still running."""
    assert [child for child in multiprocessing.active_children()
            if child.name.startswith("repro-shard-worker")] == []


def serial_reference(tiny_net, batch):
    return ShardedBackend(shards=2, driver="serial").run(
        tiny_net, batch_size=batch)


def assert_shards_match(result, reference):
    """Per-shard equality modulo the recovery log the chaos run grew."""
    from dataclasses import replace

    assert tuple(replace(s, recoveries=()) for s in result.shard_reports) \
        == reference.shard_reports


class TestSupervisedRecovery:
    def test_sigkill_between_batches_respawns_bit_exact(self, tiny_net):
        reference = serial_reference(tiny_net, 4)
        with ShardedBackend(shards=2, driver="pool") as backend:
            backend.run(tiny_net, batch_size=4)
            victim = backend.worker_pids()[1]
            os.kill(victim, signal.SIGKILL)
            result = backend.run(tiny_net, batch_size=4)
            assert result.report == reference.report
            assert_shards_match(result, reference)
            # A fresh incarnation took the slot.
            pids = backend.worker_pids()
            assert len(pids) == 2 and victim not in pids
            events = backend.recovery_events()
            kinds = {event.kind for event in events}
            assert "respawned" in kinds and "redispatched" in kinds
        assert_no_live_workers()

    def test_fault_plan_kill_heals_across_batches(self, tiny_net):
        reference = serial_reference(tiny_net, 4)
        plan = FaultPlan(pool=(PoolFault(kind="kill", shard=0, every=2),))
        with ShardedBackend(shards=2, driver="pool",
                            fault_plan=plan) as backend:
            for _ in range(3):
                result = backend.run(tiny_net, batch_size=4)
                assert result.report == reference.report
                assert_shards_match(result, reference)
            events = backend.recovery_events()
            assert any(event.kind == "respawned" for event in events)
        assert_no_live_workers()

    def test_drop_fault_recovers_via_the_reply_timeout(self, tiny_net):
        # The worker finishes the batch but never answers — the parent
        # can only see a hang, bounded by reply_timeout_s, and must
        # respawn + re-dispatch instead of waiting forever.
        reference = serial_reference(tiny_net, 4)
        plan = FaultPlan(pool=(PoolFault(kind="drop", shard=1, every=2),))
        with ShardedBackend(shards=2, driver="pool", fault_plan=plan,
                            reply_timeout_s=1.0) as backend:
            for _ in range(2):
                result = backend.run(tiny_net, batch_size=4)
                assert result.report == reference.report
            events = backend.recovery_events()
            assert any("hung" in event.detail for event in events)
        assert_no_live_workers()

    def test_delay_fault_needs_no_recovery(self, tiny_net):
        reference = serial_reference(tiny_net, 4)
        plan = FaultPlan(pool=(PoolFault(kind="delay", every=1,
                                         delay_s=0.05),))
        with ShardedBackend(shards=2, driver="pool",
                            fault_plan=plan) as backend:
            result = backend.run(tiny_net, batch_size=4)
            assert result.report == reference.report
            assert backend.recovery_events() == ()
        assert_no_live_workers()

    def test_respawn_failure_degrades_to_fewer_shards(self, tiny_net,
                                                      monkeypatch):
        reference = serial_reference(tiny_net, 4)
        with ShardedBackend(shards=2, driver="pool") as backend:
            backend.run(tiny_net, batch_size=4)
            pool = backend._pool

            def no_respawn(slot):
                ShardWorkerPool._reap(pool, slot)
                return False

            monkeypatch.setattr(pool, "_respawn", no_respawn)
            os.kill(backend.worker_pids()[1], signal.SIGKILL)
            # Slot 1's lane routes onto the surviving worker; the batch
            # still matches the serial reference exactly.
            result = backend.run(tiny_net, batch_size=4)
            assert result.report == reference.report
            assert pool.live_shards() == (0,)
            events = backend.recovery_events()
            assert any(event.kind == "degraded" for event in events)
        assert_no_live_workers()

    def test_recovery_exhaustion_tears_down_and_sweeps(self, tiny_net):
        with ShardedBackend(shards=2, driver="pool",
                            max_retries=0) as backend:
            backend.run(tiny_net, batch_size=4)
            pool = backend._pool
            # Every respawned worker is killed before it can answer.
            original = pool._send_raw

            def killing_send(slot, message, _orig=original):
                _orig(slot, message)
                if message[0] == "run":
                    os.kill(pool._workers[slot].pid, signal.SIGKILL)

            pool._send_raw = killing_send
            with pytest.raises(SimulationError,
                               match="recovery exhausted"):
                backend.run(tiny_net, batch_size=4)
            assert_no_live_workers()


class TestReporting:
    def test_shard_report_carries_recovery_events(self, tiny_net):
        plan = FaultPlan(pool=(PoolFault(kind="kill", shard=1, every=2),))
        with ShardedBackend(shards=2, driver="pool",
                            fault_plan=plan) as backend:
            backend.run(tiny_net, batch_size=4)     # arms seq counters
            result = backend.run(tiny_net, batch_size=4)
        recovered = [s for s in result.shard_reports if s.recoveries]
        assert recovered and recovered[0].shard == 1
        assert any(event.kind == "respawned"
                   for event in recovered[0].recoveries)
        assert "recovery:" in result.summary()

    def test_healthy_runs_report_no_recoveries(self, tiny_net):
        with ShardedBackend(shards=2, driver="pool") as backend:
            result = backend.run(tiny_net, batch_size=4)
        assert all(s.recoveries == () for s in result.shard_reports)
        assert "recovery:" not in result.summary()
        serial = serial_reference(tiny_net, 4)
        assert all(s.recoveries == () for s in serial.shard_reports)


class TestFailFastMode:
    def test_hung_worker_raises_instead_of_blocking_forever(self, tiny_net):
        """A silent worker must not block the parent.

        A deliberately sleeping worker (delay fault far past the reply
        timeout) must raise a SimulationError naming the shard, its PID
        and ``hung`` instead of hanging the parent.
        """
        plan = FaultPlan(pool=(PoolFault(kind="delay", shard=0, every=1,
                                         delay_s=30.0),))
        backend = ShardedBackend(shards=2, driver="pool", max_retries=0,
                                 fault_plan=plan, reply_timeout_s=0.5)
        pid = backend.worker_pids()[0]
        with pytest.raises(SimulationError,
                           match=rf"worker 0 \(pid {pid}\) hung; pool "
                                 rf"shut down"):
            backend.run(tiny_net, batch_size=4)
        assert_no_live_workers()
        backend.close()

    def test_killed_worker_fails_loudly(self, tiny_net):
        plan = FaultPlan(pool=(PoolFault(kind="kill", shard=1, every=2),))
        backend = ShardedBackend(shards=2, driver="pool", max_retries=0,
                                 fault_plan=plan)
        backend.run(tiny_net, batch_size=4)
        pid = backend.worker_pids()[1]
        with pytest.raises(SimulationError,
                           match=rf"worker 1 \(pid {pid}\) died"):
            backend.run(tiny_net, batch_size=4)
        assert_no_live_workers()
        backend.close()


class TestValidation:
    def test_supervision_parameters_are_validated(self):
        with pytest.raises(SimulationError, match="reply timeout"):
            ShardedBackend(shards=2, driver="pool", reply_timeout_s=0)
        with pytest.raises(SimulationError, match="retry budget"):
            ShardedBackend(shards=2, driver="pool", max_retries=-1)
        with pytest.raises(SimulationError, match="FaultPlan"):
            ShardedBackend(shards=2, driver="pool", fault_plan="chaos")
        assert_no_live_workers()

    def test_fault_plan_needs_the_pool_driver(self):
        plan = FaultPlan(pool=(PoolFault(kind="kill", every=2),))
        with pytest.raises(SimulationError, match="no injection points"):
            ShardedBackend(shards=2, driver="serial", fault_plan=plan)
