"""ShardedBackend: a sharded batch must be exactly the unsharded batch.

The properties pinned here are the ones the multi-socket scaling story
rests on (Sec. VI-B): for every shard count — dividing the batch or not,
even exceeding it — the round-robin sharded run is bit-exact and
cycle-report-identical to the unsharded ``fleet-packed`` run, covers
every image exactly once, and verifies every image against the golden
executor.
"""

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.config import NeuralCacheConfig
from repro.core.functional import CycleReport
from repro.engine.backend import (
    FleetExecutor,
    deterministic_images,
    get_backend,
    tiny_verification_network,
)
from repro.engine.sharding import ShardedBackend


@pytest.fixture(scope="module")
def tiny_net():
    return tiny_verification_network()


@pytest.fixture(scope="module")
def unsharded(tiny_net):
    """Unsharded fleet-packed reference results, keyed by batch size."""
    backend = get_backend("fleet-packed")
    return {batch: backend.run(tiny_net, batch_size=batch)
            for batch in (1, 4, 5)}


def assert_equivalent(sharded_result, reference, tiny_net):
    assert sharded_result.report == reference.report
    assert sharded_result.verified_images == reference.verified_images
    got = sharded_result.outputs[tiny_net.output_name]
    want = reference.outputs[tiny_net.output_name]
    assert np.array_equal(got.data, want.data)


class TestShardedEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_dividing_shard_counts(self, tiny_net, unsharded, shards):
        result = ShardedBackend(shards=shards).run(tiny_net, batch_size=4)
        assert_equivalent(result, unsharded[4], tiny_net)

    @pytest.mark.parametrize("shards", [3, 5, 6])
    def test_non_dividing_shard_counts(self, tiny_net, unsharded, shards):
        result = ShardedBackend(shards=shards).run(tiny_net, batch_size=4)
        assert_equivalent(result, unsharded[4], tiny_net)

    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_odd_batch(self, tiny_net, unsharded, shards):
        result = ShardedBackend(shards=shards).run(tiny_net, batch_size=5)
        assert_equivalent(result, unsharded[5], tiny_net)

    def test_more_shards_than_images(self, tiny_net, unsharded):
        """Surplus shards idle; the result is still exact."""
        result = ShardedBackend(shards=3).run(tiny_net, batch_size=1)
        assert_equivalent(result, unsharded[1], tiny_net)
        idle = [s for s in result.shard_reports if s.images == 0]
        assert len(idle) == 2
        for s in idle:
            assert s.report == CycleReport()

    @pytest.mark.parametrize("shards", [2, 3])
    def test_batched_shards_match_per_image_shards(self, tiny_net,
                                                   unsharded, shards):
        """Each shard runs its round-robin slice as one batched fleet
        pass; one ``run_requests`` call per image must be
        indistinguishable once the per-image reports are merged."""
        backend = ShardedBackend(shards=shards)
        weights = backend._weights_for(tiny_net)
        images = deterministic_images(tiny_net, weights, 0, 5)
        batched = backend.run_requests(tiny_net, images)
        loop = [backend.run_requests(tiny_net, [image])
                for image in images]
        assert len(batched.responses) == len(loop)
        for got, one in zip(batched.responses, loop):
            assert np.array_equal(got.data, one.responses[0].data)
        merged = CycleReport()
        for one in loop:
            merged = merged.merged(one.report)
        assert batched.report == merged
        assert batched.verified == sum(one.verified for one in loop) == 5
        # And the batched stream still matches the unsharded reference.
        assert batched.report == unsharded[5].report


class TestShardAssignment:
    def test_round_robin_image_counts(self, tiny_net):
        result = ShardedBackend(shards=3).run(tiny_net, batch_size=5)
        # 5 images round-robin over 3 shards: 2, 2, 1.
        assert [s.images for s in result.shard_reports] == [2, 2, 1]
        assert [s.shard for s in result.shard_reports] == [0, 1, 2]

    def test_shard_reports_sum_to_total(self, tiny_net):
        result = ShardedBackend(shards=3).run(tiny_net, batch_size=5)
        merged = CycleReport()
        for s in result.shard_reports:
            merged = merged.merged(s.report)
        assert merged == result.report
        assert sum(s.images for s in result.shard_reports) == 5

    def test_default_shard_count_is_config_sockets(self):
        config = NeuralCacheConfig()
        backend = ShardedBackend(config)
        assert backend.shards == config.sockets

    def test_config_propagates_to_every_shard(self, tiny_net):
        config = NeuralCacheConfig()
        backend = ShardedBackend(config, shards=2)
        assert backend.config is config
        # Every serial shard runs its slice on this one executor.
        executor = backend._executor
        assert executor.config is config
        assert executor.packed

    def test_bad_shard_count_rejected(self):
        with pytest.raises(SimulationError, match="shard count"):
            ShardedBackend(shards=0)
        with pytest.raises(SimulationError, match="shard count"):
            ShardedBackend(shards=-2)

    def test_bad_batch_rejected(self, tiny_net):
        with pytest.raises(SimulationError, match="batch size"):
            ShardedBackend(shards=2).run(tiny_net, batch_size=0)


class TestShardedResultSurface:
    def test_summary_shows_per_socket_cycles(self, tiny_net):
        text = ShardedBackend(shards=2).run(tiny_net,
                                            batch_size=3).summary()
        assert "shard 0: 2 image(s)" in text
        assert "shard 1: 1 image(s)" in text
        assert "verified bit-exact" in text and "3/3" in text

    def test_verify_off_counts_nothing(self, tiny_net):
        result = ShardedBackend(shards=2, verify=False).run(tiny_net,
                                                            batch_size=2)
        assert result.verified_images == 0
        assert not result.verify
        assert "verified" not in result.summary()

    def test_default_network_runs_end_to_end(self):
        backend = ShardedBackend(shards=2)
        result = backend.run(backend.default_network(), batch_size=2)
        assert result.verified_images == 2


class TestRegistryAndCli:
    def test_registered_names_resolve(self):
        sharded = get_backend("sharded")
        assert isinstance(sharded, ShardedBackend)
        assert sharded.name == "sharded"
        assert sharded._executor.packed

    def test_cli_sharded_run(self, capsys):
        from repro.__main__ import main

        assert main(["--backend", "sharded", "--batch", "3",
                     "--shards", "3"]) == 0
        out = capsys.readouterr().out
        assert "backend=sharded" in out
        assert "shard 2: 1 image(s)" in out
        assert "3/3" in out

    def test_cli_default_shards(self, capsys):
        from repro.__main__ import main

        assert main(["--backend", "sharded"]) == 0
        out = capsys.readouterr().out
        assert "shard 0" in out

    def test_cli_rejects_shards_without_sharded_backend(self, capsys):
        # The CLI hands --shards to the registry via BackendOptions, so
        # the rejection is the factory's own "does not take" message.
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["--backend", "fleet-packed", "--shards", "2"])
        assert "does not take a shard count" in capsys.readouterr().err

    def test_cli_rejects_shards_without_backend_mode(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["--shards", "2"])
        assert "--shards only applies" in capsys.readouterr().err

    def test_cli_rejects_bad_shard_count(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["--backend", "sharded", "--shards", "0"])
        assert "--shards must be positive" in capsys.readouterr().err


class TestPlanOncePerBatch:
    """Regression: the per-image loop must not re-plan layer mappings."""

    def test_batch_plans_each_layer_exactly_once(self, tiny_net,
                                                 monkeypatch):
        import repro.core.functional as functional
        from repro.core.mapping import map_conv, map_pool

        conv_calls: list[str] = []
        pool_calls: list[str] = []
        monkeypatch.setattr(
            functional, "map_conv",
            lambda config, name, *a, **k: (conv_calls.append(name)
                                           or map_conv(config, name,
                                                       *a, **k)))
        monkeypatch.setattr(
            functional, "map_pool",
            lambda config, name, *a, **k: (pool_calls.append(name)
                                           or map_pool(config, name,
                                                       *a, **k)))
        result = FleetExecutor().run(tiny_net, batch_size=4)
        assert result.verified_images == 4
        assert conv_calls == ["conv"]
        assert pool_calls == ["pool"]

    def test_sharded_plans_once_per_shard(self, tiny_net, monkeypatch):
        import repro.core.functional as functional
        from repro.core.mapping import map_conv

        conv_calls: list[str] = []
        monkeypatch.setattr(
            functional, "map_conv",
            lambda config, name, *a, **k: (conv_calls.append(name)
                                           or map_conv(config, name,
                                                       *a, **k)))
        backend = ShardedBackend(shards=2)
        backend.run(tiny_net, batch_size=4)
        backend.run(tiny_net, batch_size=3)
        # The serial driver's shards share one executor and its conv
        # staging cache: one plan for the backend, not per shard, batch
        # or image.
        assert conv_calls == ["conv"]
