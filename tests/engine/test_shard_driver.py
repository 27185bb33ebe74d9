"""Shard drivers: the pool driver must be exactly the serial driver.

Running shard passes in parallel worker processes is only admissible
because results cannot depend on the driver. These tests pin that for
both drivers: bit-exact outputs, identical aggregate and per-shard
cycle reports, arrival-order responses, round-robin slices, and
end-to-end CLI propagation of ``--shard-driver``.
"""

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.config import NeuralCacheConfig
from repro.engine.backend import (
    BackendOptions,
    FleetExecutor,
    deterministic_images,
    get_backend,
    tiny_verification_network,
)
from repro.engine.sharding import SHARD_DRIVERS, ShardedBackend

CONCURRENT = [d for d in SHARD_DRIVERS if d != "serial"]


@pytest.fixture(scope="module")
def tiny_net():
    return tiny_verification_network()


@pytest.fixture(scope="module")
def serial_results(tiny_net):
    """Serial-driver reference results, keyed by (shards, batch)."""
    cases = [(2, 4), (2, 5), (3, 5), (3, 1)]
    return {(shards, batch): ShardedBackend(shards=shards,
                                            driver="serial").run(
                tiny_net, batch_size=batch)
            for shards, batch in cases}


def assert_driver_equivalent(result, reference, tiny_net):
    """The whole result surface must be indistinguishable from serial."""
    assert result.report == reference.report
    assert result.shard_reports == reference.shard_reports
    assert result.verified_images == reference.verified_images
    got = result.outputs[tiny_net.output_name]
    want = reference.outputs[tiny_net.output_name]
    assert np.array_equal(got.data, want.data)


class TestDriverEquivalence:
    @pytest.mark.parametrize("driver", CONCURRENT)
    @pytest.mark.parametrize("shards,batch", [(2, 4), (2, 5), (3, 5)])
    def test_bit_exact_and_report_identical(self, tiny_net, serial_results,
                                            driver, shards, batch):
        result = ShardedBackend(shards=shards, driver=driver).run(
            tiny_net, batch_size=batch)
        assert_driver_equivalent(result, serial_results[(shards, batch)],
                                 tiny_net)

    @pytest.mark.parametrize("driver", CONCURRENT)
    def test_more_shards_than_images(self, tiny_net, serial_results,
                                     driver):
        """Idle shards must not confuse a concurrent pool."""
        result = ShardedBackend(shards=3, driver=driver).run(tiny_net,
                                                             batch_size=1)
        assert_driver_equivalent(result, serial_results[(3, 1)], tiny_net)
        assert [s.images for s in result.shard_reports] == [1, 0, 0]


class TestRunRequests:
    """The serving entry point: explicit images, arrival-order responses."""

    @pytest.fixture(scope="class")
    def stream(self, tiny_net):
        executor = FleetExecutor()
        weights = executor.weights_for(tiny_net)
        images = deterministic_images(tiny_net, weights, 0, 7)
        direct = executor.run_requests(tiny_net, images, weights)
        return images, direct

    @pytest.mark.parametrize("driver", SHARD_DRIVERS)
    @pytest.mark.parametrize("shards", [2, 3])
    def test_responses_in_arrival_order(self, tiny_net, stream, driver,
                                        shards):
        images, direct = stream
        outcome = ShardedBackend(shards=shards,
                                 driver=driver).run_requests(tiny_net,
                                                             images)
        assert len(outcome.responses) == len(images)
        for got, want in zip(outcome.responses, direct.responses):
            assert np.array_equal(got.data, want.data)
        assert outcome.report == direct.report
        assert outcome.verified == len(images)

    def test_empty_stream(self, tiny_net):
        outcome = ShardedBackend(shards=2).run_requests(tiny_net, [])
        assert outcome.responses == ()
        assert outcome.verified == 0
        assert outcome.report.total == 0

    def test_fleet_executor_responses_match_outputs(self, tiny_net,
                                                    stream):
        images, direct = stream
        assert len(direct.responses) == len(images)
        # The last response is the last image's output-node tensor.
        assert np.array_equal(
            direct.responses[-1].data,
            direct.outputs[tiny_net.output_name].data)


class TestShardWorkUnits:
    def test_round_robin_assignment(self, tiny_net):
        """Image ``i`` runs on shard ``i % shards``: each shard's
        outcome holds exactly its slice of the stream."""
        backend = ShardedBackend(shards=3)
        weights = backend._weights_for(tiny_net)
        images = deterministic_images(tiny_net, weights, 0, 5)
        outcomes = backend._run_shards(tiny_net, images, weights)[0]
        assert [o.images for o in outcomes] == [2, 2, 1]
        direct = FleetExecutor().run_requests(
            tiny_net, [images[1], images[4]], weights)
        for got, want in zip(outcomes[1].outcome.responses,
                             direct.responses):
            assert np.array_equal(got.data, want.data)
        assert outcomes[1].outcome.report == direct.report

    def test_empty_shard_executes_to_idle_outcome(self, tiny_net):
        backend = ShardedBackend(shards=2)
        weights = backend._weights_for(tiny_net)
        images = deterministic_images(tiny_net, weights, 0, 1)
        outcome = backend._run_shards(tiny_net, images, weights)[0][1]
        assert outcome.images == 0
        assert outcome.outcome.report.total == 0
        assert outcome.outcome.responses == ()


class TestDriverSelection:
    def test_default_is_serial(self):
        assert ShardedBackend(shards=2).driver == "serial"

    def test_unknown_driver_rejected(self):
        with pytest.raises(SimulationError, match="shard driver"):
            ShardedBackend(shards=2, driver="gpu")

    @pytest.mark.parametrize("driver", SHARD_DRIVERS)
    def test_registry_plumbs_driver(self, driver):
        options = BackendOptions(driver=driver)
        backend = get_backend("sharded", options=options)
        assert isinstance(backend, ShardedBackend)
        assert backend.driver == driver

    def test_registry_default_driver_is_serial(self):
        assert get_backend("sharded").driver == "serial"

    @pytest.mark.parametrize("name", ["analytic", "fleet-packed"])
    def test_registry_rejects_driver_for_unsharded(self, name):
        with pytest.raises(SimulationError, match="shard driver"):
            get_backend(name, options=BackendOptions(driver="pool"))

    def test_driver_composes_with_config(self):
        config = NeuralCacheConfig()
        with get_backend("sharded", config,
                         BackendOptions(driver="pool")) as backend:
            assert backend.config is config
            assert backend.driver == "pool"


class TestCliPropagation:
    """The CLI layer must hand every knob to the constructed backend."""

    def _captured_backend(self, monkeypatch, argv):
        from repro.__main__ import main
        from repro.engine.backend import BackendResult

        seen = []

        def fake_run(backend_self, network, batch_size=1):
            seen.append(backend_self)
            return BackendResult(backend=backend_self.name,
                                 network=network.name,
                                 batch_size=batch_size)

        monkeypatch.setattr(ShardedBackend, "run", fake_run)
        assert main(argv) == 0
        assert len(seen) == 1
        return seen[0]

    def test_all_sharded_knobs_reach_the_backend(self, monkeypatch):
        backend = self._captured_backend(
            monkeypatch,
            ["--backend", "sharded", "--shards", "3",
             "--shard-driver", "pool", "--batch", "2"])
        assert backend.shards == 3
        assert backend.driver == "pool"

    def test_driver_survives_shards_rebuild(self, monkeypatch):
        backend = self._captured_backend(
            monkeypatch,
            ["--backend", "sharded", "--shards", "2",
             "--shard-driver", "pool"])
        assert backend.driver == "pool"
        assert backend.shards == 2

    def test_defaults_without_flags(self, monkeypatch):
        backend = self._captured_backend(monkeypatch,
                                         ["--backend", "sharded"])
        assert backend.driver == "serial"

    def test_cli_runs_serial_driver_end_to_end(self, capsys):
        from repro.__main__ import main

        assert main(["--backend", "sharded", "--batch", "3",
                     "--shards", "3", "--shard-driver", "serial"]) == 0
        out = capsys.readouterr().out
        assert "backend=sharded" in out
        assert "3/3" in out

    def test_cli_runs_pool_driver_end_to_end(self, capsys):
        from repro.__main__ import main

        assert main(["--backend", "sharded", "--batch", "3",
                     "--shards", "3", "--shard-driver", "pool"]) == 0
        out = capsys.readouterr().out
        assert "backend=sharded" in out
        assert "3/3" in out

    def test_cli_rejects_driver_for_unsharded_backend(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["--backend", "fleet-packed", "--shard-driver", "pool"])
        assert "shard driver" in capsys.readouterr().err

    def test_cli_rejects_driver_without_backend_mode(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["table3", "--shard-driver", "pool"])
        assert "--shard-driver only applies" in capsys.readouterr().err
