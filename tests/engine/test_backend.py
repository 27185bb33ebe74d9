"""The unified Backend protocol: analytic and functional engines behind
one run(network, batch_size) interface."""

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.core.functional import CycleReport
from repro.engine.backend import (
    AnalyticBackend,
    Backend,
    BackendOptions,
    BackendResult,
    FleetExecutor,
    available_backends,
    deterministic_images,
    get_backend,
    tiny_verification_network,
)


@pytest.fixture(scope="module")
def tiny_net():
    return tiny_verification_network()


class TestRegistry:
    def test_all_engines_registered(self):
        assert available_backends() == ("analytic", "fleet-packed",
                                        "sharded")

    def test_get_backend_resolves(self):
        assert isinstance(get_backend("analytic"), AnalyticBackend)
        packed = get_backend("fleet-packed")
        assert isinstance(packed, FleetExecutor)
        assert packed.packed is True and packed.name == "fleet-packed"

    def test_unknown_backend_rejected(self):
        """The unpacked store has no registry name; tests build it with
        ``FleetExecutor(packed=False)``."""
        for name in ("quantum", "fleet", "sharded-unpacked"):
            with pytest.raises(SimulationError, match="unknown backend"):
                get_backend(name)

    def test_engines_satisfy_protocol(self):
        for name in available_backends():
            assert isinstance(get_backend(name), Backend)

    @pytest.mark.parametrize("name", available_backends())
    def test_explicit_config_propagates(self, name):
        """Every registered factory must accept the config positionally
        and hand it to the engine it builds."""
        from repro.config import NeuralCacheConfig

        config = NeuralCacheConfig()
        backend = get_backend(name, config)
        assert backend.config is config

    @pytest.mark.parametrize("name", ["fleet-packed", "sharded"])
    def test_options_sparsity_propagates(self, name):
        backend = get_backend(name, options=BackendOptions(sparsity=True))
        assert backend.sparsity is True
        assert get_backend(name).sparsity is False
        if hasattr(backend, "shards"):
            assert backend._executor.sparsity is True

    @pytest.mark.parametrize("name", ["fleet-packed", "sharded"])
    def test_options_precision_propagates(self, name):
        from repro.core.precision import LayerPrecision

        table = LayerPrecision(default_bits=6)
        backend = get_backend(name,
                              options=BackendOptions(precision=table))
        assert backend.precision is table
        if hasattr(backend, "shards"):
            assert backend._executor.precision is table

    def test_options_shards_propagates(self):
        backend = get_backend("sharded", options=BackendOptions(shards=3))
        assert backend.shards == 3

    @pytest.mark.parametrize("name,options", [
        ("analytic", BackendOptions(sparsity=True)),
        ("analytic", BackendOptions(driver="pool")),
        ("fleet-packed", BackendOptions(driver="pool")),
        ("fleet-packed", BackendOptions(shards=2)),
        ("fleet-packed", BackendOptions(faults=object())),
        ("analytic", BackendOptions(shards=2)),
    ])
    def test_inapplicable_options_rejected(self, name, options):
        """A misplaced knob fails loudly instead of silently no-opping."""
        with pytest.raises(SimulationError, match="does not take"):
            get_backend(name, options=options)

    def test_analytic_precision_points_at_network(self):
        from repro.core.precision import LayerPrecision

        with pytest.raises(SimulationError, match="network.precision"):
            get_backend("analytic", options=BackendOptions(
                precision=LayerPrecision(default_bits=4)))

    def test_options_are_frozen(self):
        options = BackendOptions()
        with pytest.raises(Exception):
            options.sparsity = True


class TestAnalyticBackend:
    def test_run_matches_concrete_simulator(self):
        from repro.core.executor import NeuralCacheSimulator
        from repro.nn import build_inception_v3

        net = build_inception_v3()
        backend = AnalyticBackend()
        result = backend.run(net, batch_size=2)
        direct = NeuralCacheSimulator(net).run(2)
        assert result.backend == "analytic"
        assert result.batch_size == 2
        assert result.latency_s == direct.total_time
        assert result.energy_j == direct.total_energy
        assert result.inference.batch_size == 2

    def test_simulator_cached_per_network(self):
        from repro.nn import build_inception_v3

        net = build_inception_v3()
        backend = AnalyticBackend()
        assert backend.simulator(net) is backend.simulator(net)

    def test_simulator_cache_is_bounded(self):
        backend = AnalyticBackend()
        networks = [tiny_verification_network()
                    for _ in range(AnalyticBackend.CACHE_SIZE + 3)]
        for net in networks:
            backend.simulator(net)
        assert len(backend._simulators) == AnalyticBackend.CACHE_SIZE
        # The most recent network is still cached.
        assert backend.simulator(networks[-1]) is backend.simulator(
            networks[-1])

    def test_summary_renders_latency(self):
        from repro.nn import build_inception_v3

        backend = AnalyticBackend()
        text = backend.run(build_inception_v3()).summary()
        assert "latency" in text and "analytic" in text

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_bad_batch_rejected(self, tiny_net, batch_size):
        """Regression: the analytic engine used to accept batch <= 0 and
        return nonsense latency/throughput when called programmatically."""
        backend = AnalyticBackend()
        with pytest.raises(SimulationError, match="batch size"):
            backend.run(tiny_net, batch_size=batch_size)
        with pytest.raises(SimulationError, match="batch size"):
            backend.throughput(tiny_net, batch_size=batch_size)


class TestFleetExecutor:
    def test_run_verifies_bit_exact(self, tiny_net):
        backend = FleetExecutor()
        result = backend.run(tiny_net, batch_size=2)
        assert result.backend == "fleet-packed"
        assert result.verified_images == 2
        assert result.report.mac > 0
        assert result.outputs is not None
        assert tiny_net.output_name in result.outputs

    def test_outputs_match_golden_executor(self, tiny_net):
        from repro.nn import QuantizedTensor, ReferenceExecutor
        from repro.nn.reference import initialise_weights

        backend = FleetExecutor(seed=3)
        result = backend.run(tiny_net, batch_size=1)
        # Rebuild the deterministic image stream and check independently.
        weights = initialise_weights(tiny_net, seed=3)
        rng = np.random.default_rng(3)
        image = QuantizedTensor.from_real(
            rng.uniform(0, 6, tiny_net.input_shape), weights.input_params)
        expected = ReferenceExecutor(tiny_net, weights).run_output(image)
        got = result.outputs[tiny_net.output_name]
        assert np.array_equal(got.data, expected.data)

    def test_packed_store_matches_unpacked(self, tiny_net):
        unpacked = FleetExecutor(packed=False).run(tiny_net, batch_size=1)
        packed = FleetExecutor().run(tiny_net, batch_size=1)
        assert packed.backend == "fleet-packed"
        assert packed.verified_images == 1
        assert packed.report == unpacked.report
        got = packed.outputs[tiny_net.output_name]
        want = unpacked.outputs[tiny_net.output_name]
        assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_bad_batch_rejected(self, tiny_net, batch_size):
        with pytest.raises(SimulationError, match="batch size"):
            FleetExecutor().run(tiny_net, batch_size=batch_size)

    def test_default_network_is_functional_scale(self):
        backend = FleetExecutor()
        net = backend.default_network()
        result = backend.run(net)
        assert result.verified_images == 1

    def test_summary_renders_cycles(self, tiny_net):
        text = FleetExecutor().run(tiny_net).summary()
        assert "compute cycles" in text and "bit-exact" in text

    def test_summary_counts_verified_over_batch(self, tiny_net):
        text = FleetExecutor().run(tiny_net, batch_size=2).summary()
        assert "2/2" in text

    def test_verify_off_summary_omits_verification(self, tiny_net):
        result = FleetExecutor(verify=False).run(tiny_net, batch_size=2)
        assert result.verified_images == 0
        assert not result.verify
        assert "verified" not in result.summary()

    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_batched_matches_per_image_loop(self, tiny_net, packed,
                                            batch_size):
        """Folding the batch into the fleet axis changes wall-clock only:
        one ``run_requests`` call per image gives the same responses,
        the same merged cycle report and the same verification count."""
        backend = FleetExecutor(packed=packed)
        weights = backend.weights_for(tiny_net)
        images = deterministic_images(tiny_net, weights, 0, batch_size)
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
        assert batched.verified == sum(one.verified for one in loop)
        assert batched.verified == batch_size

    def test_batched_report_is_per_image_scaled(self, tiny_net):
        """Regression: a batched pass must not double-count per-image
        cycles — its report is exactly the single-image report summed
        once per image."""
        single = FleetExecutor().run(tiny_net, batch_size=1)
        batched = FleetExecutor().run(tiny_net, batch_size=6)
        expected = CycleReport()
        for _ in range(6):
            expected = expected.merged(single.report)
        assert batched.report == expected

    def test_plans_each_layer_once_per_batch(self, tiny_net, monkeypatch):
        """Regression: run() used to rebuild the FunctionalExecutor (and
        re-plan every layer's mapping) for every image of the batch."""
        from repro.core.functional import FunctionalExecutor

        built = []

        class CountingExecutor(FunctionalExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr("repro.engine.backend.FunctionalExecutor",
                            CountingExecutor)
        result = FleetExecutor().run(tiny_net, batch_size=4)
        assert result.verified_images == 4
        assert len(built) == 1


class TestBackendResult:
    def test_is_frozen(self):
        result = BackendResult(backend="x", network="n", batch_size=1)
        with pytest.raises(AttributeError):
            result.backend = "y"

    def test_requested_verification_is_explicit_even_at_zero(self):
        """Regression: a verify-on run that verified nothing used to be
        indistinguishable from a verify-off run in the summary."""
        requested = BackendResult(backend="x", network="n", batch_size=2,
                                  verify=True, verified_images=0)
        assert "0/2" in requested.summary()
        off = BackendResult(backend="x", network="n", batch_size=2)
        assert "verified" not in off.summary()


class TestConsumers:
    def test_experiments_use_the_protocol(self):
        from repro.analysis import experiments

        backend = experiments._backend()
        assert isinstance(backend, Backend)

    def test_cli_backend_mode(self, capsys):
        from repro.__main__ import main

        for name in available_backends():
            assert main(["--backend", name]) == 0
            out = capsys.readouterr().out
            assert f"backend={name} " in out
            if name != "analytic":
                assert "bit-exact" in out

    def test_cli_rejects_backend_with_experiment_names(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["table3", "--backend", "fleet-packed"])
        assert "takes no experiment names" in capsys.readouterr().err

    def test_cli_rejects_bad_batch(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["--backend", "fleet-packed", "--batch", "0"])
        assert "--batch must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--backend", "fleet"],
        ["--backend", "sharded-unpacked"],
        ["--backend", "fleet-packed", "--no-batched"],
        ["--backend", "fleet-packed", "--batched"],
    ])
    def test_cli_rejects_removed_backend_surface(self, capsys, argv):
        """The unpacked registry names and the batch-folding switch are
        gone: argparse rejects them with a usage error."""
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_cli_reports_engine_failure_without_usage_text(self, capsys,
                                                           monkeypatch):
        from repro import __main__ as cli
        from repro.common.errors import SimulationError

        class BrokenBackend:
            name = "fleet-packed"

            def default_network(self):
                from repro.engine.backend import tiny_verification_network
                return tiny_verification_network()

            def run(self, network, batch_size=1):
                raise SimulationError("functional output diverged")

        monkeypatch.setattr(cli, "get_backend",
                            lambda name, **kwargs: BrokenBackend())
        assert cli.main(["--backend", "fleet-packed"]) == 1
        err = capsys.readouterr().err
        assert "failed: functional output diverged" in err
        assert "usage:" not in err
