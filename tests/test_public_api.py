"""The package's public import surface stays intact and usable."""

import pytest

import repro


class TestPublicApi:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_headline_workflow(self):
        """The README quickstart, as a test."""
        result = repro.NeuralCacheSimulator(repro.build_inception_v3()).run()
        assert 3e-3 < result.total_time < 6e-3
        fractions = result.breakdown().fractions()
        assert max(fractions, key=fractions.get) == "filter_load"

    def test_backend_options_surface(self):
        """The consolidated construction surface is a public trio:
        options in, unified outcome types out."""
        for name in ("BackendOptions", "BatchOutcome", "LayerPrecision"):
            assert name in repro.__all__, name
            assert hasattr(repro, name), name
        options = repro.BackendOptions(sparsity=True)
        backend = repro.get_backend("fleet-packed", options=options)
        assert backend.sparsity is True

    def test_functional_entry_points_speak_batch_outcome(self):
        """run/run_requests share one return vocabulary — no bare
        tuples."""
        from repro.engine.backend import tiny_verification_network

        backend = repro.get_backend("fleet-packed")
        net = tiny_verification_network()
        weights = backend.weights_for(net)
        images = repro.engine.backend.deterministic_images(
            net, weights, 0, 2)
        outcome = backend.run_requests(net, images, weights)
        assert isinstance(outcome, repro.BatchOutcome)
        assert len(outcome.responses) == 2
        result = backend.run(net, batch_size=1)
        assert isinstance(result, repro.BackendResult)

    def test_subpackages_import(self):
        import repro.analysis
        import repro.baselines
        import repro.cache
        import repro.common
        import repro.core
        import repro.nn
        import repro.sram
        assert repro.analysis and repro.baselines and repro.cache
        assert repro.common and repro.core and repro.nn and repro.sram


class TestPaperConstantConsistency:
    """The published numbers form a consistent system; guard the copies in
    repro.analysis.paper against typos."""

    def test_energy_power_latency_triangle(self):
        from repro.analysis import paper
        # Table III energy ~= measured power x Fig. 15 latency.
        assert paper.ENERGY_J["cpu"] == pytest.approx(
            paper.POWER_W["cpu"] * paper.CPU_LATENCY_MS * 1e-3, rel=0.01)
        assert paper.ENERGY_J["gpu"] == pytest.approx(
            paper.POWER_W["gpu"] * paper.GPU_LATENCY_MS * 1e-3, rel=0.01)
        assert paper.ENERGY_J["neural_cache"] == pytest.approx(
            paper.POWER_W["neural_cache"] * paper.NC_LATENCY_MS * 1e-3,
            rel=0.02)

    def test_throughput_ratios(self):
        from repro.analysis import paper
        assert paper.GPU_MAX_THROUGHPUT == pytest.approx(604 / 2.2, rel=0.01)
        assert paper.CPU_MAX_THROUGHPUT == pytest.approx(604 / 12.4, rel=0.01)

    def test_breakdown_fractions_sum_near_one(self):
        from repro.analysis import paper
        assert sum(paper.BREAKDOWN_FRACTIONS.values()) == pytest.approx(
            1.0, abs=0.01)

    def test_capacity_table_monotone(self):
        from repro.analysis import paper
        values = [paper.CAPACITY_LATENCY_MS[c] for c in (35, 45, 60)]
        assert values == sorted(values, reverse=True)

    def test_worked_example_internal_math(self):
        from repro.analysis import paper
        assert paper.EXAMPLE_CYCLES_PER_CONV == pytest.approx(
            paper.EXAMPLE_CYCLES_PER_MAC * 9 + paper.EXAMPLE_REDUCTION_CYCLES,
            abs=1)

    def test_op_formulas(self):
        from repro.analysis import paper
        assert paper.addition_cycles(8) == 9
        assert paper.multiplication_cycles(8) == 102
        assert paper.division_cycles(8) == 140
