"""Bit-plane sparsity engine: skipping cycles must never change a bit.

The sparsity engine elides multiply/add steps whose operand bit plane
is all-zero fleet-wide, so execution becomes data-dependent. The whole
feature is admissible only under two invariants, pinned here:

- **Bit-exactness** — sparse outputs equal dense outputs exactly, on
  every functional backend, for arbitrary inputs (property-tested with
  the shadow-state sanitizer armed, so skipped planes are also proven
  all-zero at the store level).
- **Dense accounting is untouched** — ``CycleReport.dense_cycles``
  (actual + skipped) equals the dense run's total, which itself still
  equals the pre-sparsity seed model. Cycle-identity gates keep pinning
  the paper's data-independent numbers whatever the input sparsity.
"""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.functional import CycleReport
from repro.engine.backend import (
    FleetExecutor,
    deterministic_images,
    tiny_verification_network,
)
from repro.engine.sharding import ShardedBackend
from repro.nn import QuantizedTensor

#: The tiny verification network's per-image report before the sparsity
#: engine existed. Dense runs — and sparse runs' ``dense_cycles`` — must
#: reproduce it exactly.
SEED_TINY_REPORT = CycleReport(mac=20592, reduction=4896,
                               quantization=2890, pooling=78, passes=17)

#: Arms the shadow-state sanitizer for every fleet built inside it
#: (``mock.patch.dict``, not the function-scoped ``monkeypatch`` fixture,
#: which Hypothesis's health check rejects inside ``@given``).
SANITIZED = {"NEURALCACHE_SANITIZE": "1"}


@pytest.fixture(scope="module")
def tiny_net():
    return tiny_verification_network()


@pytest.fixture(scope="module")
def tiny_weights(tiny_net):
    return FleetExecutor(packed=True).weights_for(tiny_net)


def images_with_cap(net, weights, cap, seed, batch=1):
    """Uniform uint8 images in ``[0, cap]`` — capping the magnitude
    leaves the high bit planes all-zero, which is what the fleet-wide
    skip detector keys on."""
    rng = np.random.default_rng(seed)
    data = rng.integers(0, cap + 1, size=net.input_shape, dtype=np.uint8)
    return [QuantizedTensor(np.array(data), weights.input_params)
            for _ in range(batch)]


def run_pair(net, images, weights, packed):
    """Fresh dense and sparse executors over the same stream, both with
    the shadow-state sanitizer armed."""
    with mock.patch.dict(os.environ, SANITIZED):
        dense = FleetExecutor(packed=packed).run_requests(
            net, images, weights)
        sparse = FleetExecutor(packed=packed, sparsity=True).run_requests(
            net, images, weights)
    return dense, sparse


def assert_bit_exact(dense, sparse):
    assert len(sparse.responses) == len(dense.responses)
    for got, want in zip(sparse.responses, dense.responses):
        assert np.array_equal(got.data, want.data)
        assert got.params == want.params


class TestBitExactness:
    @pytest.mark.parametrize("packed", [False, True])
    @settings(max_examples=8, deadline=None)
    @given(cap=st.sampled_from([255, 63, 15, 3, 0]),
           seed=st.integers(0, 2**16))
    def test_sparse_matches_dense_on_random_images(self, tiny_net,
                                                   tiny_weights, packed,
                                                   cap, seed):
        """The property: for arbitrary inputs, skipping changes cycle
        counts only — never outputs, never the dense-equivalent cost."""
        images = images_with_cap(tiny_net, tiny_weights, cap, seed)
        dense, sparse = run_pair(tiny_net, images, tiny_weights, packed)
        assert_bit_exact(dense, sparse)
        assert sparse.report.dense_cycles == dense.report.total
        assert dense.report.skipped == 0
        assert sparse.report.total == (sparse.report.dense_cycles
                                       - sparse.report.skipped)

    def test_sharded_pool_sparse_bit_exact(self, tiny_net, tiny_weights):
        """The deepest stack: sparsity knobs cross the pool protocol to
        persistent workers and still land bit-exact."""
        images = deterministic_images(tiny_net, tiny_weights, 0, 3)
        # The pool's workers inherit the sanitizer switch when forked.
        with mock.patch.dict(os.environ, SANITIZED):
            dense = ShardedBackend(shards=2).run_requests(tiny_net, images)
            with ShardedBackend(shards=2, driver="pool",
                                sparsity=True) as backend:
                sparse = backend.run_requests(tiny_net, images)
        assert_bit_exact(dense, sparse)
        assert sparse.report.skipped > 0
        assert sparse.report.dense_cycles == dense.report.total
        # The aggregate matches an unsharded sparse run of the same
        # stream: sharding must not change what gets skipped.
        direct = FleetExecutor(packed=True, sparsity=True).run_requests(
            tiny_net, images, tiny_weights)
        assert sparse.report == direct.report

    def test_all_zero_image_skips_most_of_the_mac_phase(self, tiny_net,
                                                        tiny_weights):
        """The extreme: a zero image leaves every activation plane
        empty, so the modeled speedup is large (>2x on the tiny net)."""
        images = images_with_cap(tiny_net, tiny_weights, 0, seed=0)
        _, sparse = run_pair(tiny_net, images, tiny_weights, packed=True)
        assert sparse.report.dense_cycles / sparse.report.total > 2.0


class TestDenseIdentity:
    """dense_cycles is the pre-sparsity cycle model, bit for bit."""

    def test_dense_run_reproduces_seed_report(self, tiny_net,
                                              tiny_weights):
        images = deterministic_images(tiny_net, tiny_weights, 0, 1)
        dense, sparse = run_pair(tiny_net, images, tiny_weights,
                                 packed=True)
        assert dense.report == SEED_TINY_REPORT
        assert dense.report.total == 28456
        assert dense.report.dense_cycles == dense.report.total
        assert sparse.report.skipped > 0
        assert sparse.report.dense_cycles == 28456

    def test_batched_dense_cycles_scale_with_images(self, tiny_net,
                                                    tiny_weights):
        images = deterministic_images(tiny_net, tiny_weights, 0, 2)
        _, sparse = run_pair(tiny_net, images, tiny_weights, packed=True)
        assert sparse.report.dense_cycles == 2 * 28456


class TestSanitizerEnvVar:
    def test_env_var_arms_sanitizer_for_sparse_runs(self, tiny_net,
                                                    tiny_weights,
                                                    monkeypatch):
        """``NEURALCACHE_SANITIZE=1`` sanitizes a sparse run without
        code changes — and the run still completes bit-exact, i.e. the
        skip engine survives the plane_any cross-check."""
        monkeypatch.setenv("NEURALCACHE_SANITIZE", "1")
        images = deterministic_images(tiny_net, tiny_weights, 0, 1)
        dense = FleetExecutor(packed=True).run_requests(tiny_net, images,
                                                        tiny_weights)
        sparse = FleetExecutor(packed=True, sparsity=True).run_requests(
            tiny_net, images, tiny_weights)
        assert_bit_exact(dense, sparse)
        assert sparse.report.dense_cycles == dense.report.total


class TestSkippedAccounting:
    """CycleReport carries the skipped counter through its algebra."""

    def test_merged_sums_skipped(self):
        a = CycleReport(mac=10, skipped=3)
        b = CycleReport(mac=20, reduction=5, skipped=4)
        merged = a.merged(b)
        assert merged.skipped == 7
        assert merged.total == 35
        assert merged.dense_cycles == 42

    def test_dense_report_dense_cycles_is_total(self):
        report = CycleReport(mac=7, reduction=2, quantization=1)
        assert report.skipped == 0
        assert report.dense_cycles == report.total == 10
