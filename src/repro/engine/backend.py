"""The unified Backend API: one ``run(network, batch_size)`` for every
execution engine.

The reproduction has two ways to execute a network:

* the **analytic** simulator (:class:`repro.core.executor.NeuralCacheSimulator`)
  — the paper's deterministic latency/energy model, which handles
  Inception-scale networks;
* the **functional** fleet executor
  (:class:`repro.core.functional.FunctionalExecutor` on top of
  :class:`~repro.engine.fleet.ArrayFleet`) — bit-exact in-cache execution
  for verification-scale networks.

Callers (the CLI, the experiment harness, benchmarks, future sharded or
serving backends) should not care which engine they hold: the
:class:`Backend` protocol pins the shared surface to
``run(network, batch_size) -> BackendResult``, and :func:`get_backend`
resolves engines by name.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.common.errors import SimulationError
from repro.config import NeuralCacheConfig
from repro.core.executor import InferenceResult, NeuralCacheSimulator
from repro.core.functional import CycleReport, FunctionalExecutor
from repro.nn.graph import Network


@dataclass(frozen=True)
class BackendOptions:
    """Every construction-time backend knob, in one value.

    This is the single construction surface for
    :func:`get_backend`: instead of a growing tail of keyword arguments
    (``driver``, ``shards``, ...), callers build one frozen options
    object and hand it to any backend factory. Knobs that do not apply
    to a backend are rejected at construction with a clear error (the
    analytic model has no shard pool to drive), so a typo'd or misplaced
    option never silently does nothing.

    ``sparsity`` turns on bit-plane sparsity skipping in the functional
    engines: all-zero operand bit planes are detected at the plane store
    and their multiply/add steps elided fleet-wide, making the cycle
    report data-dependent (``CycleReport.skipped`` /
    ``CycleReport.dense_cycles``) while outputs stay bit-exact.

    ``precision`` attaches a
    :class:`~repro.core.precision.LayerPrecision` table so conv layers
    run narrowed bit-serial sequences (validated against the network's
    layer names at map time).

    The shadow-state sanitizer is not an option: every fleet an engine
    builds follows ``NEURALCACHE_SANITIZE``, read by
    :func:`~repro.engine.packed.make_fleet`.
    """

    #: Shard driver for the sharded backends: ``serial`` or ``pool``.
    #: ``None`` keeps the engine default (``serial``).
    driver: str | None = None
    #: Shard (socket) count for the sharded backends.
    shards: int | None = None
    #: Software fault plan (:class:`repro.faults.plan.FaultPlan`) armed
    #: in the sharded pool driver's workers.
    faults: object | None = None
    #: Skip all-zero operand bit planes (functional engines).
    sparsity: bool = False
    #: Per-layer element precision table
    #: (:class:`~repro.core.precision.LayerPrecision`).
    precision: object | None = field(default=None, hash=False)

    def for_functional(self) -> dict:
        """The options every functional (fleet) engine consumes."""
        return {"sparsity": self.sparsity, "precision": self.precision}


@dataclass(frozen=True)
class ShardReport:
    """One shard's slice of a sharded batch (socket-level breakdown)."""

    #: Shard index within the sharded backend (0-based).
    shard: int
    #: Images the round-robin assignment handed this shard.
    images: int
    #: The shard's aggregate functional compute-cycle report.
    report: CycleReport
    #: Self-healing actions the pool driver took for this shard during
    #: the batch, as :class:`~repro.engine.pool.RecoveryEvent` records
    #: (respawns, re-dispatches, degrades). Empty on healthy runs and on
    #: the serial driver.
    recoveries: tuple = ()


@dataclass(frozen=True)
class BatchOutcome:
    """What a functional engine produced for an *explicit* image stream.

    This is the serving-side counterpart of :class:`BackendResult`:
    ``run(network, batch_size)`` generates its own deterministic images,
    while ``run_requests(network, images)`` executes images a caller
    (the request queue in :mod:`repro.serving`, a shard driver, a test)
    actually handed over — and must therefore return one response per
    image, in arrival order, not just the last image's outputs.
    """

    #: Aggregate functional compute-cycle report for the stream.
    report: CycleReport
    #: The network output tensor of image ``i`` at position ``i``.
    responses: tuple
    #: Node name -> QuantizedTensor for the last image (debug surface,
    #: same shape as :attr:`BackendResult.outputs`); ``None`` when the
    #: stream was empty.
    outputs: dict | None
    #: Images verified bit-exact against the golden executor.
    verified: int


@dataclass(frozen=True)
class BackendResult:
    """What any backend returns for one batch.

    The analytic engine fills the wall-clock/energy fields; the functional
    engine fills the cycle report and per-node outputs. Both always fill
    the identification fields, so callers can render a result without
    knowing which engine produced it.
    """

    backend: str
    network: str
    batch_size: int
    #: Wall-clock seconds for the batch on one socket (analytic only).
    latency_s: float | None = None
    #: Joules for the batch (analytic only).
    energy_j: float | None = None
    #: Full analytic schedule detail (analytic only).
    inference: InferenceResult | None = None
    #: Aggregate functional compute-cycle report (functional only).
    report: CycleReport | None = None
    #: Node name -> QuantizedTensor for the last image (functional only).
    outputs: dict | None = None
    #: Images verified bit-exact against the golden executor (functional).
    verified_images: int = 0
    #: Whether bit-exact verification was requested for this run, so the
    #: summary can distinguish "verify off" from "verified 0/N".
    verify: bool = False
    #: Per-shard cycle breakdown (sharded backends only).
    shard_reports: tuple[ShardReport, ...] | None = None

    def summary(self) -> str:
        """A short human-readable account of the run."""
        lines = [f"backend={self.backend} network={self.network} "
                 f"batch={self.batch_size}"]
        if self.latency_s is not None:
            lines.append(f"  latency: {self.latency_s * 1e3:.3f} ms "
                         f"({self.latency_s / self.batch_size * 1e3:.3f} "
                         f"ms/image)")
        if self.energy_j is not None:
            lines.append(f"  energy: {self.energy_j:.3f} J")
        if self.report is not None:
            r = self.report
            lines.append(f"  compute cycles: {r.total} (mac {r.mac}, "
                         f"reduce {r.reduction}, quant {r.quantization}, "
                         f"pool {r.pooling}) over {r.passes} array passes")
            if r.skipped:
                lines.append(f"  sparsity: {r.skipped} cycles skipped "
                             f"(dense-equivalent {r.dense_cycles}, "
                             f"{r.dense_cycles / r.total:.2f}x)")
        if self.shard_reports is not None:
            for s in self.shard_reports:
                lines.append(f"  shard {s.shard}: {s.images} image(s), "
                             f"{s.report.total} compute cycles over "
                             f"{s.report.passes} array passes")
                for event in s.recoveries:
                    lines.append(f"    recovery: {event}")
        if self.verify:
            # Explicit even at 0/N, so a verification-skipped run never
            # reads the same as a verify-off run.
            lines.append(f"  verified bit-exact vs golden executor on "
                         f"{self.verified_images}/{self.batch_size} "
                         f"image(s)")
        elif self.verified_images:
            lines.append(f"  verified bit-exact vs golden executor on "
                         f"{self.verified_images} image(s)")
        return "\n".join(lines)


def check_batch_size(batch_size: int, backend: str) -> None:
    """Reject non-positive batch sizes, uniformly across all backends.

    Every ``Backend.run`` implementation calls this first, so programmatic
    callers get the same guarantee the CLI enforces — no backend silently
    produces nonsense latency/throughput for ``batch_size <= 0``.
    """
    if batch_size <= 0:
        raise SimulationError(
            f"backend {backend!r}: batch size must be positive, "
            f"got {batch_size}")


def deterministic_images(network: Network, weights, seed: int,
                         batch_size: int) -> list:
    """The deterministic pseudo-random input stream every functional
    backend runs: image ``i`` depends only on ``(network, seed, i)``, so a
    sharded run over any assignment of this stream sees exactly the images
    the unsharded run would."""
    from repro.nn import QuantizedTensor

    rng = np.random.default_rng(seed)
    return [QuantizedTensor.from_real(
                rng.uniform(0, 6, network.input_shape),
                weights.input_params)
            for _ in range(batch_size)]


@runtime_checkable
class Backend(Protocol):
    """Anything that can execute a network for a batch.

    Structural: a backend needs a ``name`` and ``run``. Engines are free
    to expose richer engine-specific surfaces (the analytic backend has
    ``throughput`` and ``simulator``), but shared callers stick to this.
    """

    name: str

    def run(self, network: Network, batch_size: int = 1) -> BackendResult:
        """Execute ``batch_size`` inferences and aggregate the results."""
        ...  # pragma: no cover - protocol signature


class IdentityLRU:
    """A bounded most-recently-used cache keyed by object identity.

    Each entry holds its key objects, so their ``id()`` cannot be reused
    while the entry lives, and a hit also checks identity (``is``). The
    bookkeeping runs under a lock, so one cache may serve several
    threads; ``build`` runs under it too, so a key is built once.
    """

    def __init__(self, size: int):
        self.size = size
        self._entries: dict[tuple[int, ...], tuple] = {}
        self._lock = threading.Lock()

    def get(self, keys: tuple, build):
        """The value cached for ``keys``, built by ``build()`` on a miss."""
        ident = tuple(id(key) for key in keys)
        with self._lock:
            entry = self._entries.pop(ident, None)
            if entry is None or any(a is not b
                                    for a, b in zip(entry[0], keys)):
                entry = (keys, build())
            self._entries[ident] = entry    # re-insert = most recent
            while len(self._entries) > self.size:
                self._entries.pop(next(iter(self._entries)))
        return entry[1]

    def keys(self) -> list[tuple]:
        """The cached key tuples, least recently used first."""
        with self._lock:
            return [entry[0] for entry in self._entries.values()]

    def __len__(self) -> int:
        return len(self._entries)


class AnalyticBackend:
    """The paper's deterministic model behind the Backend protocol.

    Simulators are cached per network object (bounded, LRU), so repeated
    ``run`` calls (latency sweeps, batching sweeps) pay the mapping cost
    once — the behaviour the experiment harness previously got from
    caching a concrete :class:`NeuralCacheSimulator` — without pinning
    every network a long-lived backend ever served.
    """

    name = "analytic"
    #: Most-recently-used simulators kept alive per backend.
    CACHE_SIZE = 4

    def __init__(self, config: NeuralCacheConfig | None = None):
        self.config = config if config is not None else NeuralCacheConfig()
        self._simulators = IdentityLRU(self.CACHE_SIZE)

    def simulator(self, network: Network) -> NeuralCacheSimulator:
        """The cached simulator for ``network`` (engine-specific surface)."""
        return self._simulators.get(
            (network,), lambda: NeuralCacheSimulator(network, self.config))

    def run(self, network: Network, batch_size: int = 1) -> BackendResult:
        check_batch_size(batch_size, self.name)
        result = self.simulator(network).run(batch_size)
        return BackendResult(
            backend=self.name, network=network.name, batch_size=batch_size,
            latency_s=result.total_time, energy_j=result.total_energy,
            inference=result)

    def throughput(self, network: Network, batch_size: int = 1) -> float:
        """Inferences/s for the node (socket-scaled, Sec. VI-B)."""
        check_batch_size(batch_size, self.name)
        return self.simulator(network).throughput(batch_size)

    def default_network(self) -> Network:
        """The paper's workload: Inception v3."""
        from repro.nn import build_inception_v3
        return build_inception_v3()


class FleetExecutor:
    """Bit-exact functional execution on the array fleet, as a Backend.

    Every image of the batch runs through
    :class:`~repro.core.functional.FunctionalExecutor` (whose layers
    execute as single lockstep sequences across a
    :class:`~repro.engine.fleet.PlaneStore` fleet) and, when ``verify``
    is on, is checked bit-for-bit against the golden NumPy executor — the
    reproduction's analogue of the paper's trace-matching verification.

    ``packed`` selects the bit-plane store: the packed word store
    (:class:`~repro.engine.packed.PackedArrayFleet`, the default and the
    one ``get_backend("fleet-packed")`` and every pool worker run) or
    ``False`` — the unpacked byte-per-bit reference, a test and debug
    store with identical outputs and cycle reports that no registry name
    selects.

    Each layer runs the whole stream as one fleet pass — one
    :meth:`FunctionalExecutor.run_batch
    <repro.core.functional.FunctionalExecutor.run_batch>` folds the batch
    into the fleet's array axis. The arrays are parallel hardware, so
    batching changes wall-clock, not modeled cycles: one
    :meth:`run_requests` call per image gives the same outputs and, once
    merged, the same cycle report.

    Weights default to :func:`repro.nn.reference.initialise_weights` with
    a fixed seed; inputs are deterministic pseudo-random activations, so
    two runs of the same backend agree exactly.

    The backend is weight-stationary across calls: each conv layer's
    compiled :class:`~repro.core.functional.ConvStaging` (mapping, lane
    plan, window and filter tables) is kept per network and weights in a
    bounded LRU, built on the first :meth:`run_requests` that needs it.
    Only immutable staging is cached; every call still builds its own
    engines and cycle reports, so one backend may serve several threads.
    The cache is keyed by object identity, so a network or weights
    object must not be mutated once it has run; build a new one instead.
    """

    name = "fleet-packed"
    #: Most-recently-used (network, weights) staging sets kept alive.
    STAGING_CACHE_SIZE = 4

    def __init__(self, config: NeuralCacheConfig | None = None,
                 weights=None, seed: int = 0, verify: bool = True,
                 packed: bool = True, sparsity: bool = False,
                 precision=None):
        self.config = config if config is not None else NeuralCacheConfig()
        self.weights = weights
        self.seed = seed
        self.verify = verify
        self.packed = packed
        #: Bit-plane sparsity skipping (data-dependent ``CycleReport``;
        #: outputs stay bit-exact, verified against the golden executor).
        self.sparsity = sparsity
        #: Per-layer precision table, overriding ``network.precision``.
        self.precision = precision
        #: (network, weights) -> {node name: ConvStaging}.
        self._stagings = IdentityLRU(self.STAGING_CACHE_SIZE)

    def stagings_for(self, network: Network, weights) -> dict:
        """The conv stagings cached for ``network`` and ``weights``
        (engine-specific surface): node name -> ConvStaging, filled as
        each conv first runs."""
        return self._stagings.get((network, weights), dict)

    def weights_for(self, network: Network):
        """The run's weights: explicit, or seeded deterministically."""
        from repro.nn.reference import initialise_weights

        if self.weights is not None:
            return self.weights
        return initialise_weights(network, seed=self.seed)

    def golden_for(self, network: Network, weights):
        """The golden NumPy executor, or ``None`` when verify is off."""
        from repro.nn import ReferenceExecutor

        return ReferenceExecutor(network, weights) if self.verify else None

    def run(self, network: Network, batch_size: int = 1) -> BackendResult:
        check_batch_size(batch_size, self.name)
        weights = self.weights_for(network)
        golden = self.golden_for(network, weights)
        images = deterministic_images(network, weights, self.seed,
                                      batch_size)
        outcome = self.run_requests(network, images, weights, golden)
        return BackendResult(
            backend=self.name, network=network.name, batch_size=batch_size,
            report=outcome.report, outputs=outcome.outputs,
            verified_images=outcome.verified, verify=self.verify)

    def run_requests(self, network: Network, images, weights=None,
                     golden=None) -> BatchOutcome:
        """Execute an explicit image stream; per-image responses.

        One :class:`~repro.core.functional.FunctionalExecutor` serves the
        whole stream, on the conv stagings this backend keeps for
        ``network`` and ``weights`` (:meth:`stagings_for`): every conv
        layer's mapping and gather tables are compiled exactly once per
        backend (filters stay resident, Sec. IV-E) — not once per batch
        or per image. The whole stream executes as *one* fleet pass per
        layer, the batch folded into the fleet's array axis, so every
        image must share the input quantization parameters.

        The returned :class:`BatchOutcome` carries the network output of
        image ``i`` at ``responses[i]`` — this is the entry point the
        serving frontend (:mod:`repro.serving`) coalesces request batches
        into.
        """
        if weights is None:
            weights = self.weights_for(network)
        if golden is None:
            golden = self.golden_for(network, weights)
        images = list(images)
        if not images:
            return BatchOutcome(report=CycleReport(), responses=(),
                                outputs=None, verified=0)
        executor = FunctionalExecutor(network, weights, self.config,
                                      packed=self.packed,
                                      sparsity=self.sparsity,
                                      precision=self.precision,
                                      stagings=self.stagings_for(network,
                                                                 weights))
        results = executor.run_batch(images)
        responses = tuple(results[network.output_name])
        verified = self._verify_batch(network, images, responses, golden)
        outputs = {name: tensors[-1] for name, tensors in results.items()}
        return BatchOutcome(report=executor.total_report(),
                            responses=responses, outputs=outputs,
                            verified=verified)

    def _verify_batch(self, network: Network, images, outputs,
                      golden) -> int:
        """Check each image's output bit-for-bit against the golden
        executor; returns how many were verified (0 with verify off)."""
        if golden is None:
            return 0
        for image, got in zip(images, outputs):
            expected = golden.run_output(image)
            if not np.array_equal(got.data, expected.data):
                raise SimulationError(
                    f"functional output of {network.name!r} diverged "
                    f"from the golden executor")
        return len(images)

    def default_network(self) -> Network:
        """A verification-scale conv+pool network (the functional path is
        bounded to layers whose reduction fits one array, Sec. IV-A)."""
        return tiny_verification_network()


def tiny_verification_network(size: int = 8, channels: int = 8,
                              filters: int = 8) -> Network:
    """A small conv -> maxpool graph for functional verification demos."""
    from repro.nn import Conv2D, MaxPool

    net = Network(name="fleet-verify")
    x = net.add_input("in", (size, size, channels))
    net.add("conv", Conv2D(filters, (3, 3), padding="same"), x)
    net.add("pool", MaxPool(kernel=(2, 2), stride=2, padding="valid"),
            "conv")
    return net


def _check_unsharded(name: str, options: BackendOptions) -> None:
    """Reject shard-pool knobs on engines that have no shard pool."""
    if options.driver is not None:
        raise SimulationError(
            f"backend {name!r} does not take a shard driver; only the "
            f"sharded backends run a shard pool")
    if options.shards is not None:
        raise SimulationError(
            f"backend {name!r} does not take a shard count; only the "
            f"sharded backends split work over shards")
    if options.faults is not None:
        raise SimulationError(
            f"backend {name!r} does not take a software fault plan; "
            f"only the sharded pool driver arms chaos hooks")


def _check_analytic(options: BackendOptions) -> None:
    """The analytic model has no functional fleets to configure."""
    _check_unsharded("analytic", options)
    if options.sparsity:
        raise SimulationError(
            "backend 'analytic' does not take 'sparsity'; only the "
            "functional fleet engines execute bit planes")
    if options.precision is not None:
        raise SimulationError(
            "backend 'analytic' takes per-layer precision from the "
            "network itself; attach the table as `network.precision` "
            "instead of a backend option")


def _analytic(config: NeuralCacheConfig | None = None,
              options: BackendOptions | None = None) -> AnalyticBackend:
    """The analytic model."""
    options = options if options is not None else BackendOptions()
    _check_analytic(options)
    return AnalyticBackend(config)


def _fleet(config: NeuralCacheConfig | None = None,
           options: BackendOptions | None = None) -> FleetExecutor:
    """The fleet executor on the packed plane store."""
    options = options if options is not None else BackendOptions()
    _check_unsharded(FleetExecutor.name, options)
    return FleetExecutor(config, **options.for_functional())


def _sharded(config: NeuralCacheConfig | None = None,
             options: BackendOptions | None = None) -> Backend:
    """Multi-socket sharded execution on packed per-shard fleets."""
    from repro.engine.sharding import ShardedBackend
    options = options if options is not None else BackendOptions()
    return ShardedBackend(
        config, shards=options.shards,
        driver=options.driver if options.driver is not None else "serial",
        fault_plan=options.faults, **options.for_functional())


#: Registered engine factories ((config, options) -> Backend), by
#: CLI/experiment name. Every factory takes the same
#: :class:`BackendOptions` value and rejects knobs it cannot honour.
BACKENDS: dict = {
    AnalyticBackend.name: _analytic,
    FleetExecutor.name: _fleet,
    "sharded": _sharded,
}


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_backend` (and the CLI's --backend)."""
    return tuple(BACKENDS)


def get_backend(name: str, config: NeuralCacheConfig | None = None,
                options: BackendOptions | None = None) -> Backend:
    """Resolve a backend by name; raises on unknown names.

    Three names cover the two engines: ``analytic`` (the paper's
    model), ``fleet-packed`` (the functional fleet on the packed plane
    store) and ``sharded`` (that fleet split over socket shards). The
    unpacked reference store has no name here; tests and debugging
    build it explicitly with ``FleetExecutor(packed=False)``.

    ``options`` is the construction surface: one
    :class:`BackendOptions` value carrying every backend knob (shard
    driver and count, fault plan, bit-plane sparsity, per-layer
    precision). Factories reject options they cannot
    honour — the analytic model has no fleets to sparsify, the unsharded
    engines no pool to drive. The ``pool`` driver forks persistent
    workers at construction, so it is POSIX-only (requires the ``fork``
    start method) and should be resolved before the process starts any
    threads.
    """
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise SimulationError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(available_backends())}") from None
    return factory(config, options)
