"""Multi-socket sharding of the array fleet behind the Backend protocol.

The paper's throughput story is multi-socket: "Neural Cache throughput
scales linearly with the number of host CPUs" (Sec. VI-B), and Fig. 16 is
measured on a dual-socket node — two independent caches, each running the
full network over its own slice of the batch. The reproduction's
:class:`~repro.config.NeuralCacheConfig` already models ``sockets=2``;
this module makes a functional backend actually shard work that way.

:class:`ShardedBackend` splits a batch across ``shards`` sockets (one
fleet executor pass per shard, each on its own packed
:class:`~repro.engine.packed.PackedArrayFleet`), assigns
images **round-robin** — image ``i`` goes to shard ``i % shards``, the
arrival-order policy a serving frontend would use — and aggregates the
per-shard cycle reports.

The shards run on one of two **drivers** (``driver=``):

* ``serial`` (default) — shards execute one after another in-process
  on one :class:`~repro.engine.backend.FleetExecutor`: the reference
  the parallel driver must match, and the driver that runs everywhere;
* ``pool`` — a persistent :class:`~repro.engine.pool.ShardWorkerPool`:
  workers forked once per backend lifetime, each holding a warm
  executor on its own packed plane store, with each shard's images and
  responses crossing its pipe as one stacked array. The modeled socket
  parallelism becomes real wall-clock parallelism; POSIX-only (it
  needs the ``fork`` start method).

The design invariant, shared with systolic-array partitioning in
SCALE-Sim and BrainWave's weight-stationary sharding across FPGAs: the
sharded result must be *exactly* the unsharded result, on every driver.
Four properties make that hold here, and the property tests in
``tests/engine/test_sharding.py`` / ``tests/engine/test_shard_driver.py``
pin all of them for shard counts that do and do not divide the batch:

* every shard sees the same deterministic image stream positions the
  unsharded run would (the stream depends only on ``(network, seed)``,
  never on the shard layout);
* per-image cycle reports depend only on ``(network, weights, image)``,
  and report aggregation is a commutative sum, so any partition of the
  batch merges back to the identical total;
* drivers differ only in *where* a shard's slice runs — both execute
  the same round-robin slices and collect their outcomes in shard
  order, so completion order cannot leak into results;
* the result's ``outputs`` are the globally-last image's outputs, which
  round-robin places at the tail of shard ``(batch - 1) % shards``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import SimulationError
from repro.config import NeuralCacheConfig
from repro.core.functional import CycleReport
from repro.engine.backend import (
    BackendResult,
    BatchOutcome,
    FleetExecutor,
    IdentityLRU,
    ShardReport,
    check_batch_size,
    deterministic_images,
)
from repro.nn.graph import Network

#: Accepted shard drivers, in the order the CLI documents them.
SHARD_DRIVERS: tuple[str, ...] = ("serial", "pool")


@dataclass(frozen=True)
class ShardOutcome:
    """What one shard's slice of a batch produced."""

    shard: int
    #: Images the round-robin assignment handed this shard.
    images: int
    outcome: BatchOutcome


class ShardedBackend:
    """A batch sharded across sockets, bit-exact with the unsharded run.

    ``shards`` defaults to ``config.sockets`` (the paper's dual-socket
    node). Each shard executes its round-robin slice as one fleet pass
    on its own packed plane-store fleet.

    ``driver`` selects how the shards execute — ``serial`` or ``pool``
    (:data:`SHARD_DRIVERS`). ``serial`` runs each round-robin slice in
    turn on one in-process :class:`~repro.engine.backend.FleetExecutor`;
    ``pool`` runs the same lanes on a persistent
    :class:`~repro.engine.pool.ShardWorkerPool` forked eagerly here in
    the constructor. Both aggregate outcomes in shard order, so results
    and cycle reports are identical by construction; only wall-clock
    differs.

    Sharding slices the batch into whole images — never arrays — so a
    spanning layer's cross-array reduction groups (its
    ``arrays_per_conv`` consecutive arrays per output) always land
    intact inside one shard's fleet; no shard boundary can split a
    reduction tree.

    ``shards`` is deliberately independent of ``config.sockets``: the
    default models the paper's node, but ``shards=8`` on a 2-socket
    config emulates a multi-node cluster tier behind the same Backend
    API — each shard is one more independent cache running the full
    network over its slice.

    Pool-driver backends own OS resources (worker processes and their
    pipes); :meth:`close` releases them, and the backend is a context
    manager for scoped use. The serial driver holds nothing, so
    ``close`` is a no-op for it.

    The pool driver is supervised: ``reply_timeout_s`` and
    ``max_retries`` pass straight through to
    :class:`~repro.engine.pool.ShardWorkerPool`, whose self-healing
    (respawn + re-dispatch, degradation) this backend surfaces via
    :meth:`recovery_events` and ``ShardReport.recoveries``;
    ``max_retries=0`` fails fast on the first dead or hung worker.
    ``fault_plan`` arms the chaos hooks in the pool workers; it is
    rejected on the serial driver, which has no injection points.

    ``run`` returns the same :class:`~repro.engine.backend.BackendResult`
    surface as the unsharded fleet backends, plus a ``shard_reports``
    breakdown so ``summary()`` shows per-socket cycle totals — the
    functional side of the analytic model's linear socket scaling.
    ``run_requests`` is the serving entry point: explicit images in,
    per-image responses out, arrival order preserved across shards.
    """

    name = "sharded"

    def __init__(self, config: NeuralCacheConfig | None = None,
                 shards: int | None = None,
                 weights=None, seed: int = 0, verify: bool = True,
                 driver: str = "serial",
                 reply_timeout_s: float = 60.0, max_retries: int = 2,
                 fault_plan=None, sparsity: bool = False,
                 precision=None):
        self.config = config if config is not None else NeuralCacheConfig()
        if shards is None:
            shards = self.config.sockets
        if shards <= 0:
            raise SimulationError(
                f"shard count must be positive, got {shards}")
        if driver not in SHARD_DRIVERS:
            raise SimulationError(
                f"unknown shard driver {driver!r}; available: "
                f"{', '.join(SHARD_DRIVERS)}")
        if fault_plan is not None and driver != "pool":
            raise SimulationError(
                "fault_plan software faults hook the pool driver's "
                f"workers; driver {driver!r} has no injection points "
                "(use hardware_faults() for array-level faults)")
        self.shards = shards
        self.weights = weights
        self.seed = seed
        self.verify = verify
        #: How the shards execute: serial or pool.
        self.driver = driver
        #: Bit-plane sparsity skipping in every shard's fleet.
        self.sparsity = sparsity
        #: Per-layer precision table shipped to every shard.
        self.precision = precision
        #: The executor the serial driver runs every shard's slice on;
        #: it also resolves weights and the default network exactly like
        #: each pool worker's executor does.
        self._executor = FleetExecutor(self.config, weights=weights,
                                       seed=seed, verify=verify,
                                       sparsity=sparsity,
                                       precision=precision)
        #: Most-recently-used resolved weights per network (the same
        #: IdentityLRU as the analytic simulator cache). Stable
        #: weight identity across batches is what lets the persistent
        #: pool broadcast a program once and reuse it every batch.
        self._weights_cache = IdentityLRU(self.WEIGHTS_CACHE_SIZE)
        self._pool = None
        #: Recovery events the pool driver reported, in order. The
        #: latest batch's slice also lands on its ShardReports.
        self._recoveries: list = []
        if driver == "pool":
            # Eager fork, before any caller can have started threads
            # (the serving executor does): the pool lives as long as
            # the backend, which is the whole point of the driver.
            from repro.engine.pool import ShardWorkerPool
            self._pool = ShardWorkerPool(shards, self.config,
                                         verify=verify, seed=seed,
                                         reply_timeout_s=reply_timeout_s,
                                         max_retries=max_retries,
                                         fault_plan=fault_plan,
                                         sparsity=sparsity,
                                         precision=precision)

    WEIGHTS_CACHE_SIZE = 4

    def _weights_for(self, network: Network):
        """Resolved weights with stable identity across batches."""
        if self.weights is not None:
            return self.weights
        return self._weights_cache.get(
            (network,), lambda: self._executor.weights_for(network))

    def _run_shards(self, network: Network, images, weights
                    ) -> tuple[list[ShardOutcome], CycleReport, int,
                               dict | None, tuple]:
        """Execute the stream; merge outcomes in shard order.

        The one aggregation loop both surfaces share: merged cycle
        report, summed verification count, the globally-last image's
        outputs — which round-robin places at the tail of shard
        ``(len(images) - 1) % shards``, so they match the unsharded
        run's — and the recovery events the pool driver took while
        executing this batch (empty on the serial driver). Image ``i``
        goes to shard ``i % shards`` (round-robin); a shard whose slice
        is empty (``shards > len(images)``) idles with an empty outcome.
        """
        events: tuple = ()
        if self._pool is not None:
            outcomes = self._pool.run(network, images, weights)
            events = self._pool.pop_recovery_events()
            self._recoveries.extend(events)
        else:
            outcomes = []
            for k in range(self.shards):
                part = images[k::self.shards]
                outcomes.append(ShardOutcome(
                    shard=k, images=len(part),
                    outcome=self._executor.run_requests(network, part,
                                                        weights)))
        total = CycleReport()
        verified = 0
        outputs = None
        last_shard = (len(images) - 1) % self.shards
        for result in outcomes:
            total = total.merged(result.outcome.report)
            verified += result.outcome.verified
            if result.images and result.shard == last_shard:
                outputs = result.outcome.outputs
        return outcomes, total, verified, outputs, events

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Release the driver's OS resources (idempotent).

        Only the pool driver holds any — its persistent workers and their
        pipes; serial holds nothing.
        """
        if self._pool is not None:
            self._pool.close()

    def worker_pids(self) -> tuple[int, ...]:
        """The pool driver's worker PIDs (empty for the serial driver).

        Stable PIDs across consecutive batches are the observable proof
        that the pool never re-forks — the acceptance test reads them.
        """
        if self._pool is None:
            return ()
        return self._pool.worker_pids()

    def recovery_events(self) -> tuple:
        """Every self-healing action the pool driver has taken so far.

        :class:`~repro.engine.pool.RecoveryEvent` records, in order,
        across all batches of this backend's lifetime — the chaos tests'
        proof that a kill was actually survived (the per-batch slice
        also lands on :meth:`run`'s ``ShardReport.recoveries``). Empty
        on healthy runs and on the serial driver.
        """
        return tuple(self._recoveries)

    def __enter__(self) -> "ShardedBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- the Backend surface ----------------------------------------------
    def run(self, network: Network, batch_size: int = 1) -> BackendResult:
        check_batch_size(batch_size, self.name)
        weights = self._weights_for(network)
        images = deterministic_images(network, weights, self.seed,
                                      batch_size)
        outcomes, total, verified, outputs, events = self._run_shards(
            network, images, weights)
        shard_reports = tuple(
            ShardReport(shard=result.shard, images=result.images,
                        report=result.outcome.report,
                        recoveries=tuple(event for event in events
                                         if event.shard == result.shard))
            for result in outcomes)
        return BackendResult(
            backend=self.name, network=network.name, batch_size=batch_size,
            report=total, outputs=outputs, verified_images=verified,
            verify=self.verify, shard_reports=shard_reports)

    def run_requests(self, network: Network, images) -> BatchOutcome:
        """Serving entry point: explicit images, responses in arrival
        order.

        The stream is sharded round-robin exactly like :meth:`run`'s
        deterministic batch, executed on the configured driver, and the
        per-shard responses are interleaved back so ``responses[i]`` is
        image ``i``'s network output — regardless of shard count, driver
        or completion order.
        """
        images = list(images)
        if not images:
            return BatchOutcome(report=CycleReport(), responses=(),
                                outputs=None, verified=0)
        weights = self._weights_for(network)
        outcomes, total, verified, outputs, _ = self._run_shards(
            network, images, weights)
        responses: list = [None] * len(images)
        for result in outcomes:
            # Inverse of the round-robin slice images[shard::shards].
            for j, response in enumerate(result.outcome.responses):
                responses[j * self.shards + result.shard] = response
        return BatchOutcome(report=total, responses=tuple(responses),
                            outputs=outputs, verified=verified)

    def default_network(self) -> Network:
        """Same verification-scale default as the unsharded fleet."""
        return self._executor.default_network()
