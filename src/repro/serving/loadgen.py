"""Deterministic load generation and the serving correctness gate.

:func:`run_load` drives a request stream through a :class:`Server` and
checks the three properties the serving frontend must never lose, the
same invariants the sharded backend is property-tested on:

* **no lost responses** — every submitted request resolves;
* **no duplicated responses** — every response future resolves once;
* **bit-exactness** — response ``i`` equals what the direct
  ``run_requests`` path produces for image ``i``, regardless of how
  arrivals were coalesced into batches or which pool backend ran them.

:func:`run_serving_benchmark` wraps that into the one-call smoke the CI
gate and the ``serve-bench`` CLI run: build a pool of sharded backends,
generate the deterministic image stream, compute the expected responses
directly, serve the stream, and report tail latency + throughput next
to the correctness verdict.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

from repro.common.errors import SimulationError
from repro.config import NeuralCacheConfig
from repro.engine.backend import (
    FleetExecutor,
    deterministic_images,
    tiny_verification_network,
)
from repro.engine.sharding import ShardedBackend
from repro.nn.graph import Network
from repro.serving.server import Server, ServingReport


@dataclass(frozen=True)
class LoadResult:
    """One served stream: the report plus the correctness verdict."""

    report: ServingReport
    #: Requests that never resolved (must stay 0; close() drains).
    lost: int
    #: Responses delivered more than once (must stay 0).
    duplicates: int
    #: Responses compared bit-for-bit against the expected stream.
    matched: int
    #: True iff every response matched its expected tensor exactly.
    bit_exact: bool

    @property
    def ok(self) -> bool:
        """The serving smoke gate: nothing lost, nothing duplicated,
        everything bit-exact."""
        return self.lost == 0 and self.duplicates == 0 and self.bit_exact


async def _drive(server: Server, images, arrival_gap_ms: float):
    """Submit the stream (optionally spaced) and gather the responses."""

    async def _submit(image):
        return await server.submit(image)

    tasks = []
    async with server:
        for image in images:
            tasks.append(asyncio.ensure_future(_submit(image)))
            if arrival_gap_ms > 0:
                await asyncio.sleep(arrival_gap_ms / 1e3)
            else:
                # Yield to the loop so the batcher sees arrivals in
                # submission order, like a network socket would deliver
                # them.
                await asyncio.sleep(0)
        responses = await asyncio.gather(*tasks)
    return responses


def run_load(
    backends,
    network: Network,
    images,
    expected=None,
    max_batch: int = 8,
    arrival_gap_ms: float = 0.0,
    max_retries: int = 0,
    request_timeout_s: float | None = None,
) -> LoadResult:
    """Serve ``images`` through a fresh :class:`Server`; check exactness.

    ``expected`` is the per-image response stream of the direct
    ``run_requests`` path (computed here via ``backends[0]`` when not
    supplied). ``max_retries``/``request_timeout_s`` pass through to the
    server — the chaos tests serve a stream while a fault plan kills
    pool workers and still demand ``ok``. Synchronous wrapper — runs
    its own event loop.
    """
    images = list(images)
    if expected is None:
        expected = backends[0].run_requests(network, images).responses
    server = Server(
        backends,
        network,
        max_batch=max_batch,
        max_retries=max_retries,
        request_timeout_s=request_timeout_s,
    )
    responses = asyncio.run(_drive(server, images, arrival_gap_ms))
    report = server.report()
    matched = sum(
        1
        for got, want in zip(responses, expected)
        if got is not None and np.array_equal(got.data, want.data)
    )
    return LoadResult(
        report=report,
        lost=len(images) - report.responded,
        duplicates=report.duplicates,
        matched=matched,
        bit_exact=matched == len(images),
    )


def run_serving_benchmark(
    n_requests: int = 32,
    sockets: int = 2,
    pool_size: int = 2,
    max_batch: int = 8,
    driver: str = "serial",
    arrival_gap_ms: float = 0.0,
    seed: int = 0,
    network: Network | None = None,
    config: NeuralCacheConfig | None = None,
    fault_plan=None,
    max_retries: int = 0,
    reply_timeout_s: float = 60.0,
    options=None,
) -> dict:
    """One serving run with everything the smoke gate needs, as a dict.

    The pool holds ``pool_size`` independent
    :class:`~repro.engine.sharding.ShardedBackend` nodes of ``sockets``
    shards each on the given ``driver`` (``pool`` nodes fork their
    persistent workers here, before serving starts any threads, and are
    closed when the run ends); expected responses come from a
    *serial-driver* backend so the whole concurrent serving stack is
    checked against the reference path. Verification against the golden
    executor is off in both paths — serving-rate correctness is the
    bit-exactness check itself.

    ``fault_plan`` (pool driver only) arms the chaos hooks in every
    serving node's workers — the expected responses still come from the
    clean serial reference, so the smoke gate demands bit-exact serving
    *through* the injected faults. ``max_retries`` adds server-level
    batch retries on top of the pool's own self-healing, and
    ``reply_timeout_s`` bounds every pool reply wait. The recovery
    events the nodes took are counted in the stats.

    ``options`` is a :class:`~repro.engine.backend.BackendOptions`
    carrying the functional-engine knobs (``sparsity``, ``precision``)
    for every serving node *and* the serial reference — both knobs are
    value-preserving, so the bit-exactness gate holds unchanged while
    the nodes' cycle reports become data-dependent. Topology knobs
    (``driver``, ``shards``, ``faults``) belong to this function's own
    arguments and are rejected on ``options`` to keep one source of
    truth. The sanitizer is not a knob here either: the nodes' fleets
    follow ``NEURALCACHE_SANITIZE``.
    """
    if network is None:
        network = tiny_verification_network()
    engine_knobs: dict = {}
    if options is not None:
        for knob in ("driver", "shards", "faults"):
            if getattr(options, knob) is not None:
                raise SimulationError(
                    f"run_serving_benchmark sets {knob!r} through its own "
                    f"arguments; leave it unset on BackendOptions")
        engine_knobs = options.for_functional()
    template = FleetExecutor(config, packed=True, verify=False)
    weights = template.weights_for(network)
    images = deterministic_images(network, weights, seed, n_requests)
    reference = ShardedBackend(
        config, shards=sockets, verify=False, driver="serial",
        **engine_knobs
    )
    expected = reference.run_requests(network, images).responses
    pool_options = {}
    if driver == "pool":
        pool_options = {
            "fault_plan": fault_plan,
            "reply_timeout_s": reply_timeout_s,
        }
    elif fault_plan is not None:
        raise SimulationError(
            "fault_plan software faults need the pool driver's workers; "
            f"driver {driver!r} has no injection points"
        )
    pool = [
        ShardedBackend(
            config, shards=sockets, verify=False, driver=driver,
            **engine_knobs, **pool_options
        )
        for _ in range(pool_size)
    ]
    try:
        result = run_load(
            pool,
            network,
            images,
            expected=expected,
            max_batch=max_batch,
            arrival_gap_ms=arrival_gap_ms,
            max_retries=max_retries,
        )
        recoveries = sum(
            len(backend.recovery_events()) for backend in pool
        )
    finally:
        for backend in pool:
            backend.close()
    report = result.report
    return {
        "n_requests": n_requests,
        "sockets": sockets,
        "pool_size": pool_size,
        "max_batch": max_batch,
        "driver": driver,
        "responded": report.responded,
        "lost": result.lost,
        "duplicates": result.duplicates,
        "bit_exact": result.bit_exact,
        "batches": report.batches,
        "mean_batch": report.mean_batch,
        "p50_ms": report.p50_ms,
        "p95_ms": report.p95_ms,
        "p99_ms": report.p99_ms,
        "throughput_rps": report.throughput_rps,
        "wall_s": report.wall_s,
        "retries": report.retries,
        "expired": report.expired,
        "recoveries": recoveries,
        "ok": result.ok,
    }


def render_serving_report(stats: dict) -> str:
    """The one-line account the bench and the CLI print."""
    text = (
        f"Serving benchmark: {stats['n_requests']} requests over "
        f"{stats['pool_size']} node(s) x {stats['sockets']} socket "
        f"shard(s) ({stats['driver']} driver, max_batch "
        f"{stats['max_batch']}) "
        f"-> {stats['throughput_rps']:.1f} req/s in {stats['batches']} "
        f"batch(es) (mean {stats['mean_batch']:.1f}), latency p50 "
        f"{stats['p50_ms']:.1f} / p95 {stats['p95_ms']:.1f} / p99 "
        f"{stats['p99_ms']:.1f} ms, lost={stats['lost']} "
        f"duplicates={stats['duplicates']} bit-exact={stats['bit_exact']}"
    )
    if stats.get("recoveries") or stats.get("retries"):
        text += (
            f" (survived {stats['recoveries']} worker recovery/ies, "
            f"{stats['retries']} batch retry/ies)"
        )
    return text
