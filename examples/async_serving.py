"""Async batched serving: a live request stream over the shard pool.

The paper's data-center throughput claim (Sec. VI-B, Fig. 16) is about
a *request stream*: a node keeps its sockets busy by batching whatever
arrived. This example runs that serving stack end to end:

* a pool of :class:`~repro.engine.sharding.ShardedBackend` nodes, each
  splitting its batches across socket shards (serial driver here;
  ``driver="pool"`` runs the shards in persistent worker processes);
* a :class:`~repro.serving.Server` dispatching ``submit()`` arrivals to
  idle nodes at once, coalescing whatever queued behind busy nodes into
  batched fleet passes of up to ``max_batch``;
* per-request responses that are bit-exact the direct ``run_requests``
  path, plus the serving numbers — p50/p95/p99 tail latency and
  throughput.

Run:  python examples/async_serving.py
"""

import asyncio

import numpy as np

from repro.engine.backend import (
    FleetExecutor,
    deterministic_images,
    tiny_verification_network,
)
from repro.engine.sharding import ShardedBackend
from repro.serving import Server


async def main() -> None:
    network = tiny_verification_network()

    # The request stream: deterministic images, so the serving run is
    # reproducible and checkable against the direct batch path.
    template = FleetExecutor(packed=True, verify=False)
    weights = template.weights_for(network)
    images = deterministic_images(network, weights, seed=0, batch_size=24)
    expected = template.run_requests(network, images, weights).responses

    # Two serving nodes, each a dual-socket sharded backend whose shards
    # run on the serial driver.
    pool = [
        ShardedBackend(shards=2, verify=False, driver="serial")
        for _ in range(2)
    ]

    async with Server(pool, network, max_batch=6) as server:
        responses = await asyncio.gather(
            *(server.submit(image) for image in images)
        )

    # Serving changes wall-clock, never results.
    for got, want in zip(responses, expected):
        assert np.array_equal(got.data, want.data)
    report = server.report()
    print(report.summary())
    assert report.responded == len(images)
    assert report.duplicates == 0
    print(
        f"all {len(images)} responses bit-exact vs the direct "
        f"run_requests path"
    )


if __name__ == "__main__":
    asyncio.run(main())
