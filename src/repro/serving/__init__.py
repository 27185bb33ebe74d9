"""Async batched serving: the request-stream frontend over the fleet.

The paper's data-center throughput story (Sec. VI-B, Fig. 16) assumes a
continuous request stream batched onto the node's sockets. This package
is that serving subsystem:

* :class:`~repro.serving.server.Server` — an asyncio request queue.
  ``await server.submit(image)`` resolves to the image's network output;
  an idle backend takes whatever is queued at once, so arrivals
  coalesce (up to ``max_batch``) only while every backend is busy; the
  batches execute on a pool of backends (any object with
  ``run_requests(network, images)``, typically one
  :class:`~repro.engine.sharding.ShardedBackend` per node).
* :func:`~repro.serving.loadgen.run_load` /
  :func:`~repro.serving.loadgen.run_serving_benchmark` — deterministic
  load generation plus the correctness gate: no lost responses, no
  duplicated responses, every response bit-exact against the direct
  ``run_requests`` path.
* :class:`~repro.serving.server.ServingReport` — p50/p95/p99 tail
  latency and throughput of one served stream.
"""

from repro.serving.loadgen import (
    LoadResult,
    render_serving_report,
    run_load,
    run_serving_benchmark,
)
from repro.serving.server import Server, ServingBackend, ServingReport

__all__ = [
    "LoadResult",
    "Server",
    "ServingBackend",
    "ServingReport",
    "render_serving_report",
    "run_load",
    "run_serving_benchmark",
]
