"""Open-loop request generator over ``Server.submit``.

Request ``i`` is due at ``start + i / rate`` whatever happened to earlier
requests, so a stall delays every later request and that wait is counted:
latency runs from the due time, not from the submit call. The generator
sleeps to absolute due times, so it does not drift, and it records how
late it sent each request.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Outcome:
    """What one served window produced, request by request."""

    #: Due time, send lateness and resolve time of each request, seconds.
    due: list = field(default_factory=list)
    late: list = field(default_factory=list)
    resolved: list = field(default_factory=list)
    #: Requests whose response matched the reference bit for bit.
    matched: int = 0
    #: Requests that raised instead of answering (errors, expiry).
    errors: list = field(default_factory=list)
    #: Per-request image objects, so a proxy can map calls to requests.
    images: list = field(default_factory=list)

    @property
    def latencies_ms(self) -> np.ndarray:
        done = [(r - d) for d, r in zip(self.due, self.resolved)
                if r is not None]
        return np.asarray(done) * 1e3


async def serve_open_loop(server, images, order, expected, rate: float,
                          count: int) -> Outcome:
    """Send ``count`` requests at ``rate`` per second; check every answer.

    ``order[i]`` picks the image of request ``i`` from ``images``;
    ``expected[k]`` is the reference response of ``images[k]``. Each
    request submits its own tensor object, so two requests for the same
    image stay distinguishable downstream.
    """
    out = Outcome()
    out.due = [0.0] * count
    out.late = [0.0] * count
    out.resolved = [None] * count

    async def one(i: int, image, want) -> None:
        try:
            got = await server.submit(image)
        except Exception as exc:  # counted as a failed request
            out.errors.append(f"request {i}: {exc}")
            return
        out.resolved[i] = time.perf_counter()
        if np.array_equal(got.data, want.data):
            out.matched += 1

    tasks = []
    start = time.perf_counter() + 0.01
    for i in range(count):
        due = start + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        out.due[i] = due
        out.late[i] = time.perf_counter() - due
        source = images[order[i]]
        image = type(source)(data=source.data, params=source.params)
        out.images.append(image)
        tasks.append(asyncio.ensure_future(one(i, image, expected[order[i]])))
    await asyncio.gather(*tasks)
    return out
