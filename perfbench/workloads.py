"""The four benchmark workloads, from bit-serial kernel to server.

Each workload's ``run(seed, seconds, trace)`` returns a ``Measurement``.
Inputs come only from ``seed``; the program sees only the generated
images. Host times are wall-clock on this process; modeled numbers are
cycles or model time from the program's own cycle reports and analytic
model, and repeat exactly for a given seed.

* ``resnet-b8`` — resnet-tiny, closed loop of seeded batches of 8 on
  ``fleet-packed`` with golden verification.
* ``span-sparse-b8`` — inception-span under ``spanning_config()`` with
  bit-plane sparsity, images cycling through magnitude caps.
* ``serve-mlp`` — ``Server`` over one pool-driver ``ShardedBackend``,
  open-loop load at a fixed rate below the knee.
* ``paper-inception`` — the analytic Inception v3 model at the three
  Table IV capacities.

With ``trace`` the run first measures untraced for half the time, then
installs the wrappers from :mod:`spans` and measures the same inputs
again, and reports per-layer metrics instead of end-to-end ones.
"""

from __future__ import annotations

import asyncio
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import spans
from openloop import serve_open_loop

#: Images per batch on the batch workloads.
BATCH = 8
#: Leading batches every run executes whatever the time budget; modeled
#: cycles and exact counts are taken over exactly these.
PREFIX_BATCHES = 5
#: ``repro sparsity`` magnitude caps the span-sparse images cycle through.
SPARSITY_CAPS = (255, 63, 15, 3, 0)
#: serve-mlp: offered load (requests/s), distinct images, server knobs.
#: A batch of one mlp image takes about 115-130 ms on a 2-CPU host, so
#: 4 req/s keeps the backend about half busy (``serving.busy_frac`` in
#: the traced run): requests arrive on a fixed schedule, so below the
#: knee they rarely queue and latency is service time, not backlog.
SERVE_RATE = 4.0
SERVE_IMAGES = 16
SERVE_MAX_BATCH = 8
SERVE_MAX_WAIT_MS = 2.0
#: Batch sizes of the Fig. 16 throughput sweep.
PAPER_BATCHES = (1, 2, 4, 8, 16, 32, 64, 128, 256)
#: Set-up samples taken before the first timed unit (one more follows
#: every unit; serve-mlp, whose units overlap, takes SERVE_SETUP_AFTER
#: more once its window closes). Forking serve-mlp's pool workers takes
#: anywhere from about 4 to 14 ms, so its median needs many samples.
SETUP_SAMPLES = 16
SERVE_SETUP_AFTER = 16
MB = 1024 * 1024


@dataclass
class Measurement:
    """Everything one run measured, before it is turned into metrics."""

    setup_s: list = field(default_factory=list)
    unit_ms: list = field(default_factory=list)
    #: Images completed in the timed units, and the seconds they took.
    images: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    problems: list = field(default_factory=list)
    #: name -> (value, unit): modeled numbers (exact for a given seed).
    modeled: dict = field(default_factory=dict)
    #: name -> (value, unit): further host figures shown but not gated.
    extra: dict = field(default_factory=dict)
    #: name -> (value, unit): the traced run's per-layer metrics.
    layers: dict = field(default_factory=dict)
    #: The traced run's recorder, written out as a Chrome trace.
    trace: object = None

    def fail(self, why: str, units: int = 1) -> None:
        self.problems.extend([why] * units)

    @property
    def failed(self) -> int:
        return min(len(self.problems), self.attempted)


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _p(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _closed_loop(m: Measurement, prepare, execute, seconds: float,
                 min_units: int, between=None, recorder=None) -> list:
    """Run units back to back for ``seconds`` (at least ``min_units``).

    ``prepare(i)`` builds unit ``i``'s inputs outside the timing;
    ``execute(i, payload)`` is the timed unit and returns the images it
    completed. A unit that raises is counted failed and the loop goes on.
    No unit starts that would, at the median pace so far, end past the
    deadline. Returns the per-unit host times in ms.
    """
    times = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_units or (time.perf_counter()
                            + statistics.median(times) / 1e3 < deadline):
        payload = prepare(i)
        span = recorder.begin("unit", tag=i) if recorder else None
        t0 = time.perf_counter()
        try:
            done = execute(i, payload)
        except Exception as exc:  # one failed unit, keep measuring
            traceback.print_exc()
            done = 0
            m.fail(f"unit {i}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        if span is not None:
            recorder.end(span)
        m.attempted += 1
        m.images += done
        m.busy_s += elapsed
        times.append(elapsed * 1e3)
        if between is not None:
            between()
        i += 1
    return times


def _traced_run(m: Measurement, prepare, execute, seconds: float,
                min_units: int) -> dict:
    """Half the time untraced, then the same units again with the
    wrappers of :mod:`spans` installed; returns the per-layer metrics.

    Exact counts are taken over the first ``min_units`` traced units,
    which every run executes whatever the time budget."""
    untraced = _closed_loop(m, prepare, execute, seconds / 2, 3)
    recorder = spans.Recorder()
    prefix: dict = {}

    def counted(i, payload):
        done = execute(i, payload)
        if i == min_units - 1:
            prefix.update({key: value / min_units
                           for key, value in recorder.counts.items()})
        return done

    undo = spans.install(recorder)
    try:
        traced = _closed_loop(m, prepare, counted, seconds / 2, min_units,
                              recorder=recorder)
    finally:
        undo()
    m.trace = recorder
    units = [span for span in recorder.spans if span.name == "unit"]
    return layer_metrics(recorder, units, prefix, untraced, traced)


# ---------------------------------------------------------------------------
# Modeled references shared by every workload
# ---------------------------------------------------------------------------
def analytic_phases(network, config) -> dict:
    """The analytic model's batch-1 Fig. 14 phase times (model ms)."""
    from repro.core.executor import NeuralCacheSimulator

    result = NeuralCacheSimulator(network, config).run(1)
    return {f"core.phase_{phase}_ms": (seconds * 1e3, "model_ms")
            for phase, seconds in result.breakdown().as_dict().items()}


def func_vs_analytic(network, weights, config, images,
                     sparsity: bool = False) -> dict:
    """Functional over analytic compute cycles per array pass, summed over
    layers (MAC, reduction and pooling; dense; the analytic schedule
    under the derived cost preset the functional sequences follow).

    With ``images`` empty (no functional engine) only the analytic base
    is reported. Spanning convs run two reduction trees per pass (the
    MAC partials and the input-sum correction), which is the known 2x
    on their reduction term.
    """
    import dataclasses

    from repro.core.executor import NeuralCacheSimulator
    from repro.core.functional import FunctionalExecutor
    from repro.sram.cost import CycleCosts

    derived = dataclasses.replace(config, costs=CycleCosts.derived())
    schedule = {layer.name: layer.schedule.compute_cycles_per_pass
                for layer in NeuralCacheSimulator(network, derived).run(1)
                .layers}
    func = analytic = 0.0
    if images:
        executor = FunctionalExecutor(network, weights, config,
                                      packed=True, sparsity=sparsity)
        executor.run_batch(list(images))
        for name, report in executor.reports.items():
            if name in schedule and report.passes:
                func += (report.mac + report.reduction + report.pooling
                         + report.skipped) / report.passes
                analytic += schedule[name]
    else:
        analytic = float(sum(schedule.values()))
    return {"core.func_cycles": (func, "cycles"),
            "core.analytic_cycles": (analytic, "cycles"),
            "core.func_over_analytic": (func / analytic if func else 0.0,
                                        "x")}


def functional_layers(report, images: int) -> dict:
    """Per-image modeled cycles of a functional ``CycleReport`` (zeros
    when the workload runs no functional engine)."""
    if report is None:
        from repro.core.functional import CycleReport
        return {name: (0.0, unit) for name, (_, unit)
                in functional_layers(CycleReport(), 1).items()}
    return {
        "core.cycles_mac": (report.mac / images, "cycles"),
        "core.cycles_reduce": (report.reduction / images, "cycles"),
        "core.cycles_quant": (report.quantization / images, "cycles"),
        "core.cycles_pool": (report.pooling / images, "cycles"),
        "engine.skipped_cycles": (report.skipped / images, "cycles"),
        "engine.dense_cycles": (report.dense_cycles / images, "cycles"),
        "engine.skip_frac": (report.skipped / report.dense_cycles
                             if report.dense_cycles else 0.0, "fraction"),
    }


def _self_ms(recorder: spans.Recorder, units: int) -> dict:
    """Self time per span name, ms per unit."""
    own = recorder.self_times()
    total: dict[str, float] = {}
    for span in recorder.spans:
        total[span.name] = total.get(span.name, 0.0) + own[span.index]
    return {name: seconds * 1e3 / max(units, 1)
            for name, seconds in total.items()}


def _durations_ms(recorder: spans.Recorder, name: str) -> list:
    return [s.duration * 1e3 for s in recorder.spans if s.name == name]


def layer_metrics(recorder: spans.Recorder, units: list, counts: dict,
                  untraced_ms: list, traced_ms: list) -> dict:
    """Host-side per-layer metrics from the traced run's spans."""
    self_ms = _self_ms(recorder, len(units))
    covered = sum(u.duration for u in units) - sum(
        recorder.self_times()[u.index] for u in units)
    wall = sum(u.duration for u in units)
    out = {
        "engine.bitserial_ms": (self_ms.get("engine.bitserial", 0.0)
                                + self_ms.get("engine.reduce_across", 0.0),
                                "ms"),
        "engine.reduce_across_ms": (self_ms.get("engine.reduce_across", 0.0),
                                    "ms"),
        "engine.shard_ms_p50": (_p(_durations_ms(recorder, "engine.shard"),
                                   50), "ms"),
        "engine.pool_stage_ms_p50": (
            _p(_durations_ms(recorder, "engine.pool_stage"), 50), "ms"),
        "engine.pool_dispatch_ms_p50": (
            _p(_durations_ms(recorder, "engine.pool_dispatch"), 50), "ms"),
        "core.plan_ms": (self_ms.get("core.plan", 0.0), "ms"),
        "core.conv_ms": (self_ms.get("core.conv", 0.0), "ms"),
        "core.pool_ms": (self_ms.get("core.pool", 0.0), "ms"),
        "core.add_ms": (self_ms.get("core.add", 0.0), "ms"),
        "core.map_ms": (self_ms.get("core.map", 0.0), "ms"),
        "core.schedule_ms": (self_ms.get("core.schedule", 0.0), "ms"),
        "nn.golden_ms": (self_ms.get("nn.golden", 0.0), "ms"),
        "trace.overhead_pct": (
            (statistics.median(traced_ms) / statistics.median(untraced_ms)
             - 1.0) * 100.0 if untraced_ms and traced_ms else 0.0, "%"),
        "trace.coverage_pct": (covered / wall * 100.0 if wall else 0.0, "%"),
    }
    for key in ("engine.bitserial_calls", "engine.plane_ops",
                "engine.plane_any_calls"):
        out[key] = (counts.get(key, 0), "count")
    # Serving layers exist only on serve-mlp, which overrides these.
    out.update({"serving.queue_ms_p50": (0.0, "ms"),
                "serving.respond_ms_p50": (0.0, "ms"),
                "serving.batch_mean": (0.0, "images"),
                "serving.batches": (0, "count"),
                "serving.busy_frac": (0.0, "fraction"),
                "loadgen.late_ms_p95": (0.0, "ms")})
    return out


# ---------------------------------------------------------------------------
# resnet-b8 and span-sparse-b8: closed loops of seeded batches of 8
# ---------------------------------------------------------------------------
class _BatchWorkload:
    """A fleet-packed backend fed seeded batches, verified against golden."""

    sparse = False

    def network(self):
        raise NotImplementedError

    def config(self):
        return None

    def images(self, seed: int, batch: int, weights) -> list:
        raise NotImplementedError

    def construct(self):
        """Fresh network, weights, backend and golden executor."""
        from repro.engine.backend import BackendOptions, get_backend

        net = self.network()
        backend = get_backend("fleet-packed", self.config(),
                              BackendOptions(sparsity=self.sparse))
        weights = backend.weights_for(net)
        golden = backend.golden_for(net, weights)
        return net, backend, weights, golden

    def extra_checks(self, m: Measurement, ctx, seed: int,
                     reports: dict) -> None:
        """Workload-specific correctness checks after the timed loop."""

    def run(self, seed: int, seconds: float, trace: bool) -> Measurement:
        m = Measurement()
        for _ in range(SETUP_SAMPLES):
            elapsed, ctx = _timed(self.construct)
            m.setup_s.append(elapsed)
        net, backend, weights, golden = ctx
        reports: dict[int, object] = {}

        def prepare(i):
            return self.images(seed, i, weights)

        def execute(i, images):
            outcome = backend.run_requests(net, images, weights, golden)
            if outcome.verified != len(images):
                raise RuntimeError(
                    f"verified {outcome.verified}/{len(images)} images")
            if i < PREFIX_BATCHES:
                reports[i] = outcome.report
            return len(images)

        def between():
            m.setup_s.append(_timed(self.construct)[0])

        if trace:
            m.layers.update(_traced_run(m, prepare, execute, seconds,
                                        PREFIX_BATCHES))
        else:
            m.unit_ms = _closed_loop(m, prepare, execute, seconds,
                                     PREFIX_BATCHES, between)

        prefix = [reports[i] for i in range(PREFIX_BATCHES) if i in reports]
        if len(prefix) == PREFIX_BATCHES:
            total = prefix[0]
            for report in prefix[1:]:
                total = total.merged(report)
            images = PREFIX_BATCHES * BATCH
            m.modeled["modeled_cycles_per_image"] = (total.total / images,
                                                     "cycles")
            if trace:
                m.layers.update(functional_layers(total, images))
                m.layers.update(analytic_phases(net, backend.config))
                m.layers.update(func_vs_analytic(
                    net, weights, backend.config,
                    self.images(seed, 0, weights), self.sparse))
        else:
            m.fail("a leading batch failed; no modeled cycles")
        try:
            self.extra_checks(m, ctx, seed, reports)
        except Exception as exc:  # a check that crashes is a failed check
            traceback.print_exc()
            m.fail(f"check: {type(exc).__name__}: {exc}")
        return m


class ResnetB8(_BatchWorkload):
    name = "resnet-b8"

    def network(self):
        from repro.nn.models import build_resnet_tiny
        return build_resnet_tiny()

    def images(self, seed: int, batch: int, weights) -> list:
        from repro.nn import QuantizedTensor

        rng = np.random.default_rng([seed, batch])
        return [QuantizedTensor.from_real(rng.uniform(0, 6, (16, 16, 3)),
                                          weights.input_params)
                for _ in range(BATCH)]


class SpanSparseB8(_BatchWorkload):
    name = "span-sparse-b8"
    sparse = True

    def network(self):
        from repro.nn.models import build_inception_span
        return build_inception_span()

    def config(self):
        from repro.nn.models import spanning_config
        return spanning_config()

    def images(self, seed: int, batch: int, weights) -> list:
        """Image ``j`` of the stream is capped at ``caps[j % 5]``, with the
        cap order a seeded permutation of the ``repro sparsity`` caps."""
        from repro.nn import QuantizedTensor

        caps = np.random.default_rng(seed).permutation(SPARSITY_CAPS)
        rng = np.random.default_rng([seed, batch])
        out = []
        for k in range(BATCH):
            cap = int(caps[(batch * BATCH + k) % len(caps)])
            raw = rng.integers(0, cap + 1, size=(4, 4, 256),
                               dtype=np.uint8)
            out.append(QuantizedTensor(data=raw, params=weights.input_params))
        return out

    def extra_checks(self, m, ctx, seed, reports) -> None:
        """Batch 0 run dense must charge the same ``dense_cycles`` and
        give the same outputs as the sparse run."""
        from repro.engine.backend import get_backend

        net, _, weights, golden = ctx
        m.attempted += 1
        if 0 not in reports:
            m.fail("dense check: batch 0 did not run")
            return
        images = self.images(seed, 0, weights)
        dense = get_backend("fleet-packed", self.config())
        outcome = dense.run_requests(net, images, weights, golden)
        if outcome.report.dense_cycles != reports[0].dense_cycles:
            m.fail(f"dense check: dense run charged "
                   f"{outcome.report.dense_cycles} cycles, sparse run "
                   f"{reports[0].dense_cycles} dense-equivalent")
        if outcome.report.skipped:
            m.fail("dense check: dense run skipped cycles")


# ---------------------------------------------------------------------------
# serve-mlp: open loop through Server over a pool-driver ShardedBackend
# ---------------------------------------------------------------------------
class _Proxy:
    """Pass-through backend that records when each batch call starts and
    returns, keyed by the request tensors it carried."""

    def __init__(self, backend, recorder: spans.Recorder):
        self.backend = backend
        self.recorder = recorder
        #: id(request tensor) -> the ``serving.backend`` span it rode.
        self.calls: dict[int, spans.Span] = {}
        self.batches = 0

    def run_requests(self, network, images):
        batch = self.batches
        self.batches += 1
        span = self.recorder.begin("serving.backend", tag=batch)
        try:
            return self.backend.run_requests(network, images)
        finally:
            self.recorder.end(span)
            for image in images:
                self.calls[id(image)] = span


def _busy_frac(recorder: spans.Recorder, outcome) -> float:
    """Share of the window the backend spent in batch calls: the load
    the offered rate puts on it (near 1 means saturation)."""
    done = [r for r in outcome.resolved if r is not None]
    if not done:
        return 0.0
    busy = sum(s.duration for s in recorder.spans
               if s.name == "serving.backend")
    return busy / (max(done) - outcome.due[0])


class ServeMlp:
    name = "serve-mlp"

    @staticmethod
    def construct():
        """Fresh network, the pool-driver backend (forks its workers) and
        the serial-driver reference backend."""
        from repro.engine.backend import FleetExecutor
        from repro.engine.sharding import ShardedBackend
        from repro.nn.models import build_mlp

        net = build_mlp()
        weights = FleetExecutor(packed=True, verify=False).weights_for(net)
        backend = ShardedBackend(shards=2, driver="pool", verify=False)
        reference = ShardedBackend(shards=2, driver="serial", verify=False)
        return net, weights, backend, reference

    def _window(self, backend, net, images, expected, order):
        from repro.serving import Server

        server = Server([backend], net, max_batch=SERVE_MAX_BATCH,
                        max_wait_ms=SERVE_MAX_WAIT_MS,
                        request_timeout_s=60.0)

        async def drive():
            async with server:
                return await serve_open_loop(server, images, order,
                                             expected, SERVE_RATE,
                                             len(order))
        outcome = asyncio.run(drive())
        return outcome, server.report()

    def run(self, seed: int, seconds: float, trace: bool) -> Measurement:
        from repro.engine.backend import deterministic_images
        from repro.engine.shared import shared_segment_stats

        m = Measurement()
        for _ in range(SETUP_SAMPLES - 1):
            elapsed, spare = _timed(self.construct)
            m.setup_s.append(elapsed)
            spare[2].close()
        elapsed, (net, weights, backend, reference) = _timed(self.construct)
        m.setup_s.append(elapsed)
        try:
            images = deterministic_images(net, weights, seed, SERVE_IMAGES)
            ref = reference.run_requests(net, images)
            expected = ref.responses
            # Warm-up: the first batch broadcasts the program to the pool.
            # Its cycle report is the served backend's own, and must equal
            # the serial reference's for the same images.
            warm = backend.run_requests(net, images)
            m.attempted += 1
            if warm.report != ref.report:
                m.fail(f"pool cycle report {warm.report.total} differs from "
                       f"the serial reference's {ref.report.total}")
            elif any(not np.array_equal(got.data, want.data)
                     for got, want in zip(warm.responses, expected)):
                m.fail("warm-up batch is not bit-exact")
            m.modeled["modeled_cycles_per_image"] = (
                warm.report.total / len(images), "cycles")
            rng = np.random.default_rng(seed)
            windows = [seconds / 2, seconds / 2] if trace else [seconds]
            results = []
            for k, window in enumerate(windows):
                order = rng.integers(0, len(images),
                                     int(round(SERVE_RATE * window)))
                served = backend
                recorder = None
                undo = None
                if trace and k == 1:
                    recorder = spans.Recorder()
                    served = _Proxy(backend, recorder)
                    undo = spans.install(recorder)
                try:
                    outcome, report = self._window(served, net, images,
                                                   expected, order)
                finally:
                    if undo is not None:
                        undo()
                self._check(m, outcome, report, len(order))
                results.append((outcome, report, served, recorder))
            events = backend.recovery_events()
            if events:
                m.fail(f"pool recovery: {events[0]}", len(events))
        finally:
            backend.close()
        for _ in range(SERVE_SETUP_AFTER):
            elapsed, spare = _timed(self.construct)
            m.setup_s.append(elapsed)
            spare[2].close()
        leaks = shared_segment_stats().check()
        if leaks:
            m.fail(f"shared segments left after close: {leaks[0]}")
        # The pool started multiprocessing's resource tracker; stop it and
        # wait for it, so no process of this run outlives the run.
        from multiprocessing import resource_tracker
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()

        outcome, report, _, _ = results[0]
        lat = outcome.latencies_ms
        m.unit_ms = list(lat)
        m.images = len(lat)
        done = [r for r in outcome.resolved if r is not None]
        m.busy_s = (max(done) - outcome.due[0]) if done else 0.0
        m.extra["latency_ms_p95"] = (_p(lat, 95), "ms")
        m.extra["late_ms_p95"] = (_p(np.asarray(outcome.late) * 1e3, 95),
                                  "ms")
        m.extra["batch_mean"] = (report.mean_batch, "images")
        m.extra["worker_peak_rss_mb"] = (
            peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
        if trace:
            self._layers(m, results, warm.report, net, weights, images,
                         reference.config)
        return m

    @staticmethod
    def _check(m: Measurement, outcome, report, count: int) -> None:
        m.attempted += count
        for error in outcome.errors:
            m.fail(error)
        mismatched = count - len(outcome.errors) - outcome.matched
        if mismatched:
            m.fail("response lost or not bit-exact", mismatched)
        if report.duplicates:
            m.fail("duplicated response", report.duplicates)

    def _layers(self, m, results, cycles, net, weights, images,
                config) -> None:
        untraced, traced = results
        outcome, report, proxy, recorder = traced
        queue, respond, requests = [], [], []
        for i, image in enumerate(outcome.images):
            call = proxy.calls.get(id(image))
            if call is None or outcome.resolved[i] is None:
                continue
            due, resolved = outcome.due[i], outcome.resolved[i]
            unit = recorder.add("unit", due, resolved, tag=f"request {i}")
            recorder.add("serving.queue", due, call.start, parent=unit)
            shard = next((s for s in recorder.spans
                          if s.parent == call.index
                          and s.name == "engine.shard"), call)
            recorder.add("engine.shard.request", shard.start, shard.end,
                         parent=unit)
            recorder.add("serving.respond", call.end, resolved, parent=unit)
            queue.append((call.start - due) * 1e3)
            respond.append((resolved - call.end) * 1e3)
            requests.append(unit)
        m.layers.update(layer_metrics(
            recorder, requests, dict(recorder.counts),
            list(untraced[0].latencies_ms), list(outcome.latencies_ms)))
        # Per-request spans are not batches: report engine and core self
        # time per served batch instead.
        batches = max(proxy.batches, 1)
        per_batch = _self_ms(recorder, batches)
        for key, name in (("core.plan_ms", "core.plan"),
                          ("engine.bitserial_ms", "engine.bitserial"),
                          ("engine.reduce_across_ms", "engine.reduce_across"),
                          ("core.conv_ms", "core.conv"),
                          ("core.pool_ms", "core.pool"),
                          ("core.add_ms", "core.add"),
                          ("nn.golden_ms", "nn.golden")):
            m.layers[key] = (per_batch.get(name, 0.0), "ms")
        for key in ("engine.bitserial_calls", "engine.plane_ops",
                    "engine.plane_any_calls"):
            m.layers[key] = (recorder.counts.get(key, 0) / batches, "count")
        m.layers.update({
            "serving.queue_ms_p50": (_p(queue, 50), "ms"),
            "serving.respond_ms_p50": (_p(respond, 50), "ms"),
            "serving.batch_mean": (report.mean_batch, "images"),
            "serving.batches": (report.batches, "count"),
            "serving.busy_frac": (_busy_frac(recorder, outcome), "fraction"),
            "loadgen.late_ms_p95": (
                _p(np.asarray(outcome.late) * 1e3, 95), "ms"),
        })
        m.layers.update(functional_layers(cycles, SERVE_IMAGES))
        m.layers.update(analytic_phases(net, config))
        m.layers.update(func_vs_analytic(net, weights, config, images))
        m.trace = recorder


# ---------------------------------------------------------------------------
# paper-inception: the analytic model at the Table IV capacities
# ---------------------------------------------------------------------------
class PaperInception:
    name = "paper-inception"

    @staticmethod
    def construct():
        from repro.cache.geometry import capacity_sweep
        from repro.config import NeuralCacheConfig
        from repro.nn import build_inception_v3

        net = build_inception_v3()
        configs = [NeuralCacheConfig().with_geometry(geometry)
                   for geometry in capacity_sweep()]
        return net, configs

    @staticmethod
    def sweep(net, configs) -> dict:
        """Capacity (MB) -> batch-1 latency (s), energy (J), peak img/s.

        Every capacity gets a fresh analytic backend, so each sweep pays
        the mapping and scheduling again."""
        from repro.engine.backend import get_backend

        out = {}
        for config in configs:
            backend = get_backend("analytic", config)
            result = backend.run(net, 1)
            peak = max(backend.throughput(net, b) for b in PAPER_BATCHES)
            mb = config.geometry.total_bytes // MB
            out[mb] = (result.latency_s, result.energy_j, peak)
        return out

    def run(self, seed: int, seconds: float, trace: bool) -> Measurement:
        """``seed`` is accepted for uniformity: the model has no inputs."""
        from repro.analysis import paper

        m = Measurement()
        for _ in range(SETUP_SAMPLES):
            elapsed, (net, configs) = _timed(self.construct)
            m.setup_s.append(elapsed)
        first: dict = {}
        per_sweep = len(configs) * (1 + sum(PAPER_BATCHES))

        def execute(i, _):
            values = self.sweep(net, configs)
            if not first:
                first.update(values)
            elif values != first:
                raise RuntimeError(f"sweep {i} differs from sweep 0: "
                                   f"{values} != {first}")
            return per_sweep

        def between():
            m.setup_s.append(_timed(self.construct)[0])

        if trace:
            m.layers.update(_traced_run(m, lambda i: None, execute, seconds,
                                        3))
            m.layers.update(functional_layers(None, 1))
            m.layers.update(analytic_phases(net, configs[0]))
            m.layers.update(func_vs_analytic(net, None, configs[0], ()))
        else:
            m.unit_ms = _closed_loop(m, lambda i: None, execute, seconds, 3,
                                     between)
        if not first:
            m.fail("no sweep completed")
            return m
        latency, energy, peak = first[35]
        m.modeled["modeled_cycles_per_image"] = (
            latency * configs[0].frequency_hz, "cycles")
        m.modeled["modeled_latency_ms"] = (latency * 1e3, "model_ms")
        m.modeled["modeled_images_per_s"] = (peak, "1/s")
        m.modeled["modeled_mj_per_image"] = (energy * 1e3, "mJ")
        errors = [abs(first[mb][0] * 1e3 - published) / published
                  for mb, published in paper.CAPACITY_LATENCY_MS.items()]
        errors.append(abs(peak - paper.NC_MAX_THROUGHPUT)
                      / paper.NC_MAX_THROUGHPUT)
        errors.append(abs(energy - paper.ENERGY_J["neural_cache"])
                      / paper.ENERGY_J["neural_cache"])
        m.modeled["paper_err_pct"] = (100.0 * sum(errors) / len(errors), "%")
        return m


WORKLOADS = {w.name: w for w in (ResnetB8(), SpanSparseB8(), ServeMlp(),
                                 PaperInception())}
