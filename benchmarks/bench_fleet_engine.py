"""Array-fleet engine benchmarks: packed vs unpacked, sharded vs
single-socket, batched vs per-image, shard drivers, serving, bit-plane
sparsity.

Seven comparisons, all bit-identical by construction:

* the packed word plane store vs the unpacked byte-per-bit reference on
  the lockstep primitives themselves (acceptance target: >= 4x faster
  multiply/add sequences at serving-scale fleets, 8x smaller resident
  planes);
* the sharded backend (one packed fleet per socket, batch split
  round-robin) vs the unsharded ``fleet-packed`` run — gated on the
  aggregation being lossless (outputs bit-exact, cycle reports
  identical, every image verified), with single-process wall time and
  the modeled per-socket throughput recorded;
* batch-in-fleet execution vs the per-image loop on the conv functional
  path (acceptance target: >= 4x wall-clock at batch >= 8 on the packed
  store, outputs bit-exact, cycle reports identical — batching changes
  wall-clock, not modeled cycles), plus the block tap-plane load vs the
  per-plane host-pack loop it replaced;
* the persistent pool shard driver (warm) vs the serial driver — gated
  on the pool being bit-exact and cycle-report-identical to serial,
  with its wall-clock speedup over serial recorded, and gated >= 1.05x
  at 2 shards in full mode on hosts with >= 2 CPUs (a 1-CPU host cannot
  run shards in parallel, so there the number is recorded, not gated);
* the spanning-layer cross-array reduction path — the
  ``inception-span`` zoo model (four arrays per output) end-to-end on
  the packed fleet with golden verification on, gated on the functional
  engine's reduction cycles equalling exactly ``2 x`` the analytic
  ``reduction_cycles_per_pass`` under the derived cost preset;
* the bit-plane sparsity engine — dense vs sparse fleet runs over a
  sweep of input magnitudes, gated on bit-exact sparse outputs, the
  dense (data-independent) cycle model staying pinned, and a best
  modeled-cycle reduction >= 1.2x in full mode;
* the async batched serving stack (``repro.serving``) — a request
  stream coalesced into batched fleet passes over a pool of sharded
  backends. Gated on the serving invariants: no lost responses, no
  duplicated responses, every response bit-exact vs the direct
  ``run_requests`` path; p50/p95/p99 tail latency and throughput are
  recorded. This is the CI serving smoke gate.

Also runnable as a script so CI can smoke everything per PR::

    python benchmarks/bench_fleet_engine.py --quick [--json PATH]

which runs the primitive comparison at a smaller fleet size with relaxed
speedup gates (CI machines are noisy) plus the sharded-aggregation,
shard-driver, serving and batched-correctness checks, and exits non-zero
when the packed store, the sharded aggregation, the pool shard
driver, the serving stack or the batched path regresses in speedup or
exactness. ``--json`` additionally emits every section's measurements as
one JSON document for the bench trajectory, and ``--trajectory``
appends a compact per-driver wall-clock entry to an accumulating JSON
history (``benchmarks/BENCH_TRAJECTORY.json`` in-repo) so regressions
show up as a trend, not just a point.
"""

import argparse
import json
import sys
import time

import numpy as np

from repro.core.functional import FunctionalConv
from repro.engine import (
    ArrayFleet,
    FleetBitSerialUnit,
    Operand,
    PackedArrayFleet,
)
from repro.engine.backend import FleetExecutor, tiny_verification_network
from repro.engine.sharding import ShardedBackend
from repro.nn import (
    Conv2D,
    Network,
    QuantizedTensor,
    ReferenceExecutor,
    initialise_weights,
)

RNG = np.random.default_rng(321)

#: Fleet sizes for the packed-store primitive comparison. The full size
#: models a serving-scale slice (8192 arrays x 256 bitlines = 2M lanes);
#: the quick size keeps the CI smoke step under a few seconds.
PRIMITIVE_ARRAYS = 8192
QUICK_ARRAYS = 1024


def _conv_case():
    conv = Conv2D(8, (3, 3), padding="same")
    shape = (8, 8, 8)
    net = Network(name="fleet-bench")
    x = net.add_input("in", shape)
    net.add("c", conv, x)
    weights = initialise_weights(net, seed=5)
    image = QuantizedTensor.from_real(RNG.uniform(0, 6, shape),
                                      weights.input_params)
    reference = ReferenceExecutor(net, weights).run_output(image)
    return conv, shape, weights, image, reference, net


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# Packed plane store vs unpacked reference on the lockstep primitives
# ----------------------------------------------------------------------
def _time_primitives(fleet_cls, n_arrays: int, rounds: int):
    """Best-of wall time for a multiply+add sequence on one store.

    Returns ``(seconds, product_values, resident_bytes, cycles)`` so the
    caller can cross-check bit-exactness and cycle-exactness between
    stores, not just speed.
    """
    unit = FleetBitSerialUnit(fleet_cls(n_arrays, rows=256, cols=256))
    rng = np.random.default_rng(7)
    a, b = Operand(0, 8), Operand(8, 8)
    product, total = Operand(16, 16), Operand(40, 9)
    unit.write_values(a, rng.integers(0, 256, (n_arrays, 256)).astype(np.int64))
    unit.write_values(b, rng.integers(0, 256, (n_arrays, 256)).astype(np.int64))
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        unit.multiply(a, b, product)
        unit.add(a, b, total)
        best = min(best, time.perf_counter() - start)
    return best, unit.read_values(product), unit.fleet.nbytes, unit.cycles


def compare_plane_stores(n_arrays: int, rounds: int = 3) -> dict:
    """Measure packed vs unpacked lockstep primitives at one fleet size."""
    ref_s, ref_vals, ref_bytes, ref_cycles = _time_primitives(
        ArrayFleet, n_arrays, rounds)
    packed_s, packed_vals, packed_bytes, packed_cycles = _time_primitives(
        PackedArrayFleet, n_arrays, rounds)
    return {
        "n_arrays": n_arrays,
        "unpacked_s": ref_s,
        "packed_s": packed_s,
        "speedup": ref_s / packed_s,
        "memory_ratio": ref_bytes / packed_bytes,
        "unpacked_bytes": ref_bytes,
        "packed_bytes": packed_bytes,
        "bit_exact": bool(np.array_equal(ref_vals, packed_vals)),
        "cycle_exact": ref_cycles == packed_cycles,
    }


def render_plane_store_report(stats: dict) -> str:
    return (f"Packed plane store benchmark: {stats['n_arrays']} arrays x "
            f"256 bitlines, 8-bit multiply+add sequence -> packed "
            f"{stats['packed_s'] * 1e3:.1f} ms vs unpacked "
            f"{stats['unpacked_s'] * 1e3:.1f} ms "
            f"({stats['speedup']:.1f}x faster), resident planes "
            f"{stats['packed_bytes'] / 2**20:.1f} MiB vs "
            f"{stats['unpacked_bytes'] / 2**20:.1f} MiB "
            f"({stats['memory_ratio']:.0f}x smaller), "
            f"bit-exact={stats['bit_exact']} "
            f"cycle-exact={stats['cycle_exact']}")


def test_packed_vs_unpacked_primitives(record):
    stats = compare_plane_stores(PRIMITIVE_ARRAYS)
    record(render_plane_store_report(stats))
    assert stats["bit_exact"] and stats["cycle_exact"]
    # cols=256 is a whole number of uint64 words (four per wordline), so
    # exactly 8x.
    assert stats["memory_ratio"] == 8.0
    # Soft gate far below the measured speedup (the recorded line carries
    # the real number): 28-41x at 8192 arrays and ~15x at the --quick
    # 1024 on a 2-CPU host, where the packed store runs the fused
    # word-level kernels. It only flags a wholesale regression to
    # unpacked behaviour, not wall-clock noise on a loaded machine.
    assert stats["speedup"] >= 3.0


# ----------------------------------------------------------------------
# Sharded backend vs the single unsharded packed fleet
# ----------------------------------------------------------------------
def compare_sharded(batch_size: int = 8, shards: int = 2,
                    rounds: int = 2) -> dict:
    """Sharded vs unsharded run of the same batch, equality cross-checked.

    In-process the shards execute sequentially, so wall time measures the
    sharding overhead — since batch-in-fleet execution, that overhead is
    real (splitting a batch across shards also splits one big batched
    fleet pass into several smaller ones); on actual multi-socket
    hardware the shards run concurrently. The throughput story is the
    modeled one — ``shards`` independent sockets each retiring its slice
    — which only holds if aggregation is lossless, and that is what the
    gates check.
    """
    net = tiny_verification_network()
    single = FleetExecutor(packed=True)
    sharded = ShardedBackend(shards=shards)

    single_s = _best_of(lambda: single.run(net, batch_size), rounds)
    sharded_s = _best_of(lambda: sharded.run(net, batch_size), rounds)
    single_res = single.run(net, batch_size)
    sharded_res = sharded.run(net, batch_size)

    out = net.output_name
    per_shard = [s.report for s in sharded_res.shard_reports]
    return {
        "batch_size": batch_size,
        "shards": shards,
        "single_s": single_s,
        "sharded_s": sharded_s,
        "overhead": sharded_s / single_s - 1.0,
        "bit_exact": bool(np.array_equal(
            sharded_res.outputs[out].data, single_res.outputs[out].data)),
        "report_identical": sharded_res.report == single_res.report,
        "shards_cover_batch": sum(
            s.images for s in sharded_res.shard_reports) == batch_size,
        "per_shard_cycles": [r.total for r in per_shard],
        "verified": sharded_res.verified_images,
    }


def render_sharded_report(stats: dict) -> str:
    return (f"Sharded backend benchmark: batch {stats['batch_size']} over "
            f"{stats['shards']} socket shards -> sharded "
            f"{stats['sharded_s'] * 1e3:.1f} ms vs single fleet "
            f"{stats['single_s'] * 1e3:.1f} ms "
            f"({stats['overhead'] * 100:+.1f}% in-process overhead), "
            f"per-shard cycles {stats['per_shard_cycles']}, "
            f"bit-exact={stats['bit_exact']} "
            f"report-identical={stats['report_identical']} "
            f"verified={stats['verified']}/{stats['batch_size']}")


def _sharded_gates_pass(stats: dict) -> bool:
    return (stats["bit_exact"] and stats["report_identical"]
            and stats["shards_cover_batch"]
            and stats["verified"] == stats["batch_size"])


def test_sharded_vs_single_fleet(record):
    # An odd batch over 2 shards: the shard count does not divide it.
    stats = compare_sharded(batch_size=5, shards=2)
    record(render_sharded_report(stats))
    assert _sharded_gates_pass(stats)


# ----------------------------------------------------------------------
# Pool shard driver vs the serial driver
# ----------------------------------------------------------------------
def compare_shard_drivers(batch_size: int = 16, shards: int = 2,
                          rounds: int = 2) -> dict:
    """The persistent pool driver vs the serial reference driver.

    The pool runs forked workers fed one work per shard over their
    pipes, each carrying its lane's images as one stacked array; it is
    warmed (fork + program broadcast paid) before timing, so its number
    is the steady-state per-batch cost. Results must be
    identical either way — outputs bit-exact, aggregate and per-shard
    cycle reports equal.
    """
    import os

    net = tiny_verification_network()
    serial = ShardedBackend(shards=shards, driver="serial")
    serial_s = _best_of(lambda: serial.run(net, batch_size), rounds)
    serial_res = serial.run(net, batch_size)
    with ShardedBackend(shards=shards, driver="pool") as pool:
        pool.run(net, batch_size)           # fork + program broadcast
        pool_s = _best_of(lambda: pool.run(net, batch_size), rounds)
        res = pool.run(net, batch_size)
    out = net.output_name
    return {
        "batch_size": batch_size,
        "shards": shards,
        "cpus": os.cpu_count() or 1,
        "serial_s": serial_s,
        "pool_s": pool_s,
        "speedup": serial_s / pool_s,
        "bit_exact": bool(np.array_equal(res.outputs[out].data,
                                         serial_res.outputs[out].data)),
        "report_identical": res.report == serial_res.report,
        "shard_reports_identical":
            res.shard_reports == serial_res.shard_reports,
    }


def render_shard_driver_report(stats: dict) -> str:
    return (f"Shard driver benchmark: batch {stats['batch_size']} over "
            f"{stats['shards']} shards on {stats['cpus']} CPU(s) -> "
            f"serial {stats['serial_s'] * 1e3:.1f} ms, warm pool "
            f"{stats['pool_s'] * 1e3:.1f} ms ({stats['speedup']:.2f}x); "
            f"bit-exact and report-identical="
            f"{_shard_drivers_exact(stats)}")


def _shard_drivers_exact(stats: dict) -> bool:
    return (stats["bit_exact"] and stats["report_identical"]
            and stats["shard_reports_identical"])


def test_pool_driver_matches_serial(record):
    stats = compare_shard_drivers(batch_size=8, rounds=1)
    record(render_shard_driver_report(stats))
    assert _shard_drivers_exact(stats)


# ----------------------------------------------------------------------
# Async batched serving smoke (the CI serving gate)
# ----------------------------------------------------------------------
def compare_serving(n_requests: int = 24, sockets: int = 2,
                    pool_size: int = 2, max_batch: int = 6,
                    driver: str = "serial") -> dict:
    """One served request stream, with the gate verdict in the stats.

    The serving stack must lose nothing relative to the direct
    ``run_requests`` path: every request answered exactly once,
    bit-exact, however arrivals were coalesced into batches and
    whichever pool node ran them. Tail latency and throughput are the
    recorded serving numbers (host wall-clock, so recorded — the gates
    are the correctness invariants, which never relax).
    """
    from repro.serving import run_serving_benchmark

    return run_serving_benchmark(n_requests=n_requests, sockets=sockets,
                                 pool_size=pool_size, max_batch=max_batch,
                                 driver=driver)


def _serving_gates_pass(stats: dict) -> bool:
    return (stats["lost"] == 0 and stats["duplicates"] == 0
            and stats["bit_exact"]
            and stats["responded"] == stats["n_requests"])


def test_serving_smoke(record):
    from repro.serving import render_serving_report

    stats = compare_serving(n_requests=12, max_batch=4)
    record(render_serving_report(stats))
    assert _serving_gates_pass(stats)


# ----------------------------------------------------------------------
# Batch-in-fleet execution vs the per-image loop
# ----------------------------------------------------------------------
def compare_batched_conv(batch_size: int = 8, packed: bool = True,
                         rounds: int = 3) -> dict:
    """Batched vs per-image conv execution of the same image stream.

    The batch folds into the fleet's array axis, so every bit-serial
    sequence runs once per batch instead of once per image — the
    wall-clock lever — while outputs stay bit-exact (also against the
    golden executor) and the cycle report identical: the arrays are
    parallel hardware, so batching must not change modeled cycles.
    """
    conv, shape, weights, image, reference, net = _conv_case()
    rng = np.random.default_rng(99)
    images = [QuantizedTensor.from_real(rng.uniform(0, 6, shape),
                                        weights.input_params)
              for _ in range(batch_size)]

    def make() -> FunctionalConv:
        return FunctionalConv(conv, shape, weights.for_node("c"),
                              output_params=weights.activation_params,
                              packed=packed)

    batched_s = _best_of(lambda: make().run_batch(images), rounds)

    def loop():
        engine = make()
        return [engine.run(im) for im in images]

    loop_s = _best_of(loop, rounds)

    batched_engine = make()
    batched_out = batched_engine.run_batch(images)
    loop_engine = make()
    loop_out = [loop_engine.run(im) for im in images]
    golden = ReferenceExecutor(net, weights)
    bit_exact = all(
        np.array_equal(got.data, want.data)
        and np.array_equal(got.data, golden.run_output(im).data)
        for got, want, im in zip(batched_out, loop_out, images))
    return {
        "batch_size": batch_size,
        "packed": packed,
        "batched_s": batched_s,
        "per_image_s": loop_s,
        "speedup": loop_s / batched_s,
        "bit_exact": bit_exact,
        "report_identical": batched_engine.report == loop_engine.report,
    }


def compare_block_load(n_arrays: int = 512, taps: int = 9,
                       rounds: int = 3) -> dict:
    """The batched host pack at the ``load_bits`` boundary: one
    ``write_value_block`` call for all of a layer's tap planes vs the
    per-plane ``write_values`` loop it replaced (the 'before')."""
    rng = np.random.default_rng(11)
    values = rng.integers(0, 256, (n_arrays, taps, 256)).astype(np.uint8)
    values64 = values.astype(np.int64)   # what the per-plane loop carried
    unit = FleetBitSerialUnit(PackedArrayFleet(n_arrays, rows=256, cols=256))
    block = Operand(0, taps * 8)

    per_plane_s = _best_of(
        lambda: [unit.write_values(Operand(block.row + 8 * t, 8),
                                   values64[:, t])
                 for t in range(taps)], rounds)
    loop_state = unit.fleet.dump_bits(block.row, taps * 8)
    block_s = _best_of(
        lambda: unit.write_value_block(block, values, 8), rounds)
    block_state = unit.fleet.dump_bits(block.row, taps * 8)
    return {
        "n_arrays": n_arrays,
        "taps": taps,
        "per_plane_s": per_plane_s,
        "block_s": block_s,
        "speedup": per_plane_s / block_s,
        "bit_exact": bool(np.array_equal(loop_state, block_state)),
    }


def render_batched_report(stats: dict) -> str:
    store = "packed" if stats["packed"] else "unpacked"
    return (f"Batch-in-fleet benchmark ({store} store): batch "
            f"{stats['batch_size']} conv -> one fleet pass "
            f"{stats['batched_s'] * 1e3:.1f} ms vs per-image loop "
            f"{stats['per_image_s'] * 1e3:.1f} ms "
            f"({stats['speedup']:.1f}x faster), "
            f"bit-exact={stats['bit_exact']} "
            f"report-identical={stats['report_identical']}")


def render_block_load_report(stats: dict) -> str:
    return (f"Block tap-plane load benchmark: {stats['taps']} planes x "
            f"{stats['n_arrays']} arrays in one write_value_block "
            f"{stats['block_s'] * 1e3:.2f} ms vs per-plane loop "
            f"{stats['per_plane_s'] * 1e3:.2f} ms "
            f"({stats['speedup']:.1f}x faster), "
            f"bit-exact={stats['bit_exact']}")


def _batched_gates_pass(stats: dict, min_speedup: float) -> bool:
    return (stats["bit_exact"] and stats["report_identical"]
            and stats["speedup"] >= min_speedup)


def test_batched_vs_per_image_conv(record):
    # Full target: >= 4x at batch >= 8 on the packed (production) store.
    stats = compare_batched_conv(batch_size=16, packed=True)
    record(render_batched_report(stats))
    # Soft gate below the measured 4.2-5.4x (the recorded line carries
    # the real number): only flags a wholesale regression to per-image
    # behaviour, not wall-clock noise on a loaded machine.
    assert _batched_gates_pass(stats, min_speedup=2.0)


def test_batched_unpacked_store_also_wins(record):
    stats = compare_batched_conv(batch_size=8, packed=False)
    record(render_batched_report(stats))
    # The unpacked store does real byte-per-bit work per image, so its
    # batched win is smaller (~3x measured); gate only on correctness
    # plus not being slower than the loop.
    assert _batched_gates_pass(stats, min_speedup=1.2)


def test_block_tap_plane_load(record):
    stats = compare_block_load()
    record(render_block_load_report(stats))
    assert stats["bit_exact"]
    # One vectorized pack for the whole block must never lose to the
    # per-plane loop it replaced.
    assert stats["speedup"] >= 1.0


def compare_spanning_conv(batch_size: int = 2) -> dict:
    """Spanning-layer fleet vs analytic: the cross-array reduction path.

    Runs the zoo's ``inception-span`` model (each Mixed_5c/Branch_0
    output spans four arrays under the 16-column geometry) end-to-end on
    the packed fleet with golden verification on, then checks the
    functional engine's reduction cycles against the analytic
    ``reduction_cycles_per_pass`` under the derived cost preset. The
    functional engine runs two reduction trees per pass (MAC partials
    plus the input-sum correction), so the exact relation is
    ``functional == 2 x analytic``.
    """
    import dataclasses

    from repro.core.functional import FunctionalExecutor
    from repro.core.mapping import map_conv
    from repro.core.schedule import reduction_cycles_per_pass
    from repro.engine.backend import deterministic_images
    from repro.nn.models import build_inception_span, spanning_config
    from repro.sram.cost import CycleCosts

    net = build_inception_span()
    config = spanning_config()
    start = time.perf_counter()
    result = FleetExecutor(config=config, packed=True, verify=True).run(
        net, batch_size=batch_size)
    wall = time.perf_counter() - start

    derived = dataclasses.replace(config, costs=CycleCosts.derived())
    backend = FleetExecutor(config=derived, packed=True, verify=False)
    weights = backend.weights_for(net)
    image = deterministic_images(net, weights, backend.seed, 1)[0]
    executor = FunctionalExecutor(net, weights, config=derived, packed=True)
    executor.run(image)
    span_layer = "Mixed_5c/Branch_0/Conv2d_0a_1x1"
    report = executor.reports[span_layer]
    node = net.node(span_layer)
    mapping = map_conv(derived, node.name, net.conv_of(node),
                       net.input_shape_of(node.name))
    analytic = reduction_cycles_per_pass(derived, mapping)
    functional = report.reduction / report.passes
    return {
        "batch_size": batch_size,
        "span": mapping.arrays_per_conv,
        "hops": [h.kind for h in mapping.reduction_plan.hops],
        "bit_exact": result.verified_images == batch_size,
        "analytic_reduction_per_pass": analytic,
        "functional_reduction_per_pass": functional,
        "cycle_consistent": functional == 2 * analytic,
        "seconds": wall,
    }


def render_spanning_report(stats: dict) -> str:
    hops = " -> ".join(stats["hops"])
    verdict = "verified" if stats["bit_exact"] else "DIVERGED"
    agree = "consistent" if stats["cycle_consistent"] else "MISMATCH"
    return (f"Spanning conv benchmark (inception-span, {stats['span']} "
            f"arrays/output, hops {hops}): fleet-packed batch "
            f"{stats['batch_size']} {verdict} in {stats['seconds']:.2f} s; "
            f"reduction cycles/pass functional "
            f"{stats['functional_reduction_per_pass']:.0f} vs analytic "
            f"2 x {stats['analytic_reduction_per_pass']} ({agree})")


def test_spanning_conv_fleet_vs_analytic(record):
    stats = compare_spanning_conv()
    record(render_spanning_report(stats))
    assert stats["bit_exact"]
    assert stats["cycle_consistent"]


def compare_sparsity(caps=(255, 63, 15, 0)) -> dict:
    """Bit-plane sparsity on the tiny verification network: dense vs
    sparse fleet runs over inputs of decreasing magnitude.

    Capping the activation magnitude leaves the high bit planes all-zero
    fleet-wide, which is exactly what the skip detector elides, so the
    modeled-cycle reduction (``dense_cycles / cycles``) should grow as
    the cap shrinks while outputs stay bit-exact and ``dense_cycles``
    stays pinned to the data-independent dense model.
    """
    net = tiny_verification_network()
    weights = FleetExecutor(packed=True).weights_for(net)
    rng = np.random.default_rng(97)
    points = []
    bit_exact = True
    dense_pinned = True
    start = time.perf_counter()
    for cap in caps:
        data = rng.integers(0, cap + 1, size=net.input_shape,
                            dtype=np.uint8)
        image = QuantizedTensor(data, weights.input_params)
        dense = FleetExecutor(packed=True).run_requests(net, [image],
                                                        weights)
        sparse = FleetExecutor(packed=True, sparsity=True).run_requests(
            net, [image], weights)
        exact = all(np.array_equal(g.data, w.data)
                    for g, w in zip(sparse.responses, dense.responses))
        bit_exact = bit_exact and exact
        dense_pinned = dense_pinned and (
            sparse.report.dense_cycles == dense.report.total
            and dense.report.skipped == 0)
        points.append({
            "cap": cap,
            "zero_fraction": float(np.mean(data == 0)),
            "cycles": sparse.report.total,
            "skipped": sparse.report.skipped,
            "dense_cycles": sparse.report.dense_cycles,
            "cycle_reduction": sparse.report.dense_cycles
            / sparse.report.total,
        })
    return {
        "points": points,
        "bit_exact": bit_exact,
        "dense_pinned": dense_pinned,
        "best_reduction": max(p["cycle_reduction"] for p in points),
        "seconds": time.perf_counter() - start,
    }


def render_sparsity_report(stats: dict) -> str:
    verdict = "bit-exact" if stats["bit_exact"] else "DIVERGED"
    pinned = ("dense model pinned" if stats["dense_pinned"]
              else "DENSE CYCLES DRIFTED")
    rows = "; ".join(
        f"cap {p['cap']}: {p['cycle_reduction']:.2f}x "
        f"({p['skipped']} of {p['dense_cycles']} cycles skipped)"
        for p in stats["points"])
    return (f"Sparsity benchmark (tiny net, {verdict}, {pinned}, "
            f"{stats['seconds']:.2f} s): {rows}")


def _sparsity_gates_pass(stats: dict, min_reduction: float) -> bool:
    return (stats["bit_exact"] and stats["dense_pinned"]
            and stats["best_reduction"] >= min_reduction)


def test_sparsity_skip_reduction(record):
    stats = compare_sparsity()
    record(render_sparsity_report(stats))
    assert _sparsity_gates_pass(stats, 1.2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fleet engine smoke benchmarks: packed vs unpacked "
                    "plane store, sharded-vs-single aggregation gates, "
                    "pool-vs-serial shard driver equivalence + speedup "
                    "gates, serving smoke gates, batched-vs-per-image "
                    "execution gates")
    parser.add_argument("--quick", action="store_true",
                        help="smaller fleet/batches and relaxed speedup "
                             "gates (CI smoke mode)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write every section's measurements to "
                             "PATH as one JSON document (bench "
                             "trajectory)")
    parser.add_argument("--trajectory", metavar="PATH", default=None,
                        help="append a compact per-driver wall-clock "
                             "entry to the accumulating JSON history at "
                             "PATH (created when missing)")
    args = parser.parse_args(argv)
    results: dict = {"mode": "quick" if args.quick else "full"}

    def finish(code: int) -> int:
        return _finish(results, args.json, args.trajectory, code)
    n_arrays = QUICK_ARRAYS if args.quick else PRIMITIVE_ARRAYS
    min_speedup = 2.0 if args.quick else 4.0
    stats = compare_plane_stores(n_arrays)
    results["plane_store"] = stats
    print(render_plane_store_report(stats))
    ok = (stats["bit_exact"] and stats["cycle_exact"]
          and stats["memory_ratio"] == 8.0
          and stats["speedup"] >= min_speedup)
    if not ok:
        print(f"FAIL: packed store regressed (need bit/cycle exactness, "
              f"8x memory, >= {min_speedup:.1f}x speedup)", file=sys.stderr)
        return finish(1)

    # Sharded aggregation smoke: a shard count that divides the batch and
    # one that does not (quick mode keeps the batch CI-sized).
    batch = 4 if args.quick else 8
    results["sharded"] = []
    for shards in (2, 3):
        sharded_stats = compare_sharded(batch_size=batch, shards=shards,
                                        rounds=1 if args.quick else 2)
        results["sharded"].append(sharded_stats)
        print(render_sharded_report(sharded_stats))
        if not _sharded_gates_pass(sharded_stats):
            print("FAIL: sharded aggregation regressed (need bit-exact "
                  "outputs, identical cycle reports, full batch coverage "
                  "and verification)", file=sys.stderr)
            return finish(1)

    # Shard drivers: the pool must be indistinguishable from serial in
    # results, and must additionally buy wall-clock at >= 2 shards when
    # the host actually has parallel CPUs (full mode — CI runners and
    # 1-CPU sandboxes record the number instead of gating it; the
    # correctness gates never relax).
    driver_stats = compare_shard_drivers(
        batch_size=8 if args.quick else 16,
        rounds=1 if args.quick else 2)
    results["shard_drivers"] = driver_stats
    print(render_shard_driver_report(driver_stats))
    if not _shard_drivers_exact(driver_stats):
        print("FAIL: the pool shard driver diverged from the serial "
              "driver (need bit-exact outputs and identical aggregate + "
              "per-shard cycle reports)", file=sys.stderr)
        return finish(1)
    if (not args.quick and driver_stats["cpus"] >= 2
            and driver_stats["speedup"] < 1.05):
        print(f"FAIL: pool shard driver shows no wall-clock speedup "
              f"over serial ({driver_stats['speedup']:.2f}x at "
              f"{driver_stats['shards']} shards on "
              f"{driver_stats['cpus']} CPUs)", file=sys.stderr)
        return finish(1)

    # Serving smoke (the CI serving gate): lost/duplicated responses or
    # bit-inexact results vs the direct run_requests path fail the run.
    serving_stats = compare_serving(
        n_requests=12 if args.quick else 32,
        max_batch=4 if args.quick else 6)
    results["serving"] = serving_stats
    from repro.serving import render_serving_report
    print(render_serving_report(serving_stats))
    if not _serving_gates_pass(serving_stats):
        print("FAIL: serving regressed (lost or duplicated responses, or "
              "responses not bit-exact vs the direct run_batch path)",
              file=sys.stderr)
        return finish(1)

    # Batch-in-fleet smoke: the conv functional path at batch >= 8 on
    # the packed store. Full mode holds the >= 4x acceptance line; quick
    # mode relaxes to 2x (a > 2x slowdown vs the ~4-5x expectation —
    # i.e. a wholesale regression toward per-image behaviour — still
    # fails CI, wall-clock noise does not). Correctness gates (bit-exact
    # outputs, identical cycle reports) are never relaxed.
    batched_batch = 8 if args.quick else 16
    batched_min = 2.0 if args.quick else 4.0
    batched_stats = compare_batched_conv(
        batch_size=batched_batch, packed=True,
        rounds=1 if args.quick else 3)
    results["batched"] = batched_stats
    print(render_batched_report(batched_stats))
    if not _batched_gates_pass(batched_stats, batched_min):
        print(f"FAIL: batch-in-fleet regressed (need bit-exact outputs, "
              f"identical cycle reports and >= {batched_min:.1f}x speedup "
              f"at batch {batched_batch})", file=sys.stderr)
        return finish(1)
    if not args.quick:
        unpacked_stats = compare_batched_conv(batch_size=8, packed=False)
        results["batched_unpacked"] = unpacked_stats
        print(render_batched_report(unpacked_stats))
        if not _batched_gates_pass(unpacked_stats, 1.2):
            print("FAIL: batch-in-fleet regressed on the unpacked store",
                  file=sys.stderr)
            return finish(1)

    block_stats = compare_block_load(
        n_arrays=128 if args.quick else 512,
        rounds=1 if args.quick else 3)
    results["block_load"] = block_stats
    print(render_block_load_report(block_stats))
    if not block_stats["bit_exact"]:
        print("FAIL: block tap-plane load diverged from the per-plane "
              "loop", file=sys.stderr)
        return finish(1)

    # Spanning-layer gate: cross-array reduction on a real Inception
    # layer must stay bit-exact on the fleet and cycle-consistent with
    # the analytic schedule (functional == 2 x analytic per pass).
    spanning_stats = compare_spanning_conv(batch_size=2)
    results["spanning"] = spanning_stats
    print(render_spanning_report(spanning_stats))
    if not (spanning_stats["bit_exact"]
            and spanning_stats["cycle_consistent"]):
        print("FAIL: spanning-layer cross-array reduction regressed "
              "(need bit-exact fleet outputs and functional reduction "
              "cycles == 2 x analytic reduction_cycles_per_pass)",
              file=sys.stderr)
        return finish(1)

    # Bit-plane sparsity gate: sparse runs must stay bit-exact with the
    # dense accounting pinned, and the best modeled-cycle reduction over
    # the magnitude sweep must clear 1.2x in full mode (quick mode only
    # requires some skipping — correctness gates never relax).
    sparsity_min = 1.01 if args.quick else 1.2
    sparsity_stats = compare_sparsity(
        caps=(255, 15) if args.quick else (255, 63, 15, 0))
    results["sparsity"] = sparsity_stats
    print(render_sparsity_report(sparsity_stats))
    if not _sparsity_gates_pass(sparsity_stats, sparsity_min):
        print(f"FAIL: bit-plane sparsity regressed (need bit-exact "
              f"sparse outputs, dense_cycles pinned to the dense model "
              f"and >= {sparsity_min:.2f}x best modeled-cycle "
              f"reduction)", file=sys.stderr)
        return finish(1)

    print(f"OK (gates: bit/cycle exact, 8x memory, "
          f">= {min_speedup:.1f}x packed speedup; sharded aggregation "
          f"lossless at shard counts 2 and 3; pool driver identical to "
          f"serial; serving exact — nothing lost, duplicated or "
          f"bit-inexact; batch-in-fleet bit-exact, report-identical and "
          f">= {batched_min:.1f}x at batch {batched_batch}; block load "
          f"bit-exact; spanning layer bit-exact and cycle-consistent "
          f"with the analytic schedule; sparsity bit-exact, dense model "
          f"pinned, best reduction >= {sparsity_min:.2f}x)")
    return finish(0)


def _trajectory_entry(results: dict) -> dict:
    """Reduce one run to the numbers worth tracking across commits."""
    entry: dict = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": results["mode"],
        "ok": results["ok"],
    }
    plane = results.get("plane_store")
    if plane:
        entry["packed_speedup"] = plane["speedup"]
    drivers = results.get("shard_drivers")
    if drivers:
        entry["driver_wall_s"] = {"serial": drivers["serial_s"],
                                  "pool": drivers["pool_s"]}
    serving = results.get("serving")
    if serving:
        entry["serving_rps"] = serving["throughput_rps"]
        entry["serving_p99_ms"] = serving["p99_ms"]
    batched = results.get("batched")
    if batched:
        entry["batched_speedup"] = batched["speedup"]
    spanning = results.get("spanning")
    if spanning:
        entry["spanning"] = {
            "bit_exact": spanning["bit_exact"],
            "cycle_consistent": spanning["cycle_consistent"],
            "reduction_cycles_per_pass":
                spanning["analytic_reduction_per_pass"],
            "wall_s": spanning["seconds"],
        }
    sparsity = results.get("sparsity")
    if sparsity:
        entry["sparsity"] = {
            "bit_exact": sparsity["bit_exact"],
            "dense_pinned": sparsity["dense_pinned"],
            "best_cycle_reduction": sparsity["best_reduction"],
            "wall_s": sparsity["seconds"],
        }
    return entry


def _finish(results: dict, json_path: str | None,
            trajectory_path: str | None, code: int) -> int:
    """Write the JSON documents (always, even on failure)."""
    results["ok"] = code == 0
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
        print(f"wrote {json_path}")
    if trajectory_path:
        try:
            with open(trajectory_path) as fh:
                history = json.load(fh)
            if not isinstance(history, list):
                history = []
        except (OSError, ValueError):
            history = []
        history.append(_trajectory_entry(results))
        with open(trajectory_path, "w") as fh:
            json.dump(history, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"appended run {len(history)} to {trajectory_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
