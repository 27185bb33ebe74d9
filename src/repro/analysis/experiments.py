"""One entry point per table and figure of the paper's evaluation.

Each function returns an :class:`~repro.analysis.report.ExperimentResult`
whose rows mirror the published presentation and whose ``data`` payload
carries the raw numbers (used by benchmarks and EXPERIMENTS.md). The
heavyweight objects (the Inception v3 graph, the Neural Cache simulator,
the baselines) are built once and cached module-wide.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.analysis import paper
from repro.analysis.report import ExperimentResult, pct, ratio_cell
from repro.baselines import CpuBaseline, GpuBaseline, TITAN_XP, XEON_E5_2697_V3
from repro.cache.geometry import capacity_sweep
from repro.config import NeuralCacheConfig
from repro.core.schedule import mac_cycles_per_pass, reduction_cycles_per_pass
from repro.engine.backend import AnalyticBackend, Backend, get_backend
from repro.nn import build_inception_v3, table1 as build_table1
from repro.sram.cost import CycleCosts

DEFAULT_BATCHES = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@lru_cache(maxsize=1)
def _network():
    return build_inception_v3()


@lru_cache(maxsize=1)
def _backend() -> Backend:
    """The analytic engine, held behind the unified Backend protocol."""
    return get_backend("analytic")


def _simulator():
    """Engine-specific surface (layer mappings) of the analytic backend."""
    return _backend().simulator(_network())


@lru_cache(maxsize=1)
def _cpu() -> CpuBaseline:
    return CpuBaseline(_network())


@lru_cache(maxsize=1)
def _gpu() -> GpuBaseline:
    return GpuBaseline(_network())


@lru_cache(maxsize=4)
def _result(batch_size: int = 1):
    return _backend().run(_network(), batch_size).inference


# ---------------------------------------------------------------------------
# Table I: Inception v3 layer parameters
# ---------------------------------------------------------------------------
def table1() -> ExperimentResult:
    """Regenerate Table I from the faithful Inception v3 graph."""
    rows = []
    data = {}
    for stats in build_table1(_network()):
        published = paper.TABLE1[stats.group]
        flag = ("*" if stats.group in paper.TABLE1_KNOWN_DISCREPANCIES
                else "")
        rows.append((
            stats.group + flag,
            str(stats.input_height),
            stats.kernel_label(),
            str(stats.output_height),
            stats.channel_label(),
            str(stats.convolutions),
            f"{stats.filter_mb:.3f}",
            f"{stats.input_mb:.3f}",
            str(published[0]),
        ))
        data[stats.group] = stats
    return ExperimentResult(
        name="Table I: Parameters of the Layers of Inception v3",
        headers=("Layer", "H", "RxS", "E", "C", "Conv", "Filter/MB",
                 "Input/MB", "paper Conv"),
        rows=tuple(rows),
        data=data,
        notes=("* Mixed_6a filter size: the published 0.255 MB reads "
               "TF-slim's 'Conv2d_1a_1x1' scope name as a 1x1 filter; the "
               "real op is 3x3 stride 2 (1.10 MB here).",
               "* Mixed_6e: the published row repeats 6c/6d although its "
               "C-range column implies the standard 192-channel module "
               "built here."))


# ---------------------------------------------------------------------------
# Table II: baseline configuration
# ---------------------------------------------------------------------------
def table2() -> ExperimentResult:
    """Baseline CPU & GPU configuration (spec constants)."""
    rows = []
    for spec in (XEON_E5_2697_V3, TITAN_XP):
        rows.append((spec.name, f"{spec.frequency_ghz} GHz",
                     str(spec.parallel_units), f"{spec.process_nm} nm",
                     f"{spec.tdp_watts:.0f} W", spec.cache_description))
    return ExperimentResult(
        name="Table II: Baseline CPU & GPU Configuration",
        headers=("Device", "Frequency", "Cores/CUDA", "Process", "TDP",
                 "Cache"),
        rows=tuple(rows),
        data={"cpu": XEON_E5_2697_V3, "gpu": TITAN_XP})


# ---------------------------------------------------------------------------
# Figure 13: per-layer latency
# ---------------------------------------------------------------------------
def figure13() -> ExperimentResult:
    """Inference latency by layer for CPU, GPU and Neural Cache."""
    nc_groups = _result().group_latency()
    cpu_groups = _cpu().group_latency()
    gpu_groups = _gpu().group_latency()
    rows = []
    for group in _network().groups():
        rows.append((group,
                     f"{cpu_groups[group] * 1e3:.3f}",
                     f"{gpu_groups[group] * 1e3:.3f}",
                     f"{nc_groups[group] * 1e3:.3f}"))
    data = {"cpu": cpu_groups, "gpu": gpu_groups, "neural_cache": nc_groups}
    return ExperimentResult(
        name="Figure 13: Inference Latency by Layer of Inception v3 (ms)",
        headers=("Layer", "CPU Xeon E5", "GPU Titan Xp", "Neural Cache"),
        rows=tuple(rows),
        data=data,
        notes=("Neural Cache is fastest on every layer; the mixed modules "
               "dominate all three devices, as in the paper.",))


# ---------------------------------------------------------------------------
# Figure 14: Neural Cache latency breakdown
# ---------------------------------------------------------------------------
def figure14() -> ExperimentResult:
    """Execution-time breakdown of a batch-1 inference."""
    breakdown = _result().breakdown()
    fractions = breakdown.fractions()
    rows = []
    for phase, published in paper.BREAKDOWN_FRACTIONS.items():
        rows.append((phase, f"{getattr(breakdown, phase) * 1e3:.3f}",
                     pct(fractions[phase]), pct(published)))
    return ExperimentResult(
        name="Figure 14: Neural Cache Inference Latency Breakdown",
        headers=("Phase", "Time/ms", "Share", "Paper share"),
        rows=tuple(rows),
        data={"breakdown": breakdown, "fractions": fractions})


# ---------------------------------------------------------------------------
# Figure 15: total latency
# ---------------------------------------------------------------------------
def figure15() -> ExperimentResult:
    """Total batch-1 latency and the headline speedups."""
    nc = _result().total_time
    cpu = _cpu().latency()
    gpu = _gpu().latency()
    rows = (
        ("CPU - Xeon E5", ratio_cell(cpu * 1e3, paper.CPU_LATENCY_MS), "1.0x"),
        ("GPU - Titan Xp", ratio_cell(gpu * 1e3, paper.GPU_LATENCY_MS),
         f"{cpu / gpu:.1f}x"),
        ("Neural Cache", ratio_cell(nc * 1e3, paper.NC_LATENCY_MS),
         f"{cpu / nc:.1f}x"),
    )
    data = {"cpu_s": cpu, "gpu_s": gpu, "nc_s": nc,
            "cpu_speedup": cpu / nc, "gpu_speedup": gpu / nc}
    return ExperimentResult(
        name="Figure 15: Total Latency on Inception v3 Inference",
        headers=("Device", "Latency/ms (vs paper)", "Speedup vs CPU"),
        rows=rows,
        data=data,
        notes=(f"Paper speedups: {paper.CPU_SPEEDUP}x over CPU, "
               f"{paper.GPU_SPEEDUP}x over GPU; measured "
               f"{data['cpu_speedup']:.1f}x and {data['gpu_speedup']:.1f}x.",))


# ---------------------------------------------------------------------------
# Figure 16: throughput vs batch size
# ---------------------------------------------------------------------------
def figure16(batches: tuple[int, ...] = DEFAULT_BATCHES) -> ExperimentResult:
    """Throughput (inferences/s) as the batch size sweeps."""
    backend = _backend()
    rows = []
    series = {"batch": [], "cpu": [], "gpu": [], "neural_cache": []}
    for batch in batches:
        cpu_t = _cpu().throughput(batch)
        gpu_t = _gpu().throughput(batch)
        nc_t = backend.throughput(_network(), batch)
        series["batch"].append(batch)
        series["cpu"].append(cpu_t)
        series["gpu"].append(gpu_t)
        series["neural_cache"].append(nc_t)
        rows.append((str(batch), f"{cpu_t:.1f}", f"{gpu_t:.1f}",
                     f"{nc_t:.1f}"))
    peak = max(series["neural_cache"])
    data = dict(series)
    data["nc_peak"] = peak
    data["vs_gpu"] = peak / max(series["gpu"])
    data["vs_cpu"] = peak / max(series["cpu"])
    return ExperimentResult(
        name="Figure 16: Throughput with Varying Batch Sizes (inf/s)",
        headers=("Batch", "CPU", "GPU", "Neural Cache"),
        rows=tuple(rows),
        data=data,
        notes=(f"Peak Neural Cache throughput {peak:.0f} inf/s "
               f"(paper {paper.NC_MAX_THROUGHPUT:.0f}); "
               f"{data['vs_gpu']:.1f}x GPU (paper {paper.THROUGHPUT_VS_GPU}x), "
               f"{data['vs_cpu']:.1f}x CPU (paper {paper.THROUGHPUT_VS_CPU}x).",))


# ---------------------------------------------------------------------------
# Table III: energy and power
# ---------------------------------------------------------------------------
def table3() -> ExperimentResult:
    """Energy per inference and average power for all three devices."""
    result = _result()
    devices = (
        ("CPU", _cpu().energy(), _cpu().average_power),
        ("GPU", _gpu().energy(), _gpu().average_power),
        ("Neural Cache", result.total_energy, result.average_power),
    )
    keys = ("cpu", "gpu", "neural_cache")
    rows = []
    data = {}
    for (name, energy, power), key in zip(devices, keys):
        rows.append((name,
                     ratio_cell(energy, paper.ENERGY_J[key], precision=3),
                     ratio_cell(power, paper.POWER_W[key])))
        data[key] = {"energy_j": energy, "power_w": power}
    nc = data["neural_cache"]["energy_j"]
    data["efficiency_vs_cpu"] = data["cpu"]["energy_j"] / nc
    data["efficiency_vs_gpu"] = data["gpu"]["energy_j"] / nc
    return ExperimentResult(
        name="Table III: Energy Consumption and Average Power",
        headers=("Device", "Total Energy/J (vs paper)",
                 "Average Power/W (vs paper)"),
        rows=tuple(rows),
        data=data,
        notes=(f"Energy efficiency vs CPU {data['efficiency_vs_cpu']:.1f}x "
               f"(paper 37.1x), vs GPU {data['efficiency_vs_gpu']:.1f}x "
               f"(paper 16.6x).",))


# ---------------------------------------------------------------------------
# Table IV: scaling with cache capacity
# ---------------------------------------------------------------------------
def table4() -> ExperimentResult:
    """Batch-1 latency at 35 / 45 / 60 MB."""
    rows = []
    data = {}
    for geometry in capacity_sweep():
        capacity_mb = geometry.total_bytes // (1024 * 1024)
        config = NeuralCacheConfig().with_geometry(geometry)
        latency = AnalyticBackend(config).run(_network()).latency_s
        published = paper.CAPACITY_LATENCY_MS[capacity_mb]
        rows.append((f"{capacity_mb} MB ({geometry.slices} slices)",
                     ratio_cell(latency * 1e3, published)))
        data[capacity_mb] = latency
    return ExperimentResult(
        name="Table IV: Scaling with Cache Capacity (Batch Size = 1)",
        headers=("Cache Capacity", "Inference Latency/ms (vs paper)"),
        rows=tuple(rows),
        data=data)


# ---------------------------------------------------------------------------
# Sec. VI-A worked example
# ---------------------------------------------------------------------------
def section6a_example() -> ExperimentResult:
    """The Conv2d_2b_3x3 walk-through of Sec. VI-A."""
    sim = _simulator()
    mapping = sim.mapping_for("Conv2d_2b_3x3")
    config = sim.config
    mac = mac_cycles_per_pass(config, mapping)
    reduce_c = reduction_cycles_per_pass(config, mapping)
    per_conv = mac + reduce_c
    layer_cycles = mapping.serial_passes * per_conv
    conv_ms = layer_cycles / config.frequency_hz * 1e3
    rows = (
        ("parallel convolutions", str(mapping.parallel_outputs), "~32000"),
        ("serial passes", str(mapping.serial_passes),
         str(paper.EXAMPLE_SERIAL_CONVS)),
        ("utilization", pct(mapping.utilization),
         pct(paper.EXAMPLE_UTILIZATION)),
        ("cycles per MAC", str(config.costs.mac(8, 24)),
         str(paper.EXAMPLE_CYCLES_PER_MAC)),
        ("reduction cycles", str(reduce_c),
         str(paper.EXAMPLE_REDUCTION_CYCLES)),
        ("cycles per convolution", str(per_conv),
         str(paper.EXAMPLE_CYCLES_PER_CONV)),
        ("layer cycles", str(layer_cycles),
         str(paper.EXAMPLE_LAYER_CYCLES)),
        ("convolution time (ms)", f"{conv_ms:.4f}",
         f"{paper.EXAMPLE_CONV_TIME_MS:.4f}"),
    )
    data = {"mapping": mapping, "per_conv": per_conv,
            "layer_cycles": layer_cycles, "conv_ms": conv_ms}
    return ExperimentResult(
        name="Sec. VI-A worked example: Conv2d_2b_3x3",
        headers=("Quantity", "Measured", "Paper"),
        rows=rows,
        data=data)


# ---------------------------------------------------------------------------
# Sec. III: arithmetic op latencies
# ---------------------------------------------------------------------------
def arithmetic_latencies(bit_widths: tuple[int, ...] = (4, 8, 16)
                         ) -> ExperimentResult:
    """Bit-serial op cycle counts: functional model vs both presets."""
    from repro.sram import BitSerialUnit, Operand, SRAMArray

    derived = CycleCosts.derived()
    published = CycleCosts.paper()
    rows = []
    data = {}
    for n in bit_widths:
        unit = BitSerialUnit(SRAMArray(rows=256, cols=32))
        values = np.arange(32, dtype=np.int64) % (1 << n)
        a, b = Operand(0, n), Operand(n, n)
        unit.write_values(a, values)
        unit.write_values(b, values[::-1].copy())
        unit.add(a, b, Operand(2 * n, n + 1))
        add_measured = unit.cycles

        unit2 = BitSerialUnit(SRAMArray(rows=256, cols=32))
        unit2.write_values(a, values)
        unit2.write_values(b, values[::-1].copy())
        unit2.multiply(a, b, Operand(2 * n, 2 * n))
        mult_measured = unit2.cycles

        rows.append((f"add n={n}", str(add_measured), str(derived.add(n)),
                     str(published.add(n))))
        rows.append((f"multiply n={n}", str(mult_measured),
                     str(derived.multiply(n)), str(published.multiply(n))))
        rows.append((f"divide n={n}", "-", str(derived.divide(n)),
                     str(published.divide(n))))
        data[n] = {"add": add_measured, "multiply": mult_measured}
    return ExperimentResult(
        name="Sec. III: bit-serial op latencies (cycles)",
        headers=("Operation", "Functional", "Derived model", "Paper model"),
        rows=tuple(rows),
        data=data,
        notes=("Paper formulas: add n+1, multiply n^2+5n-2, divide "
               "1.5n^2+5.5n. The derived column matches the functional "
               "simulator exactly; gaps to the paper's multiply are the "
               "linear bookkeeping term discussed in DESIGN.md.",))


# ---------------------------------------------------------------------------
# Peak throughput and area
# ---------------------------------------------------------------------------
def peak_throughput() -> ExperimentResult:
    """The 28 TOP/s (8-bit) headline claim at 35 MB."""
    config = NeuralCacheConfig()
    peak = config.peak_ops_per_second()
    rows = (
        ("bit-serial ALU slots", str(config.geometry.alu_slots),
         str(paper.ALU_SLOTS_35MB)),
        ("compute frequency", f"{config.frequency_hz / 1e9:.1f} GHz",
         "2.5 GHz"),
        ("8-bit multiply cycles", str(config.costs.multiply(8)), "102"),
        ("peak 8-bit TOP/s", f"{peak / 1e12:.1f}",
         f"{paper.PEAK_TOPS / 1e12:.0f}"),
    )
    return ExperimentResult(
        name="Peak throughput (Sec. VII comparison with BrainWave)",
        headers=("Quantity", "Measured", "Paper"),
        rows=rows,
        data={"peak_ops": peak})


def area_report() -> ExperimentResult:
    """Area overhead accounting (Fig. 12, Sec. IV-F)."""
    from repro.core.isa import fsm_total_area_mm2
    from repro.sram import ArrayAreaModel

    model = ArrayAreaModel()
    config = NeuralCacheConfig()
    banks = config.geometry.slices * config.geometry.banks_per_slice
    rows = (
        ("array area overhead", pct(model.overhead_fraction),
         pct(paper.ARRAY_AREA_OVERHEAD)),
        ("processor die overhead", pct(model.die_overhead_fraction()),
         f"< {pct(paper.DIE_AREA_OVERHEAD_MAX)}"),
        ("control FSM total", f"{fsm_total_area_mm2(banks):.2f} mm^2",
         f"{paper.FSM_TOTAL_AREA_MM2:.2f} mm^2"),
    )
    return ExperimentResult(
        name="Area overheads (Fig. 12 / Sec. IV-F)",
        headers=("Quantity", "Measured", "Paper"),
        rows=rows,
        data={"banks": banks})


def robustness_report() -> ExperimentResult:
    """Multi-row activation stability (Sec. II-B / Sec. V anchors)."""
    from repro.sram.robustness import (
        CHOSEN_RWL_VOLTAGE,
        ReadStabilityModel,
        choose_rwl_voltage,
    )

    model = ReadStabilityModel()
    rows = (
        ("RWL voltage meeting 6 sigma", f"{choose_rwl_voltage():.2f} V",
         f"{CHOSEN_RWL_VOLTAGE:.2f} V"),
        ("margin at 0.66 V, 2 rows",
         f"{model.margin_sigma(CHOSEN_RWL_VOLTAGE):.1f} sigma",
         ">= 6 sigma"),
        ("margin at 0.66 V, 64 rows",
         f"{model.margin_sigma(CHOSEN_RWL_VOLTAGE, 64):.1f} sigma",
         "no corruption on 20 chips"),
        ("expected disturbs, 20 x 8KB chips, 64 rows",
         f"{model.expected_failures(CHOSEN_RWL_VOLTAGE, 20 * 8192 * 8, 64):.3f}",
         "0 observed"),
        ("compute delay at 0.66 V",
         f"{model.compute_delay_ps(CHOSEN_RWL_VOLTAGE):.0f} ps", "1022 ps"),
        ("delay vs normal read", f"{model.delay_ratio():.2f}x", "~1.6x"),
    )
    return ExperimentResult(
        name="Multi-row activation robustness (Sec. II-B / V)",
        headers=("Quantity", "Model", "Paper"),
        rows=rows,
        data={"voltage": choose_rwl_voltage()})


def fleet_verification(batch_size: int = 2) -> ExperimentResult:
    """Bit-exact functional execution through the fleet Backend.

    Exercises the same :class:`~repro.engine.backend.Backend` protocol the
    analytic experiments use, but with the vectorized functional engine:
    every layer runs as one lockstep bit-serial sequence across a packed
    :class:`~repro.engine.packed.PackedArrayFleet` and the outputs are
    checked bit-for-bit against the golden NumPy executor.
    """
    from repro.engine.backend import tiny_verification_network

    backend = get_backend("fleet-packed")
    net = tiny_verification_network()
    res = backend.run(net, batch_size=batch_size)
    r = res.report
    rows = (
        ("network", net.name),
        ("images verified bit-exact", f"{res.verified_images}/{batch_size}"),
        ("array passes", str(r.passes)),
        ("MAC cycles", str(r.mac)),
        ("reduction cycles", str(r.reduction)),
        ("quantization cycles", str(r.quantization)),
        ("pooling cycles", str(r.pooling)),
        ("total compute cycles", str(r.total)),
    )
    return ExperimentResult(
        name="Fleet backend: bit-exact functional verification",
        headers=("Quantity", "Measured"),
        rows=rows,
        data={"result": res},
        notes=("Every layer executes as one lockstep bit-serial sequence "
               "across the array fleet; outputs match the golden NumPy "
               "executor exactly.",))


def sparsity(caps: tuple[int, ...] = (255, 63, 15, 3, 0)
             ) -> ExperimentResult:
    """Cycles vs activation sparsity under bit-plane skipping.

    The sparsity engine elides a multiply/add step when an operand's
    whole bit plane is zero across the fleet — the lockstep analogue of
    BitWave-style bit-column skipping. Activations with small magnitudes
    leave their high bit planes all-zero, so the actual cycle count
    falls as activations get sparser/narrower while outputs stay
    bit-exact (verified against the golden executor at every point) and
    the dense-equivalent count (``CycleReport.dense_cycles``) stays at
    the input-independent paper accounting.
    """
    from repro.engine.backend import (
        BackendOptions,
        get_backend,
        tiny_verification_network,
    )
    from repro.nn import QuantizedTensor

    net = tiny_verification_network()
    backend = get_backend("fleet-packed",
                          options=BackendOptions(sparsity=True))
    weights = backend.weights_for(net)
    golden = backend.golden_for(net, weights)
    rng = np.random.default_rng(0)
    rows = []
    points = []
    dense_cycles = None
    for cap in caps:
        if cap:
            raw = rng.integers(0, cap + 1, size=net.input_shape,
                               dtype=np.uint8)
        else:
            raw = np.zeros(net.input_shape, dtype=np.uint8)
        image = QuantizedTensor(data=raw, params=weights.input_params)
        outcome = backend.run_requests(net, [image], weights, golden)
        r = outcome.report
        if dense_cycles is None:
            dense_cycles = r.dense_cycles
        elif r.dense_cycles != dense_cycles:
            raise AssertionError(
                f"dense-equivalent cycles moved with the input: "
                f"{r.dense_cycles} != {dense_cycles}")
        zero_frac = float((raw == 0).mean())
        speedup = r.dense_cycles / r.total if r.total else float("inf")
        rows.append((f"<= {cap}", pct(zero_frac), str(r.total),
                     str(r.skipped), f"{speedup:.2f}x"))
        points.append({"cap": cap, "zero_fraction": zero_frac,
                       "cycles": r.total, "skipped": r.skipped,
                       "speedup": speedup, "verified": outcome.verified})
    return ExperimentResult(
        name="Bit-plane sparsity: cycles vs activation sparsity",
        headers=("Activations", "Zero frac", "Cycles", "Skipped",
                 "Speedup"),
        rows=tuple(rows),
        data={"dense_cycles": dense_cycles, "points": points},
        notes=("All-zero operand bit planes are detected at the plane "
               "store and their multiply/add steps skipped fleet-wide; "
               "every point's outputs are verified bit-exact against "
               "the golden executor, and the dense-equivalent cycle "
               "count is identical at every point — sparsity changes "
               "what runs, never what is computed or how the paper's "
               "cycle model accounts it.",))


@lru_cache(maxsize=2)
def sharding(batch_size: int = 4, socket_counts: tuple[int, ...] = (1, 2, 4)
             ) -> ExperimentResult:
    """Multi-socket sharding: the linear scaling claim of Sec. VI-B.

    Two halves of the same story. Analytically, "Neural Cache throughput
    scales linearly with the number of host CPUs": the model's
    inferences/s at each socket count must be exactly ``sockets x`` the
    single-socket figure. Functionally, the
    :class:`~repro.engine.sharding.ShardedBackend` splits a batch
    round-robin across socket shards (one packed fleet each) and its
    aggregate must be *identical* — outputs bit-exact, cycle report
    equal — to the unsharded ``fleet-packed`` run, so the socket-scaling
    numbers rest on sharding that provably loses nothing.
    """
    import dataclasses

    from repro.engine.backend import tiny_verification_network
    from repro.engine.sharding import ShardedBackend

    rows = []
    data: dict = {"throughput": {}, "batch_size": batch_size}

    # -- analytic: throughput vs socket count at a fixed batch --
    reference = None
    for sockets in socket_counts:
        config = dataclasses.replace(NeuralCacheConfig(), sockets=sockets)
        t = AnalyticBackend(config).throughput(_network(), batch_size)
        if reference is None:
            reference = t
        data["throughput"][sockets] = t
        base = socket_counts[0]
        rows.append((f"analytic throughput, {sockets} socket(s)",
                     f"{t:.1f} inf/s",
                     f"{t / reference:.2f}x vs {base} socket(s) "
                     f"(linear: {sockets / base:.2f}x)"))

    # -- functional: sharded aggregate vs the unsharded packed fleet --
    net = tiny_verification_network()
    unsharded = get_backend("fleet-packed").run(net, batch_size=batch_size)
    shards = NeuralCacheConfig().sockets
    sharded = ShardedBackend(shards=shards).run(net, batch_size=batch_size)
    for s in sharded.shard_reports:
        rows.append((f"functional shard {s.shard} ({net.name})",
                     f"{s.report.total} cycles / {s.images} image(s)",
                     "round-robin slice"))
    identical = (sharded.report == unsharded.report
                 and np.array_equal(
                     sharded.outputs[net.output_name].data,
                     unsharded.outputs[net.output_name].data))
    rows.append(("sharded vs unsharded aggregate",
                 "identical" if identical else "MISMATCH",
                 f"{sharded.report.total} vs {unsharded.report.total} "
                 f"cycles, outputs "
                 f"{'bit-exact' if identical else 'DIVERGED'}"))
    rows.append(("images verified bit-exact",
                 f"{sharded.verified_images}/{batch_size}",
                 "vs golden executor"))
    data["sharded"] = sharded
    data["unsharded"] = unsharded
    data["identical"] = identical
    return ExperimentResult(
        name="Multi-socket sharding: linear throughput scaling (Sec. VI-B)",
        headers=("Quantity", "Measured", "Check"),
        rows=tuple(rows),
        data=data,
        notes=(f"The analytic model runs {shards} independent caches per "
               f"node (Fig. 16's dual socket); the ShardedBackend is the "
               f"functional counterpart — per-shard packed fleets whose "
               f"aggregate is bit- and cycle-identical to one fleet.",))


@lru_cache(maxsize=2)
def serving(n_requests: int = 24,
            socket_counts: tuple[int, ...] = (1, 2)) -> ExperimentResult:
    """Async batched serving: tail latency against the Fig. 16 curve.

    Fig. 16's throughput is a *serving* claim — a continuous request
    stream batched onto the node's sockets. This experiment runs the
    functional serving stack (:mod:`repro.serving`: an asyncio queue
    coalescing arrivals into batched fleet passes over a pool of
    :class:`~repro.engine.sharding.ShardedBackend` nodes on the serial
    shard driver) at each socket count and reports measured p50/p95/p99
    tail latency and throughput, next to the analytic model's Fig. 16
    socket-scaling curve at the same socket counts. The correctness
    column is the serving gate: every response delivered exactly once
    and bit-exact against the direct ``run_requests`` path.
    """
    import dataclasses

    from repro.serving import run_serving_benchmark

    rows = []
    data: dict = {"serving": {}, "analytic_throughput": {},
                  "n_requests": n_requests}
    for sockets in socket_counts:
        stats = run_serving_benchmark(
            n_requests=n_requests, sockets=sockets, pool_size=2,
            max_batch=6, driver="serial")
        data["serving"][sockets] = stats
        config = dataclasses.replace(NeuralCacheConfig(), sockets=sockets)
        analytic = AnalyticBackend(config).throughput(_network(),
                                                      stats["max_batch"])
        data["analytic_throughput"][sockets] = analytic
        rows.append((f"{sockets} socket(s): measured serving",
                     f"{stats['throughput_rps']:.1f} req/s, p50 "
                     f"{stats['p50_ms']:.1f} / p95 {stats['p95_ms']:.1f} "
                     f"/ p99 {stats['p99_ms']:.1f} ms",
                     f"{stats['batches']} batches, mean "
                     f"{stats['mean_batch']:.1f}"))
        rows.append((f"{sockets} socket(s): analytic Fig. 16 curve",
                     f"{analytic:.1f} inf/s at batch "
                     f"{stats['max_batch']}",
                     f"{analytic / data['analytic_throughput'][socket_counts[0]]:.2f}x "
                     f"vs {socket_counts[0]} socket(s)"))
        rows.append((f"{sockets} socket(s): serving gate",
                     "exact" if stats["ok"] else "FAILED",
                     f"lost={stats['lost']} dup={stats['duplicates']} "
                     f"bit-exact={stats['bit_exact']}"))
    data["ok"] = all(s["ok"] for s in data["serving"].values())
    return ExperimentResult(
        name="Async batched serving: tail latency vs the Fig. 16 "
             "socket-scaling curve",
        headers=("Quantity", "Measured", "Check"),
        rows=tuple(rows),
        data=data,
        notes=("The functional serving stack batches a live request "
               "queue into fleet passes (up to max_batch 6, whatever "
               "queued while every node was busy) over per-socket "
               "shards; the analytic column is the model's linear "
               "socket scaling at the same batch size (Sec. VI-B). "
               "Wall-clock throughput is host-bound — the claim checked "
               "here is that serving loses nothing: every response "
               "exact, exactly once.",))


def all_experiments() -> list[ExperimentResult]:
    """Every regenerated table/figure, in paper order."""
    return [table1(), table2(), figure13(), figure14(), figure15(),
            figure16(), table3(), table4(), section6a_example(),
            arithmetic_latencies(), peak_throughput(), area_report(),
            robustness_report(), fleet_verification(), sparsity(),
            sharding(), serving()]
