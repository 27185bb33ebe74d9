"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro                 # everything, in paper order
    python -m repro figure14 table3 # specific experiments
    python -m repro --list          # available experiment names
    python -m repro --backend fleet-packed   # one inference via the Backend API
    python -m repro --backend analytic --batch 16
    python -m repro --backend sharded --batch 8 --shards 4
    python -m repro --backend sharded --shards 2 --shard-driver pool
    python -m repro serve-bench --requests 32 --sockets 2    # serving smoke
    python -m repro fault-sweep --images 16          # accuracy vs defects
    python -m repro verify                  # static dataflow verification
    python -m repro verify --model inception-span -v

The ``--backend`` mode drives an execution engine through the unified
:class:`~repro.engine.backend.Backend` protocol — ``analytic`` runs the
paper's deterministic model on Inception v3, ``fleet-packed`` runs
bit-exact functional verification on the array fleet's packed plane
store (words sized to the array width), and ``sharded`` splits the batch
round-robin across socket shards (``--shards``, default
``config.sockets``), each on its own packed fleet, with results and
cycle totals identical to the unsharded run. The unpacked byte-per-bit
store is a test and debug reference with no backend name
(``FleetExecutor(packed=False)``). ``--shard-driver`` selects how the
shards execute — ``serial`` (default: one after another in-process, runs
everywhere) or ``pool`` (real wall-clock parallelism: persistent
workers, forked once, each shard's images and responses sent over its
pipe as one stacked array; POSIX-only); both are bit-exact and
cycle-report-identical.

Functional backends fold the whole batch into the fleet's array axis
(one fleet pass per layer computes every image); the arrays are parallel
hardware, so batching changes wall-clock, not modeled cycles.

The ``serve-bench`` subcommand runs the async batched serving benchmark
(:mod:`repro.serving`): a request stream coalesced into batched fleet
passes over a pool of sharded backends, reporting p50/p95/p99 tail
latency and throughput, and exiting non-zero when any response is lost,
duplicated or not bit-exact against the direct ``run_requests`` path —
the CI serving smoke gate.

The ``fault-sweep`` subcommand runs the hardware fault-injection
experiment (:mod:`repro.faults`): the deterministic image stream on a
population of chips with seeded stuck-at bit-cell defects at increasing
rates, reporting top-1 agreement with the fault-free run and exiting
non-zero unless the degradation curve is monotone from a clean
zero-rate baseline.

The ``verify`` subcommand statically checks the dataflow of every
registered model's recorded bit-serial layer programs (def-before-use,
operand overlap, geometry bounds, tag/carry discipline, dead writes) —
see :mod:`repro.verify`. CI runs it as the ``verify`` job.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import experiments
from repro.engine.backend import (
    BackendOptions,
    available_backends,
    get_backend,
)
from repro.engine.sharding import SHARD_DRIVERS

#: name -> zero-argument callable returning an ExperimentResult.
EXPERIMENTS = {
    "table1": experiments.table1,
    "table2": experiments.table2,
    "table3": experiments.table3,
    "table4": experiments.table4,
    "figure13": experiments.figure13,
    "figure14": experiments.figure14,
    "figure15": experiments.figure15,
    "figure16": experiments.figure16,
    "example6a": experiments.section6a_example,
    "arithmetic": experiments.arithmetic_latencies,
    "peak": experiments.peak_throughput,
    "area": experiments.area_report,
    "fleet": experiments.fleet_verification,
    "sparsity": experiments.sparsity,
    "sharding": experiments.sharding,
    "serving": experiments.serving,
}


def serve_bench_main(argv: list[str]) -> int:
    """The ``serve-bench`` subcommand: serving smoke + tail latency."""
    from repro.serving import render_serving_report, run_serving_benchmark

    parser = argparse.ArgumentParser(
        prog="python -m repro serve-bench",
        description="Async batched serving benchmark: coalesce a request "
                    "stream into batched fleet passes over a pool of "
                    "sharded backends; reports p50/p95/p99 tail latency "
                    "and throughput, fails on lost/duplicated responses "
                    "or bit-inexact results vs the direct run_batch "
                    "path.")
    parser.add_argument("--requests", type=int, default=32, metavar="N",
                        help="requests in the stream (default 32)")
    parser.add_argument("--sockets", type=int, default=2, metavar="N",
                        help="socket shards per pool node (default 2)")
    parser.add_argument("--pool", type=int, default=2, metavar="N",
                        help="backends in the serving pool (default 2)")
    parser.add_argument("--max-batch", type=int, default=8, metavar="N",
                        help="largest coalesced batch (default 8)")
    parser.add_argument("--shard-driver", choices=SHARD_DRIVERS,
                        default="serial",
                        help="shard driver of each pool node "
                             "(default serial)")
    parser.add_argument("--arrival-gap-ms", type=float, default=0.0,
                        metavar="MS",
                        help="spacing between request arrivals "
                             "(default 0: an already-queued burst)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizing (fewer requests, smaller "
                             "batches); gates are never relaxed")
    args = parser.parse_args(argv)
    for name in ("requests", "sockets", "pool", "max_batch"):
        if getattr(args, name) <= 0:
            parser.error(f"--{name.replace('_', '-')} must be positive")
    if args.arrival_gap_ms < 0:
        parser.error("--arrival-gap-ms must be non-negative")
    if args.quick:
        args.requests = min(args.requests, 12)
        args.max_batch = min(args.max_batch, 4)
    stats = run_serving_benchmark(
        n_requests=args.requests, sockets=args.sockets,
        pool_size=args.pool, max_batch=args.max_batch,
        driver=args.shard_driver,
        arrival_gap_ms=args.arrival_gap_ms)
    print(render_serving_report(stats))
    if not stats["ok"]:
        print("serve-bench: FAIL — responses lost, duplicated or not "
              "bit-exact vs the direct run_batch path", file=sys.stderr)
        return 1
    return 0


def fault_sweep_main(argv: list[str]) -> int:
    """The ``fault-sweep`` subcommand: accuracy vs stuck-at defect rate."""
    from repro.faults import DEFAULT_RATES, render_fault_sweep, run_fault_sweep

    parser = argparse.ArgumentParser(
        prog="python -m repro fault-sweep",
        description="Hardware fault-injection experiment: run the "
                    "deterministic image stream on chips with seeded "
                    "stuck-at bit-cell defects at increasing rates and "
                    "report top-1 agreement with the fault-free run. "
                    "Fails unless the curve is monotone non-increasing "
                    "and the zero-rate point is clean.")
    parser.add_argument("--rates", type=float, nargs="+",
                        default=list(DEFAULT_RATES), metavar="R",
                        help="stuck-at cell probabilities to sweep "
                             "(default: %(default)s)")
    parser.add_argument("--images", type=int, default=16, metavar="N",
                        help="images per rate point (default 16)")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="image/weight stream seed (default 0)")
    parser.add_argument("--fault-seed", type=int, default=0, metavar="N",
                        help="chip-population seed: chip i draws its "
                             "defect field from fault-seed + i "
                             "(default 0)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizing (fewer images, fewer "
                             "rates); gates are never relaxed")
    args = parser.parse_args(argv)
    if args.images <= 0:
        parser.error(f"--images must be positive, got {args.images}")
    if any(not 0.0 <= rate <= 1.0 for rate in args.rates):
        parser.error("--rates must be probabilities in [0, 1]")
    rates = tuple(args.rates)
    if args.quick:
        args.images = min(args.images, 8)
        rates = tuple(rates[:4])
    stats = run_fault_sweep(rates=rates, n_images=args.images,
                            seed=args.seed, fault_seed=args.fault_seed)
    print(render_fault_sweep(stats))
    if not stats["ok"]:
        print("fault-sweep: FAIL — degradation curve is not monotone "
              "non-increasing from a clean zero-rate baseline",
              file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve-bench":
        return serve_bench_main(argv[1:])
    if argv and argv[0] == "fault-sweep":
        return fault_sweep_main(argv[1:])
    if argv and argv[0] == "verify":
        from repro.verify.cli import main as verify_main

        return verify_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Neural Cache (ISCA 2018) reproduction: regenerate "
                    "the paper's tables and figures.")
    parser.add_argument("names", nargs="*", metavar="EXPERIMENT",
                        help="experiments to run (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiment names")
    parser.add_argument("--backend", choices=available_backends(),
                        help="run one batch through the unified Backend "
                             "API and print its summary instead of "
                             "regenerating experiments")
    parser.add_argument("--batch", type=int, default=1, metavar="N",
                        help="batch size for --backend runs (default 1)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="socket shards for --backend sharded runs "
                             "(default: the config's socket count)")
    parser.add_argument("--shard-driver", choices=SHARD_DRIVERS,
                        default=None,
                        help="how --backend sharded runs its shards: "
                             "serial (default; runs everywhere) or pool "
                             "(wall-clock parallel persistent workers; "
                             "fork-based, POSIX only); results "
                             "identical")
    parser.add_argument("--sparsity", action="store_true",
                        help="skip all-zero operand bit planes in "
                             "functional --backend runs: outputs stay "
                             "bit-exact, the cycle report becomes "
                             "data-dependent (the summary shows actual "
                             "and dense-equivalent cycles)")
    parser.add_argument("--precision", type=int, default=None,
                        metavar="BITS",
                        help="narrow every conv layer of functional "
                             "--backend runs to BITS-bit elements "
                             "(1..8; storage stays byte-aligned, only "
                             "bit-serial compute gets cheaper)")
    args = parser.parse_args(argv)

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0

    if args.backend:
        from repro.common.errors import SimulationError

        if args.names:
            parser.error(
                "--backend runs one inference and takes no experiment "
                f"names (got: {', '.join(args.names)})")
        if args.batch <= 0:
            parser.error(f"--batch must be positive, got {args.batch}")
        if args.shards is not None and args.shards <= 0:
            parser.error(f"--shards must be positive, got {args.shards}")
        precision = None
        if args.precision is not None:
            from repro.core.precision import LayerPrecision

            try:
                precision = LayerPrecision(default_bits=args.precision)
            except SimulationError as exc:
                parser.error(str(exc))
        # One options value carries every knob; the factory for the
        # chosen backend rejects any it cannot honour (no rebuild hack:
        # --shards reaches the sharded constructor directly).
        options = BackendOptions(
            driver=args.shard_driver, shards=args.shards,
            sparsity=args.sparsity, precision=precision)
        try:
            backend = get_backend(args.backend, options=options)
        except SimulationError as exc:
            # e.g. --shard-driver on a backend without a shard pool.
            parser.error(str(exc))
        network = backend.default_network()
        try:
            print(backend.run(network, args.batch).summary())
        except SimulationError as exc:
            # A runtime engine failure (e.g. a bit-exactness divergence),
            # not a usage mistake: report it plainly, without usage text.
            print(f"python -m repro: backend {args.backend!r} failed: "
                  f"{exc}", file=sys.stderr)
            return 1
        finally:
            if hasattr(backend, "close"):
                backend.close()
        return 0

    if args.batch != 1:
        parser.error("--batch only applies to --backend runs")
    if args.shards is not None:
        parser.error("--shards only applies to --backend sharded runs")
    if args.shard_driver is not None:
        parser.error("--shard-driver only applies to --backend sharded "
                     "runs")
    if args.sparsity:
        parser.error("--sparsity only applies to --backend runs")
    if args.precision is not None:
        parser.error("--precision only applies to --backend runs")
    names = args.names or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)} "
                     f"(use --list)")
    for name in names:
        print(EXPERIMENTS[name]().render())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
