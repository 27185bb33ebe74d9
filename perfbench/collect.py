"""Steadiness evidence: run the benchmark over many seeds and summarise.

    python3 perfbench/collect.py --workload resnet-b8,serve-mlp \\
        --seeds 1-10 --label set1 --out perfbench/STEADINESS.json
    python3 perfbench/collect.py --check perfbench/STEADINESS.json

Each run is ``run.py`` in a fresh interpreter, one after another; with
several workloads the runs go round-robin (every workload on seed 1, then
on seed 2, ...), so each workload's set spans the same stretch of host
time. The summary keeps, per workload, per set and per metric, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(quartile distance over the median). ``--check`` compares the sets of
each workload against the bounds of ``BENCHMARK.json``: every spread must
stay within its bound, except that of ``setup_s``, which the benchmark
contract does not gate (it is printed, marked "not gated"), and no set's
median may be worse than the first set's by more than the bound, for
``setup_s`` too. Modeled numbers and exact counts must be identical run
for run between sets with the same seed; a difference is reported as
nondeterminism, not as noise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Metrics that are modeled numbers or exact counts: identical for a seed.
EXACT = ("modeled_cycles_per_image", "engine.bitserial_calls",
         "engine.plane_ops", "engine.plane_any_calls", "engine.skip_frac",
         "engine.skipped_cycles", "engine.dense_cycles", "core.cycles_mac",
         "core.cycles_reduce", "core.cycles_quant", "core.cycles_pool",
         "core.func_cycles", "core.analytic_cycles",
         "core.func_over_analytic")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    wall = time.perf_counter() - start
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: metric["value"]
              for name, metric in result["metrics"].items()}
    print(f"{workload} seed {seed}: {wall:.1f}s exit {proc.returncode} "
          + " ".join(f"{k}={v:.6g}" for k, v in values.items()
                     if not trace), flush=True)
    return {"seed": seed, "wall_s": round(wall, 2),
            "exit": proc.returncode, "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"], "metrics": values}


def collect(workloads: list[str], seeds: list[int], seconds: int,
            trace: int) -> dict:
    """Workload -> one set: its runs, round-robin over the workloads."""
    runs: dict[str, list] = {workload: [] for workload in workloads}
    for seed in seeds:
        for workload in workloads:
            runs[workload].append(run_once(workload, seed, seconds, trace))
    return {workload: {
        "seconds": seconds, "trace": trace, "runs": done,
        "summary": {name: summarise([r["metrics"][name] for r in done])
                    for name in done[0]["metrics"]}}
        for workload, done in runs.items()}


def check(path: Path) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    evidence = json.loads(path.read_text())
    status = 0
    for workload, sets in evidence.items():
        labels = [label for label, s in sets.items() if not s["trace"]]
        for name, spec in bounds.items():
            bound = spec["bound"]
            cells = []
            first = sets[labels[0]]["summary"][name]["median"]
            for label in labels:
                summary = sets[label]["summary"][name]
                worse = (summary["median"] / first - 1.0
                         if spec["better"] == "lower"
                         else 1.0 - summary["median"] / first)
                gated = name != "setup_s"
                ok = ((not gated or summary["spread"] <= bound)
                      and worse <= bound)
                status |= not ok
                cells.append(f"{label}: med {summary['median']:.6g} "
                             f"spread {summary['spread']:.3f}"
                             f"{'' if gated else ' (not gated)'} "
                             f"worse {worse:+.3f}{'' if ok else ' FAIL'}")
            print(f"{workload:16s} {name:26s} bound {bound:<5g} "
                  + " | ".join(cells))
        for label, s in sets.items():
            bad = [r["seed"] for r in s["runs"]
                   if not r["correct"] or r["exit"]]
            if bad:
                status = 1
                print(f"{workload} {label}: failed runs, seeds {bad}")
        by_seed: dict = {}
        for label, s in sets.items():
            for r in s["runs"]:
                for name in EXACT:
                    if name in r["metrics"]:
                        by_seed.setdefault((r["seed"], name, s["trace"]),
                                           set()).add(r["metrics"][name])
        drift = sorted((seed, name) for (seed, name, _), values
                       in by_seed.items() if len(values) > 1)
        if drift:
            status = 1
            print(f"{workload}: NONDETERMINISM in exact metrics {drift}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="set1")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--check", type=Path)
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    if not args.workload or not args.out:
        parser.error("--workload and --out are required unless --check")
    seconds = args.seconds or json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    evidence = json.loads(args.out.read_text()) if args.out.exists() else {}
    sets = collect(args.workload.split(","), _seeds(args.seeds), seconds,
                   args.trace)
    for workload, one in sets.items():
        evidence.setdefault(workload, {})[args.label] = one
    args.out.write_text(json.dumps(evidence, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
