"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload resnet-b8 --seed 1 --seconds 20
    python3 perfbench/run.py --workload span-sparse-b8 --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1

Run from a checkout of the repository: the program is imported from its
``src/`` directory and nowhere else. Every metric is printed by name with
its unit. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the metrics are the ``end_to_end`` ones of
``BENCHMARK.json``, with ``--trace 1`` the ``per_layer`` ones, and the
traced run also writes a Chrome trace-event file under ``.perfbench/``.
``--workload all`` runs every workload, each in a fresh interpreter.

The exit code is 0 only when every unit was correct; any failed unit
(a wrong output, a lost, duplicated or expired response, an error, a pool
recovery, a leaked shared segment) makes it 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse anything else."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {package}")


def _contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _end_to_end(m) -> dict:
    from workloads import peak_rss_mb

    values = {
        "setup_s": (_median(m.setup_s), "s"),
        "latency_ms_p50": (_median(m.unit_ms), "ms"),
        "images_per_s": (m.images / m.busy_s if m.busy_s else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    values.update(m.modeled)
    return values


def _show(title: str, values: dict) -> None:
    print(title)
    for name, (value, unit) in values.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")


def run_one(args) -> int:
    _import_program()
    from workloads import WORKLOADS, Measurement

    contract = _contract()
    section = "per_layer" if args.trace else "end_to_end"
    try:
        m = WORKLOADS[args.workload].run(args.seed, float(args.seconds),
                                         bool(args.trace))
    except Exception as exc:  # a crashed run still ends with its result
        traceback.print_exc()
        m = Measurement()
        m.attempted = 1
        m.fail(f"run: {type(exc).__name__}: {exc}")
    values = m.layers if args.trace else _end_to_end(m)
    missing = [spec["name"] for spec in contract[section]
               if spec["name"] not in values]
    if missing:
        m.attempted = max(m.attempted, 1)
        m.fail(f"did not measure {missing}")
    metrics = {spec["name"]: {"value": values.get(spec["name"], (0.0,))[0],
                              "unit": spec["unit"]}
               for spec in contract[section]}
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")
    if args.trace:
        _show("per-layer metrics:", values)
        if m.trace is not None:
            path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            m.trace.write_chrome(str(path))
            print(f"chrome trace: {path.relative_to(ROOT)}")
    else:
        _show("end-to-end metrics:", values)
        _show("other host figures:", {
            "samples": (len(m.unit_ms), "units"),
            "setup_samples": (len(m.setup_s), "constructions"),
            **m.extra})
    failed = m.failed
    print(f"failed_frac {failed / max(m.attempted, 1):.6g} "
          f"({failed}/{m.attempted} units)")
    for problem in m.problems[:10]:
        print(f"  FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": m.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 and m.attempted else 1


def run_all(args) -> int:
    """Every workload in its own interpreter; one combined summary."""
    _import_program()
    from workloads import WORKLOADS

    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            # A child that printed no result counts as one failed unit.
            print("\n".join(lines))
            combined["correct"] = False
            combined["attempted"] += 1
            combined["failed"] += 1
            status = status or 1
            continue
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
