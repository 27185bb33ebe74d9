"""``python -m repro verify`` — statically check every model's programs.

Extracts the per-layer bit-serial programs of each registered model (one
recorded functional inference; sequences are data-independent) and runs
all static passes over them. Exit status 0 means every extracted program
is clean; any finding, or a failure to extract a model that should run,
exits 1. Models the functional engine cannot execute are reported as
skipped — the paper-side analytic model covers them, there is simply no
program to lift.
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.verify.extract import extract_model_programs, registered_models
from repro.verify.passes import verify_program

__all__ = ["main"]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro verify",
        description="Statically verify the dataflow of every registered "
                    "model's bit-serial layer programs.")
    parser.add_argument("--model", action="append", default=None,
                        metavar="NAME",
                        help="check only this model (repeatable; default: "
                             "all registered models)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="list every checked program, not just totals")
    args = parser.parse_args(argv)

    names = args.model if args.model else registered_models()
    unknown = [n for n in names if n not in registered_models()]
    if unknown:
        parser.error(f"unknown model(s): {', '.join(unknown)}; "
                     f"registered: {', '.join(registered_models())}")

    total_programs = 0
    total_ops = 0
    failures = 0
    for name in names:
        extracted = extract_model_programs(name)
        if extracted.skipped is not None:
            print(f"{name}: SKIP ({extracted.skipped})")
            continue
        model_findings = 0
        for facts in extracted.programs:
            findings = verify_program(facts)
            total_programs += 1
            total_ops += len(facts)
            if findings:
                model_findings += len(findings)
                failures += len(findings)
                print(f"{name}/{facts.label}: {len(findings)} finding(s)")
                for finding in findings:
                    print(f"  {finding}")
            elif args.verbose:
                print(f"{name}/{facts.label}: ok ({len(facts)} ops)")
        if not model_findings:
            print(f"{name}: ok ({len(extracted.programs)} programs)")
    print(f"verified {total_programs} programs / {total_ops} ops: "
          f"{failures} finding(s)")
    return 1 if failures else 0
