#!/usr/bin/env python3
"""Regenerate every table and figure of the paper and write a report.

This drives the same experiment orchestration the consolidated CLI uses
(:meth:`repro.api.SimulationService.run_experiments`).  By default it runs
at 4 % of the paper's horizon with a single repeat per sweep point so the
whole thing finishes in a few minutes; pass ``--scale 1.0 --repeats 10`` to
run the paper's exact operating point (hours of CPU time), and ``--jobs N``
to spread the simulations over worker processes — results are bit-identical
for any job count.

Run with::

    python examples/reproduce_paper.py --scale 0.04 --repeats 1 --out results/
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.storage import ResultStore, atomic_write
from repro.api import SimulationService
from repro.experiments.runner import check_summary, render_report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.04,
                        help="fraction of the paper's 500k-transaction horizon")
    parser.add_argument("--repeats", type=int, default=1,
                        help="repeats per sweep point (the paper uses 10)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--only", nargs="*", default=None,
                        help="subset of experiments (e.g. figure1 figure4)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="simulations to run concurrently (1 = serial)")
    parser.add_argument("--out", type=Path, default=Path("results"),
                        help="output directory for JSON results and report.md")
    args = parser.parse_args(argv)

    store = ResultStore(args.out)
    with SimulationService(jobs=args.jobs) as service:
        results = service.run_experiments(
            scale=args.scale,
            repeats=args.repeats,
            seed=args.seed,
            only=args.only,
            store=store,
            progress=lambda message: print(message, file=sys.stderr),
        )
    report = render_report(results)
    report_path = store.root / "report.md"
    with atomic_write(report_path) as handle:
        handle.write(report)

    print(report)
    print(f"\nJSON results and report written to {store.root}/", file=sys.stderr)
    checks = check_summary(results)
    print(
        f"shape checks passed: {checks['passed']}/{checks['total']}", file=sys.stderr
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
