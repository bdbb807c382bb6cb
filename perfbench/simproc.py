"""One simulation of a sim workload, in a fresh process.

    python3 perfbench/simproc.py --workload growth_stress --seed 1 [--trace]

``run.py`` spawns this once per repetition and reads the single JSON line it
prints: the monotonic clock just before the first simulated transaction and
when the summary was ready, the wall seconds of ``Simulation.run``, peak RSS,
the summary digest, invariant violations, the store's public counters and —
with ``--trace`` — the spans and exact counts of the traced run.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

#: workload -> (registered scenario, horizon scale against Table 1's 500k).
#: Horizons are kept to a few seconds so one benchmark run holds many
#: repetitions to take the best of.
SIM_WORKLOADS = {
    "growth_stress": ("high_arrival_stress", 0.05),
    "paper_steady": ("paper_default", 0.1),
}


def workload_params(workload: str, seed: int):
    """The simulation parameters of a sim workload for ``seed``."""
    from repro.workloads.registry import get_scenario

    scenario, scale = SIM_WORKLOADS[workload]
    return get_scenario(scenario, seed).scaled(scale)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SIM_WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from layers import STORE_COUNTERS, install_sim_spans, store_counts
    from repro.metrics.summary import summary_digest
    from repro.sim.engine import Simulation
    from repro.workloads.fuzz import check_invariants
    from tracing import SpanTracer

    params = workload_params(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = SpanTracer()
        install_sim_spans(tracer, params)
    sim = Simulation(params, seed=args.seed)
    sim.setup()
    first_transaction = time.monotonic()
    started = time.perf_counter()
    summary = sim.run()
    run_s = time.perf_counter() - started
    record = {
        "first_transaction": first_transaction,
        "summary_ready": time.monotonic(),
        "run_s": run_s,
        "transactions": params.num_transactions,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counts": {f"rocq.{name}": getattr(sim.store, name) for name in STORE_COUNTERS},
    }
    if tracer is not None:
        tracer.uninstall()
        record["spans"] = tracer.spans()
        record["counts"] = {**tracer.counts(), **store_counts(sim.store)}
    record["digest"] = summary_digest(summary)
    record["violations"] = [v.describe() for v in check_invariants(sim, summary)]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
