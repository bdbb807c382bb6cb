"""Bench P — the process backend vs serial on a multi-point sweep.

Runs the same four-point arrival-rate sweep twice — once serially, once on a
process pool — and asserts the results are bit-identical.  Both wall-clock
times are printed for information only: a speedup depends on how contended
the host's CPUs are, so it is not asserted.
"""

from __future__ import annotations

import json
import os
import time

from repro.config import SimulationParameters
from repro.parallel import ProcessExecutor
from repro.workloads.sweep import ParameterSweep, SweepPoint


def build_sweep() -> ParameterSweep:
    base = SimulationParameters(
        num_initial_peers=80,
        num_transactions=8_000,
        arrival_rate=0.02,
        waiting_period=200.0,
        sample_interval=1_000.0,
        audit_transactions=5,
        seed=7,
    )
    points = [
        SweepPoint(label=f"rate-{rate:g}", x=rate, overrides={"arrival_rate": rate})
        for rate in (0.005, 0.01, 0.02, 0.04)
    ]
    return ParameterSweep(name="parallel_bench", base=base, points=points, repeats=1)


def comparable(result) -> list[str]:
    documents = []
    for point in result.points:
        for summary in result.summaries_at(point.label):
            document = summary.to_dict()
            document.pop("elapsed_seconds")  # wall clock differs per backend
            # JSON text keeps NaN samples comparable (NaN != NaN as floats).
            documents.append(json.dumps(document, sort_keys=True))
    return documents


def effective_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_process_backend_matches_serial():
    sweep = build_sweep()

    start = time.perf_counter()
    serial = sweep.run()
    serial_seconds = time.perf_counter() - start

    jobs = min(4, effective_cpus())
    executor = ProcessExecutor(jobs)
    start = time.perf_counter()
    parallel = sweep.run(executor=executor)
    parallel_seconds = time.perf_counter() - start
    executor.close()

    assert comparable(serial) == comparable(parallel)

    print(
        f"\nserial: {serial_seconds:.2f}s  "
        f"process x{jobs}: {parallel_seconds:.2f}s  "
        f"ratio: {serial_seconds / parallel_seconds:.2f}x"
    )
