"""The performance-benchmark subsystem (``python -m repro bench``).

Measures the membership-change hot path this library's scalability hinges on
— end-to-end transactions/sec on growth-heavy workloads, plus ring-operation,
assignment-lookup and EigenTrust-refresh microbenchmarks — and writes a
machine-readable report (``BENCH_hotpath.json``).  ``--compare`` gates a run
against a committed report, which is how CI catches throughput regressions.
"""

from .hotpath import (
    HotpathBenchConfig,
    bench_assignment_lookup,
    bench_end_to_end,
    bench_quick_reference,
    bench_ring_ops,
    compare_reports,
    format_compare_table,
    run_hotpath_benchmarks,
    write_report,
)

__all__ = [
    "HotpathBenchConfig",
    "bench_assignment_lookup",
    "bench_end_to_end",
    "bench_quick_reference",
    "bench_ring_ops",
    "compare_reports",
    "format_compare_table",
    "run_hotpath_benchmarks",
    "write_report",
]
