"""Bench — baseline reputation systems and the newcomer taxonomy of §1.

Not a figure in the paper, but the quantitative backdrop of its motivation:
how long the classic systems take to score a community, and where each one
places a complete stranger relative to honest regulars and freeriders.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.reputation.comparison import compare_newcomer_treatment
from repro.reputation.eigentrust import EigenTrust


def test_newcomer_taxonomy(benchmark):
    reports = benchmark.pedantic(
        lambda: compare_newcomer_treatment(interactions=800, seed=7),
        rounds=1,
        iterations=1,
    )
    print("\n" + format_table(
        ["system", "honest", "freerider", "newcomer"],
        [[r.system, r.honest_score, r.freerider_score, r.newcomer_score]
         for r in reports],
    ))
    for report in reports:
        assert report.separates_honest_from_freerider


def test_eigentrust_power_iteration(benchmark):
    """Micro-benchmark: EigenTrust convergence on a 60-peer interaction log."""
    system = EigenTrust(pre_trusted={0})
    import numpy as np

    rng = np.random.default_rng(3)
    for _ in range(2000):
        rater, subject = rng.integers(0, 60, size=2)
        if rater == subject:
            continue
        system.record_interaction(int(rater), int(subject), bool(rng.random() < 0.8))

    trust = benchmark(system.global_trust)
    assert abs(sum(trust.values()) - 1.0) < 1e-6
