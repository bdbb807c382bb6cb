"""Ablations of three design choices, on Table 1 at 4% of the paper's horizon.

Each test runs the simulator with one mechanism toggled or one constant
swept (20,000 transactions, seed 1) and asserts why the design is the way
it is:

* credibility weighting in ROCQ does not hurt decision quality;
* every score-manager count from 1 to 12 keeps decisions accurate;
* auditing sooner settles at least as many stakes within the horizon.
"""

from __future__ import annotations

from repro.sim.engine import run_simulation
from repro.workloads.scenarios import laptop_scale

BASE = laptop_scale(scale=0.04, seed=1)


def test_ablation_credibility_weighting():
    on = run_simulation(BASE.with_overrides(rocq_use_credibility=True))
    off = run_simulation(BASE.with_overrides(rocq_use_credibility=False))
    assert on.success_rate >= off.success_rate - 0.05
    assert on.cooperative_reputation.finite().last_value() > 0.6


def test_ablation_score_manager_count():
    for count in (1, 3, 6, 12):
        summary = run_simulation(BASE.with_overrides(num_score_managers=count))
        assert summary.success_rate > 0.75, count


def test_ablation_audit_timing():
    settled = [
        summary.audits_passed + summary.audits_failed
        for summary in (
            run_simulation(BASE.with_overrides(audit_transactions=audit_after))
            for audit_after in (5, 20, 80)
        )
    ]
    assert settled[0] >= settled[-1], settled
