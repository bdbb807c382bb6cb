#!/usr/bin/env python3
"""The newcomer bootstrap problem across classic reputation systems.

Section 1 of the paper classifies existing reputation systems by how they
treat a peer nobody has interacted with yet:

* complaints-based trust and bilateral credit schemes give it the full
  benefit of the doubt — which invites whitewashing (drop a tainted identity,
  return as a "newcomer");
* positive-only feedback and EigenTrust put it at the very bottom —
  indistinguishable from a known freerider, so it may never get served;
* two-sided schemes (beta reputation) park it exactly in the middle.

This example feeds the same synthetic interaction trace (honest regulars,
freeriders, and one complete stranger) to each baseline and prints where the
stranger lands — the problem reputation lending is designed to solve.

Run with::

    python examples/newcomer_problem.py
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.api import catalogue
from repro.reputation.comparison import compare_newcomer_treatment


def main() -> None:
    reports = compare_newcomer_treatment(
        num_honest=8, num_freeriders=3, interactions=800, seed=7
    )
    rows = []
    for report in reports:
        if report.newcomer_like_honest:
            verdict = "over-trusted (whitewashing works)"
        elif report.newcomer_score <= report.freerider_score + 0.05:
            verdict = "frozen out (bootstrap problem)"
        else:
            verdict = "in-between"
        rows.append([
            report.system,
            f"{report.honest_score:.2f}",
            f"{report.freerider_score:.2f}",
            f"{report.newcomer_score:.2f}",
            verdict,
        ])
    print("Scores after 800 rated interactions (higher = more trusted)\n")
    print(format_table(
        ["system", "honest regular", "known freerider", "stranger", "stranger's fate"],
        rows,
    ))
    print(
        "\nEvery baseline either hands strangers full trust (inviting identity"
        "\nchurn) or locks them out with the freeriders.  Reputation lending"
        "\ninstead lets an existing member vouch for the stranger with a"
        "\nrefundable stake — run examples/bootstrap_policies.py to see how that"
        "\nplays out inside the full simulator."
    )
    print(
        "\nEvery system above also runs inside the full simulation, as a"
        "\npluggable scheme (python -m repro catalogue schemes):\n"
    )
    for name, description in sorted(catalogue()["schemes"].items()):
        print(f"  {name:14s} {description}")


if __name__ == "__main__":
    main()
