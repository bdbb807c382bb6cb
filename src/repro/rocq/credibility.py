"""Reporter credibility records.

A score manager does not trust every report equally: reporters whose opinions
historically agree with the aggregated reputation of the subjects they report
on are considered credible; reporters who consistently deviate (malicious
badmouthing, or uncooperative peers that always report dissatisfaction to
shield their own reputation) see their credibility eroded and their future
reports discounted.  The update rule lives in
:meth:`repro.rocq.store.ReputationStore.submit_report_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CredibilityRecord"]


@dataclass(slots=True)
class CredibilityRecord:
    """Credibility a score manager assigns to one reporter."""

    value: float = 0.5
    reports: int = 0
