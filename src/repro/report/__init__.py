"""Consolidated cross-run reporting.

One command — ``python -m repro report`` — or one HTTP call — ``GET
/report`` on :mod:`repro.api.server` — merges two evidence streams the
reproduction produces into a single artifact:

* the **robustness matrix** (what each attack bought under each scheme), and
* the **detection evaluation** (how well each scheme ranked the attackers
  and how calibrated its scores are).

:func:`~repro.report.consolidated.generate_report` returns the merged JSON
document, :func:`~repro.report.consolidated.render_markdown` renders it as
Markdown, and :func:`~repro.report.consolidated.write_report` persists
both.  The document is deterministic byte-for-byte at a fixed seed: it
contains no wall-clock readings and experiment results are seed-derived.
"""

from .consolidated import (
    REPORT_SECTIONS,
    generate_report,
    planned_transactions,
    render_json,
    render_markdown,
    resolve_report_sections,
    write_report,
)

__all__ = [
    "REPORT_SECTIONS",
    "resolve_report_sections",
    "generate_report",
    "planned_transactions",
    "render_json",
    "render_markdown",
    "write_report",
]
