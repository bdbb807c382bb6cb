"""Result analysis: tables, plain-text plots, persistence and paper checks.

Nothing in this package depends on matplotlib — figures are rendered as
ASCII line plots so results can be inspected in a terminal or pasted into
Markdown — and results persist as JSON so they can be re-analysed without
re-running the simulations.
"""

from .tables import format_table, format_markdown_table
from .plotting import ascii_plot, sparkline
from .storage import ResultStore
from .comparison import CheckResult, ShapeCheck, evaluate_checks

__all__ = [
    "format_table",
    "format_markdown_table",
    "ascii_plot",
    "sparkline",
    "ResultStore",
    "CheckResult",
    "ShapeCheck",
    "evaluate_checks",
]
