"""Paper-versus-measured shape checks.

The reproduction does not try to match the paper's absolute numbers (our
substrate is a re-implementation, not the authors' Java testbed); what must
hold are the *shapes* the paper argues from: who grows linearly, what stays
flat, which curve saturates, where a knee appears.  :class:`ShapeCheck`
captures one such expectation as a predicate over an experiment result, and
:func:`evaluate_checks` produces the pass/fail table that ``repro
experiment`` and ``repro report`` print.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = ["CheckResult", "ShapeCheck", "evaluate_checks", "monotonic", "roughly_flat"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one shape check."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}" + (f" — {self.detail}" if self.detail else "")


@dataclass
class ShapeCheck:
    """A named expectation evaluated against an experiment result."""

    name: str
    predicate: Callable[[object], tuple[bool, str]]
    #: Free-text reference to the paper statement this check encodes.
    paper_claim: str = ""

    def evaluate(self, result: object) -> CheckResult:
        """Run the predicate, converting exceptions into failures."""
        try:
            passed, detail = self.predicate(result)
        except Exception as exc:  # noqa: BLE001 - a broken check must not crash the report
            return CheckResult(name=self.name, passed=False, detail=f"error: {exc}")
        return CheckResult(name=self.name, passed=bool(passed), detail=detail)


def evaluate_checks(checks: Sequence[ShapeCheck], result: object) -> list[CheckResult]:
    """Evaluate every check against ``result``."""
    return [check.evaluate(result) for check in checks]


# --------------------------------------------------------------------- #
# Reusable predicates over (x, y) series                                  #
# --------------------------------------------------------------------- #
def monotonic(
    points: Sequence[tuple[float, float]],
    increasing: bool = True,
    tolerance: float = 0.0,
) -> tuple[bool, str]:
    """Whether a series is (weakly) monotonic, allowing ``tolerance`` slack.

    ``tolerance`` is an absolute allowance per step: small sampling noise in
    the "wrong" direction does not fail the check.
    """
    values = [y for _, y in points if y == y]
    if len(values) < 2:
        return True, "fewer than two points"
    violations = 0
    for previous, current in zip(values, values[1:]):
        delta = current - previous
        if increasing and delta < -tolerance:
            violations += 1
        if not increasing and delta > tolerance:
            violations += 1
    direction = "increasing" if increasing else "decreasing"
    if violations == 0:
        return True, f"series is {direction} across {len(values)} points"
    return False, f"{violations} step(s) violate the {direction} trend"


def roughly_flat(
    points: Sequence[tuple[float, float]], relative_band: float = 0.15
) -> tuple[bool, str]:
    """Whether a series stays within ``relative_band`` of its mean."""
    values = [y for _, y in points if y == y]
    if not values:
        return False, "no finite points"
    mean = 0.0
    for value in values:
        mean += value
    mean /= len(values)
    if mean == 0:
        spread = max(abs(v) for v in values)
        passed = spread <= relative_band
        return passed, f"mean is 0, max |value| = {spread:.3g}"
    spread = max(abs(v - mean) for v in values) / abs(mean)
    passed = spread <= relative_band
    return passed, f"max relative deviation from mean = {spread:.1%}"
