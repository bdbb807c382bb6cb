"""Hot-path benchmarks: membership changes, assignment lookups, throughput.

The community-growth experiments sweep thousands of admissions, so the cost
of one join/leave — ring rewiring plus the reputation store's key hand-over —
bounds how far any run scales.  This module measures that cost three ways:

* **end-to-end** — full simulation runs of growth-heavy workloads, reported
  as transactions/sec;
* **ring ops** — join/leave microbenchmarks at several ring sizes;
* **assignment lookups** — cold vs cached score-manager resolution and the
  cost of one join's hand-over in the store.

Bit-identity of results is pinned by the golden-digest tests, not here: this
module only times the current engine.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..config import SimulationParameters
from ..ids import PeerId
from ..overlay.assignment import ScoreManagerAssignment
from ..overlay.ring import ChordRing
from ..rocq.store import ReputationStore
from ..sim.engine import run_simulation
from ..workloads.scenarios import paper_default

__all__ = [
    "HotpathBenchConfig",
    "bench_end_to_end",
    "bench_quick_reference",
    "bench_ring_ops",
    "bench_assignment_lookup",
    "bench_eigentrust_refresh",
    "run_hotpath_benchmarks",
    "compare_reports",
    "format_compare_table",
    "write_report",
]

#: The paper's full horizon; workload sizes are expressed against it.
_PAPER_HORIZON = 500_000

#: Growth-heavy end-to-end workloads: (name, arrival_rate).  The first is the
#: paper's Figure 1 operating point; the second raises the arrival rate into
#: the overload regime so membership changes dominate.
_WORKLOADS: tuple[tuple[str, float], ...] = (
    ("figure1_growth", 0.01),
    ("growth_stress", 0.2),
)


@dataclass(frozen=True)
class HotpathBenchConfig:
    """Knobs of one benchmark invocation."""

    num_transactions: int = 5_000
    seed: int = 1
    ring_sizes: tuple[int, ...] = (1_000, 4_000)
    churn_ops: int = 200
    lookup_ring_size: int = 2_000
    lookups: int = 2_000
    #: Untimed end-to-end runs executed before the timed ones, so
    #: allocator/cache warm-up does not pollute the measurement.  ``0``
    #: disables warm-up entirely — the CI smoke configuration, where
    #: wall-clock budget beats measurement polish.
    warmup: int = 1
    #: Timed end-to-end runs per workload; the *best* (minimum elapsed) one
    #: is reported.  Scheduler noise only ever slows a run down, so best-of-N
    #: estimates the engine's true cost; a single sample can easily swing
    #: ±30% on a busy host.
    samples: int = 3

    @classmethod
    def quick(cls) -> "HotpathBenchConfig":
        """A seconds-scale configuration for CI smoke runs (no warm-up)."""
        return cls(
            num_transactions=600,
            ring_sizes=(256,),
            churn_ops=50,
            lookup_ring_size=256,
            lookups=400,
            warmup=0,
            samples=1,
        )


# --------------------------------------------------------------------- #
# End-to-end throughput                                                   #
# --------------------------------------------------------------------- #
def _timed_run(params: SimulationParameters) -> float:
    """Elapsed seconds of one simulation run."""
    started = time.perf_counter()
    run_simulation(params)
    return time.perf_counter() - started


def bench_end_to_end(config: HotpathBenchConfig) -> list[dict[str, Any]]:
    """Time each growth workload; one row per workload.

    Each row reports the best of ``config.samples`` timed runs; see the
    field's comment for why single samples are not trustworthy on shared
    hosts.
    """
    rows: list[dict[str, Any]] = []
    for name, arrival_rate in _WORKLOADS:
        params = (
            paper_default(seed=config.seed)
            .scaled(config.num_transactions / _PAPER_HORIZON)
            .with_overrides(arrival_rate=arrival_rate)
        )
        for _ in range(config.warmup):
            _timed_run(params)
        elapsed = min(_timed_run(params) for _ in range(max(1, config.samples)))
        rows.append(
            {
                "workload": name,
                "num_transactions": params.num_transactions,
                "arrival_rate": arrival_rate,
                "expected_arrivals": params.expected_arrivals(),
                "elapsed_seconds": round(elapsed, 4),
                "tx_per_sec": round(params.num_transactions / elapsed, 1),
            }
        )
    return rows


def bench_quick_reference(samples: int = 3) -> list[dict[str, Any]]:
    """End-to-end throughput at the CI gate's quick sizes.

    Short runs do not amortise per-run set-up costs, so the full-size
    ``end_to_end`` tx/s is not a valid yardstick for a ``--quick`` run.
    The committed baseline embeds these rows so the perf gate can compare
    its quick run against numbers measured at the same scale.

    Quick runs finish in well under a second, where single-sample timings
    swing by double-digit percentages, so each row records two numbers:
    ``tx_per_sec`` — the *minimum* over ``samples`` timed runs, the
    slowest plausible good run, used as the baseline yardstick — and
    ``best_tx_per_sec`` — the maximum, the machine's demonstrated
    capability, used as the current side of the gate.  Scheduler noise
    only ever lowers a sample, so comparing current-best against
    baseline-worst means a gate failure requires a *sustained* slowdown,
    not an unlucky scheduling quantum; a genuine 2x slowdown still lands
    far below the yardstick.
    """
    quick = HotpathBenchConfig.quick()
    rows: list[dict[str, Any]] = []
    for name, arrival_rate in _WORKLOADS:
        params = (
            paper_default(seed=quick.seed)
            .scaled(quick.num_transactions / _PAPER_HORIZON)
            .with_overrides(arrival_rate=arrival_rate)
        )
        _timed_run(params)  # one warm-up run; cheap at quick size
        rates = []
        for _ in range(max(1, samples)):
            elapsed = _timed_run(params)
            rates.append(round(params.num_transactions / elapsed, 1))
        rows.append(
            {
                "workload": name,
                "num_transactions": params.num_transactions,
                "tx_per_sec": min(rates),
                "best_tx_per_sec": max(rates),
                "samples": rates,
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Microbenchmarks                                                         #
# --------------------------------------------------------------------- #
def _build_ring(size: int) -> ChordRing:
    ring = ChordRing()
    for peer_id in range(size):
        ring.join(peer_id)
    return ring


def _time_churn_cycle(ring: ChordRing, first_id: PeerId, ops: int) -> float:
    """Mean seconds per membership op over ``ops`` join+leave cycles."""
    started = time.perf_counter()
    for offset in range(ops):
        ring.join(first_id + offset)
        ring.leave(first_id + offset)
    return (time.perf_counter() - started) / (2 * ops)


def bench_ring_ops(config: HotpathBenchConfig) -> list[dict[str, Any]]:
    """Join/leave cost per op at each ring size."""
    rows: list[dict[str, Any]] = []
    for size in config.ring_sizes:
        ring = _build_ring(size)
        per_op = _time_churn_cycle(ring, size, config.churn_ops)
        rows.append(
            {
                "ring_size": size,
                "ops": 2 * config.churn_ops,
                "us_per_op": round(per_op * 1e6, 2),
            }
        )
    return rows


def bench_assignment_lookup(config: HotpathBenchConfig) -> dict[str, Any]:
    """Cold vs cached manager resolution, and one join's hand-over in the store."""
    size = config.lookup_ring_size
    ring = _build_ring(size)
    assignment = ScoreManagerAssignment(ring=ring, num_score_managers=6)
    store = ReputationStore(assignment=assignment)

    subjects = [subject % size for subject in range(config.lookups)]
    started = time.perf_counter()
    for subject in subjects:
        assignment.managers_for(subject)
    cold = (time.perf_counter() - started) / len(subjects)

    for subject in range(size):  # populate the cache completely
        store.managers_for(subject)
    started = time.perf_counter()
    for subject in subjects:
        store.managers_for(subject)
    warm = (time.perf_counter() - started) / len(subjects)

    evicted_before = store.targeted_evictions
    started = time.perf_counter()
    ring.join(size)
    store.membership_changed(ring.last_change)
    eviction_elapsed = time.perf_counter() - started
    return {
        "ring_size": size,
        "num_score_managers": 6,
        "lookups": len(subjects),
        "cold_us_per_lookup": round(cold * 1e6, 2),
        "cached_us_per_lookup": round(warm * 1e6, 2),
        "cache_speedup": round(cold / warm, 1) if warm > 0 else None,
        "targeted_eviction": {
            "cached_subjects": size,
            "evicted_by_one_join": store.targeted_evictions - evicted_before,
            "elapsed_us": round(eviction_elapsed * 1e6, 2),
        },
    }


def bench_eigentrust_refresh(config: HotpathBenchConfig) -> dict[str, Any]:
    """Incremental EigenTrust refresh vs the full-rebuild path.

    Seeds one interaction log, then measures the per-refresh cost of
    ``score_table`` when each refresh only dirties a single rater row —
    once on a system allowed to update incrementally and once on a system
    forced to rebuild the local-trust matrix every call
    (``full_recompute_every=1`` after priming).  Both produce bit-identical
    matrices; only the time differs.
    """
    from ..reputation.eigentrust import EigenTrust

    peers = min(200, max(40, config.lookup_ring_size // 10))
    seed_reports = peers * 4
    refreshes = max(10, config.churn_ops // 2)

    def build(full_recompute_every: int) -> EigenTrust:
        system = EigenTrust(full_recompute_every=full_recompute_every)
        state = 12345
        for index in range(seed_reports):
            state = (state * 1103515245 + 12345) % (1 << 31)
            rater = state % peers
            state = (state * 1103515245 + 12345) % (1 << 31)
            subject = state % peers
            if rater != subject:
                system.record_interaction(rater, subject, index % 3 != 0)
        system.score_table()  # prime the matrix and warm vector
        return system

    def drive(system: EigenTrust) -> float:
        started = time.perf_counter()
        for index in range(refreshes):
            system.record_interaction(index % peers, (index + 1) % peers, True)
            system.score_table()
        return (time.perf_counter() - started) / refreshes

    incremental = drive(build(full_recompute_every=1_000_000))
    full = drive(build(full_recompute_every=1))
    return {
        "peers": peers,
        "seed_reports": seed_reports,
        "refreshes": refreshes,
        "full_rebuild_us_per_refresh": round(full * 1e6, 2),
        "incremental_us_per_refresh": round(incremental * 1e6, 2),
        "speedup": round(full / incremental, 2) if incremental > 0 else None,
    }


# --------------------------------------------------------------------- #
# Report assembly                                                         #
# --------------------------------------------------------------------- #
def run_hotpath_benchmarks(config: HotpathBenchConfig) -> dict[str, Any]:
    """Run every benchmark and assemble the report document."""
    return {
        "benchmark": "hotpath",
        "description": (
            "Simulation-core hot path: end-to-end tx/s on growth-heavy "
            "workloads, ring join/leave cost, score-manager lookups and "
            "incremental EigenTrust refreshes"
        ),
        "created_unix": int(time.time()),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "config": {
            "num_transactions": config.num_transactions,
            "seed": config.seed,
            "ring_sizes": list(config.ring_sizes),
            "churn_ops": config.churn_ops,
            "lookup_ring_size": config.lookup_ring_size,
            "lookups": config.lookups,
            "warmup": config.warmup,
            "samples": config.samples,
        },
        "end_to_end": bench_end_to_end(config),
        "quick_reference": bench_quick_reference(samples=config.samples),
        "micro": {
            "ring_ops": bench_ring_ops(config),
            "assignment_lookup": bench_assignment_lookup(config),
            "eigentrust_refresh": bench_eigentrust_refresh(config),
        },
    }


# --------------------------------------------------------------------- #
# Baseline comparison (the CI perf gate's primitive)                      #
# --------------------------------------------------------------------- #
def compare_reports(
    baseline: dict[str, Any],
    current: dict[str, Any],
    tolerance: float = 0.25,
) -> dict[str, Any]:
    """Compare per-workload end-to-end throughput against a baseline report.

    A workload regresses when its current throughput falls more than
    ``tolerance`` (fractional) below the baseline's number *at the same
    scale*: the baseline row's own ``end_to_end`` entry when the transaction
    counts match, else the reports' ``quick_reference`` rows (the committed
    full-size report embeds quick-size measurements precisely so the CI
    gate's ``--quick`` run has a like-for-like yardstick).  On the
    quick-reference path the baseline side is the recorded worst good run
    (``tx_per_sec``) and the current side the best observed run
    (``best_tx_per_sec``), so sub-second timing noise cannot trip the gate
    but a sustained slowdown still does.  When no same-scale number exists
    the delta is reported but never gated — short runs do not amortise
    set-up costs, so cross-scale tx/s comparisons are meaningless.
    Workloads present in only one report are listed but never counted as
    regressions.  Faster-than-baseline results always pass.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError("tolerance must be within [0, 1)")
    baseline_rows = {row["workload"]: row for row in baseline.get("end_to_end", [])}
    baseline_quick = {
        row["workload"]: row for row in baseline.get("quick_reference", [])
    }
    current_rows = {row["workload"]: row for row in current.get("end_to_end", [])}
    current_quick = {
        row["workload"]: row for row in current.get("quick_reference", [])
    }
    rows: list[dict[str, Any]] = []
    for workload in sorted(baseline_rows | current_rows):
        base = baseline_rows.get(workload)
        new = current_rows.get(workload)
        if base is None or new is None:
            rows.append(
                {
                    "workload": workload,
                    "baseline_tx_per_sec": base["tx_per_sec"] if base else None,
                    "current_tx_per_sec": new["tx_per_sec"] if new else None,
                    "baseline_source": None,
                    "delta": None,
                    "regression": False,
                }
            )
            continue
        new_tx = new["tx_per_sec"]
        new_scale = new.get("num_transactions")
        quick = baseline_quick.get(workload)
        new_quick = current_quick.get(workload)
        if base.get("num_transactions") == new_scale:
            base_tx, source, gated = base["tx_per_sec"], "end_to_end", True
        elif (
            quick is not None
            and new_quick is not None
            and quick.get("num_transactions") == new_quick.get("num_transactions")
        ):
            base_tx, source, gated = quick["tx_per_sec"], "quick_reference", True
            new_tx = new_quick.get("best_tx_per_sec", new_quick["tx_per_sec"])
        elif quick is not None and quick.get("num_transactions") == new_scale:
            base_tx, source, gated = quick["tx_per_sec"], "quick_reference", True
        else:
            base_tx, source, gated = base["tx_per_sec"], "scale_mismatch", False
        delta = (new_tx - base_tx) / base_tx if base_tx > 0 else 0.0
        rows.append(
            {
                "workload": workload,
                "baseline_tx_per_sec": base_tx,
                "current_tx_per_sec": new_tx,
                "baseline_source": source,
                "delta": round(delta, 4),
                "regression": gated and new_tx < base_tx * (1.0 - tolerance),
            }
        )
    return {
        "tolerance": tolerance,
        "baseline_machine": baseline.get("platform", baseline.get("machine")),
        "current_machine": current.get("platform", current.get("machine")),
        "workloads": rows,
        "regressed": any(row["regression"] for row in rows),
    }


def format_compare_table(comparison: dict[str, Any]) -> str:
    """Render a :func:`compare_reports` result as an aligned text table."""
    lines = [
        f"{'workload':<18} {'baseline':>12} {'current':>12} {'delta':>8}  verdict"
    ]
    for row in comparison["workloads"]:
        base = row["baseline_tx_per_sec"]
        new = row["current_tx_per_sec"]
        delta = row["delta"]
        verdict = "REGRESSION" if row["regression"] else "ok"
        if delta is None:
            verdict = "n/a"
        elif row.get("baseline_source") == "scale_mismatch":
            verdict = "n/a (scale)"
        lines.append(
            f"{row['workload']:<18} "
            f"{base if base is not None else '-':>12} "
            f"{new if new is not None else '-':>12} "
            f"{f'{delta:+.1%}' if delta is not None else '-':>8}  {verdict}"
        )
    lines.append(
        f"tolerance: -{comparison['tolerance']:.0%} -> "
        + ("FAIL" if comparison["regressed"] else "PASS")
    )
    return "\n".join(lines)


def write_report(report: dict[str, Any], out_path: str | Path) -> Path:
    """Write the report as JSON and return the path."""
    path = Path(out_path)
    path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path
