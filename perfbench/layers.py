"""The layers a traced run times, and the per-layer metrics it reports.

Every span names one layer boundary of the program.  Classes are reached
through a constructed object (``type(sim.store)``, ``type(sim.events)``, ...)
rather than imported by name, so the benchmark keeps measuring when the
implementation behind one of these attributes is replaced or deleted.
"""

from __future__ import annotations

__all__ = [
    "SIM_SPANS",
    "SERVE_SPANS",
    "SPANS",
    "STORE_COUNTERS",
    "EXACT_COUNTS",
    "install_sim_spans",
    "install_serve_spans",
    "store_counts",
    "layer_metrics",
]

#: ``(span, how to reach an instance from a probe Simulation, methods)``.
SIM_SPANS = (
    ("sim.run", lambda sim: sim, ("run",)),
    ("sim.transactions", lambda sim: sim.transactions, ("execute",)),
    ("sim.event_queue", lambda sim: sim.events, ("schedule", "pop")),
    ("sim.arrivals", lambda sim: sim.factory, ("create_arrival",)),
    ("sim.arrivals", lambda sim: sim.arrivals, ("next_arrival_after",)),
    ("rocq.report_delivery", lambda sim: sim.store, ("submit_report_batch",)),
    (
        "rocq.reputation_query",
        lambda sim: sim.store,
        ("global_reputation", "reputations_for"),
    ),
    ("rocq.membership", lambda sim: sim.store, ("membership_changed",)),
    ("rocq.adjustment", lambda sim: sim.store, ("apply_adjustment", "set_reputation")),
    (
        "rocq.opinions",
        lambda sim: sim.factory.create_founder().opinions,
        ("record_interaction",),
    ),
    ("overlay.ring", lambda sim: sim.ring, ("join", "leave")),
    ("overlay.assignment", lambda sim: sim.assignment, ("assignment_details",)),
    (
        "core.admission",
        lambda sim: sim.admission,
        ("request_admission", "resolve", "grant_initial_standing"),
    ),
    ("core.lending", lambda sim: sim.lending, ("note_transaction", "lend", "settle")),
    ("metrics.sample", lambda sim: sim.metrics, ("sample",)),
    (
        "topology.sample",
        lambda sim: sim.topology,
        ("sample_respondent", "sample_introducer"),
    ),
    ("topology.membership", lambda sim: sim.topology, ("add_member", "remove_member")),
    (
        "peers.population",
        lambda sim: sim.population,
        ("admit", "reject", "depart", "create_peer"),
    ),
)

#: Spans only serve_mixed reaches; ``launcher.py`` installs them.
SERVE_SPANS = (
    "api.submit",
    "storage.get_peer",
    "storage.save_state",
    "storage.upsert_peers",
    "storage.checkpoint",
)

SPANS = tuple(dict.fromkeys(span for span, _, _ in SIM_SPANS)) + SERVE_SPANS

#: Public counters of the ROCQ store, read after a run.
STORE_COUNTERS = (
    "reports_delivered",
    "adjustments_delivered",
    "targeted_evictions",
    "targeted_patches",
    "full_invalidations",
)

#: Counts read off the store after a run.
RECORD_COUNTS = tuple(f"rocq.{name}" for name in STORE_COUNTERS) + (
    "rocq.credibility_records",
    "rocq.reputation_records",
)

#: Per-layer metrics besides span calls that must repeat exactly for a seed.
EXACT_COUNTS = RECORD_COUNTS + ("rocq.sample_miss_ratio", "overlay.resolves_per_change")

_GATHERED = "subjects_gathered"
_MISSES = "sample_misses"


def _count_gathered(state, args) -> None:
    """``reputations_for(subjects)``: count the subjects one gather asks for."""
    state.counts[_GATHERED] = state.counts.get(_GATHERED, 0) + len(args[1])


def _count_sample_miss(state, args) -> None:
    """``global_reputation`` called straight from ``reputations_for``: a miss."""
    stack = state.stack
    if stack and stack[-1][1].endswith(".reputations_for"):
        state.counts[_MISSES] = state.counts.get(_MISSES, 0) + 1


_HOOKS = {"reputations_for": _count_gathered, "global_reputation": _count_sample_miss}


def install_sim_spans(tracer, params, run_before=None, run_after=None) -> None:
    """Wrap every simulation layer of :data:`SIM_SPANS` at class level.

    A throwaway ``Simulation`` of ``params`` supplies the classes; the
    measured one must be built afterwards, because its constructor hoists
    bound methods.  ``run_before``/``run_after`` are hooks on
    ``Simulation.run`` (the server harness times run waits with them).
    """
    from repro.sim.engine import Simulation

    probe = Simulation(params)
    for span, reach, methods in SIM_SPANS:
        cls = type(reach(probe))
        for method in methods:
            before, after = _HOOKS.get(method), None
            if span == "sim.run":
                before, after = run_before, run_after
            tracer.wrap(cls, method, span, before=before, after=after)


def install_serve_spans(tracer, store_url: str, submit_after=None) -> None:
    """Wrap the service and storage layers of :data:`SERVE_SPANS`.

    The store class is the one ``make_store`` returns for ``store_url``, so
    the spans follow whichever driver the server will open.
    ``submit_after`` is a hook on ``SimulationService.submit``.
    """
    from repro.api import SimulationService
    from repro.storage import BackendPersistence, make_store

    tracer.wrap(SimulationService, "submit", "api.submit", after=submit_after)
    probe = make_store(store_url)
    store_class = type(probe)
    probe.close()
    for method in ("get_peer", "save_state", "upsert_peers"):
        tracer.wrap(store_class, method, f"storage.{method}")
    tracer.wrap(BackendPersistence, "checkpoint", "storage.checkpoint")


def store_counts(store) -> dict[str, int]:
    """Exact counts of a ROCQ store: its public counters and its records."""
    counts = {f"rocq.{name}": getattr(store, name) for name in STORE_COUNTERS}
    managers = store.export_state()["managers"].values()
    counts["rocq.credibility_records"] = sum(len(m["credibility"]) for m in managers)
    counts["rocq.reputation_records"] = sum(len(m["records"]) for m in managers)
    return counts


def layer_metrics(spans: dict, counts: dict) -> dict[str, float]:
    """Per-layer metrics from a run's spans and counters.

    A span the workload never entered reports zero calls and zero time.
    """
    metrics: dict[str, float] = {}
    for span in SPANS:
        entry = spans.get(span, {})
        metrics[f"{span}.calls"] = entry.get("calls", 0)
        metrics[f"{span}.self_s"] = entry.get("self_s", 0.0)
        metrics[f"{span}.total_s"] = entry.get("total_s", 0.0)
    for name in RECORD_COUNTS:
        metrics[name] = counts.get(name, 0)
    gathered = counts.get(_GATHERED, 0)
    metrics["rocq.sample_miss_ratio"] = (
        counts.get(_MISSES, 0) / gathered if gathered else 0.0
    )
    changes = metrics["overlay.ring.calls"]
    metrics["overlay.resolves_per_change"] = (
        metrics["overlay.assignment.calls"] / changes if changes else 0.0
    )
    run_total = metrics["sim.run.total_s"]
    metrics["trace.coverage"] = (
        1.0 - metrics["sim.run.self_s"] / run_total if run_total else 0.0
    )
    return metrics
