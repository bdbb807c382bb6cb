"""The consolidated command-line front door: ``python -m repro``.

Seven subcommands, all thin shims over :class:`repro.api.SimulationService`:

``run``
    Execute one :class:`~repro.api.RunRequest` — scenario, scheme,
    adversary, ``--set`` parameter overrides, seed/repeats — and print a
    summary table (or the full JSON result with ``--json``).
``serve``
    The long-lived JSON-over-HTTP reputation service
    (:mod:`repro.api.server`): submit runs, stream progress events, query
    reputation persisted in a durable store (:mod:`repro.storage`) that
    survives restarts.
``trace``
    The trace engine: ``record`` a run's event trace, ``replay`` it under
    the same or a modified configuration, ``diff`` two traces down to the
    first diverging event, and ``fuzz`` seeded random-but-valid scenarios
    through property-based invariant checks.
``experiment``
    The experiment suite (tables/figures of the paper).
``report``
    The consolidated report: robustness matrix, detection quality and the
    committed hot-path benchmark in one JSON + Markdown artifact.
``bench``
    The hot-path benchmark suite: tx/s per end-to-end workload plus ring,
    assignment-lookup and EigenTrust microbenchmarks, with a ``--compare``
    regression gate against a committed report.
``catalogue``
    Every registry — reputation schemes, scenarios, adversaries,
    experiments, fuzz generators — as text or ``--json``.

Error handling is uniform: any name that fails to resolve against a
registry (scheme, scenario, adversary, experiment, trace file) exits with
code 2 and a did-you-mean hint on stderr, whatever subcommand it came
through.  ``--set`` accepts flat :class:`SimulationParameters` fields and
dotted adversary fields (``adversary.count=8``,
``adversary.options.waves=2``); any other dotted key exits 2 instead of
being dropped.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Mapping

from .analysis.tables import format_table
from .api import RunRequest, SimulationService, UnknownNameError, summary_digest
from .api.catalogue import (
    CATALOGUE_SECTIONS,
    catalogue as build_catalogue,
    resolve_adversary,
    resolve_scenario,
    resolve_scheme,
    resolve_trace,
)
from .config import REPUTATION_SCHEMES, SimulationParameters
from .errors import ConfigurationError
from .parallel.executor import BACKENDS

__all__ = ["main", "build_parser"]

_PROG = "python -m repro"


def _stderr(line: str) -> None:
    print(line, file=sys.stderr)


def _add_executor_options(parser: argparse.ArgumentParser) -> None:
    """The executor/cache flags shared by every simulation subcommand."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="simulations to run concurrently (1 = serial)",
    )
    parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default=None,
        help="executor backend (default: serial for --jobs 1, process otherwise)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help=(
            "persist completed runs here, keyed by (params fingerprint, seed), "
            "and skip any run already present"
        ),
    )


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


# --------------------------------------------------------------------- #
# catalogue                                                               #
# --------------------------------------------------------------------- #
def _cmd_catalogue(args: argparse.Namespace) -> int:
    sections = build_catalogue()
    if args.section is not None:
        sections = {args.section: sections[args.section]}
    if args.json:
        print(json.dumps(sections, indent=2, sort_keys=True))
        return 0
    for index, (section, entries) in enumerate(sections.items()):
        if args.section is None:
            if index:
                print()
            print(f"[{section}]")
        for name, description in sorted(entries.items()):
            print(f"{name:24s} {description}")
    return 0


# --------------------------------------------------------------------- #
# run                                                                     #
# --------------------------------------------------------------------- #
def _parse_overrides(
    items: list[str] | None,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Split ``--set`` pairs into flat parameter overrides and dotted keys.

    Flat keys go to ``RunRequest.overrides`` unchanged; dotted keys
    (``adversary.count=8``) are routed onto nested fields by
    :func:`_apply_dotted_overrides` — or rejected loudly there, never
    dropped.
    """
    flat: dict[str, Any] = {}
    dotted: dict[str, Any] = {}
    for item in items or []:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigurationError(f"--set expects KEY=VALUE, got {item!r}")
        try:
            value: Any = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings (e.g. --set bootstrap_mode=open)
        if "." in key:
            dotted[key] = value
        else:
            flat[key] = value
    return flat, dotted


#: Scalar AdversarySpec fields addressable as ``--set adversary.FIELD=...``.
_ADVERSARY_FIELDS: dict[str, Any] = {
    "name": str,
    "count": int,
    "start_time": float,
    "interval": float,
}


def _apply_dotted_overrides(adversary: Any, dotted: Mapping[str, Any]) -> Any:
    """Route dotted ``--set`` keys onto the request's adversary spec.

    ``adversary.name/count/start_time/interval`` replace spec fields and
    ``adversary.options.KNOB`` merges a strategy knob; anything else — an
    unknown root, an unknown adversary field, or ``adversary.*`` without
    ``--adversary`` — raises :class:`ConfigurationError` (CLI exit 2).
    """
    if not dotted:
        return adversary
    for key in dotted:
        root, _, rest = key.partition(".")
        if root != "adversary" or not rest:
            raise ConfigurationError(
                f"--set {key}: dotted keys address the adversary spec only "
                "(adversary.name/count/start_time/interval or "
                "adversary.options.KNOB); SimulationParameters fields take "
                "no dots"
            )
    if adversary is None:
        raise ConfigurationError(
            "--set adversary.* requires an adversary; pass --adversary NAME"
        )
    spec = adversary
    for key, value in dotted.items():
        path = key.split(".")[1:]
        try:
            if len(path) == 1 and path[0] in _ADVERSARY_FIELDS:
                cast = _ADVERSARY_FIELDS[path[0]]
                spec = replace(spec, **{path[0]: cast(value)})
            elif len(path) == 2 and path[0] == "options":
                spec = spec.with_options(**{path[1]: value})
            else:
                raise ConfigurationError(
                    f"--set {key}: unknown adversary field "
                    f"{'.'.join(path)!r}; expected one of "
                    f"{sorted(_ADVERSARY_FIELDS)} or options.KNOB"
                )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"--set {key}: {exc}") from None
    return spec


def _parse_adversary(text: str | None) -> Any:
    if text is None:
        return None
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"--adversary is not valid JSON: {exc}") from None
    return text


def _build_request(
    args: argparse.Namespace, trace: dict[str, Any] | None = None
) -> RunRequest:
    """A validated :class:`RunRequest` from the shared simulation flags."""
    flat, dotted = _parse_overrides(args.set)
    adversary = resolve_adversary(_parse_adversary(args.adversary))
    adversary = _apply_dotted_overrides(adversary, dotted)
    return RunRequest(
        scenario=getattr(args, "scenario", None),
        scheme=args.scheme,
        adversary=adversary,
        overrides=flat,
        scale=args.scale,
        seed=getattr(args, "seed", 1),
        repeats=getattr(args, "repeats", 1),
        label=getattr(args, "label", ""),
        trace=trace,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    request = _build_request(args)
    progress = None if args.quiet else _stderr
    with SimulationService(
        jobs=args.jobs, backend=args.backend, cache=args.cache_dir
    ) as service:
        backend = service.backend
        result = service.run(request, progress=progress)
        if service.cache is not None:
            _stderr(
                f"(run cache: {service.cache.hits} hit(s), "
                f"{service.cache.misses} miss(es) under "
                f"{service.cache.store.root})"
            )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    params = result.params
    print(
        f"{request.run_label()}: {request.repeats} repeat(s) x "
        f"{params.num_transactions:,} transactions, "
        f"scheme={params.reputation_scheme}, "
        f"adversary={params.adversary.name if params.adversary else 'none'}, "
        f"backend={backend}"
    )
    metrics = [
        ("decision success rate", lambda s: s.success_rate),
        ("cooperative arrivals", lambda s: float(s.arrivals_cooperative)),
        ("uncooperative arrivals", lambda s: float(s.arrivals_uncooperative)),
        ("cooperative admitted", lambda s: float(s.admitted_cooperative)),
        ("uncooperative admitted", lambda s: float(s.admitted_uncooperative)),
        ("final community size", lambda s: float(s.final_total)),
        ("final uncooperative fraction", lambda s: s.final_uncooperative_fraction),
    ]
    rows = []
    for name, getter in metrics:
        mean, std = result.mean(getter)
        rows.append([name, f"{mean:.4g}", f"{std:.3g}"])
    print(format_table(["metric", "mean", "std"], rows))
    print(f"digest: {result.digest()}")
    return 0


# --------------------------------------------------------------------- #
# serve                                                                   #
# --------------------------------------------------------------------- #
def _cmd_serve(args: argparse.Namespace) -> int:
    from .api.server import serve

    serve(
        args.store,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        backend=args.backend,
    )
    return 0


# --------------------------------------------------------------------- #
# trace                                                                   #
# --------------------------------------------------------------------- #
def _cmd_trace_record(args: argparse.Namespace) -> int:
    trace = {
        "mode": "record",
        "path": str(args.out),
        "digest_every": args.digest_every,
    }
    request = _build_request(args, trace=trace)
    progress = None if args.quiet else _stderr
    with SimulationService(
        jobs=args.jobs, backend=args.backend, cache=args.cache_dir
    ) as service:
        result = service.run(request, progress=progress)
    digest = summary_digest(result.summary)
    if args.json:
        print(
            json.dumps(
                {
                    "trace": str(args.out),
                    "summary_digest": digest,
                    "fingerprint": request.fingerprint(),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    params = result.params
    print(
        f"recorded {request.run_label()} -> {args.out} "
        f"({params.num_transactions:,} transactions, "
        f"scheme={params.reputation_scheme}, "
        f"adversary={params.adversary.name if params.adversary else 'none'})"
    )
    print(f"summary digest: {digest}")
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    trace: dict[str, Any] = {
        "mode": "replay",
        "path": args.trace,
        "digest_every": args.digest_every,
    }
    if args.record_to is not None:
        trace["record_to"] = str(args.record_to)
    request = _build_request(args, trace=trace)
    # A replay that changes nothing must reproduce the recording bit-for-bit;
    # one that applies deltas is *expected* to diverge (that is the A/B).
    modified = bool(args.scheme or args.adversary or args.set or args.scale != 1.0)
    progress = None if args.quiet else _stderr
    with SimulationService(
        jobs=args.jobs, backend=args.backend, cache=args.cache_dir
    ) as service:
        result = service.run(request, progress=progress)
    recorded_digest = resolve_trace(args.trace).summary_digest
    replay_digest = summary_digest(result.summary)
    identical = bool(recorded_digest) and replay_digest == recorded_digest
    exit_code = 0 if identical or modified else 1
    if args.json:
        print(
            json.dumps(
                {
                    "trace": args.trace,
                    "recorded_digest": recorded_digest,
                    "replay_digest": replay_digest,
                    "identical": identical,
                    "modified": modified,
                    "record_to": (
                        None if args.record_to is None else str(args.record_to)
                    ),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return exit_code
    if identical:
        status = "bit-identical to the recorded run"
    elif modified:
        status = "diverges from the recorded run (expected: the replay modifies it)"
    else:
        status = "DIVERGES from the recorded run"
    print(f"replayed {args.trace}: {status}")
    print(f"recorded digest: {recorded_digest or '(none)'}")
    print(f"replay digest:   {replay_digest}")
    if args.record_to is not None:
        print(f"replay trace written to {args.record_to}")
    if exit_code:
        _stderr(
            "error: an unmodified replay must reproduce the recorded run "
            "bit-for-bit; bisect with `trace replay --record-to` + `trace diff`"
        )
    return exit_code


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    # Imported per command: only the trace subcommands need the differ.
    from .trace import diff_traces

    log_a = resolve_trace(args.a)
    log_b = resolve_trace(args.b)
    divergences = diff_traces(log_a, log_b, limit=args.limit)
    if args.json:
        print(
            json.dumps(
                {
                    "a": args.a,
                    "b": args.b,
                    "identical": not divergences,
                    "limit": args.limit,
                    "divergences": [
                        {
                            "index": divergence.index,
                            "field": divergence.field,
                            "a": divergence.a,
                            "b": divergence.b,
                        }
                        for divergence in divergences
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 1 if divergences else 0
    if not divergences:
        print(f"traces are identical ({len(log_a.records)} records)")
        return 0
    print(f"first divergence: {divergences[0].describe()}")
    for divergence in divergences[1:]:
        print(f"  then {divergence.describe()}")
    if len(divergences) >= args.limit:
        print(f"  (stopped after --limit {args.limit} divergence(s))")
    return 1


def _cmd_trace_fuzz(args: argparse.Namespace) -> int:
    # Imported per command: the fuzzer pulls in the whole engine stack.
    from .workloads.fuzz import FuzzConfig, run_fuzz_batch

    scheme = resolve_scheme(args.scheme) if args.scheme is not None else None
    config = FuzzConfig(
        seed=args.seed,
        count=args.count,
        scheme=scheme,
        max_transactions=args.max_transactions,
        max_initial_peers=args.max_peers,
    )
    progress = None if args.quiet else _stderr
    report = run_fuzz_batch(config, progress=progress)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0 if report.ok else 1
    verdict = (
        "all invariants hold"
        if report.ok
        else f"{report.violation_count} invariant violation(s)"
    )
    print(
        f"fuzzed {len(report.results)} scenario(s) from seed {config.seed}: "
        f"{verdict}"
    )
    for result in report.results:
        for violation in result.violations:
            print(f"  {result.scenario.label}: {violation.describe()}")
    return 0 if report.ok else 1


# --------------------------------------------------------------------- #
# experiment                                                              #
# --------------------------------------------------------------------- #
def _cmd_experiment(args: argparse.Namespace) -> int:
    # Imported per command: only this subcommand needs the experiments
    # package (every figure module) and the result store.
    from .analysis.storage import ResultStore
    from .api.catalogue import resolve_experiment_ids
    from .experiments.runner import render_report

    base_params: SimulationParameters | None = None
    if args.scenario is not None:
        base_params = resolve_scenario(args.scenario, seed=args.seed)
    if args.scheme is not None:
        scheme = resolve_scheme(args.scheme)
        base_params = (
            base_params
            if base_params is not None
            else SimulationParameters(seed=args.seed)
        ).with_overrides(reputation_scheme=scheme)
    only = resolve_experiment_ids(args.only) if args.only is not None else None
    # A named scenario is already sized; only the paper-default base needs the
    # laptop-friendly 0.1 downscale.
    scale = args.scale if args.scale is not None else (
        1.0 if args.scenario is not None else 0.1
    )
    store = ResultStore(args.out) if args.out is not None else None
    with SimulationService(
        jobs=args.jobs, backend=args.backend, cache=args.cache_dir
    ) as service:
        results = service.run_experiments(
            scale=scale,
            repeats=args.repeats,
            seed=args.seed,
            only=only,
            store=store,
            progress=_stderr,
            base_params=base_params,
            throughput=args.throughput,
        )
        cache = service.cache
    report = render_report(results)
    print(report)
    if store is not None:
        report_path = store.root / "report.md"
        report_path.write_text(report, encoding="utf-8")
        _stderr(f"(report written to {report_path})")
    if cache is not None:
        _stderr(
            f"(run cache: {cache.hits} hit(s), {cache.misses} miss(es) "
            f"under {cache.store.root})"
        )
    failures = sum(
        1
        for result in results.values()
        for check in result.checks
        if not check.passed
    )
    return 1 if failures else 0


# --------------------------------------------------------------------- #
# report                                                                  #
# --------------------------------------------------------------------- #
def _cmd_report(args: argparse.Namespace) -> int:
    # Imported per command: the report generator pulls in the experiments
    # package (every figure module), which no other subcommand needs.
    from .report import (
        generate_report,
        render_json,
        render_markdown,
        resolve_report_sections,
        write_report,
    )

    sections = resolve_report_sections(args.sections)
    base_params: SimulationParameters | None = None
    if args.scenario is not None:
        base_params = resolve_scenario(args.scenario, seed=args.seed)
    # Mirrors `experiment`: a named scenario is already sized; only the
    # paper-default base needs the laptop-friendly 0.1 downscale.
    scale = args.scale if args.scale is not None else (
        1.0 if args.scenario is not None else 0.1
    )
    with SimulationService(
        jobs=args.jobs, backend=args.backend, cache=args.cache_dir
    ) as service:
        document = generate_report(
            sections,
            service=service,
            scale=scale,
            repeats=args.repeats,
            seed=args.seed,
            base_params=base_params,
            schemes=args.schemes,
            attacks=args.attacks,
            bench_path=args.bench,
            progress=_stderr,
        )
    print(render_json(document) if args.json else render_markdown(document), end="")
    if args.out is not None:
        json_path, markdown_path = write_report(document, args.out)
        _stderr(f"(report written to {json_path} and {markdown_path})")
    return 1 if document["checks"]["failed"] else 0


# --------------------------------------------------------------------- #
# bench                                                                   #
# --------------------------------------------------------------------- #
def _cmd_bench(args: argparse.Namespace) -> int:
    # Imported per command: only this subcommand needs the bench package.
    from .bench.hotpath import (
        HotpathBenchConfig,
        compare_reports,
        format_compare_table,
        write_report,
    )

    if args.quick:
        config = HotpathBenchConfig.quick()
    else:
        config = HotpathBenchConfig(
            num_transactions=args.transactions,
            seed=args.seed,
        )
    if args.warmup is not None:
        config = replace(config, warmup=args.warmup)

    _stderr(
        f"benchmarking hot path ({config.num_transactions:,} transactions "
        f"per end-to-end run, ring sizes {list(config.ring_sizes)}) ..."
    )
    with SimulationService() as service:
        report = service.bench(config)
    path = write_report(report, args.out)

    for row in report["end_to_end"]:
        print(f"{row['workload']:16s} {row['tx_per_sec']:>10,.0f} tx/s")
    for row in report["micro"]["ring_ops"]:
        print(f"ring n={row['ring_size']:<6d} {row['us_per_op']:>6.1f} us/op")
    lookup = report["micro"]["assignment_lookup"]
    print(
        f"assignment lookup: cold {lookup['cold_us_per_lookup']:.1f} us, "
        f"cached {lookup['cached_us_per_lookup']:.1f} us "
        f"({lookup['cache_speedup']:.0f}x); one join evicted "
        f"{lookup['targeted_eviction']['evicted_by_one_join']} of "
        f"{lookup['targeted_eviction']['cached_subjects']} cached subjects"
    )
    print(f"report written to {path}")
    if args.compare is not None:
        try:
            baseline = json.loads(Path(args.compare).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            _stderr(f"error: cannot read baseline report {args.compare}: {exc}")
            return 2
        comparison = compare_reports(baseline, report, tolerance=args.tolerance)
        print(format_compare_table(comparison))
        if comparison["regressed"]:
            _stderr(
                f"ERROR: throughput regressed more than "
                f"{args.tolerance:.0%} vs {args.compare}"
            )
            return 1
    return 0


# --------------------------------------------------------------------- #
# Parser assembly                                                         #
# --------------------------------------------------------------------- #
def _add_delta_options(parser: argparse.ArgumentParser) -> None:
    """The request-shaping flags shared by ``run``, ``trace record`` and
    ``trace replay`` (where they express the A/B delta against the trace)."""
    parser.add_argument(
        "--scheme",
        default=None,
        help=f"reputation backend (one of: {', '.join(REPUTATION_SCHEMES)})",
    )
    parser.add_argument(
        "--adversary",
        default=None,
        help=(
            "adversary strategy name, or a JSON AdversarySpec object "
            '(e.g. \'{"name": "sybil_swarm", "count": 8}\')'
        ),
    )
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help=(
            "override one SimulationParameters field, or a dotted adversary "
            "field (adversary.count=8, adversary.options.KNOB=...) "
            "(repeatable)"
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="horizon scaling applied after everything else (default: 1.0)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (one subparser per workflow)."""
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description=(
            "Reputation-lending reproduction: run simulations, regenerate "
            "the paper's experiments, benchmark the hot path, or list every "
            "registry — all through the repro.api service layer."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run",
        help="run one simulation configuration and summarise the outcome",
    )
    run_parser.add_argument(
        "--scenario",
        default=None,
        help="base parameters from the scenario registry (default: Table 1)",
    )
    _add_delta_options(run_parser)
    run_parser.add_argument("--seed", type=int, default=1, help="master seed")
    run_parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="independent repetitions (each with its own derived seed)",
    )
    run_parser.add_argument(
        "--label", default="", help="tag used in progress lines and derived seeds"
    )
    run_parser.add_argument(
        "--json",
        action="store_true",
        help="print the full RunResult document instead of the summary table",
    )
    run_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress on stderr"
    )
    _add_executor_options(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    serve_parser = subparsers.add_parser(
        "serve",
        help=(
            "run the long-lived JSON-over-HTTP reputation service backed by "
            "a durable store (submit runs, stream progress, query persisted "
            "reputation)"
        ),
    )
    serve_parser.add_argument(
        "--store",
        required=True,
        help=(
            "durable store URL (sqlite://path, memory://name) or a bare "
            "sqlite database path; reputation state survives restarts here"
        ),
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve_parser.add_argument(
        "--port",
        type=_nonnegative_int,
        default=8737,
        help="TCP port (0 picks a free port; the chosen one is announced)",
    )
    serve_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="simulations to run concurrently (1 = serial)",
    )
    serve_parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default=None,
        help=(
            "executor backend; memory:// stores force an in-process backend, "
            "file-backed stores default like --jobs everywhere else"
        ),
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    trace_parser = subparsers.add_parser(
        "trace",
        help="record, replay, diff and fuzz simulation event traces",
    )
    trace_subparsers = trace_parser.add_subparsers(
        dest="trace_command", required=True
    )

    record_parser = trace_subparsers.add_parser(
        "record",
        help="run one simulation and capture its event trace to a file",
    )
    record_parser.add_argument(
        "--scenario",
        default=None,
        help="base parameters from the scenario registry (default: Table 1)",
    )
    _add_delta_options(record_parser)
    record_parser.add_argument("--seed", type=int, default=1, help="master seed")
    record_parser.add_argument(
        "--label", default="", help="tag used in progress lines and derived seeds"
    )
    record_parser.add_argument(
        "--out",
        type=Path,
        required=True,
        help="trace file to write (JSONL; parent directories are created)",
    )
    record_parser.add_argument(
        "--digest-every",
        type=_positive_int,
        default=1,
        help=(
            "capture a full state digest every N trace records "
            "(1 = every record, the most precise bisection)"
        ),
    )
    record_parser.add_argument(
        "--json",
        action="store_true",
        help="print {trace, summary_digest, fingerprint} instead of prose",
    )
    record_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress on stderr"
    )
    _add_executor_options(record_parser)
    record_parser.set_defaults(handler=_cmd_trace_record)

    replay_parser = trace_subparsers.add_parser(
        "replay",
        help=(
            "re-inject a recorded trace — unmodified (must reproduce the "
            "recorded digest) or under a modified scheme/knobs (an exact A/B)"
        ),
    )
    replay_parser.add_argument("trace", help="trace file to replay")
    _add_delta_options(replay_parser)
    replay_parser.add_argument(
        "--record-to",
        type=Path,
        default=None,
        help="also record the replayed run's trace here (for `trace diff`)",
    )
    replay_parser.add_argument(
        "--digest-every",
        type=_positive_int,
        default=1,
        help="state-digest cadence of the re-recorded trace (with --record-to)",
    )
    replay_parser.add_argument(
        "--json",
        action="store_true",
        help="print the digest comparison as JSON",
    )
    replay_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress on stderr"
    )
    _add_executor_options(replay_parser)
    replay_parser.set_defaults(handler=_cmd_trace_replay)

    diff_parser = trace_subparsers.add_parser(
        "diff",
        help="bisect two traces: report the first record where they diverge",
    )
    diff_parser.add_argument("a", help="baseline trace file")
    diff_parser.add_argument("b", help="comparison trace file")
    diff_parser.add_argument(
        "--limit",
        type=_positive_int,
        default=10,
        help="maximum divergences to report (default: 10)",
    )
    diff_parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable divergence list",
    )
    diff_parser.set_defaults(handler=_cmd_trace_diff)

    fuzz_parser = trace_subparsers.add_parser(
        "fuzz",
        help=(
            "run seeded random-but-valid scenarios through property-based "
            "invariant checks"
        ),
    )
    fuzz_parser.add_argument(
        "--count",
        type=_positive_int,
        default=25,
        help="scenarios to generate and run (default: 25)",
    )
    fuzz_parser.add_argument(
        "--seed",
        type=int,
        default=1,
        help="master seed (scenario i derives from (seed, 'fuzz', i))",
    )
    fuzz_parser.add_argument(
        "--scheme",
        default=None,
        help="pin every scenario to one scheme (default: random per scenario)",
    )
    fuzz_parser.add_argument(
        "--max-transactions",
        type=int,
        default=1200,
        help="cap on each scenario's drawn horizon (default: 1200)",
    )
    fuzz_parser.add_argument(
        "--max-peers",
        type=int,
        default=60,
        dest="max_peers",
        help="cap on each scenario's drawn initial population (default: 60)",
    )
    fuzz_parser.add_argument(
        "--json",
        action="store_true",
        help="print the full fuzz report as JSON",
    )
    fuzz_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-scenario progress on stderr",
    )
    fuzz_parser.set_defaults(handler=_cmd_trace_fuzz)

    experiment_parser = subparsers.add_parser(
        "experiment",
        help="regenerate the paper's tables and figures",
    )
    experiment_parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help=(
            "fraction of the base horizon (default: 0.1 of the paper's 500k "
            "transactions, or 1.0 when --scenario already sizes the run)"
        ),
    )
    experiment_parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="independent repetitions per sweep point",
    )
    experiment_parser.add_argument("--seed", type=int, default=1, help="master seed")
    experiment_parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        help="subset of experiment ids to run (see `catalogue experiments`)",
    )
    experiment_parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory for JSON results and the Markdown report",
    )
    experiment_parser.add_argument(
        "--scenario",
        default=None,
        help="base parameters from the scenario registry",
    )
    experiment_parser.add_argument(
        "--scheme",
        default=None,
        help=f"reputation backend (one of: {', '.join(REPUTATION_SCHEMES)})",
    )
    experiment_parser.add_argument(
        "--throughput",
        action="store_true",
        help=(
            "print transactions/sec for every completed simulation run "
            "(cache hits are not re-reported)"
        ),
    )
    _add_executor_options(experiment_parser)
    experiment_parser.set_defaults(handler=_cmd_experiment)

    report_parser = subparsers.add_parser(
        "report",
        help=(
            "consolidated cross-run report: robustness matrix + detection "
            "quality + the committed hot-path benchmark in one artifact"
        ),
    )
    report_parser.add_argument(
        "--sections",
        nargs="*",
        default=None,
        help="subset of report sections (robustness, detection, bench)",
    )
    report_parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help=(
            "fraction of the base horizon (default: 0.1 of the paper's 500k "
            "transactions, or 1.0 when --scenario already sizes the run)"
        ),
    )
    report_parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="independent repetitions per grid cell",
    )
    report_parser.add_argument("--seed", type=int, default=1, help="master seed")
    report_parser.add_argument(
        "--scenario",
        default=None,
        help="base parameters from the scenario registry",
    )
    report_parser.add_argument(
        "--schemes",
        nargs="*",
        default=None,
        help="restrict both grid experiments to these reputation schemes",
    )
    report_parser.add_argument(
        "--attacks",
        nargs="*",
        default=None,
        help="restrict both grid experiments to these adversary strategies",
    )
    report_parser.add_argument(
        "--bench",
        default="BENCH_hotpath.json",
        help=(
            "committed benchmark report for the bench section "
            "(default: ./BENCH_hotpath.json; missing file degrades to a note)"
        ),
    )
    report_parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory for report.json and report.md",
    )
    report_parser.add_argument(
        "--json",
        action="store_true",
        help="print the JSON document instead of the Markdown rendering",
    )
    _add_executor_options(report_parser)
    report_parser.set_defaults(handler=_cmd_report)

    bench_parser = subparsers.add_parser(
        "bench",
        help="benchmark the membership-change hot path and write a JSON report",
    )
    bench_parser.add_argument(
        "--out",
        default="BENCH_hotpath.json",
        help="where to write the JSON report (default: ./BENCH_hotpath.json)",
    )
    bench_parser.add_argument(
        "--transactions",
        type=int,
        default=5_000,
        help="horizon of each end-to-end workload run (default: 5000)",
    )
    bench_parser.add_argument("--seed", type=int, default=1, help="master seed")
    bench_parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny sizes for CI smoke runs (overrides --transactions; "
        "runs with 0 warmup iterations)",
    )
    bench_parser.add_argument(
        "--warmup",
        type=_nonnegative_int,
        default=None,
        help="untimed end-to-end runs before each timed one "
        "(default: 1, or 0 with --quick)",
    )
    bench_parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE.json",
        help=(
            "after benchmarking, compare per-workload tx/s against this "
            "committed report and exit 1 on a regression beyond --tolerance"
        ),
    )
    bench_parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help=(
            "fractional throughput drop tolerated by --compare before the "
            "gate fails (default: 0.25)"
        ),
    )
    bench_parser.set_defaults(handler=_cmd_bench)

    catalogue_parser = subparsers.add_parser(
        "catalogue",
        help="list every registry: schemes, scenarios, adversaries, experiments",
    )
    catalogue_parser.add_argument(
        "section",
        nargs="?",
        choices=list(CATALOGUE_SECTIONS),
        default=None,
        help="restrict the listing to one registry (default: all)",
    )
    catalogue_parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (always {section: {name: description}})",
    )
    catalogue_parser.set_defaults(handler=_cmd_catalogue)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes: 0 success, 1 a run that completed but failed its check —
    experiment shape-checks, a bench regression under ``--compare``, an
    unmodified replay that did not reproduce the recording, divergent traces
    under ``trace diff``, fuzz invariant violations — and 2 anything that
    failed to validate: unknown names (with a did-you-mean hint), malformed
    values, bad flag combinations.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UnknownNameError as exc:
        _stderr(f"error: {exc}")
        return 2
    except ConfigurationError as exc:
        _stderr(f"error: {exc}")
        return 2
