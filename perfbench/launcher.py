"""``repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/launcher.py --store PATH --spans OUT.json

Installs the wrappers at class level, then calls
``repro.api.server.serve`` on an ephemeral port, which announces itself on
stdout exactly like ``python -m repro serve``.  Once the server has shut
down, the spans, counters and run waits go to ``OUT.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    from layers import install_serve_spans, install_sim_spans, store_counts
    from repro.api.server import serve
    from repro.workloads.registry import get_scenario
    from serve import RUN_SCENARIO
    from tracing import SpanTracer

    tracer = SpanTracer()
    # Runs execute one at a time (serial executor), so the i-th submit pairs
    # with the i-th Simulation.run start.
    submitted: list[float] = []
    started: list[float] = []

    def run_finished(state, call_args) -> None:
        for name, value in store_counts(call_args[0].store).items():
            state.counts[name] = state.counts.get(name, 0) + value

    install_sim_spans(
        tracer,
        get_scenario(RUN_SCENARIO),
        run_before=lambda state, call_args: started.append(time.perf_counter()),
        run_after=run_finished,
    )
    install_serve_spans(
        tracer,
        args.store,
        submit_after=lambda state, call_args: submitted.append(time.perf_counter()),
    )
    try:
        serve(args.store, port=0)
    finally:
        tracer.uninstall()
        document = {
            "spans": tracer.spans(),
            "counts": tracer.counts(),
            "run_waits_s": [run - sub for sub, run in zip(submitted, started)],
        }
        Path(args.spans).write_text(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
